#!/usr/bin/env python3
"""Reduce the 2D minimization to a 1D profile problem.

On strict-margin instances the minimizer is a rotation-swept profile, so
minimizing over t-profiles gamma of the swept field A(phi)^T gamma(t)
reproduces the 2D minimum.  The descent evaluates the reduced functional
on the profile alone (energy.ProfileFunctional); its closed form equals
the 2D energy of the swept field to rounding at matched discretization.

Run:  python3 demos/04_profile_reduction.py
"""
import numpy as np

from axisym.energy import (
    ProfileFunctional, aniso_constant_e3, make_params, quadratic_potential,
    weight_constant,
)
from axisym.geometry import build_mesh, surface
from axisym.solvers import (
    SolveConfig, minimize_1d_profile, minimize_2d, profile_energy,
)

mesh = build_mesh(surface("cylinder", radius=2.0), 32, 24)
target = surface("sphere")
params = make_params(mesh, target, quadratic_potential(1.0),
                     aniso_constant_e3(mesh), weight_constant(mesh, 1.0))

cfg = SolveConfig(restarts=3, seed=0, max_iters=5000, grad_tol=1e-8)
rep2d = minimize_2d(mesh, target, params, cfg)
rep1d = minimize_1d_profile(mesh, target, params, "symmetric", cfg)

print(f"2D minimum : {rep2d.best_energy.total:.8f}")
print(f"1D minimum : {rep1d.best_energy.total:.8f}")
gap = abs(rep1d.best_energy.total - rep2d.best_energy.total) \
    / abs(rep2d.best_energy.total)
print(f"relative gap: {gap:.2e}  (theorem: the 1D reduction is exact)")

gamma = rep1d.best_profile.values
swept = profile_energy(mesh, target, params, rep1d.best_profile).total
reduced = ProfileFunctional(mesh, params, "symmetric").value(gamma)
print(f"\nreduced value vs 2D energy of the swept best profile: "
      f"{abs(reduced - swept):.2e}")

print("\nbest profile (t, gx, gy, gz) every 4th node:")
for j in range(0, mesh.n_t, 4):
    print(f"  t={mesh.t[j]:.3f}  ({gamma[j,0]:+.4f}, {gamma[j,1]:+.4f}, "
          f"{gamma[j,2]:+.4f})")
