#!/usr/bin/env python3
"""Minimize the energy on the unit sphere in the easy-normal regime.

With a = surface normal and a potential rewarding |m . a| = 1, the ground
state is +-n with Dirichlet energy 8 pi, and the best found field collapses
onto the first-harmonic mode structure.

Run:  python3 demos/03_minimize_sphere.py        (about a second)
"""
import numpy as np

from axisym.energy import (
    aniso_surface_normal, easy_normal_potential, make_params, weight_zero,
)
from axisym.geometry import build_mesh, surface, surface_normal
from axisym.solvers import SolveConfig, minimize_2d

mesh = build_mesh(surface("sphere"), 32, 32)
target = surface("sphere")
params = make_params(mesh, target, easy_normal_potential(20.0),
                     aniso_surface_normal(mesh), weight_zero(mesh))

report = minimize_2d(mesh, target, params,
                     SolveConfig(restarts=2, seed=0, max_iters=8000))
print(f"best energy  : {report.best_energy.total:.6f}   (8 pi = {8*np.pi:.6f})")
print(f"restarts     : {[f'{e:.4f}' for e in report.restart_energies]}")
print(f"converged    : {report.converged}")
print(f"stop reasons : {report.stop_reasons}   iterations {report.iterations}")

nu = surface_normal(mesh)
dists = [float(np.sqrt(np.sum(mesh.quad_weights
                              * np.sum((report.best_field.values - s * nu) ** 2, -1))))
         for s in (1.0, -1.0)]
print(f"L2 distance to +n / -n: {dists[0]:.4f} / {dists[1]:.4f}")

d = report.diagnostics
print("\nmode structure of the best field:")
print(f"  residual above first harmonics / total : {d['residual_over_total']:.2e}")
print(f"  max ring mean of the horizontal part   : {d['null_average_norm']:.2e}")
print(f"  line-symmetry labels                   : "
      f"{sorted(set(d['line_symmetry_labels']))}")
