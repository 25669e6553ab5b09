#!/usr/bin/env python3
"""The energy functional and the symmetrization inequality chain.

A random target-valued field m is never below its rotation-replicated best
slice u in energy once the circular weight satisfies h1(t) W(t) >= sqrt(2 pi):

    E(u)  <=  mean slice value  <=  mean + penalty swap  <=  E(m).

Run:  python3 demos/02_energy_and_symmetrization.py
"""
import numpy as np

from axisym.energy import (
    aniso_surface_normal, chain_terms, hypothesis_margin, make_params,
    quartic_potential, total_energy, weight_margin_profile,
)
from axisym.fields import random_field
from axisym.geometry import build_mesh, surface
from axisym.solvers import symmetrize_and_certify

mesh = build_mesh(surface("sphere"), 48, 32)
target = surface("sphere")
params = make_params(mesh, target, quartic_potential(5.0),
                     aniso_surface_normal(mesh),
                     weight_margin_profile(mesh, 1.5))

margin = hypothesis_margin(mesh, params.weight)
print(f"hypothesis margin: min h1 W = {margin.min_h1w:.6f} "
      f"(sqrt(2 pi) = {np.sqrt(2*np.pi):.6f}, strict = {margin.strict})")

m = random_field(mesh, target, seed=7)
bd = total_energy(m, params)
print(f"\nrandom field:  dirichlet={bd.dirichlet:.4f}  "
      f"anisotropy={bd.anisotropy:.4f}  penalty={bd.penalty:.4f}  "
      f"total={bd.total:.4f}")

ct = chain_terms(m, params)
phi_e, phi_star = ct.slice_energies, ct.phi_star
print(f"slice functional: min={phi_e.min():.4f} at phi*={phi_star:.4f}, "
      f"mean={phi_e.mean():.4f}")

u, chain = symmetrize_and_certify(m, params, "symmetric")
print(f"\nsymmetrized:   total={chain.energy_u.total:.4f} "
      f"(was {chain.energy_m.total:.4f})")
print("chain residuals (all must be >= 0):")
for key, val in chain.residuals.items():
    print(f"  {key:20s} {val:+.3e}")
print(f"certified: {chain.certified}")
