#!/usr/bin/env python3
"""Tour of the geometry layer: curves, meshes, normals, projections.

Run:  python3 demos/01_geometry_tour.py
"""
import numpy as np

from axisym.geometry import (
    build_mesh, never_flat_check, project_points, rotate, surface,
    surface_normal, tangent_project_points,
)

# Surfaces of revolution come from planar generating curves.  Presets cover
# the usual suspects; user curves enter as cubic splines of (t, x, z) tables.
for name in ("sphere", "cylinder", "annulus", "disk", "torus_band",
             "ellipsoid_band"):
    surf = surface(name)
    mesh = build_mesh(surf, 64, 64)
    flat = never_flat_check(surf)
    print(f"{name:16s} area={mesh.area():9.5f}  never_flat={flat.ok}")

# The sphere area converges at second order in the t resolution:
for n in (16, 32, 64, 128):
    mesh = build_mesh(surface("sphere"), 16, n)
    print(f"  n_t={n:4d}  area error = {abs(mesh.area() - 4*np.pi):.3e}")

# Rotations about the vertical axis generate every circle of latitude.
v = np.array([1.0, 0.0, 0.5])
print("\nrotate(pi/2, (1,0,0.5)) =", rotate(np.pi / 2, v).round(12))

# Closest-point projection is the retraction used by the solvers.
sphere = surface("sphere")
print("project (0.3, 0.4, 0) onto the unit sphere:",
      project_points(sphere, [0.3, 0.4, 0.0])[0].round(12))
torus = surface("torus_band")
print("project (4, 0, 0) onto the torus band:",
      project_points(torus, [4.0, 0.0, 0.0])[0].round(12))

# Tangent projections drop the normal component at a target point.
print("tangent part of (1,2,3) at the north pole:",
      tangent_project_points(sphere, [0.0, 0.0, 1.0], [1.0, 2.0, 3.0]).round(12))

# Mesh normals are axially symmetric by construction.
mesh = build_mesh(surface("sphere"), 16, 8)
nu = surface_normal(mesh)
print("\nnormal at (phi_0, t_0):", nu[0, 0].round(6),
      "— radial up to sign on the unit sphere")
