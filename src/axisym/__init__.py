"""axisym: energy minimization and symmetry certification for vector fields
on surfaces of revolution."""

# cli is left out so that `python -m axisym.cli` does not find it imported
from . import energy, fields, geometry, solvers, verify  # noqa: F401

__version__ = "0.1.0"
