"""decem: Whitney-form exterior calculus for Maxwell fields on obstacle geometries.

Modules
-------
mesh         simplicial complexes, obstacle carving, gluing
geometries   canned obstacle scenarios on structured meshes
forms        incidence and weighted mass matrices, codifferential, masks
spectral     Hodge Laplacians, operator functions, the Q_eps projector
topology     exact relative cohomology over the rationals
hodge        harmonic bases, capacity mode, Helmholtz split
timeprofiles compactly supported time profiles, impulses, oscillatory moments
maxwell      spectral Cauchy evolution of the Maxwell system
qft          Krein structure, propagator pairings, quasifree n-point values
stress       renormalised stress-energy versus the reference state
io           the sparse triplet writer of export-matrices
cli          scenario runner
"""

__version__ = "0.1.0"

from .forms import DecOperators, MaterialField
from .mesh import (
    ObstacleScenario,
    SimplicialComplex,
    boundary_components,
    carve_obstacle,
    load_complex,
)

__all__ = [
    "DecOperators",
    "MaterialField",
    "ObstacleScenario",
    "SimplicialComplex",
    "boundary_components",
    "carve_obstacle",
    "load_complex",
    "__version__",
]
