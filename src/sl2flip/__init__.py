"""Exact invariants of normal affine quasihomogeneous SL(2)-threefolds.

A variety in this family is pinned down by a height h = p/q and a degree
m.  From that datum the package computes, in exact arithmetic throughout:
the Cox presentation, orbit structure, divisor class group, canonical
class, the flip diagram with its intersection numbers, GIT semistable
loci, slice-surface singularities, colored cones, and the toric
degeneration.  Start with :func:`derive_params`.  A failed cross-check
raises :class:`CrossCheckError`, also under python -O.
"""

from .sl2core import (
    CanonicalClass,
    ColoredConeData,
    CoxPresentation,
    CrossCheckError,
    DivisorClassGroup,
    FlipReport,
    SL2Params,
    ToricDegeneration,
    canonical_class,
    class_group,
    colored_cones,
    cox_presentation,
    derive_params,
    embedding_data,
    flip_report,
    intersection_numbers,
    is_smooth,
    is_toric,
    iter_instances,
    orbit_structure,
    slice_surfaces,
    toric_degeneration,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalClass",
    "ColoredConeData",
    "CoxPresentation",
    "CrossCheckError",
    "DivisorClassGroup",
    "FlipReport",
    "SL2Params",
    "ToricDegeneration",
    "canonical_class",
    "class_group",
    "colored_cones",
    "cox_presentation",
    "derive_params",
    "embedding_data",
    "flip_report",
    "intersection_numbers",
    "is_smooth",
    "is_toric",
    "iter_instances",
    "orbit_structure",
    "slice_surfaces",
    "toric_degeneration",
]
