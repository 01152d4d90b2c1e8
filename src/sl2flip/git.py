"""Diagonal two-factor group actions on five coordinates and the monomial
certificates deciding semistability of a linearization.

The group is C* x mu_a acting diagonally on (Y0, X1, X2, X3, X4).  For a
diagonal action semistability is cone membership (King 1994; Cox-Little-
Schenck ch. 14): a coordinate pattern is chi-unstable exactly when chi has
a nonzero torus part and no coordinate off the pattern has a torus weight
of its sign; otherwise a constant or a power of one such coordinate is an
invariant of character n*chi, written down in closed form and checked.
Every pattern is decided; nothing is searched.  The stabilizer of a
coordinate support is the quotient of two rank-2 character lattices, read
off their Hermite bases, which lattice._hermite_basis computes.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import gcd
from operator import mul

from .lattice import FinAbGroup, _hermite_basis, _require, record

COORDS = ("Y0", "X1", "X2", "X3", "X4")

__all__ = [
    "COORDS",
    "DiagonalAction",
    "GroupCharacter",
    "SemistableReport",
    "monomial_character",
    "semistable_locus",
    "stabilizer_of_support",
]


@record
class DiagonalAction:
    """Action of C* x mu_a by diagonal matrices on the five COORDS.

    torus_weights are the C*-exponents per coordinate; finite_weights the
    mu_a exponents, stored reduced mod finite_order.
    """

    torus_weights: tuple[int, ...]
    finite_order: int
    finite_weights: tuple[int, ...]

    def __post_init__(self):
        if self.finite_order < 1:
            raise ValueError("finite_order must be positive")
        if len(self.torus_weights) != len(COORDS):
            raise ValueError(f"need {len(COORDS)} torus weights, one per coordinate")
        if len(self.torus_weights) != len(self.finite_weights):
            raise ValueError("weight vectors of different length")
        if any(not 0 <= f < self.finite_order for f in self.finite_weights):
            raise ValueError("finite_weights must be reduced")

    # the character lattice L of stabilizer_of_support, the same for every
    # support, so computed once per object
    @cached_property
    def _character_lattice(self) -> tuple[int, int, int]:
        weights = zip(self.torus_weights, self.finite_weights)
        return _hermite_basis([*weights, (0, self.finite_order)])


@record
class GroupCharacter:
    """Character (t, zeta) -> t^torus_part * zeta^finite_part."""

    torus_part: int
    finite_part: int


def monomial_character(act: DiagonalAction, exponents) -> GroupCharacter:
    exponents = tuple(exponents)
    if len(exponents) != len(act.torus_weights):
        raise ValueError("exponent length mismatch")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be nonnegative")
    t = sum(map(mul, exponents, act.torus_weights))
    f = sum(map(mul, exponents, act.finite_weights))
    return GroupCharacter(t, f % act.finite_order)


@record
class SemistableReport:
    """Outcome of the pattern-by-pattern semistability decision.

    unstable_vanishing: coordinates vanishing on every component of the
    unstable locus; empty means everything is semistable.
    witness_monomials: pattern -> (n, exponents), an invariant monomial of
    character n*chi not vanishing identically where the pattern does; every
    pattern not proven unstable has one.  Each key is the pattern's sorted
    coordinate names, and the keys come in _pattern_table order: by size,
    then by names.
    undecided: always empty.  Kept for the benchmark tracer, which reads it;
    it goes with the next schema bump.
    """

    unstable_vanishing: frozenset[str]
    witness_monomials: dict[tuple[str, ...], tuple[int, tuple[int, ...]]]
    undecided: dict[frozenset[str], tuple[int, int]]


def _effective(pattern: frozenset[int], relation_degree: int) -> frozenset[int]:
    # on {pattern = 0} the hypersurface equation Y0^b = X1 X4 - X2 X3
    # forces Y0 = 0 as soon as both products die (and b >= 1)
    if (
        relation_degree >= 1
        and (1 in pattern or 4 in pattern)
        and (2 in pattern or 3 in pattern)
    ):
        return pattern | {0}
    return pattern


@cache
def _pattern_table(relation: bool):
    """Every singleton and pair of the five coordinate indices, in the order
    witnesses are reported (by size, then by sorted names), as (pattern,
    its sorted names, the coordinates that vanish on it).  It depends only
    on whether relation_degree >= 1, so it is built twice."""
    n = len(COORDS)
    patterns = [frozenset((i,)) for i in range(n)] + [
        frozenset((i, j)) for i in range(n) for j in range(i + 1, n)
    ]
    rows = [(pat, tuple(sorted(_names(pat))), _effective(pat, int(relation))) for pat in patterns]
    rows.sort(key=lambda row: (len(row[0]), row[1]))
    return tuple(rows)


def semistable_locus(
    act: DiagonalAction,
    chi: GroupCharacter,
    relation_degree: int,
) -> SemistableReport:
    """Decide semistability of the chi-linearization coordinate pattern by
    coordinate pattern.

    The candidate invariants are one per coordinate j whose torus weight
    has the sign of chi's torus part t: with g = gcd(w_j, t), w' = |w_j|/g,
    t' = |t|/g and c the finite part of chi, X_j^(s*t') has character
    (s*w')*chi for s = a / gcd(a, t'*f_j - w'*c), the least s making the
    finite parts agree.  Each one's character is checked once, whether or
    not a pattern picks it.  At t = 0 the constant of order a / gcd(a, c)
    is the one candidate.  For every singleton and pair of coordinates,
    the witness is the candidate off the pattern with the smallest n
    (lowest index on ties), the least n of any single-coordinate
    invariant; a pattern with none is unstable.  unstable_vanishing
    collects the coordinates common to all unstable patterns, that is to
    the minimal ones, which for the standard characters describes the
    unstable locus exactly.
    """
    if relation_degree < 0:
        raise ValueError("relation degree must be >= 0")
    n = len(COORDS)
    a = act.finite_order
    t = chi.torus_part
    chi_f = chi.finite_part % a

    # the least invariant power of each coordinate whose weight has t's
    # sign, its character checked once, in the order witnesses are chosen;
    # at t = 0 the constant, index -1, which is in no pattern
    candidates = [(a // gcd(a, chi_f), -1, (0,) * n)] if t == 0 else []
    for j, (w, f) in enumerate(zip(act.torus_weights, act.finite_weights)):
        if w * t > 0:
            g = gcd(w, t)
            w1, t1 = abs(w) // g, abs(t) // g
            s = a // gcd(a, (t1 * f - w1 * chi_f) % a)
            power = s * w1
            exps = tuple(s * t1 if i == j else 0 for i in range(n))
            ok = monomial_character(act, exps) == GroupCharacter(power * t, power * chi_f % a)
            _require(ok, "witness character", exps, COORDS[j], power, (t, chi_f))
            candidates.append((power, j, exps))
    candidates.sort()

    witnesses: dict[tuple[str, ...], tuple[int, tuple[int, ...]]] = {}
    unstable: list[frozenset[int]] = []
    for pat, names, dead in _pattern_table(relation_degree >= 1):
        for power, j, exps in candidates:
            if j not in dead:
                witnesses[names] = (power, exps)
                break
        else:
            unstable.append(pat)
    vanishing = _names(frozenset.intersection(*unstable)) if unstable else frozenset()
    return SemistableReport(vanishing, witnesses, {})


def _names(indices: frozenset[int]) -> frozenset[str]:
    return frozenset(COORDS[i] for i in indices)


def stabilizer_of_support(act: DiagonalAction, support) -> FinAbGroup:
    """Stabilizer, inside the group actually acting (the image in the
    diagonal torus), of a point whose nonzero coordinates are exactly the
    given support, as its character group.

    Coordinate i has the character (w_i, f_i) of C* x mu_a, an element of
    Z x Z/a; lift these to Z^2.  The characters of the image of the group
    are L = span{(w_i, f_i)} + (0, a)Z modulo (0, a)Z, and the stabilizer
    of the support is dual to L/R, where R = span{(w_i, f_i) : i in
    support} + (0, a)Z.  With the Hermite basis (alpha, beta), (0, gamma)
    of L, computed once per action, write the generators of R in that
    basis, and let (alpha_R, .), (0, gamma_R) be their Hermite basis.
    When alpha_R = 0 (no supported coordinate has a torus weight), L/R is
    Z x Z/gamma_R, or Z/gamma_R when L itself has rank 1 (every torus
    weight is 0).  Otherwise L/R is
    finite of order alpha_R*gamma_R, with first invariant factor d1, the
    gcd of all the coordinates of R.

    generator_images is (): the quotient is read off indices alone, and
    no caller reads images of the coordinate characters.
    """
    a = act.finite_order
    alpha, beta, gamma = act._character_lattice
    relations = [
        (act.torus_weights[i], act.finite_weights[i])
        for i in map(COORDS.index, set(support))
    ] + [(0, a)]
    if alpha == 0:
        # L = (0, gamma)Z has rank 1
        coords = [(0, f // gamma) for _, f in relations]
    else:
        coords = [(w // alpha, (f - w // alpha * beta) // gamma) for w, f in relations]
    alpha_r, _, gamma_r = _hermite_basis(coords)
    if alpha_r == 0:
        free_rank, factors = (1 if alpha else 0), (gamma_r,)
    else:
        d1 = gcd(*(c for v in coords for c in v))
        free_rank, factors = 0, (d1, alpha_r * gamma_r // d1)
    return FinAbGroup(free_rank, tuple(d for d in factors if d > 1))

