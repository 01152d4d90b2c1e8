"""Diagonal two-factor group actions on five coordinates and the monomial
certificates deciding semistability of a linearization.

The group is C* x mu_a acting diagonally on (Y0, X1, X2, X3, X4).  For a
diagonal action semistability is cone membership (King 1994; Cox-Little-
Schenck ch. 14): a coordinate pattern is chi-unstable exactly when no
coordinate off the pattern has a torus weight of the sign of chi, and
otherwise a power of one such coordinate is an invariant of character
n*chi, written down in closed form and checked.  Every pattern is decided;
nothing is searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .lattice import (
    FinAbGroup,
    IntMatrix,
    Vec,
    cokernel,
    kernel_basis,
)

COORDS = ("Y0", "X1", "X2", "X3", "X4")

__all__ = [
    "COORDS",
    "DiagonalAction",
    "GroupCharacter",
    "SemistableReport",
    "default_budgets",
    "monomial_character",
    "semistable_locus",
    "stabilizer_of_support",
    "standard_action",
    "standard_characters",
    "u_invariant_exponents",
]


def _check_params(p: int, q: int, m: int) -> None:
    if not (0 < p <= q and gcd(p, q) == 1 and m >= 1):
        raise ValueError("need 0 < p <= q coprime and m >= 1")


def _derived(p: int, q: int, m: int) -> tuple[int, int]:
    k = m if p == q else gcd(q - p, m)
    return k, m // k


@dataclass(frozen=True)
class DiagonalAction:
    """Action of C* x mu_a by diagonal matrices.

    torus_weights are the C*-exponents per coordinate; finite_weights the
    mu_a exponents, stored reduced mod finite_order.
    """

    torus_weights: tuple[int, ...]
    finite_order: int
    finite_weights: tuple[int, ...]

    def __post_init__(self):
        if self.finite_order < 1:
            raise ValueError("finite_order must be positive")
        if len(self.torus_weights) != len(self.finite_weights):
            raise ValueError("weight vectors of different length")
        if any(not 0 <= f < self.finite_order for f in self.finite_weights):
            raise ValueError("finite_weights must be reduced")


@dataclass(frozen=True)
class GroupCharacter:
    """Character (t, zeta) -> t^torus_part * zeta^finite_part."""

    torus_part: int
    finite_part: int


def standard_action(p: int, q: int, m: int) -> DiagonalAction:
    """diag(t^k, t^-p, t^-p, t^q, t^q) times diag(1, z^-1, z^-1, z, z)
    on (Y0, X1, X2, X3, X4), with k = gcd(q-p, m) (k = m when p = q) and
    a = m/k."""
    _check_params(p, q, m)
    k, a = _derived(p, q, m)
    return DiagonalAction(
        torus_weights=(k, -p, -p, q, q),
        finite_order=a,
        finite_weights=(0, (-1) % a, (-1) % a, 1 % a, 1 % a),
    )


def standard_characters(p: int, q: int, m: int) -> dict[str, GroupCharacter]:
    """The six characters attached to the standard action: the flip pair
    plus/minus, the trivial one, and those cut out by Y0, X2, X3."""
    _check_params(p, q, m)
    k, a = _derived(p, q, m)
    return {
        "plus": GroupCharacter(-k + p - q, 0),
        "minus": GroupCharacter(k + q - p, 0),
        "trivial": GroupCharacter(0, 0),
        "D": GroupCharacter(k, 0),
        "S_plus": GroupCharacter(-p, (-1) % a),
        "S_minus": GroupCharacter(q, 1 % a),
    }


def monomial_character(act: DiagonalAction, exponents) -> GroupCharacter:
    exponents = tuple(exponents)
    if len(exponents) != len(act.torus_weights):
        raise ValueError("exponent length mismatch")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be nonnegative")
    t = sum(e * w for e, w in zip(exponents, act.torus_weights))
    f = sum(e * w for e, w in zip(exponents, act.finite_weights))
    return GroupCharacter(t, f % act.finite_order)


def default_budgets(p: int, q: int, m: int) -> tuple[int, int]:
    """The (n_max, box) pair that the schema-1.0 JSON still reports in the
    n_max / box fields of every git section.  Semistability no longer
    searches, so these numbers bound nothing; they are kept because the
    benchmark checker reads them, and go with the next schema bump."""
    k, _ = _derived(p, q, m)
    return 2 * (p + q + k), 4 * (p + q + k)


@dataclass(frozen=True)
class SemistableReport:
    """Outcome of the pattern-by-pattern semistability decision.

    unstable_vanishing: coordinates vanishing on every component of the
    unstable locus; empty means everything is semistable.
    witness_monomials: pattern -> (n, exponents), an invariant monomial of
    character n*chi not vanishing identically where the pattern does; every
    pattern not proven unstable has one.
    undecided: always empty.  Kept for the benchmark tracer, which reads it;
    it goes with the next schema bump.
    """

    unstable_vanishing: frozenset[str]
    witness_monomials: dict[frozenset[str], tuple[int, tuple[int, ...]]]
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


def semistable_locus(
    act: DiagonalAction,
    chi: GroupCharacter,
    relation_degree: int,
) -> SemistableReport:
    """Decide semistability of the chi-linearization coordinate pattern by
    coordinate pattern.

    For every singleton and pair of coordinates, the pattern is unstable
    when no coordinate off it has a torus weight of the sign of chi's torus
    part t.  Otherwise each such coordinate j gives an invariant: with
    g = gcd(w_j, t), w' = |w_j|/g, t' = |t|/g and c the finite part of chi,
    X_j^(s*t') has character (s*w')*chi for s = a / gcd(a, t'*f_j - w'*c),
    the least s making the finite parts agree.  The witness is the one with
    the smallest n = s*w' (lowest index on ties), which is the least n of
    any single-coordinate invariant.  unstable_vanishing collects the
    coordinates common to all minimal patterns proven unstable, which for
    the standard characters describes the unstable locus exactly.
    """
    if relation_degree < 0:
        raise ValueError("relation degree must be >= 0")
    n = len(act.torus_weights)
    a = act.finite_order
    patterns = [frozenset((i,)) for i in range(n)] + [
        frozenset((i, j)) for i in range(n) for j in range(i + 1, n)
    ]
    witnesses: dict[frozenset[str], tuple[int, tuple[int, ...]]] = {}
    unstable: list[frozenset[int]] = []

    t = chi.torus_part
    chi_f = chi.finite_part % a
    if t == 0:
        # constants are invariant once the finite part cancels
        n0 = 1 if chi_f == 0 else a // gcd(a, chi_f)
        zero = (0,) * n
        for pat in patterns:
            witnesses[_names(pat)] = (n0, zero)
        return SemistableReport(frozenset(), witnesses, {})

    # the least invariant power of each coordinate whose weight has t's sign
    powers = {}
    for j, (w, f) in enumerate(zip(act.torus_weights, act.finite_weights)):
        if w * t > 0:
            g = gcd(w, t)
            w1, t1 = abs(w) // g, abs(t) // g
            s = a // gcd(a, (t1 * f - w1 * chi_f) % a)
            powers[j] = (s * w1, s * t1)

    for pat in patterns:
        allowed = [j for j in powers if j not in _effective(pat, relation_degree)]
        if not allowed:
            unstable.append(pat)
            continue
        j = min(allowed, key=lambda i: (powers[i][0], i))
        power, e = powers[j]
        exps = tuple(e if i == j else 0 for i in range(n))
        if monomial_character(act, exps) != GroupCharacter(power * t, power * chi_f % a):
            raise RuntimeError(
                f"witness {exps} for {sorted(_names(pat))} does not have "
                f"character {power}*({t}, {chi_f})"
            )
        witnesses[_names(pat)] = (power, exps)

    minimal = [
        pat for pat in unstable
        if not any(other < pat for other in unstable)
    ]
    if minimal:
        common = frozenset.intersection(*minimal)
        vanishing = _names(common)
    else:
        vanishing = frozenset()
    return SemistableReport(vanishing, witnesses, {})


def _names(indices: frozenset[int]) -> frozenset[str]:
    return frozenset(COORDS[i] for i in indices)


def stabilizer_of_support(act: DiagonalAction, support) -> FinAbGroup:
    """Stabilizer, inside the group actually acting (the image in the
    diagonal torus), of a point whose nonzero coordinates are exactly the
    given support.

    The character lattice of the image is Z^n modulo the covectors pairing
    trivially with the whole group; the stabilizer of the support is dual
    to that quotient with the supported coordinate characters killed.
    """
    n = len(act.torus_weights)
    idx = sorted({COORDS.index(c) for c in support})
    system = IntMatrix.from_rows(
        (
            act.torus_weights + (0,),
            act.finite_weights + (act.finite_order,),
        )
    )
    trivial_covectors = [v[:n] for v in kernel_basis(system)]
    cols = trivial_covectors + [
        tuple(1 if i == j else 0 for j in range(n)) for i in idx
    ]
    return cokernel(IntMatrix.from_cols(cols, rows=n))


def u_invariant_exponents(p: int, q: int, m: int, box: int) -> set[tuple[int, int]]:
    """Exponent pairs (i, j) in [0, box]^2 for which X0^e0 X1^i X3^j can be
    made invariant under the torus acting with weights (1, -p, q) and the
    mu_m action with weights (0, -1, 1): the torus forces e0 = pi - qj,
    which must be a legal exponent, and mu_m forces m | i - j."""
    _check_params(p, q, m)
    if box < 0:
        raise ValueError("box must be >= 0")
    out = set()
    for i in range(box + 1):
        for j in range(box + 1):
            e0 = p * i - q * j
            if e0 >= 0 and (j - i) % m == 0:
                out.add((i, j))
    return out
