"""Rank-3 cones, the star subdivision of a 4-ray cone, and the K-degrees
of its flip's wall curves.

Everything is exact integer arithmetic; the one Fraction is the K-degree
that flip_K_degrees returns.  A 4-ray cone is read off the relation of
its rays (_diagonals): the star subdivision's cones from its facets, and
each wall curve's K-degree from the relation scaled by one 3x3 minor.  No
fan is built, searched or solved.

Every cone here has rank 3 and three or four rays, so the arithmetic is
written out for those shapes on unpacked tuples, with no loop over an
index set: a 3x3 minor is a cross product dotted with the third column.
A slice's rank-2 cone and its cyclic quotient type are semigroup's
(quotient_type).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .lattice import Vec, _require, primitive, record

__all__ = [
    "Cone",
    "CyclicSingularity",
    "flip_K_degrees",
    "gaifullin_criterion",
    "multiplicity",
    "sigma0_of",
    "sigma_of",
    "star_subdivide_at_v5",
]


def _cross(u: Vec, v: Vec) -> Vec:
    u0, u1, u2 = u
    v0, v1, v2 = v
    return (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)


def _dot(u: Vec, v: Vec) -> int:
    """Dot product in Z^3."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    return u0 * v0 + u1 * v1 + u2 * v2


@record
class Cone:
    """Rational polyhedral cone in rank 3 given by its extremal rays.

    Three or four rays, primitive and pairwise non-proportional.  A ray is
    primitive when the gcd of its entries is 1, and two primitive rays are
    proportional exactly when they are equal or opposite, so both tests
    are read off the rays without a pairwise scan.  Nothing here checks
    that the listed rays really are extremal for their hull; the
    constructors in this module only ever build cones where they are.
    """

    rays: tuple[Vec, ...]

    def __post_init__(self):
        rays = self.rays
        if not 3 <= len(rays) <= 4:
            raise ValueError("cone needs three or four rays")
        for r in rays:
            if len(r) != 3:
                raise ValueError("only rank 3 cones are supported")
            g = gcd(*r)
            if g != 1:
                if g == 0:
                    primitive(r)  # raises its zero-vector error
                raise ValueError(f"ray {r} is not primitive")
        seen = set(rays)
        if len(seen) < len(rays) or any((-x, -y, -z) in seen for x, y, z in rays):
            raise ValueError("proportional rays")


def multiplicity(c: Cone) -> int:
    """Index of the lattice spanned by three rays in Z^3, |u.(v x w)|; 1
    means the cone is smooth.  Four rays, like three in one plane, are not
    simplicial.
    """
    rays = c.rays
    out = abs(_dot(rays[0], _cross(rays[1], rays[2]))) if len(rays) == 3 else 0
    if out == 0:
        raise ValueError("cone is not simplicial")
    return out


@record
class CyclicSingularity:
    """Cyclic quotient surface singularity of type 1/order (1, twist)."""

    order: int
    twist: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        if not 0 <= self.twist < self.order:
            raise ValueError("twist out of range")
        if self.order > 1 and gcd(self.twist, self.order) != 1:
            raise ValueError("twist must be a unit")

    @property
    def is_smooth(self) -> bool:
        return self.order == 1

    def __str__(self) -> str:
        if self.order == 1:
            return "smooth"
        return f"1/{self.order}(1,{self.twist})"


def _check_pq(p: int, q: int) -> None:
    if not (0 < p < q and gcd(p, q) == 1):
        raise ValueError("need 0 < p < q coprime")


def sigma_of(p: int, q: int, a: int) -> Cone:
    """The 4-ray degeneration cone with rays

        v1 = e1,  v2 = -e1 + aq e3,  v3 = e2,  v4 = -e2 + ap e3,

    satisfying p(v1 + v2) = q(v3 + v4)."""
    _check_pq(p, q)
    if a < 1:
        raise ValueError("a must be positive")
    v1 = (1, 0, 0)
    v2 = (-1, 0, a * q)
    v3 = (0, 1, 0)
    v4 = (0, -1, a * p)
    ok = all(p * (x + y) == q * (z + w) for x, y, z, w in zip(v1, v2, v3, v4))
    _require(ok, "sigma rays break p(v1 + v2) = q(v3 + v4)")
    return Cone((v1, v2, v3, v4))


def sigma0_of(p: int, q: int) -> Cone:
    """The 4-ray cone with rays

        v1 = (0,0,1),  v2 = (1,1,-1),  v3 = (0,1,0),  v4 = (p,-q,0),

    satisfying p(v1 + v2) = (p+q) v3 + v4.  Its relation (p, p, p+q, 1) is
    unequal on the second diagonal, where that of sigma_of is (p, p, q, q),
    so gaifullin_criterion holds for sigma_of and fails here."""
    _check_pq(p, q)
    v1 = (0, 0, 1)
    v2 = (1, 1, -1)
    v3 = (0, 1, 0)
    v4 = (p, -q, 0)
    ok = all(p * (x + y) == (p + q) * z + w for x, y, z, w in zip(v1, v2, v3, v4))
    _require(ok, "sigma0 rays break p(v1 + v2) = (p+q) v3 + v4")
    return Cone((v1, v2, v3, v4))


def _relation(rays: tuple[Vec, ...]) -> Vec:
    """Primitive integer relation of four vectors spanning Q^3, first entry
    made nonnegative.  By Cramer's rule the signed 3x3 minors,
    (-1)^i det(rays without i), are a relation; when one is nonzero the
    rays have rank 3 and the minors span the kernel.  With r0 x r1 and
    r2 x r3 each minor is one dot product."""
    r0, r1, r2, r3 = rays
    n01, n23 = _cross(r0, r1), _cross(r2, r3)
    minors = (_dot(r1, n23), -_dot(r0, n23), _dot(r3, n01), -_dot(r2, n01))
    if not any(minors):
        raise ValueError("rays do not span the lattice")
    a, b, c, d = primitive(minors)
    return (a, b, c, d) if a >= 0 else (-a, -b, -c, -d)


def _diagonals(c: Cone) -> tuple[Vec, tuple[int, int], tuple[int, int]]:
    """The relation of a 4-ray cone in rank 3 and the index pairs of its
    rays with positive and with negative coefficients.

    Two coefficients of each sign is the one shape this module takes: then
    no ray lies in the cone of the other three and no relation is
    nonnegative, so the cone is pointed over a quadrilateral whose
    diagonals are the two pairs, and its facets are the four pairs that
    take one ray from each.  Raises ValueError for any other shape.
    """
    if len(c.rays) != 4:
        raise ValueError("expected a 4-ray cone")
    rel = _relation(c.rays)
    if 0 in rel:
        raise ValueError("some three rays are dependent")
    pos = tuple(i for i in range(4) if rel[i] > 0)
    neg = tuple(i for i in range(4) if rel[i] < 0)
    if len(pos) != 2:
        raise ValueError("relation does not split the rays into pairs")
    return rel, pos, neg


V5: Vec = (0, 0, 1)


def star_subdivide_at_v5(c: Cone) -> tuple[Cone, ...]:
    """Star subdivision of a 4-ray cone through v5 = e3.

    Requires e3 to lie in the interior: strictly on the side of each facet
    plane where the other two rays lie.  Returns the four cones spanned by
    v5 and the facets of the input, the pairs (i, j), i < j, with one ray
    on each diagonal, in sorted order.  They meet in common faces by
    construction, as the facets of a pointed cone coned off from an
    interior point.
    """
    rays = c.rays
    _, pos, neg = _diagonals(c)
    p0, p1 = pos
    cones = []
    for i, j in sorted((min(i, j), max(i, j)) for i in pos for j in neg):
        n = _cross(rays[i], rays[j])
        other = rays[p1 if p0 in (i, j) else p0]
        if n[2] * _dot(n, other) <= 0:  # n[2] is n . V5
            raise ValueError("e3 does not lie in the interior")
        cones.append(Cone((rays[i], rays[j], V5)))
    return tuple(cones)


def flip_K_degrees(c: Cone) -> tuple[Fraction, Fraction]:
    """(plus, minus): K.C / mult(wall) on the wall curve C of each of the
    two triangulations of a pointed 4-ray cone, plus the positive one.

    Each diagonal (w1, w2) of _diagonals is the wall of one triangulation,
    and its chambers add the rays o of the other diagonal.  The numbers
    D_rho . C are the relation of the four rays scaled so that
    D_o . C = mult(wall)/|det(w1, w2, o)| (the wall relation: Cox, Little
    and Schenck, Toric Varieties, Prop. 6.4.4; Reid, "Decomposition of
    toric morphisms", 1983).  With -K the sum of the ray divisors,
    K.C / mult(wall) = -sum(rel) / (rel[o] |det(w1, w2, o)|), the same for
    either o.  The two degrees have opposite signs, or are both 0 when the
    relation sums to 0, as for the conifold flop.
    """
    rel, pos, neg = _diagonals(c)
    rays, total = c.rays, sum(rel)
    degrees = []
    for (i, j), o in ((pos, neg[0]), (neg, pos[0])):
        chamber = abs(_dot(rays[o], _cross(rays[i], rays[j])))
        degrees.append(Fraction(-total, rel[o] * chamber))
    return max(degrees), min(degrees)


def gaifullin_criterion(c: Cone) -> bool:
    """Quasihomogeneity test for a pointed 4-ray cone in rank 3.

    Its relation n1 v1 + n2 v2 = n3 v3 + n4 v4, with positive coefficients
    on the two diagonals as _diagonals reads them off, gives an affine
    toric threefold with a quasihomogeneous SL(2)-action iff n1 = n2 and
    n3 = n4 (Gaifullin).  Raises ValueError for any other cone.
    """
    rel, pos, neg = _diagonals(c)
    return rel[pos[0]] == rel[pos[1]] and rel[neg[0]] == rel[neg[1]]
