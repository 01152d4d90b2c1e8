"""Rank-3 simplicial cones, small fans, and wall-curve intersection numbers.

Everything is exact integer arithmetic; the one Fraction is the K-degree
that wall_curve_K_degree returns.  Every fan built here comes from the
diagonals of a pointed 4-ray cone (one wall, two chambers, or a star
subdivision), so its cones meet in common faces by construction and a Fan
checks only its cones one at a time.

Every cone here has rank 3 and two to four rays, so the arithmetic is
written out for those shapes on unpacked tuples, with no loop over an
index set: a 3x3 minor is a cross product dotted with the third column,
the minors of two rays are their cross product, and a point in the span
of two rays is solved by Cramer's rule with the division left undone.
Nothing here runs a general elimination.  A slice's rank-2 cone and its
cyclic quotient type are semigroup's (quotient_type).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .lattice import Vec, _require, primitive, record

__all__ = [
    "Cone",
    "CyclicSingularity",
    "Fan",
    "common_wall",
    "flip_subdivisions",
    "gaifullin_criterion",
    "multiplicity",
    "sigma0_of",
    "sigma_of",
    "star_subdivide_at_v5",
    "wall_curve_K_degree",
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

    At least two rays, primitive and pairwise non-proportional.  A ray is
    primitive when the gcd of its entries is 1, and two primitive rays are
    proportional exactly when they are equal or opposite, so both tests
    are read off the rays without a pairwise scan.  Nothing here checks
    that the listed rays really are extremal for their hull; the
    constructors in this module only ever build cones where they are.
    """

    rays: tuple[Vec, ...]

    def __post_init__(self):
        rays = self.rays
        if len(rays) < 2:
            raise ValueError("cone needs at least two rays")
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


def _solve(cols: tuple[Vec, Vec], x: Vec) -> tuple[list[int], int] | None:
    """Solve c_0 u + c_1 v = x for two columns u, v in Z^3 by Cramer's
    rule, in integers: (numerators, d) with d > 0 and c_j = numerators[j]/d.
    Raises ValueError when u and v are dependent, and returns None when x
    is off their span.  With the normal n = u x v, x is in the span iff
    x.n = 0, and then its coefficients are ((x x v).n, (u x x).n)/(n.n).
    """
    u, v = cols
    n = _cross(u, v)
    if n == (0, 0, 0):
        raise ValueError("dependent columns")
    if _dot(x, n):
        return None
    return [_dot(_cross(x, v), n), _dot(_cross(u, x), n)], _dot(n, n)


def multiplicity(c: Cone) -> int:
    """Index of the subgroup spanned by the rays inside the lattice points
    of their linear span, the gcd of the maximal minors of the ray matrix.
    1 means the cone is smooth.

    Three rays have one maximal minor, the determinant u.(v x w), and two
    rays have their cross product as minors.  Four rays have no maximal
    minor, and like a zero determinant they are not simplicial.
    """
    rays = c.rays
    if len(rays) == 3:
        u, v, w = rays
        out = abs(_dot(u, _cross(v, w)))
    elif len(rays) == 2:
        out = gcd(*_cross(*rays))
    else:
        out = 0
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


@record
class Fan:
    """A set of maximal simplicial cones intersecting in common faces.

    Checks that there is a cone and that each is simplicial.  That the
    cones meet in common faces is left to the constructors: each fan here
    takes its cones from the diagonals of a pointed 4-ray cone, where it
    holds by construction.
    """

    max_cones: tuple[Cone, ...]

    def __post_init__(self):
        if not self.max_cones:
            raise ValueError("fan needs at least one cone")
        for c in self.max_cones:
            multiplicity(c)  # rejects non-simplicial cones


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


def star_subdivide_at_v5(c: Cone) -> Fan:
    """Star subdivision of a 4-ray cone through v5 = e3.

    Requires e3 to lie in the interior: strictly on the side of each facet
    plane where the other two rays lie.  Returns the four cones spanned by
    v5 and the facets of the input, the pairs (i, j), i < j, with one ray
    on each diagonal, in sorted order.
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
    return Fan(tuple(cones))


def flip_subdivisions(c: Cone) -> tuple[Fan, Fan]:
    """The two 2-cone triangulations of a 4-ray cone.

    The rays satisfy a unique relation splitting them into two pairs with
    positive coefficients on each side.  Returned as (plus, minus), where
    the plus fan is subdivided through the pair with the larger coefficient
    sum; the wall curve of that fan is the one K pairs positively with.  On
    a tie both wall curves have K-degree 0 and the choice is stabilized by
    putting the lexicographically smallest ray on the plus wall.
    """
    rel, pos, neg = _diagonals(c)
    pos_sum = rel[pos[0]] + rel[pos[1]]
    neg_sum = -rel[neg[0]] - rel[neg[1]]
    if pos_sum != neg_sum:
        wall, other = (pos, neg) if pos_sum > neg_sum else (neg, pos)
    else:
        smallest = min(c.rays)
        on_pos = smallest in (c.rays[pos[0]], c.rays[pos[1]])
        wall, other = (pos, neg) if on_pos else (neg, pos)

    def fan_through(widx, oidx):
        w1, w2 = c.rays[widx[0]], c.rays[widx[1]]
        return Fan(tuple(Cone((w1, w2, c.rays[o])) for o in oidx))

    return fan_through(wall, other), fan_through(other, wall)


def common_wall(f: Fan) -> Cone:
    """The shared 2-face of a fan with exactly two maximal cones."""
    if len(f.max_cones) != 2:
        raise ValueError("expected exactly two maximal cones")
    a, b = f.max_cones
    shared = tuple(r for r in a.rays if r in b.rays)
    if len(shared) != 2:
        raise ValueError("cones do not share a 2-face")
    return Cone(shared)


def wall_curve_K_degree(f: Fan, wall: Cone) -> Fraction:
    """Degree of K on the torus-invariant curve of a wall.

    With -K = sum of all ray divisors, the pairing of each divisor with the
    wall curve is mult(wall)/mult(chamber) for the two completing rays; the
    pairings of the wall's own rays are forced by the relations
    sum <u, v_rho> (D_rho . C) = 0 for a basis of characters u.
    """
    if len(wall.rays) != 2:
        raise ValueError("wall must be a 2-ray cone")
    wset = set(wall.rays)
    carriers = [c for c in f.max_cones if wset <= set(c.rays)]
    if len(carriers) != 2:
        raise ValueError("wall must be a face of exactly two maximal cones")
    completing = [next(r for r in c.rays if r not in wset) for c in carriers]
    mt = multiplicity(wall)
    m0, m1 = (multiplicity(c) for c in carriers)
    # scaled by m0*m1, the completing rays pair with mt*m1 and mt*m0
    c0, c1 = mt * m1, mt * m0
    target = tuple(-(c0 * r0 + c1 * r1) for r0, r1 in zip(*completing))
    sol = _solve(wall.rays, target)
    if sol is None:
        raise ValueError("wall relation is inconsistent")
    (s0, s1), d = sol
    return -Fraction((c0 + c1) * d + s0 + s1, m0 * m1 * d)


def gaifullin_criterion(c: Cone) -> bool:
    """Quasihomogeneity test for a pointed 4-ray cone in rank 3.

    Its relation n1 v1 + n2 v2 = n3 v3 + n4 v4, with positive coefficients
    on the two diagonals as _diagonals reads them off, gives an affine
    toric threefold with a quasihomogeneous SL(2)-action iff n1 = n2 and
    n3 = n4 (Gaifullin).  Raises ValueError for any other cone.
    """
    rel, pos, neg = _diagonals(c)
    return rel[pos[0]] == rel[pos[1]] and rel[neg[0]] == rel[neg[1]]
