"""Affine semigroups cut out by covector inequalities and congruences.

All semigroups here are of the shape

    S = { x in Z^rank : c . x >= 0 for the inequality covectors c,
                        g . x == 0 mod n for the congruence pairs (g, n) }

i.e. the lattice points of a rational cone intersected with a finite-index
sublattice L (Oda, Convex Bodies, 1.6), so a semigroup is given by its
covectors and congruences alone: a sign condition x_i >= 0 is the unit
covector e_i among the others.  That makes membership a constraint check.
A rank-2 cone has one GL(2, Z) normal form in L, _normal_form
(Cox-Little-Schenck, Toric Varieties, 10.1-10.2), and both rank-2 answers
start from it: hilbert_basis walks the Hirzebruch-Jung chain of lattice
points on the compact boundary of the hull of the nonzero cone points, one
edge at a time, and quotient_type reads the slice's cyclic quotient type.
The package builds rank-2 slices with one congruence and a rank-3
degeneration semigroup, whose covectors and congruence sl2core reads
directly: its Hilbert basis is never built.  The Hermite basis of L is
lattice._hermite_basis of the congruence's kernel generators, the same
routine that git applies to a span.

The concrete semigroups of an instance (h, m) are built by
sl2core.slice_semigroup.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property
from itertools import chain, repeat
from operator import mul

from .lattice import Vec, _hermite_basis, det2, primitive, record, xgcd


@record
class AffineSemigroup:
    rank: int
    inequalities: tuple[Vec, ...]
    congruences: tuple[tuple[Vec, int], ...] = ()

    def __post_init__(self) -> None:
        for c in self.inequalities:
            if len(c) != self.rank:
                raise ValueError("inequality covector has wrong length")
        for g, n in self.congruences:
            if len(g) != self.rank or n < 1:
                raise ValueError("bad congruence")

    def contains(self, x: Sequence[int]) -> bool:
        """Whether x meets every covector and congruence.  Nothing in the
        package calls it: the acceptance tests and bench/tracing.py do."""
        if len(x) != self.rank:
            raise ValueError("point has wrong length")
        for c in self.inequalities:
            if sum(map(mul, c, x)) < 0:
                return False
        for g, n in self.congruences:
            if sum(map(mul, g, x)) % n != 0:
                return False
        return True

    # computed once per object and shared by hilbert_basis, quotient_type
    # and verify's u-oracle row; a ValueError is not kept and is raised again
    @cached_property
    def _rays(self) -> tuple[Vec, Vec]:
        return cone_rays(self)

    @cached_property
    def _lattice_basis(self) -> tuple[Vec, Vec]:
        return congruence_lattice_basis(self)

    # the primitive vectors along the rays in coordinates of the lattice
    # basis, in the lex order of _rays; Cramer's rule gives the
    # coordinates times det(b1, b2) > 0
    @cached_property
    def _lattice_rays(self) -> tuple[Vec, Vec]:
        b1, b2 = self._lattice_basis
        return tuple(primitive((det2(r, b2), det2(b1, r))) for r in self._rays)

    # (v1, v2, n, u1) in the lattice basis: the rays with n = det(v1, v2)
    # > 0, and u1 the point with det(v1, u1) = 1, 0 <= det(u1, v2) < n
    @cached_property
    def _normal_form(self) -> tuple[Vec, Vec, int, Vec]:
        w1, w2 = self._lattice_rays
        v1, v2 = (w1, w2) if det2(w1, w2) > 0 else (w2, w1)
        n = det2(v1, v2)
        x, y, _ = xgcd(-v1[1], v1[0])
        t = -(det2((x, y), v2) // n)
        return v1, v2, n, (x + t * v1[0], y + t * v1[1])


def cone_rays(s: AffineSemigroup) -> tuple[Vec, Vec]:
    """The two extremal rays of a pointed full rank-2 cone, lex sorted.

    Raises ValueError when the inequality region is not a pointed
    two-dimensional cone (a half-plane, a line, a single ray, ...).
    """
    if s.rank != 2:
        raise ValueError("cone_rays handles rank 2 only")
    rays: list[Vec] = []
    for c0, c1 in s.inequalities:
        g = math.gcd(c0, c1)
        if g == 0:
            continue
        # the primitive directions of the boundary line c . x = 0
        x, y = -c1 // g, c0 // g
        for d in ((x, y), (-x, -y)):
            dx, dy = d
            for e0, e1 in s.inequalities:
                if e0 * dx + e1 * dy < 0:
                    break
            else:
                if d not in rays:
                    rays.append(d)
    for r in rays:
        if (-r[0], -r[1]) in rays:
            raise ValueError("cone contains a line, not pointed")
    if len(rays) != 2 or det2(rays[0], rays[1]) == 0:
        raise ValueError(f"expected a pointed full 2d cone, found rays {rays}")
    return tuple(sorted(rays))  # type: ignore[return-value]


Run = tuple[Vec, Vec, int]


def _progression(first: int, step: int, count: int):
    return range(first, first + count * step, step) if step else repeat(first, count)


@record
class HilbertBasis:
    """A Hilbert basis as runs of its chain.  A run (start, step, count) is
    the points start + t*step, t = 0..count-1.  The runs follow the chain
    counterclockwise from one ray point to the other, so the first run
    starts on one ray and the last run ends on the other, and each run
    after the first starts one step past the end of the run before it.
    generators, the points in lex order, is expanded on first use."""

    runs: tuple[Run, ...]

    @property
    def size(self) -> int:
        """Number of generators, read off the runs without expanding them."""
        return sum(count for _, _, count in self.runs)

    @cached_property
    def generators(self) -> tuple[Vec, ...]:
        # each run is monotone in lex order, so the sort merges the runs
        return tuple(sorted(chain.from_iterable(
            zip(_progression(x, dx, count), _progression(y, dy, count))
            for (x, y), (dx, dy), count in self.runs
        )))


def hilbert_basis(s: AffineSemigroup) -> HilbertBasis:
    """Unique minimal generating set of a pointed rank-2 semigroup, as runs.

    In a basis of the congruence lattice L the semigroup is all L-points of
    a cone with primitive rays v1, v2, n = det(v1, v2) > 0, and its basis is
    the chain v1 = u0, u1, ..., u_{s+1} = v2 of lattice points on the compact
    boundary of the hull of the nonzero cone points (Cox-Little-Schenck,
    Toric Varieties, 10.2).  It starts from s._normal_form: u1 is the point
    of the line det(v1, .) = 1 with 0 <= det(u1, v2) < n, and u_{i+1} =
    c_i*u_i - u_{i-1} with c_i = ceil(D(u_{i-1}) / D(u_i)), D(x) = det(x, v2), which falls at every
    step.  While D(u_i) >= delta = D(u_{i-1}) - D(u_i), c_i = 2 and delta
    stays, so from a pair (u_prev, u) the chain is the progression
    u + t*(u - u_prev) for t = 0..floor(D(u) / delta): one floor division
    per run, then one step with c > 2 starts the next run.  Each run lies
    on one edge of that boundary; there are O(log n) of them (Oda, Convex
    Bodies, 1.6), so the walk costs O(#runs), whatever the number of
    generators.
    """
    b1, b2 = s._lattice_basis
    v1, v2, n, u1 = s._normal_form

    def in_z2(u: Vec) -> Vec:
        return (u[0] * b1[0] + u[1] * b2[0], u[0] * b1[1] + u[1] * b2[1])

    # u is the first point of a run and u_prev the point before it, with
    # d = D(u), d_prev = D(u_prev); the first run starts at v1, one step of
    # u1 - v1 past 2*v1 - u1
    u_prev, u = (2 * v1[0] - u1[0], 2 * v1[1] - u1[1]), v1
    d_prev, d = 2 * n - det2(u1, v2), n
    runs = []
    while True:
        delta = d_prev - d
        last = d // delta
        step = (u[0] - u_prev[0], u[1] - u_prev[1])
        runs.append((in_z2(u), in_z2(step), last + 1))
        d -= last * delta
        if not d:
            break
        # the step out of the run's end has c = e + 1 > 2
        end = (u[0] + last * step[0], u[1] + last * step[1])
        e = -(-delta // d)
        u_prev, u = end, (e * end[0] + step[0], e * end[1] + step[1])
        d_prev, d = d, e * d - delta
    return HilbertBasis(tuple(runs))


def congruence_lattice_basis(s: AffineSemigroup) -> tuple[Vec, Vec]:
    """Hermite basis (alpha, beta), (0, gamma) of the sublattice of Z^2 cut
    by the one congruence g.x == 0 mod n of a rank-2 semigroup (Cohen, A
    Course in Computational Algebraic Number Theory, 2.4).

    With d = gcd(g1, g2, n), the vectors (-g2/d, g1/d), (n/d, 0) and
    (0, n/d) lie in the sublattice, and the gcd of their 2x2 minors is
    n/d, its index, so they span it; lattice._hermite_basis reduces them.
    The determinant alpha*gamma = n/d is positive.
    """
    if s.rank != 2:
        raise ValueError("rank 2 only")
    if len(s.congruences) != 1:
        raise ValueError("rank 2 takes exactly one congruence")
    (g1, g2), n = s.congruences[0]
    d = math.gcd(g1, g2, n)
    alpha, beta, gamma = _hermite_basis(((-g2 // d, g1 // d), (n // d, 0), (0, n // d)))
    return ((alpha, beta), (0, gamma))


def quotient_type(s: AffineSemigroup) -> tuple[int, int]:
    """(n, c): the slice surface Spec C[s] is 1/n(1, c) at its fixed point.

    It is the toric surface of the dual cone, whose rays are taken first
    the one that vanishes on the lex-second ray of s; c = -f(w) mod n for
    the second ray w and any covector f that is 1 on the first
    (Cox-Little-Schenck, Toric Varieties, 10.1).  In the basis (v1, u1) of
    L, with d = det(u1, v2), the cone is cone((1, 0), (-d, n)), so in the
    dual basis its dual has the rays (n, d), vanishing on v2, and (0, 1),
    vanishing on v1.  With (n, d) first, nx + dy = 1 gives f = (x, y) with
    y = d^-1 mod n, so c = -d^-1 mod n; with (0, 1) first, f = (0, 1) and
    c = -d mod n.  (n, d) comes first when v1 is the lex-first ray.
    Raises ValueError when the cone is not pointed.
    """
    v1, v2, n, u1 = s._normal_form
    d = det2(u1, v2)
    if v1 == s._lattice_rays[0]:
        d = pow(d, -1, n)
    return n, -d % n
