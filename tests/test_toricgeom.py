import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2flip import toricgeom
from sl2flip.lattice import det2, primitive, xgcd
from sl2flip.semigroup import congruence_lattice_basis, hilbert_basis, quotient_type
from sl2flip.sl2core import (
    derive_params,
    iter_instances,
    slice_semigroup,
    toric_degeneration,
)
from sl2flip.toricgeom import (
    Cone,
    CyclicSingularity,
    Fan,
    _cross,
    _diagonals,
    _dot,
    _relation,
    _solve,
    common_wall,
    flip_subdivisions,
    gaifullin_criterion,
    multiplicity,
    sigma0_of,
    sigma_of,
    star_subdivide_at_v5,
    wall_curve_K_degree,
)
from test_lattice import IntMatrix, kernel_basis, laplace_det, smith_normal_form
from test_semigroup import chain_ends, dual_cone_rays

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def random_rays(data, count, dim, bound):
    """count primitive, pairwise non-proportional vectors of Z^dim; two
    primitive vectors are proportional only when they agree up to sign."""
    vec = st.tuples(*[st.integers(-bound, bound)] * dim).filter(any).map(primitive)
    return tuple(
        data.draw(
            st.lists(vec, min_size=count, max_size=count,
                     unique_by=lambda v: max(v, tuple(-x for x in v)))
        )
    )


def validate_cone_pairwise(rays):
    """The former Cone validation, kept as the oracle of the set test:
    primitivity by comparing each ray with primitive(ray), then
    proportionality by a cross product per pair."""
    if len(rays) < 2:
        raise ValueError("cone needs at least two rays")
    for r in rays:
        if len(r) != 3:
            raise ValueError("only rank 3 cones are supported")
        if r != primitive(r):
            raise ValueError(f"ray {r} is not primitive")
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            if _cross(rays[i], rays[j]) == (0, 0, 0):
                raise ValueError("proportional rays")


def validate_fan_pairwise(fan):
    """The former Fan face check, kept as the oracle of the fans the
    subdivisions build: cones sharing a 2-face must sit on strictly
    opposite sides of it, and otherwise no ray of one cone may lie inside
    another."""
    cones = fan.max_cones
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            check_pair(cones[i], cones[j])


def check_pair(a, b):
    shared = [r for r in a.rays if r in b.rays]
    if len(shared) == min(len(a.rays), len(b.rays)):
        raise ValueError("duplicate or nested cones")
    if len(shared) == 2 and len(a.rays) == 3 == len(b.rays):
        n = _cross(*shared)
        sa = _dot(n, next(r for r in a.rays if r not in shared))
        sb = _dot(n, next(r for r in b.rays if r not in shared))
        if sa * sb >= 0:
            raise ValueError("cones overlap across a shared 2-face")
        return
    for first, second in ((a, b), (b, a)):
        for r in first.rays:
            if r not in shared:
                sol = solve_by_elimination(second.rays, r)
                if sol is not None and min(sol) >= 0:
                    raise ValueError("ray of one cone lies inside another")


@st.composite
def ray_tuples(draw):
    """Rank-2 and rank-3 ray tuples that hit every branch of the Cone
    validation: zero, non-primitive and primitive rays, repeats, r next
    to -r, and now and then a ray of the other rank; a Cone refuses every
    rank-2 ray."""
    dim = draw(st.sampled_from((2, 3)))
    vec = lambda d: st.tuples(*[st.integers(-4, 4)] * d)
    rays = draw(st.lists(st.one_of(vec(dim), vec(dim).filter(any).map(primitive)),
                         min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        r = draw(st.sampled_from(rays))
        rays.append(draw(st.sampled_from((r, tuple(-x for x in r)))))
    if draw(st.integers(0, 9)) == 0:
        rays.append(draw(vec(5 - dim)))
    return tuple(draw(st.permutations(rays)))


def solve_by_elimination(cols, target):
    """Oracle for toricgeom._solve: solve sum_j x_j cols[j] = target by
    fraction-free Gaussian elimination.  Raises ValueError for dependent
    columns and returns None when the target is off their span."""
    rows, n = len(target), len(cols)
    aug = [[cols[j][i] for j in range(n)] + [target[i]] for i in range(rows)]
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, rows) if aug[i][col]), None)
        if piv is None:
            raise ValueError("dependent columns")
        aug[row], aug[piv] = aug[piv], aug[row]
        scale = aug[row][col]
        for i in range(rows):
            if i != row and aug[i][col]:
                f = aug[i][col]
                aug[i] = [scale * a - f * b for a, b in zip(aug[i], aug[row])]
        row += 1
    if any(aug[i][n] for i in range(row, rows)):
        return None
    return [Fraction(aug[i][n]) / aug[i][i] for i in range(n)]


def facets_of_4cone(c):
    """Facet pairs (i, j) of a 4-ray cone with inward normals, by scanning
    the six pairs for a plane with the other two rays strictly on one
    side: the oracle of the facets that star_subdivide_at_v5 reads off
    the relation."""
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            n = _cross(c.rays[i], c.rays[j])
            signs = [_dot(n, c.rays[k]) for k in range(4) if k not in (i, j)]
            if all(v > 0 for v in signs):
                out.append((i, j, n))
            elif all(v < 0 for v in signs):
                out.append((i, j, tuple(-x for x in n)))
    return out


def star_subdivide_by_scan(c):
    """star_subdivide_at_v5 with the facets found by facets_of_4cone."""
    facets = facets_of_4cone(c)
    if len(facets) != 4:
        raise ValueError("rays are not in convex position")
    if any(_dot(n, E3) <= 0 for _, _, n in facets):
        raise ValueError("e3 does not lie in the interior")
    return Fan(tuple(Cone((c.rays[i], c.rays[j], E3)) for i, j, _ in facets))


def mixed_pairs(c):
    """The pairs (i, j), i < j, with one ray on each diagonal, sorted."""
    _, pos, neg = _diagonals(c)
    return sorted((min(i, j), max(i, j)) for i in pos for j in neg)


def subdivided(subdivide, c):
    try:
        return subdivide(c).max_cones
    except ValueError:
        return ValueError


def fan_rays(fan):
    """The distinct rays of a fan, in order of first appearance."""
    out = []
    for c in fan.max_cones:
        out.extend(r for r in c.rays if r not in out)
    return tuple(out)


def same_type(c, d):
    """1/n(1,c) and 1/n(1,c') are isomorphic iff c' = c or cc' = 1 mod n;
    swapping the rays of a cone inverts the twist."""
    if c.order != d.order:
        return False
    if c.order == 1:
        return True
    return c.twist == d.twist or (c.twist * d.twist) % c.order == 1


def classify_2d(rays):
    """The former toricgeom.classify_2d, kept with test_semigroup's
    dual_cone_rays as the oracle of quotient_type: the normal form of a
    pointed 2-d cone under GL(2, Z).  It sends ray 1 to (1, 0) and ray 2
    to (-c, n) with 0 <= c < n, n the multiplicity; the quotient
    singularity is then of type 1/n(1, c)."""
    r1, r2 = rays
    if len(r1) != 2 or len(r2) != 2 or primitive(r1) != r1 or primitive(r2) != r2:
        raise ValueError("expected two primitive rays in rank 2")
    n = abs(det2(r1, r2))
    if n == 0:
        raise ValueError("proportional rays")
    x, y, _ = xgcd(*r1)
    return CyclicSingularity(n, -(x * r2[0] + y * r2[1]) % n)


def wall_degree_by_fractions(f, wall):
    """Oracle for wall_curve_K_degree: the same pairings mt/m_i kept as
    Fractions, and the wall relation solved by rational elimination."""
    wset = set(wall.rays)
    carriers = [c for c in f.max_cones if wset <= set(c.rays)]
    completing = [next(r for r in c.rays if r not in wset) for c in carriers]
    mt = multiplicity(wall)
    coeffs = [Fraction(mt, multiplicity(c)) for c in carriers]
    target = tuple(
        -(coeffs[0] * completing[0][i] + coeffs[1] * completing[1][i])
        for i in range(3)
    )
    sol = solve_by_elimination(wall.rays, target)
    return -(coeffs[0] + coeffs[1] + sol[0] + sol[1])


def pq_sweep(qmax=6):
    return [
        (p, q)
        for q in range(2, qmax + 1)
        for p in range(1, q)
        if math.gcd(p, q) == 1
    ]


def hull_walk_type(r1, r2):
    """Hirzebruch-Jung oracle: walk the boundary of the hull of the nonzero
    lattice points of the cone and read the singularity type off the
    continued fraction of the self-intersection sequence."""
    if det2(r1, r2) < 0:
        r1, r2 = r2, r1
    n = det2(r1, r2)
    assert n > 0
    if n == 1:
        return (1, 0)

    def inside(u):
        a = det2(u, r2)
        b = det2(r1, u)
        return a >= 0 and b >= 0

    # first hull vertex after r1: minimal point on the det(r1, .) = 1 line
    x, y, g = xgcd(-r1[1], r1[0])
    assert g == 1
    u_part = (x, y)
    t = math.ceil(Fraction(-det2(u_part, r2), n))
    u_prev, u_cur = r1, (u_part[0] + t * r1[0], u_part[1] + t * r1[1])
    assert inside(u_cur) and det2(r1, u_cur) == 1
    bs = []
    while u_cur != r2:
        b = 1
        while not inside((b * u_cur[0] - u_prev[0], b * u_cur[1] - u_prev[1])):
            b += 1
            assert b < 10_000
        bs.append(b)
        u_prev, u_cur = u_cur, (b * u_cur[0] - u_prev[0], b * u_cur[1] - u_prev[1])
    val = Fraction(bs[-1])
    for b in reversed(bs[:-1]):
        val = b - 1 / val
    return (val.numerator, val.denominator % val.numerator)


def outcome(solve, cols, target):
    try:
        return solve(cols, target)
    except ValueError:
        return ValueError


def vectors(dim, bound=5):
    return st.tuples(*[st.integers(-bound, bound)] * dim)


class TestMinors:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.lists(vectors(n), min_size=n, max_size=n)))
    def test_det_is_the_laplace_expansion(self, cols):
        # the two determinants written out here: det2, and u.(v x w)
        if len(cols) == 2:
            got = det2(*cols)
        else:
            got = _dot(cols[0], _cross(cols[1], cols[2]))
        assert got == laplace_det(cols)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_solve_agrees_with_elimination(self, data):
        # two arbitrary columns in Z^3, zero vectors and dependent pairs
        # included; the target is either arbitrary (mostly off the span)
        # or drawn inside it
        dim = 3
        cols = tuple(data.draw(vectors(dim)) for _ in range(2))
        if data.draw(st.booleans()):
            target = data.draw(vectors(dim, 9))
        else:
            coeffs = [data.draw(st.integers(-4, 4)) for _ in cols]
            target = tuple(sum(c * v[i] for c, v in zip(coeffs, cols)) for i in range(dim))
        got = outcome(_solve, cols, target)
        want = outcome(solve_by_elimination, cols, target)
        if isinstance(got, tuple):
            nums, d = got
            assert type(d) is int and d > 0
            assert all(type(v) is int for v in nums)
            got = [Fraction(v, d) for v in nums]
        assert got == want

    def test_solve_frozen(self):
        # in the span, off it, and dependent; the pairs are (numerators, d)
        # with d > 0, undivided
        assert _solve((E1, E2), (3, -2, 0)) == ([3, -2], 1)
        assert _solve((E1, E2), (3, -2, 1)) is None
        assert _solve(((1, 1, 0), (1, -1, 0)), (1, 0, 0)) == ([2, 2], 4)
        for cols in [((1, 2, 3), (2, 4, 6)), ((0, 0, 0), E1)]:
            with pytest.raises(ValueError, match="dependent"):
                _solve(cols, (0, 0, 0))


class TestMultiplicity:
    def test_basis_cone(self):
        assert multiplicity(Cone((E1, E2, E3))) == 1

    def test_index_two(self):
        assert multiplicity(Cone(((1, 0, 0), (-1, 0, 2)))) == 2

    def test_rational_normal_cone(self):
        for ap in range(1, 6):
            c = Cone(((0, 1, 0), (0, -1, ap)))
            assert multiplicity(c) == ap

    def test_non_simplicial_rejected(self):
        with pytest.raises(ValueError):
            multiplicity(Cone(((1, 0, 0), (0, 1, 0), (1, 1, 0))))
        with pytest.raises(ValueError):
            multiplicity(sigma_of(1, 2, 1))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_agrees_with_smith_normal_form(self, count, data):
        # oracle: the product of the nonzero invariant factors, defined
        # when there is one per ray; 4 rays in rank 3 are not simplicial
        rays = random_rays(data, count, 3, 6)
        diag = smith_normal_form(IntMatrix.from_cols(rays)).diag
        nonzero = [d for d in diag if d]
        if len(nonzero) == count:
            assert multiplicity(Cone(rays)) == math.prod(nonzero)
        else:
            with pytest.raises(ValueError, match="not simplicial"):
                multiplicity(Cone(rays))


class TestClassify2d:
    def test_frozen(self):
        assert classify_2d(((1, 0), (0, 1))) == CyclicSingularity(1, 0)
        assert classify_2d(((1, 0), (-1, 2))) == CyclicSingularity(2, 1)
        assert classify_2d(((1, 0), (1, 2))) == CyclicSingularity(2, 1)
        assert classify_2d(((1, 0), (2, 3))) == CyclicSingularity(3, 1)

    def test_mprime_dual(self):
        # index-2 character cone of the slice semigroup at (1,3,1)
        semi = slice_semigroup(derive_params(1, 3, 1), "prime")
        got = classify_2d(dual_cone_rays(semi))
        assert got.order == 2
        assert got == CyclicSingularity(2, 1) == CyclicSingularity(*quotient_type(semi))

    def test_quotient_type_matches_the_oracles(self):
        # every slice with q, m <= 20: quotient_type against the normal form
        # of the dual cone, and against the Hirzebruch-Jung hull walk, which
        # inverts the twist when it swaps the rays into positive order
        pointed = 0
        for params in iter_instances(20, 20):
            for which in ("plus", "minus", "prime"):
                s = slice_semigroup(params, which)
                try:
                    got = quotient_type(s)
                except ValueError:
                    # only S' at height 1 is not pointed
                    assert which == "prime" and params.p == params.q
                    with pytest.raises(ValueError, match="not pointed"):
                        dual_cone_rays(s)
                    continue
                pointed += 1
                d1, d2 = dual_cone_rays(s)
                want = classify_2d((d1, d2))
                assert got == (want.order, want.twist), s
                n, c = hull_walk_type(d1, d2)
                if det2(d1, d2) < 0 and n > 1:
                    c = pow(c, -1, n)
                assert got == (n, c), s
        assert pointed == 3 * 2560 - 20

    def test_ray_swap_inverts_twist(self):
        c = classify_2d(((1, 0), (-2, 5)))
        d = classify_2d(((-2, 5), (1, 0)))
        assert c.order == d.order == 5
        assert (c.twist * d.twist) % 5 == 1
        assert same_type(c, d)

    def test_hilbert_basis_is_the_hj_chain_of_the_slice(self):
        # the basis of S, in congruence-lattice coordinates and boundary
        # order, satisfies u_{i-1} + u_{i+1} = c_i*u_i, and [c_1, ..., c_s]
        # is the continued fraction n/(n-c) of the dual type 1/n(1, c)
        slices = [
            slice_semigroup(derive_params(p, q, m), which)
            for p, q in [(1, 1)] + pq_sweep(11)
            for m in range(1, 15)
            for which in ("plus", "minus", "prime")
            if not (which == "prime" and p == q)  # not pointed
        ]
        assert len(slices) == 1750
        for s in slices:
            b1, b2 = congruence_lattice_basis(s)
            d = det2(b1, b2)

            def in_l(g):
                return (det2(g, b2) // d, det2(b1, g) // d)

            hb = hilbert_basis(s)
            v1, v2 = (in_l(u) for u in chain_ends(hb))
            if det2(v1, v2) < 0:
                v1, v2 = v2, v1
            chain = sorted((in_l(g) for g in hb.generators), key=lambda u: det2(v1, u))
            assert (chain[0], chain[-1]) == (v1, v2)
            cs = []
            for u_prev, u, u_next in zip(chain, chain[1:], chain[2:]):
                c = next((a + b) // x for a, b, x in zip(u_prev, u_next, u) if x)
                assert (u_prev[0] + u_next[0], u_prev[1] + u_next[1]) == (c * u[0], c * u[1])
                cs.append(c)
            kind = CyclicSingularity(*quotient_type(s))
            n = kind.order
            assert det2(v1, v2) == n, s
            if not cs:
                assert n == 1, s
                continue
            val = Fraction(cs[-1])
            for c in reversed(cs[:-1]):
                val = c - 1 / val
            twists = {kind.twist, pow(kind.twist, -1, n)}
            assert any(val == Fraction(n, n - c) for c in twists), (s, cs, kind)

    def test_hull_walk_frozen(self):
        assert hull_walk_type((1, 0), (-1, 2)) == (2, 1)
        assert hull_walk_type((1, 0), (-1, 3)) == (3, 1)
        assert hull_walk_type((1, 0), (-2, 3)) == (3, 2)
        assert hull_walk_type((1, 0), (0, 1)) == (1, 0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    )
    def test_matches_hull_walk(self, r1, r2):
        if r1 == (0, 0) or r2 == (0, 0) or det2(r1, r2) == 0:
            return
        r1, r2 = primitive(r1), primitive(r2)
        if det2(r1, r2) < 0:
            r1, r2 = r2, r1
        got = classify_2d((r1, r2))
        assert (got.order, got.twist) == hull_walk_type(r1, r2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        st.lists(st.tuples(st.sampled_from("LRS"), st.integers(-3, 3)), max_size=5),
    )
    def test_gl2_invariance(self, r1, r2, word):
        if r1 == (0, 0) or r2 == (0, 0) or det2(r1, r2) == 0:
            return
        r1, r2 = primitive(r1), primitive(r2)
        u = ((1, 0), (0, 1))
        for kind, k in word:
            if kind == "L":
                u = ((u[0][0] + k * u[1][0], u[0][1] + k * u[1][1]), u[1])
            elif kind == "R":
                u = (u[0], (u[1][0] + k * u[0][0], u[1][1] + k * u[0][1]))
            else:
                u = (u[1], u[0])
        apply = lambda v: (
            u[0][0] * v[0] + u[0][1] * v[1],
            u[1][0] * v[0] + u[1][1] * v[1],
        )
        assert classify_2d((apply(r1), apply(r2))) == classify_2d((r1, r2))

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_2d(((1, 0, 0), (0, 1, 0)))
        with pytest.raises(ValueError):
            classify_2d(((1, 0), (-1, 0)))  # line, proportional rays

    def test_singularity_validation(self):
        with pytest.raises(ValueError):
            CyclicSingularity(4, 2)
        with pytest.raises(ValueError):
            CyclicSingularity(3, 3)
        with pytest.raises(ValueError):
            CyclicSingularity(0, 0)
        assert CyclicSingularity(1, 0).is_smooth
        assert str(CyclicSingularity(5, 2)) == "1/5(1,2)"

    def test_same_type(self):
        assert same_type(CyclicSingularity(5, 2), CyclicSingularity(5, 3))
        assert not same_type(CyclicSingularity(5, 2), CyclicSingularity(5, 4))
        assert same_type(CyclicSingularity(1, 0), CyclicSingularity(1, 0))
        assert not same_type(CyclicSingularity(2, 1), CyclicSingularity(3, 1))


class TestSigma:
    def test_frozen_121(self):
        c = sigma_of(1, 2, 1)
        assert c.rays == ((1, 0, 0), (-1, 0, 2), (0, 1, 0), (0, -1, 1))

    def test_relation_sweep(self):
        for p, q in pq_sweep():
            for a in (1, 2, 3):
                v1, v2, v3, v4 = sigma_of(p, q, a).rays
                lhs = tuple(p * (x + y) for x, y in zip(v1, v2))
                assert lhs == tuple(q * (x + y) for x, y in zip(v3, v4))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            sigma_of(2, 1, 1)
        with pytest.raises(ValueError):
            sigma_of(2, 4, 1)
        with pytest.raises(ValueError):
            sigma_of(1, 2, 0)
        with pytest.raises(ValueError):
            sigma_of(1, 1, 1)


class TestSigma0:
    def test_frozen(self):
        assert sigma0_of(1, 3).rays == ((0, 0, 1), (1, 1, -1), (0, 1, 0), (1, -3, 0))
        assert sigma0_of(1, 2).rays[3] == (1, -2, 0)
        assert sigma0_of(2, 3).rays[3] == (2, -3, 0)

    def test_relation(self):
        for p, q in pq_sweep():
            v1, v2, v3, v4 = sigma0_of(p, q).rays
            lhs = tuple(p * (x + y) for x, y in zip(v1, v2))
            assert lhs == tuple((p + q) * z + w for z, w in zip(v3, v4))

    def test_invalid(self):
        with pytest.raises(ValueError):
            sigma0_of(1, 1)
        with pytest.raises(ValueError):
            sigma0_of(3, 6)


class TestStarSubdivision:
    def test_smooth_sweep(self):
        for p, q in pq_sweep():
            for a in (1, 2, 3):
                fan = star_subdivide_at_v5(sigma_of(p, q, a))
                assert len(fan.max_cones) == 4
                assert all(multiplicity(c) == 1 for c in fan.max_cones)

    def test_cone_structure(self):
        v1, v2, v3, v4 = sigma_of(1, 2, 1).rays
        fan = star_subdivide_at_v5(sigma_of(1, 2, 1))
        got = {frozenset(c.rays) for c in fan.max_cones}
        want = {
            frozenset({v1, v3, E3}),
            frozenset({v1, v4, E3}),
            frozenset({v2, v3, E3}),
            frozenset({v2, v4, E3}),
        }
        assert got == want

    def test_center_must_be_interior(self):
        shifted = Cone(((1, 0, 1), (-1, 0, 3), (0, 1, 2), (0, -1, 2)))
        with pytest.raises(ValueError):
            star_subdivide_at_v5(Cone(((1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 1, 1))))
        # e3 interior is fine even off the standard family
        assert len(star_subdivide_at_v5(shifted).max_cones) == 4

    def test_agrees_with_the_scan_oracle(self):
        # same cones in the same order, or ValueError from both: sigma0 has
        # e3 as a ray, so e3 is not interior there
        shifted = Cone(((1, 0, 1), (-1, 0, 3), (0, 1, 2), (0, -1, 2)))
        cones = [sigma_of(p, q, a) for p, q in pq_sweep() for a in (1, 2, 3)]
        cones += [sigma0_of(p, q) for p, q in pq_sweep()] + [shifted]
        for c in cones:
            got = subdivided(star_subdivide_at_v5, c)
            assert got == subdivided(star_subdivide_by_scan, c), c
            assert got is not ValueError or c.rays[0] == E3, c
            assert mixed_pairs(c) == [(i, j) for i, j, _ in facets_of_4cone(c)], c

    @pytest.mark.parametrize("rays", [
        ((1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 1, 1)),  # v3 + v1 = v4
        ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)),  # v1 + v2 = v3
        ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)),  # coplanar
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),  # not pointed
    ])
    def test_degenerate_cones_rejected(self, rays):
        c = Cone(rays)
        assert len(facets_of_4cone(c)) != 4
        for fn in (star_subdivide_at_v5, flip_subdivisions, _diagonals):
            with pytest.raises(ValueError):
                fn(c)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_relation_split_agrees_with_the_scan(self, data):
        # the relation splits 2 + 2 exactly when the scan finds four facets,
        # and then the facets are the pairs across the split
        c = Cone(random_rays(data, 4, 3, 3))
        facets = [(i, j) for i, j, _ in facets_of_4cone(c)]
        try:
            pairs = mixed_pairs(c)
        except ValueError:
            assert len(facets) != 4
            return
        assert pairs == facets
        assert subdivided(star_subdivide_at_v5, c) == subdivided(star_subdivide_by_scan, c)


class TestFlipSubdivisions:
    def test_walls_121(self):
        sigma = sigma_of(1, 2, 1)
        v1, v2, v3, v4 = sigma.rays
        plus, minus = flip_subdivisions(sigma)
        assert set(common_wall(plus).rays) == {v3, v4}
        assert set(common_wall(minus).rays) == {v1, v2}
        assert all(multiplicity(c) == 1 for c in plus.max_cones)

    def test_wall_assignment_sweep(self):
        for p, q in pq_sweep():
            for a in (1, 2, 3):
                sigma = sigma_of(p, q, a)
                v1, v2, v3, v4 = sigma.rays
                plus, minus = flip_subdivisions(sigma)
                assert set(common_wall(plus).rays) == {v3, v4}
                assert set(common_wall(minus).rays) == {v1, v2}

    def test_conifold_flop(self):
        conifold = Cone(((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)))
        plus, minus = flip_subdivisions(conifold)
        assert len(plus.max_cones) == 2 and len(minus.max_cones) == 2
        assert wall_curve_K_degree(plus, common_wall(plus)) == 0
        assert wall_curve_K_degree(minus, common_wall(minus)) == 0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            flip_subdivisions(Cone(((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1))))

    def test_coplanar_rays_do_not_span(self):
        with pytest.raises(ValueError, match="do not span"):
            flip_subdivisions(Cone(((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0))))

    def test_relation_of_sigma(self):
        # p(v1 + v2) = q(v3 + v4), already primitive for coprime p, q
        for p, q in pq_sweep():
            for a in (1, 2, 3):
                assert _relation(sigma_of(p, q, a).rays) == (p, p, -q, -q)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_relation_agrees_with_kernel_basis(self, data):
        rays = random_rays(data, 4, 3, 4)
        ker = kernel_basis(IntMatrix.from_cols(rays))
        if len(ker) != 1:
            with pytest.raises(ValueError, match="do not span"):
                _relation(rays)
            return
        rel, want = _relation(rays), primitive(ker[0])
        assert rel in (want, tuple(-x for x in want))


class TestWallCurveDegree:
    def test_conifold(self):
        fan = Fan((
            Cone(((1, 0, 1), (0, 1, 1), (0, 0, 1))),
            Cone(((1, 0, 1), (0, 1, 1), (1, 1, 1))),
        ))
        wall = Cone(((1, 0, 1), (0, 1, 1)))
        assert wall_curve_K_degree(fan, wall) == 0

    def test_frozen_121(self):
        sigma = sigma_of(1, 2, 1)
        v1, v2, v3, v4 = sigma.rays
        plus, minus = flip_subdivisions(sigma)
        assert wall_curve_K_degree(plus, common_wall(plus)) == 2
        assert wall_curve_K_degree(minus, common_wall(minus)) == -1
        assert multiplicity(common_wall(minus)) == 2

    def test_sign_and_bridge_sweep(self):
        for p, q in pq_sweep():
            for a in (1, 2, 3):
                plus, minus = flip_subdivisions(sigma_of(p, q, a))
                wp, wm = common_wall(plus), common_wall(minus)
                dp = wall_curve_K_degree(plus, wp)
                dm = wall_curve_K_degree(minus, wm)
                assert dp > 0 > dm
                assert dp / multiplicity(wp) == Fraction(2 * (q - p), a * p * p)
                assert dm / multiplicity(wm) == Fraction(2 * (p - q), a * q * q)

    def test_wall_multiplicities(self):
        for p, q in pq_sweep(5):
            for a in (1, 2):
                plus, minus = flip_subdivisions(sigma_of(p, q, a))
                assert multiplicity(common_wall(plus)) == a * p
                assert multiplicity(common_wall(minus)) == a * q

    def test_agrees_with_the_rational_computation(self):
        for p, q in pq_sweep():
            for a in range(1, 7):
                for fan in flip_subdivisions(sigma_of(p, q, a)):
                    wall = common_wall(fan)
                    got = wall_curve_K_degree(fan, wall)
                    assert type(got) is Fraction
                    assert got == wall_degree_by_fractions(fan, wall), (p, q, a)

    def test_bad_wall_rejected(self):
        sigma = sigma_of(1, 2, 1)
        plus, _ = flip_subdivisions(sigma)
        v1, v2, v3, v4 = sigma.rays
        with pytest.raises(ValueError):
            wall_curve_K_degree(plus, Cone((v1, v3)))  # face of only one cone

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("LRS"), st.integers(-2, 2)), max_size=4))
    def test_conifold_invariance(self, word):
        u = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        for kind, k in word:
            if kind == "L":
                u = (
                    tuple(a + k * b for a, b in zip(u[0], u[1])),
                    u[1],
                    u[2],
                )
            elif kind == "R":
                u = (
                    u[0],
                    tuple(a + k * b for a, b in zip(u[1], u[2])),
                    u[2],
                )
            else:
                u = (u[2], u[0], u[1])
        apply = lambda v: tuple(sum(r[i] * v[i] for i in range(3)) for r in u)
        rays = [apply(r) for r in ((1, 0, 1), (0, 1, 1), (0, 0, 1), (1, 1, 1))]
        fan = Fan((
            Cone((rays[0], rays[1], rays[2])),
            Cone((rays[0], rays[1], rays[3])),
        ))
        assert wall_curve_K_degree(fan, Cone((rays[0], rays[1]))) == 0


CONIFOLD = ((0, 0, 1), (1, 1, 1), (1, 0, 1), (0, 1, 1))


class TestGaifullin:
    def test_sigma_family(self):
        for p, q in pq_sweep():
            for a in (1, 2):
                assert gaifullin_criterion(sigma_of(p, q, a))

    def test_sigma0_family(self):
        for p, q in pq_sweep():
            assert not gaifullin_criterion(sigma0_of(p, q))

    def test_conifold(self):
        assert gaifullin_criterion(Cone(CONIFOLD))

    def test_ray_order_is_irrelevant(self):
        # the diagonals come from the signs of the relation, not from the
        # positions of the rays
        for rays, want in [(sigma_of(2, 5, 1).rays, True), (sigma_of(1, 3, 2).rays, True),
                           (sigma0_of(2, 5).rays, False), (sigma0_of(1, 2).rays, False),
                           (CONIFOLD, True)]:
            for order in itertools.permutations(rays):
                assert gaifullin_criterion(Cone(order)) is want, order

    def test_degeneration_coefficients_are_the_kernel(self):
        # read off sigma0 by _relation, they match the kernel oracle up to
        # sign, with the two diagonals as the two signs
        for p, q in pq_sweep(20):
            sigma0 = sigma0_of(p, q)
            want = primitive(kernel_basis(IntMatrix.from_cols(sigma0.rays))[0])
            if want[0] < 0:
                want = tuple(-x for x in want)
            assert want == (p, p, -(p + q), -1)
            deg = toric_degeneration(derive_params(p, q, q - p))
            assert deg.relation_coefficients == tuple(abs(x) for x in want)

    def test_needs_a_pointed_quadrilateral(self):
        for rays in [(E1, E2, E3), (E1, E2, E3, (-1, -1, -1)), (E1, E2, (1, 1, 1), (2, 1, 1))]:
            with pytest.raises(ValueError):
                gaifullin_criterion(Cone(rays))


class TestFanValidation:
    def test_duplicate_rejected(self):
        c = Cone((E1, E2, E3))
        with pytest.raises(ValueError, match="duplicate"):
            validate_fan_pairwise(Fan((c, Cone((E1, E2, E3)))))

    def test_overlap_across_face_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            validate_fan_pairwise(Fan((Cone((E1, E2, E3)), Cone((E1, E2, (1, 1, 1))))))

    def test_foreign_ray_inside_rejected(self):
        fan = Fan((Cone((E1, E2, E3)), Cone(((1, 1, 1), (2, 1, 1), (1, 2, 1)))))
        with pytest.raises(ValueError, match="inside"):
            validate_fan_pairwise(fan)

    def test_fan_checks_each_cone(self):
        with pytest.raises(ValueError, match="at least one"):
            Fan(())
        with pytest.raises(ValueError, match="not simplicial"):
            Fan((sigma_of(1, 2, 1),))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_subdivisions_pass_the_pairwise_oracle(self, data):
        # every fan the package builds, from a random primitive 4-ray cone
        # or from sigma, meets in common faces
        if data.draw(st.booleans()):
            c = Cone(random_rays(data, 4, 3, 4))
        else:
            q = data.draw(st.integers(2, 12))
            p = data.draw(st.integers(1, q - 1).filter(lambda p: math.gcd(p, q) == 1))
            c = sigma_of(p, q, data.draw(st.integers(1, 5)))
        fans = []
        for subdivide in (flip_subdivisions, star_subdivide_at_v5):
            try:
                got = subdivide(c)
            except ValueError:
                continue
            fans.extend(got if isinstance(got, tuple) else (got,))
        for fan in fans:
            validate_fan_pairwise(fan)

    def test_cone_validation(self):
        with pytest.raises(ValueError):
            Cone(((2, 0, 0), (0, 1, 0)))  # non-primitive
        with pytest.raises(ValueError):
            Cone(((1, 0), (2, 0)))
        with pytest.raises(ValueError):
            Cone(((0, 0),))
        with pytest.raises(ValueError):
            Cone(())

    def test_rank_two_rejected(self):
        # a slice's rank-2 cone is semigroup's normal form, not a Cone
        for rays in [((1, 0), (0, 1)), (E1, (0, 1)), ((1, 0), E1, E2)]:
            with pytest.raises(ValueError, match="only rank 3"):
                Cone(rays)

    def test_one_ray_rejected(self):
        with pytest.raises(ValueError, match="at least two rays"):
            Cone(((1, 0),))

    @settings(max_examples=500, deadline=None)
    @given(ray_tuples())
    def test_cone_validation_agrees_with_the_pairwise_oracle(self, rays):
        def outcome(check):
            try:
                check(rays)
            except ValueError as exc:
                return str(exc)
            return None

        assert outcome(Cone) == outcome(validate_cone_pairwise)

    def test_cone_validation_calls_no_primitive(self, monkeypatch):
        # primitivity is gcd == 1, not a comparison with primitive(ray)
        calls = []
        monkeypatch.setattr(toricgeom, "primitive", lambda v: calls.append(v) or primitive(v))
        Cone((E1, E2, E3))
        sigma_of(2, 5, 3)
        assert calls == []
        with pytest.raises(ValueError, match="zero vector"):
            Cone(((0, 0, 0), E1))

    def test_fan_rays_deduplicated(self):
        fan = star_subdivide_at_v5(sigma_of(1, 2, 1))
        rays = fan_rays(fan)
        assert len(rays) == len(set(rays)) == 5
