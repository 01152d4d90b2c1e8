import math
import time
from fractions import Fraction
from functools import cmp_to_key, lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2flip.lattice import det2, primitive, xgcd
from sl2flip.semigroup import (
    AffineSemigroup,
    congruence_lattice_basis,
    cone_rays,
    hilbert_basis,
    quotient_type,
)
from sl2flip.sl2core import (
    CrossCheckError,
    _check_fibers,
    degeneration_fibers,
    derive_params,
    iter_instances,
    make_Mtilde,
    slice_semigroup,
)


def slice_of(which, p, q, m):
    """The slice semigroup `which` of the instance (p/q, m)."""
    return slice_semigroup(derive_params(p, q, m), which)


def derived(p, q, m):
    k = math.gcd(q - p, m) if q > p else m
    return k, m // k, (q - p) // k


def small_params():
    out = []
    for q in range(1, 6):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            for m in range(1, 5):
                out.append((p, q, m))
    return out


def cone_rays_by_primitive(s):
    """The former cone_rays, kept as the oracle of the unpacked one: one
    primitive() call per boundary line and an all() over the covectors per
    candidate direction."""
    if s.rank != 2:
        raise ValueError("cone_rays handles rank 2 only")
    ineqs = s.inequalities
    rays = []
    for c in ineqs:
        if c == (0, 0):
            continue
        d0 = primitive((-c[1], c[0]))
        for d in (d0, (-d0[0], -d0[1])):
            if all(c2[0] * d[0] + c2[1] * d[1] >= 0 for c2 in ineqs):
                if d not in rays:
                    rays.append(d)
    for r in rays:
        if (-r[0], -r[1]) in rays:
            raise ValueError("cone contains a line, not pointed")
    if len(rays) != 2 or det2(rays[0], rays[1]) == 0:
        raise ValueError(f"expected a pointed full 2d cone, found rays {rays}")
    return tuple(sorted(rays))


def rays_or_message(find_rays, s):
    try:
        return find_rays(s)
    except ValueError as e:
        return str(e)


def brute_minimal_generators(s, lo, hi):
    """Independent irreducibility oracle: a point is a generator iff it is
    not the sum of two nonzero semigroup points (searched in a box large
    enough to contain every part of every decomposition)."""
    pts = [
        (x, y)
        for x in range(lo[0], hi[0] + 1)
        for y in range(lo[1], hi[1] + 1)
        if (x, y) != (0, 0) and s.contains((x, y))
    ]
    ptset = set(pts)
    return sorted(
        x for x in pts
        if not any((x[0] - y[0], x[1] - y[1]) in ptset for y in pts)
    )


def chain_ends(hb):
    """The first and the last point of the chain of hb, read off its runs."""
    (x, y), (dx, dy), count = hb.runs[-1]
    return hb.runs[0][0], (x + (count - 1) * dx, y + (count - 1) * dy)


def ends_are(hb, ray_points):
    """The chain of hb runs counterclockwise from one of ray_points to the
    other."""
    ends = chain_ends(hb)
    return set(ends) == set(ray_points) and det2(*ends) > 0


def minimal_ray_point(s, ray):
    """Oracle for the ends of the chain of hilbert_basis(s), its ray
    points: the smallest positive multiple of a primitive extremal ray
    lying in s.

    On the ray every inequality already holds, so only the congruences can
    fail: t*ray meets g.x == 0 mod n exactly when n / gcd(g.ray, n) divides
    t, and the smallest such t is the lcm of those quotients.  If t*ray is
    still not a member, the ray was not a semigroup direction.
    """
    t = math.lcm(
        1, *(n // math.gcd(sum(gi * ri for gi, ri in zip(g, ray)), n) for g, n in s.congruences)
    )
    point = tuple(t * ri for ri in ray)
    if not s.contains(point):
        cap = math.lcm(1, *(n for _, n in s.congruences))
        raise RuntimeError(f"no semigroup point on ray {tuple(ray)} within lcm bound {cap}")
    return point


def parallelepiped_hilbert_basis(s):
    """Reference oracle: the minimal points u1, u2 on the two extremal rays
    (found by scanning multiples up to the lcm of the moduli), plus every
    semigroup point of the half-open parallelepiped
    {a*u1 + b*u2 : 0 <= a, b < 1}, sieved down to the candidates that do
    not split as candidate + nonzero semigroup element.  Returns
    (generators, rays, ray_points); cost grows with det(u1, u2)."""

    def scan_ray_point(ray):
        cap = math.lcm(1, *(n for _, n in s.congruences))
        for t in range(1, cap + 1):
            point = tuple(t * ri for ri in ray)
            if s.contains(point):
                return point
        raise RuntimeError(f"no semigroup point on ray {tuple(ray)} within lcm bound {cap}")

    r1, r2 = cone_rays(s)
    u1 = scan_ray_point(r1)
    u2 = scan_ray_point(r2)
    d = det2(u1, u2)
    corners = [(0, 0), u1, u2, (u1[0] + u2[0], u1[1] + u2[1])]
    xs = range(min(c[0] for c in corners), max(c[0] for c in corners) + 1)
    ys = range(min(c[1] for c in corners), max(c[1] for c in corners) + 1)
    candidates = [u1, u2]
    for x0 in xs:
        for x1 in ys:
            if (x0, x1) == (0, 0):
                continue
            alpha = Fraction(det2((x0, x1), u2), d)
            beta = Fraction(det2(u1, (x0, x1)), d)
            if 0 <= alpha < 1 and 0 <= beta < 1 and s.contains((x0, x1)):
                candidates.append((x0, x1))
    basis = []
    for x in candidates:
        for c in candidates:
            rest = (x[0] - c[0], x[1] - c[1])
            if rest != (0, 0) and s.contains(rest):
                break
        else:
            basis.append(x)
    return tuple(sorted(basis)), (r1, r2), (u1, u2)


def hilbert_basis_by_steps(s):
    """The former hilbert_basis, kept as the oracle of the walk by runs: one
    step u_{i+1} = c_i*u_i - u_{i-1} of the chain per generator.  Returns
    (generators, rays, ray_points).  The rays' coordinates in the lattice
    basis come from Cramer's rule here, not from the semigroup's own."""
    r1, r2 = s._rays
    b1, b2 = s._lattice_basis
    w1, w2 = (primitive((det2(r, b2), det2(b1, r))) for r in (r1, r2))
    v1, v2 = (w1, w2) if det2(w1, w2) > 0 else (w2, w1)
    n = det2(v1, v2)
    x, y, _ = xgcd(-v1[1], v1[0])
    t = -(det2((x, y), v2) // n)
    chain = [v1, (x + t * v1[0], y + t * v1[1])]
    while chain[-1] != v2:
        u_prev, u = chain[-2], chain[-1]
        c = -(-det2(u_prev, v2) // det2(u, v2))
        chain.append((c * u[0] - u_prev[0], c * u[1] - u_prev[1]))

    def in_z2(u):
        return (u[0] * b1[0] + u[1] * b2[0], u[0] * b1[1] + u[1] * b2[1])

    return tuple(sorted(in_z2(u) for u in chain)), (r1, r2), (in_z2(w1), in_z2(w2))


def dual_cone_rays(s):
    """The former semigroup.dual_cone_rays, kept with test_toricgeom's
    classify_2d as the oracle of quotient_type: the primitive rays of the
    dual cone, in coordinates dual to the congruence lattice basis, first
    the one that vanishes on the lex-second ray and is positive on the
    lex-first, then the other."""
    p1, p2 = s._lattice_rays

    def dual_ray(perp_of, positive_on):
        sperp = (-perp_of[1], perp_of[0])
        val = sperp[0] * positive_on[0] + sperp[1] * positive_on[1]
        if val == 0:
            raise ValueError("degenerate dual cone")
        return sperp if val > 0 else (-sperp[0], -sperp[1])

    return (dual_ray(p2, p1), dual_ray(p1, p2))


def runs_of_chain(points):
    """The runs HilbertBasis keeps for these points of a pointed cone: the
    points in counterclockwise order, cut into progressions, each as long
    as it goes.  A run after the first steps by its start minus the point
    before it; the first steps to the second point (by (0, 0) when there is
    only one)."""
    chain = sorted(points, key=cmp_to_key(lambda u, v: det2(v, u)))
    runs = []
    for i, g in enumerate(chain):
        if not runs:
            nxt = chain[1] if len(chain) > 1 else g
            runs.append([g, (nxt[0] - g[0], nxt[1] - g[1]), 1])
            continue
        start, step, count = runs[-1]
        if g == (start[0] + count * step[0], start[1] + count * step[1]):
            runs[-1][2] += 1
        else:
            runs.append([g, (g[0] - chain[i - 1][0], g[1] - chain[i - 1][1]), 1])
    return tuple(map(tuple, runs))


def oracle_sweep(qmax=7, mmax=10):
    return [
        (which, p, q, m)
        for which in ("plus", "minus", "prime")
        for q in range(1, qmax + 1)
        for p in range(1, q + 1)
        if math.gcd(p, q) == 1
        for m in range(1, mmax + 1)
    ]


class TestFactories:
    def test_mplus_membership(self):
        s = slice_of("plus", 1, 2, 1)
        assert s.contains((3, 1))
        assert not s.contains((1, 1))  # needs j <= i/2
        assert s.contains((0, 0))

    def test_mplus_132(self):
        s = slice_of("plus", 1, 3, 2)
        assert s.contains((3, 1))
        assert not s.contains((4, 2))  # 3*2 > 4
        assert not s.contains((2, 1))  # parity: 2 does not divide 1

    def test_mminus_membership(self):
        s = slice_of("minus", 1, 2, 1)
        assert s.contains((0, -1))
        assert not s.contains((-1, -1))
        assert not slice_of("plus", 1, 2, 1).contains((0, -1))

    def test_mprime_membership(self):
        s = slice_of("prime", 1, 3, 1)
        # needs 3i <= j... no: p*j - q*i >= 0 and j >= i
        assert s.contains((1, 3))
        assert s.contains((-1, 0))
        assert not s.contains((1, 2))
        assert not s.contains((3, 1))

    def test_mtilde_membership(self):
        s = make_Mtilde(derive_params(1, 3, 2))
        assert s.contains((2, 0, 1))
        assert not s.contains((2, 0, 3))  # third coordinate exceeds i+j
        assert not s.contains((2, 0, -1))

    def test_mtilde_transposition(self):
        s = make_Mtilde(derive_params(1, 3, 2))
        t = make_Mtilde(derive_params(1, 3, 2), transpose_ij=True)
        assert t.contains((0, 2, 1))
        for i in range(-1, 7):
            for j in range(-1, 7):
                for l in range(-1, 8):
                    assert s.contains((i, j, l)) == t.contains((j, i, l))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(small_params()), st.data())
    def test_contains_additive(self, pqm, data):
        s = slice_of("plus", *pqm)
        box = [
            (x, y)
            for x in range(0, 9)
            for y in range(0, 9)
            if s.contains((x, y))
        ]
        x = data.draw(st.sampled_from(box))
        y = data.draw(st.sampled_from(box))
        assert s.contains((x[0] + y[0], x[1] + y[1]))


class TestConeRays:
    def test_mplus_rays(self):
        assert cone_rays(slice_of("plus", 1, 3, 2)) == ((1, 0), (3, 1))
        assert cone_rays(slice_of("plus", 2, 5, 1)) == ((1, 0), (5, 2))

    def test_mminus_rays(self):
        assert cone_rays(slice_of("minus", 1, 2, 1)) == ((0, -1), (2, 1))

    def test_mprime_rays(self):
        assert cone_rays(slice_of("prime", 1, 3, 1)) == ((-1, -1), (1, 3))

    def test_mprime_height_one_not_pointed(self):
        with pytest.raises(ValueError):
            cone_rays(slice_of("prime", 1, 1, 3))

    def test_rank3_rejected(self):
        with pytest.raises(ValueError):
            cone_rays(make_Mtilde(derive_params(1, 2, 1)))

    def test_rays_satisfy_constraints(self):
        for p, q, m in small_params():
            s = slice_of("plus", p, q, m)
            for r in cone_rays(s):
                for c in s.inequalities:
                    assert c[0] * r[0] + c[1] * r[1] >= 0

    @settings(max_examples=300, deadline=None)
    @given(
        covectors=st.lists(st.tuples(*[st.integers(-4, 4)] * 2), max_size=4),
        repeats=st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=2),
        nonneg=st.sets(st.sampled_from((0, 1))),
    )
    # zero covector, duplicate, half-plane, line, single ray, pointed
    # cone, repeats that make a duplicate and a line, and no covector
    @example(covectors=[(0, 0), (1, 0), (0, 1)], repeats=[], nonneg=set())
    @example(covectors=[(1, 2), (1, 2), (-1, 3)], repeats=[], nonneg=set())
    @example(covectors=[(2, -3)], repeats=[], nonneg=set())
    @example(covectors=[(1, 1), (-1, -1)], repeats=[], nonneg=set())
    @example(covectors=[(1, 0), (-1, 0)], repeats=[], nonneg={1})
    @example(covectors=[(-1, 3)], repeats=[], nonneg={0, 1})
    @example(covectors=[(2, 4), (0, 3)], repeats=[(0, False), (1, True)], nonneg={0})
    @example(covectors=[], repeats=[], nonneg=set())
    def test_agrees_with_the_primitive_scan(self, covectors, repeats, nonneg):
        # repeats copy a drawn covector, or its negative, to make
        # duplicates and lines; nonneg appends the unit covectors of the
        # coordinates it holds; the rays or the ValueError message agree
        for i, negate in repeats:
            if covectors:
                c = covectors[i % len(covectors)]
                covectors.append((-c[0], -c[1]) if negate else c)
        units = [((1, 0), (0, 1))[i] for i in sorted(nonneg)]
        s = AffineSemigroup(2, (*covectors, *units))
        assert rays_or_message(cone_rays, s) == rays_or_message(cone_rays_by_primitive, s)


class TestMinimalRayPoint:
    def test_mplus_ray_points(self):
        s = slice_of("plus", 1, 3, 2)
        assert minimal_ray_point(s, (1, 0)) == (2, 0)
        assert minimal_ray_point(s, (3, 1)) == (3, 1)

    def test_congruence_forces_multiple(self):
        s = slice_of("minus", 1, 2, 3)
        assert minimal_ray_point(s, (0, -1)) == (0, -3)
        assert minimal_ray_point(s, (2, 1)) == (6, 3)  # 3 | t(2-1) forces t=3

    def test_matches_hilbert_basis_ray_points(self):
        for which, p, q, m in oracle_sweep():
            s = slice_of(which, p, q, m)
            if which == "prime" and p == q:
                continue  # not pointed
            r1, r2 = cone_rays(s)
            want = (minimal_ray_point(s, r1), minimal_ray_point(s, r2))
            assert ends_are(hilbert_basis(s), want), (which, p, q, m)

    def test_off_cone_direction_rejected(self):
        with pytest.raises(RuntimeError, match="lcm bound 3"):
            minimal_ray_point(slice_of("plus", 1, 2, 3), (-1, 0))


class TestCongruenceLatticeBasis:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-12, 12), st.integers(-12, 12), st.integers(1, 12))
    def test_hermite_basis_of_the_congruence_lattice(self, g1, g2, n):
        s = AffineSemigroup(2, (), (((g1, g2), n),))
        (alpha, beta), (zero, gamma) = basis = congruence_lattice_basis(s)
        for x in basis:
            assert (g1 * x[0] + g2 * x[1]) % n == 0
        assert zero == 0 and alpha > 0 and gamma > 0 and 0 <= beta < gamma
        # the index, counted: n^2 / #{x in [0, n)^2 : g.x == 0 mod n}
        members = sum(
            (g1 * x0 + g2 * x1) % n == 0 for x0 in range(n) for x1 in range(n)
        )
        assert n * n % members == 0
        assert det2(*basis) == n * n // members == n // math.gcd(g1, g2, n)

    def test_no_congruence_rejected(self):
        # every rank-2 semigroup the package builds has one congruence
        with pytest.raises(ValueError, match="exactly one congruence"):
            congruence_lattice_basis(AffineSemigroup(2, ()))

    def test_two_congruences_rejected(self):
        s = AffineSemigroup(2, (), (((1, -1), 2), ((1, 1), 3)))
        with pytest.raises(ValueError):
            congruence_lattice_basis(s)

    def test_rank3_rejected(self):
        with pytest.raises(ValueError):
            congruence_lattice_basis(make_Mtilde(derive_params(1, 2, 1)))


class TestHilbertBasis:
    def test_frozen_cases(self):
        assert hilbert_basis(slice_of("plus", 1, 3, 2)).generators == ((2, 0), (3, 1))
        assert hilbert_basis(slice_of("plus", 1, 2, 2)).generators == ((2, 0), (3, 1), (4, 2))
        assert hilbert_basis(slice_of("plus", 1, 3, 1)).generators == ((1, 0), (3, 1))
        assert hilbert_basis(slice_of("minus", 1, 2, 1)).generators == ((0, -1), (1, 0), (2, 1))

    def test_closed_form_family(self):
        # when m = a(q-p) the basis is the staircase (m,0),(m+1,1),...,(aq,ap)
        for p, q in [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (1, 6), (5, 6)]:
            for a in (1, 2, 3):
                m = a * (q - p)
                hb = hilbert_basis(slice_of("plus", p, q, m))
                want = tuple((m + t, t) for t in range(a * p + 1))
                assert hb.generators == want, (p, q, a)

    def test_brute_force_oracle_mplus(self):
        for p, q, m in small_params():
            if p == q:
                continue
            k, a, b = derived(p, q, m)
            bound = m + a * q
            hb = hilbert_basis(slice_of("plus", p, q, m))
            brute = brute_minimal_generators(slice_of("plus", p, q, m), (0, 0), (bound, bound))
            assert list(hb.generators) == brute, (p, q, m)

    def test_brute_force_oracle_mplus_height_one(self):
        for m in range(1, 5):
            hb = hilbert_basis(slice_of("plus", 1, 1, m))
            brute = brute_minimal_generators(slice_of("plus", 1, 1, m), (0, 0), (3 * m, 3 * m))
            assert list(hb.generators) == brute

    def test_brute_force_oracle_mminus(self):
        # decompositions of points in [0,B]x[-B,B] have parts in [0,B]x[-2B,B]
        for p, q, m in [(1, 2, 1), (1, 2, 2), (1, 3, 1), (2, 3, 1), (1, 3, 3), (1, 1, 2)]:
            k, a, b = derived(p, q, m)
            bound = m + a * q
            hb = hilbert_basis(slice_of("minus", p, q, m))
            brute = brute_minimal_generators(
                slice_of("minus", p, q, m), (0, -2 * bound), (bound, bound)
            )
            inner = [g for g in brute if g[1] >= -bound]
            assert list(hb.generators) == inner, (p, q, m)
            for g in hb.generators:
                assert g[1] >= -bound  # basis cannot escape the inner window

    def test_generation_by_reachability(self):
        for p, q, m in [(1, 2, 1), (1, 3, 2), (2, 3, 2), (1, 2, 3), (1, 1, 3)]:
            s = slice_of("plus", p, q, m)
            gens = hilbert_basis(s).generators

            @lru_cache(maxsize=None)
            def reachable(x, _gens=gens, _s=s):
                if x == (0, 0):
                    return True
                return any(
                    _s.contains((x[0] - g[0], x[1] - g[1]))
                    and reachable((x[0] - g[0], x[1] - g[1]))
                    for g in _gens
                )

            for i in range(0, 12):
                for j in range(0, 12):
                    if s.contains((i, j)):
                        assert reachable((i, j)), (p, q, m, i, j)

    def test_mprime_basis_smooth_case(self):
        # (1,2,1): b=1, S' is smooth; basis is a lattice basis of the cone
        hb = hilbert_basis(slice_of("prime", 1, 2, 1))
        assert len(hb.generators) == 2
        assert abs(det2(hb.generators[0], hb.generators[1])) == 1

    def test_not_pointed_rejected(self):
        with pytest.raises(ValueError):
            hilbert_basis(slice_of("prime", 1, 1, 2))

    def test_parallelepiped_oracle(self):
        bases = 0
        for which, p, q, m in oracle_sweep():
            s = slice_of(which, p, q, m)
            try:
                want = parallelepiped_hilbert_basis(s)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    hilbert_basis(s)
                assert str(got.value) == str(exc)
                continue
            generators, _, ray_points = want
            hb = hilbert_basis(s)
            assert hb.generators == generators and ends_are(hb, ray_points), (which, p, q, m)
            bases += 1
        assert bases == 530

    def test_cost_follows_output_two_generators(self):
        # the parallelepiped has area 10**6 here; the walk takes one step
        m = 10**6
        assert hilbert_basis(slice_of("prime", 1, 2, m)).generators == ((-1, -1), (m, 2 * m))

    def test_cost_follows_output_long_staircase(self):
        # b = 1 staircase with a*p + 1 = 4001 generators; area a*p*m = 2.4e7
        hb = hilbert_basis(slice_of("plus", 2, 5, 6000))
        assert hb.generators == tuple((6000 + t, t) for t in range(4001))


class TestWalkByRuns:
    @settings(max_examples=300, deadline=None)
    @given(
        q=st.integers(1, 300),
        p_frac=st.fractions(0, 1),
        m=st.integers(1, 400),
        which=st.sampled_from(("plus", "minus", "prime")),
    )
    @example(q=1, p_frac=Fraction(1), m=3, which="prime")  # not pointed
    @example(q=1, p_frac=Fraction(1), m=1, which="plus")
    @example(q=5, p_frac=Fraction(2, 5), m=6000, which="plus")  # one long run
    @example(q=300, p_frac=Fraction(299, 300), m=400, which="minus")
    @example(q=97, p_frac=Fraction(0), m=360, which="prime")
    def test_agrees_with_the_step_walk(self, q, p_frac, m, which):
        p = max(1, round(p_frac * q))
        while math.gcd(p, q) != 1:
            p -= 1
        s = slice_of(which, p, q, m)
        try:
            generators, _, ray_points = hilbert_basis_by_steps(s)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                hilbert_basis(s)
            assert str(got.value) == str(exc)
            return
        hb = hilbert_basis(s)
        assert hb.generators == generators and ends_are(hb, ray_points)
        assert hb.runs == runs_of_chain(generators)
        assert hb.size == len(generators) and len(hb.runs) <= 7

    @pytest.mark.parametrize("p, q, m", [(1, 2, 10**12), (999999, 1000000, 7)])
    @pytest.mark.parametrize("which", ["plus", "minus", "prime"])
    def test_huge_instances_take_a_few_runs(self, p, q, m, which):
        s = slice_of(which, p, q, m)
        start = time.perf_counter()
        hb = hilbert_basis(s)
        assert time.perf_counter() - start < 0.05
        assert len(hb.runs) <= 3
        if which == "plus":
            # b = 1: the staircase (m + t, t), t = 0..ap, in one run
            assert hb.runs == (((m, 0), (1, 1), m // math.gcd(q - p, m) * p + 1),)

    @pytest.mark.parametrize("which, p, q, m", [("prime", 2, 7, 9), ("minus", 1, 35, 21)])
    def test_expansion_is_sorted_and_counted(self, which, p, q, m):
        # two runs that fall in lex order, and five runs
        hb = hilbert_basis(slice_of(which, p, q, m))
        points = [
            (x + t * dx, y + t * dy) for (x, y), (dx, dy), count in hb.runs for t in range(count)
        ]
        assert hb.generators == tuple(sorted(points)) and hb.size == len(points)


class TestFiberCount:
    """The fibers of rank-3 semigroups over base points, counted by a scan
    of l, against degeneration_fibers and the check behind it,
    sl2core._check_fibers, which reads them off the covectors."""

    @staticmethod
    def _fiber_count_scan(s, base):
        """Oracle: the number of l with (i, j, l) in s, scanned over
        |l| <= 4(|i| + |j|) + 1, which holds every fiber the tests below
        build: their covectors bound l by at most 4(|i| + |j|)."""
        i, j = base
        reach = 4 * (abs(i) + abs(j)) + 1
        return sum(1 for l in range(-reach, reach + 1) if s.contains((i, j, l)))

    @staticmethod
    def _accepts(s, runs):
        try:
            _check_fibers(s, runs)
        except CrossCheckError:
            return False
        return True

    def test_frozen(self):
        params = derive_params(1, 3, 2)
        s = make_Mtilde(params)
        assert self._fiber_count_scan(s, (2, 0)) == 3
        assert self._fiber_count_scan(s, (3, 1)) == 5
        assert self._fiber_count_scan(s, (1, 1)) == 0
        assert dict(degeneration_fibers(params)) == {(2, 0): 3, (3, 1): 5}

    def test_formula_sweep(self):
        for p, q, m in small_params():
            if p == q:
                continue
            s = make_Mtilde(derive_params(p, q, m))
            mplus = slice_of("plus", p, q, m)
            for i in range(0, 9):
                for j in range(0, 9):
                    want = i + j + 1 if mplus.contains((i, j)) else 0
                    assert self._fiber_count_scan(s, (i, j)) == want, (p, q, m, i, j)

    def test_transposed_fibers_match(self):
        s = make_Mtilde(derive_params(2, 5, 3))
        t = make_Mtilde(derive_params(2, 5, 3), transpose_ij=True)
        for i in range(0, 11):
            for j in range(0, 11):
                assert self._fiber_count_scan(s, (i, j)) == self._fiber_count_scan(t, (j, i))

    def test_matches_scan_on_degeneration_semigroups(self):
        # every S+ generator on q, m <= 7, at b = 0 and at b >= 1, in both
        # sign conventions of the degeneration semigroup
        heights = set()
        for params in iter_instances(7, 7):
            s, t = make_Mtilde(params), make_Mtilde(params, transpose_ij=True)
            for (i, j), count in degeneration_fibers(params):
                assert self._fiber_count_scan(s, (i, j)) == count, (params, i, j)
                assert self._fiber_count_scan(t, (j, i)) == count, (params, i, j)
            heights.add(params.b > 0)
        assert heights == {False, True}

    @settings(max_examples=300, deadline=None)
    @given(
        lower=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        covectors=st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-1, 1)), max_size=2
        ),
        # g2 a multiple of n: the congruences leave l free
        congruences=st.lists(
            st.tuples(*[st.integers(-6, 6)] * 2, st.integers(-1, 1), st.integers(1, 12)).map(
                lambda g: ((g[0], g[1], g[2] * g[3]), g[3])
            ),
            max_size=2,
        ),
        i=st.integers(-3, 12),
        j=st.integers(-3, 12),
    )
    # the base point meets two congruences, one with g2 = n; it fails the
    # second of two
    @example(lower=(0, 0), covectors=[], congruences=[((1, -1, 0), 4), ((1, 1, 2), 2)], i=11, j=3)
    @example(lower=(0, 0), covectors=[], congruences=[((1, -1, 0), 4), ((0, 1, 0), 2)], i=11, j=3)
    # a second lower bound, and i + j = -1, where the fiber is empty
    @example(lower=(0, 0), covectors=[(-1, 0, 1)], congruences=[], i=5, j=4)
    @example(lower=(1, -1), covectors=[], congruences=[], i=-3, j=2)
    def test_matches_scan_on_random_semigroups(self, lower, covectors, congruences, i, j):
        # l >= -(a0 i + a1 j) and l <= (1 - a0) i + (1 - a1) j, so the two
        # bounds leave i + j + 1 values of l when i + j >= 0
        a0, a1 = lower
        s = AffineSemigroup(
            3, ((a0, a1, 1), (1 - a0, 1 - a1, -1), *covectors), tuple(congruences)
        )
        found = self._fiber_count_scan(s, (i, j))
        accepted = self._accepts(s, (((i, j), (0, 0), 1),))
        if accepted:
            assert found == i + j + 1
        if all(c2 == 0 for _, _, c2 in covectors):
            # nothing else bounds l, so the check refuses only empty fibers
            assert accepted == (found == i + j + 1 > 0)

    @pytest.mark.parametrize("base", [(2, 1), (3, 1)])
    def test_a_congruence_on_l_rejected(self, base):
        # l even is not a congruence the degeneration semigroup has; it is
        # refused whether or not (i, j) meets the congruence before it
        s = AffineSemigroup(3, ((1, 1, -1), (0, 0, 1)), (((1, 1, 0), 2), ((0, 0, 1), 2)))
        with pytest.raises(CrossCheckError, match="congruence involves l"):
            _check_fibers(s, ((base, (0, 0), 1),))

    @settings(max_examples=300, deadline=None)
    @given(
        covectors=st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2)), max_size=3
        ),
        congruences=st.lists(
            st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2)),
                      st.integers(1, 4)),
            max_size=1,
        ),
        first=st.tuples(st.integers(0, 8), st.integers(-4, 8)),
        step=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        count=st.integers(2, 6),
    )
    # the degeneration semigroup of (1/2, 3) on its S+ run, accepted; the
    # same with a step that leaves the congruence lattice, refused
    @example(covectors=[(1, -2, 0)], congruences=[((1, -1, 0), 3)],
             first=(3, 0), step=(1, 1), count=4)
    @example(covectors=[(1, -2, 0)], congruences=[((1, -1, 0), 3)],
             first=(3, 0), step=(1, 0), count=4)
    # l even along a growing interval: the counts 1, 1, 2, 2
    @example(covectors=[], congruences=[((0, 0, 1), 2)], first=(0, 0), step=(1, 0), count=4)
    # a run whose ends meet j >= i - 2 and whose middle does not
    @example(covectors=[(-1, 1, 0)], congruences=[], first=(0, 0), step=(1, 0), count=5)
    def test_affine_claim_holds_along_the_run(self, covectors, congruences, first, step, count):
        # an accepted run has i + j + 1 points over each of its points, not
        # only over its two ends
        s = AffineSemigroup(3, ((1, 1, -1), *covectors, (0, 0, 1)), tuple(congruences))
        points = [(first[0] + t * step[0], first[1] + t * step[1]) for t in range(count)]
        if self._accepts(s, ((first, step, count),)):
            counts = [self._fiber_count_scan(s, x) for x in points]
            assert counts == [i + j + 1 for i, j in points], counts

    def test_affine_claim_is_refused_off_the_lattice(self):
        s = make_Mtilde(derive_params(1, 2, 3))
        assert self._accepts(s, (((3, 0), (1, 1), 4),))
        assert not self._accepts(s, (((3, 0), (1, 0), 4),))
        # the same fiber, 0 <= 2l <= 2(i + j), is not read with |c2| = 2
        twice = AffineSemigroup(3, ((2, 2, -2), (0, 0, 1)))
        assert self._fiber_count_scan(twice, (2, 1)) == 4
        assert not self._accepts(twice, (((1, 0), (1, 1), 3),))

    def test_unbounded_fiber_rejected(self):
        # l >= 0 and nothing bounds it above
        s = AffineSemigroup(3, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
        assert s.contains((2, 1, 10**6))
        with pytest.raises(CrossCheckError, match="not bounded once each way"):
            _check_fibers(s, (((2, 1), (0, 0), 1),))

    def test_cost_follows_output_degeneration(self):
        # 4001 S+ generators, the last with a 14001-point fiber; a scan
        # tests 4e7 points here, the check reads the ends of the basis' runs
        start = time.perf_counter()
        fibers = degeneration_fibers(derive_params(2, 5, 6000))
        assert time.perf_counter() - start < 1.0
        assert len(fibers) == 4001
        assert fibers[-1] == ((10000, 4000), 14001)


class TestDualCone:
    def test_mprime_131_index(self):
        # character-lattice cone ((-1,-1),(1,3)) has index 2 = b
        s1, s2 = dual_cone_rays(slice_of("prime", 1, 3, 1))
        assert abs(det2(s1, s2)) == 2

    def test_index_matches_families(self):
        for p, q, m in small_params():
            # the index of the dual cone is the order quotient_type reads
            k, a, b = derived(p, q, m)
            for which, order in (("plus", a * p), ("minus", a * q), ("prime", b)):
                if which == "prime" and p == q:
                    continue
                s = slice_of(which, p, q, m)
                assert abs(det2(*dual_cone_rays(s))) == order == quotient_type(s)[0]

    def test_dual_rays_nonnegative_on_cone(self):
        # each dual ray pairs nonnegatively with both primal rays, in the
        # congruence-lattice coordinates where both live
        s = slice_of("plus", 2, 3, 4)
        d1, d2 = dual_cone_rays(s)
        assert det2(d1, d2) != 0


class TestNormalForm:
    def test_normal_form_sweep(self):
        # n = det(v1, v2) > 0 over the lattice rays, det(v1, u1) = 1 and
        # 0 <= det(u1, v2) < n, so (v1, u1) is a basis of L and the cone is
        # cone((1, 0), (-d, n)) in it
        for params in iter_instances(12, 12):
            for which in ("plus", "minus", "prime"):
                s = slice_semigroup(params, which)
                if which == "prime" and params.p == params.q:
                    continue  # not pointed
                v1, v2, n, u1 = s._normal_form
                assert {v1, v2} == set(s._lattice_rays)
                assert det2(v1, v2) == n > 0
                assert det2(v1, u1) == 1
                assert 0 <= det2(u1, v2) < n


class TestSharedPerObject:
    def test_basis_and_dual_cone_share_rays_and_lattice(self, monkeypatch):
        from sl2flip import semigroup

        calls = {"cone_rays": 0, "congruence_lattice_basis": 0}
        for name in calls:
            fn = getattr(semigroup, name)

            def counted(s, fn=fn, name=name):
                calls[name] += 1
                return fn(s)

            monkeypatch.setattr(semigroup, name, counted)
        one, two = slice_of("minus", 2, 5, 9), slice_of("minus", 2, 5, 9)
        assert hilbert_basis(one) == hilbert_basis(two)
        assert quotient_type(one) == quotient_type(two)
        assert calls == {"cone_rays": 2, "congruence_lattice_basis": 2}
        assert one == two and hash(one) == hash(two)

    def test_not_pointed_raises_every_time(self):
        s = slice_of("prime", 1, 1, 3)
        for fn in (hilbert_basis, quotient_type, hilbert_basis):
            with pytest.raises(ValueError, match="not pointed"):
                fn(s)


class TestSemigroupValidation:
    def test_bad_covector_length(self):
        with pytest.raises(ValueError):
            AffineSemigroup(2, ((1, 0, 0),))

    def test_bad_congruence(self):
        with pytest.raises(ValueError):
            AffineSemigroup(2, (), (((1, 1), 0),))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            slice_of("plus", 1, 2, 1).contains((1, 2, 3))
