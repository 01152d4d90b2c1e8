"""Acceptance gate: the ten primary criteria, all exact (zero tolerance).

Each test is one criterion and prints one summary line; run with -v (or -s)
for the per-criterion pass/fail report.
"""

from fractions import Fraction
from math import gcd

import pytest

from sl2flip.git import (
    GroupCharacter,
    monomial_character,
    semistable_locus,
    stabilizer_of_support,
)
from sl2flip.semigroup import hilbert_basis
from sl2flip.sl2core import (
    action,
    canonical_class,
    characters,
    class_group,
    colored_cones,
    degeneration_fibers,
    derive_params,
    flip_report,
    intersection_numbers,
    is_toric,
    iter_instances,
    slice_semigroup,
    slice_surfaces,
    toric_degeneration,
)
from sl2flip.toricgeom import (
    Cone,
    flip_K_degrees,
    gaifullin_criterion,
    multiplicity,
    sigma0_of,
    sigma_of,
    star_subdivide_at_v5,
)

SWEEP = list(iter_instances(5, 4))
BELOW_ONE = [params for params in SWEEP if params.b >= 1]


def toric_triples():
    for q in range(2, 7):
        for p in range(1, q):
            if gcd(p, q) == 1:
                for a in range(1, 4):
                    yield p, q, a


def test_criterion_01_closed_form_hilbert_bases():
    checked = 0
    for p, q, a in toric_triples():
        m = a * (q - p)
        semi = slice_semigroup(derive_params(p, q, m), "plus")
        basis = set(hilbert_basis(semi).generators)
        want = {(m + t, t) for t in range(a * p + 1)}
        assert basis == want, (p, q, a)
        assert len(basis) == a * p + 1
        checked += 1
    assert checked == 33
    print(f"criterion 1 PASS: closed-form Hilbert bases ({checked} instances)")


def test_criterion_02_u_invariant_oracle():
    # X0^(pi - qj) X1^i X3^j is invariant under the torus with weights
    # (1, -p, q) and mu_m with weights (0, -1, 1) iff pi - qj >= 0, m | j - i
    box = 20
    for params in SWEEP:
        p, q, m = params.p, params.q, params.m
        semi = slice_semigroup(params, "plus")
        found = {
            (i, j)
            for i in range(box + 1)
            for j in range(box + 1)
            if p * i - q * j >= 0 and (j - i) % m == 0
        }
        want = {
            (i, j)
            for i in range(box + 1)
            for j in range(box + 1)
            if semi.contains((i, j))
        }
        assert found == want, params
    print(f"criterion 2 PASS: U-invariant exponents ({len(SWEEP)} instances)")


def test_criterion_03_class_group_normal_form():
    for params in SWEEP:
        cl = class_group(params)
        want = "Z" if params.a == 1 else f"Z x Z/{params.a}"
        assert cl.group.structure() == want, params
        assert cl.alt.structure() == want, params
    print(f"criterion 3 PASS: class group Z x Z/a ({len(SWEEP)} instances)")


def test_criterion_04_canonical_class_and_intersection_numbers():
    for params in SWEEP:
        assert canonical_class(params).coefficient == -(1 + params.b), params
    for params in BELOW_ONE:
        minus, plus = intersection_numbers(params)
        one_b, k, a = 1 + params.b, params.k, params.a
        assert minus == Fraction(-one_b * k, a * params.q**2), params
        assert plus == Fraction(one_b * k, a * params.p**2), params
    spots = {
        (1, 2, 1): (Fraction(-1, 2), Fraction(2)),
        (1, 3, 1): (Fraction(-1, 3), Fraction(3)),
        (2, 3, 2): (Fraction(-1, 9), Fraction(1, 4)),
    }
    for (p, q, m), want in spots.items():
        assert intersection_numbers(derive_params(p, q, m)) == want
    print(
        "criterion 4 PASS: canonical class and intersection numbers "
        f"({len(SWEEP)} + 3 spot values)"
    )


def test_criterion_05_toric_bridge():
    # K.C / mult(wall) on the plus and the minus wall curve of sigma
    for p, q, a in toric_triples():
        want = (Fraction(2 * (q - p), a * p**2), Fraction(2 * (p - q), a * q**2))
        assert flip_K_degrees(sigma_of(p, q, a)) == want, (p, q, a)
    conifold = Cone(((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)))
    assert flip_K_degrees(conifold) == (0, 0)
    print("criterion 5 PASS: toric bridge (33 instances + conifold)")


def test_criterion_06_git_loci():
    # scoped below height 1, where the flip and both loci exist
    want = {
        "plus": frozenset({"X1", "X2"}),
        "minus": frozenset({"X3", "X4"}),
        "trivial": frozenset(),
    }
    for params in BELOW_ONE:
        act = action(params)
        chars = characters(params)
        for name, expected in want.items():
            report = semistable_locus(act, chars[name], params.b)
            assert not report.undecided, (params, name)
            assert report.unstable_vanishing == expected, (params, name)
            chi = chars[name]
            for n, exps in report.witness_monomials.values():
                got = monomial_character(act, exps)
                assert got.torus_part == n * chi.torus_part, (params, name)
                assert (
                    got.finite_part % params.a == (n * chi.finite_part) % params.a
                ), (params, name)
    print(
        "criterion 6 PASS: GIT unstable loci with verified witnesses "
        f"({len(BELOW_ONE)} instances x 3 characters)"
    )


def test_criterion_07_free_action_on_mixed_supports():
    names = ("Y0", "X1", "X2", "X3", "X4")
    supports = [
        frozenset(name for bit, name in zip(range(5), names) if mask >> bit & 1)
        for mask in range(1, 32)
    ]
    mixed = [
        s
        for s in supports
        if s & {"X1", "X2"} and s & {"X3", "X4"}
    ]
    for params in SWEEP:
        act = action(params)
        for support in mixed:
            group = stabilizer_of_support(act, support)
            assert group.is_trivial(), (params, support)
    print(
        "criterion 7 PASS: free action on mixed supports "
        f"({len(SWEEP)} instances x {len(mixed)} supports)"
    )


def test_criterion_08_smoothness_toricity_ladder():
    for params in SWEEP:
        assert is_toric(params) == (params.b == 1), params
        if params.b == 1:
            cones = star_subdivide_at_v5(
                sigma_of(params.p, params.q, params.a)
            )
            assert all(multiplicity(c) == 1 for c in cones), params
    for params in BELOW_ONE:
        _, _, s_prime = slice_surfaces(params)
        assert s_prime.order == params.b, params
        rep = flip_report(params)
        assert rep.varieties["E'"].smooth == (params.b == 1), params
        assert rep.varieties["E+"].smooth == (
            params.a * params.p == 1
        ), params
    print(
        "criterion 8 PASS: smoothness/toricity ladder "
        f"({len(SWEEP)} instances, {len(BELOW_ONE)} flips)"
    )


def test_criterion_09_degeneration():
    for params in BELOW_ONE:
        p, q = params.p, params.q
        deg = toric_degeneration(params)
        v1, v2, v3, v4 = deg.sigma0.rays
        lhs = tuple(p * (x + y) for x, y in zip(v1, v2))
        rhs = tuple((p + q) * z + w for z, w in zip(v3, v4))
        assert lhs == rhs, params
        assert deg.relation_coefficients == (p, p, p + q, 1), params
        assert not gaifullin_criterion(deg.sigma0)
        assert gaifullin_criterion(sigma_of(p, q, params.a))
        basis = hilbert_basis(slice_semigroup(params, "plus")).generators
        fibers = degeneration_fibers(params)
        assert {point for point, _ in fibers} == set(basis)
        for point, count in fibers:
            assert count == point[0] + point[1] + 1, (params, point)
    print(f"criterion 9 PASS: toric degeneration ({len(BELOW_ONE)} instances)")


def test_criterion_10_colored_cones():
    for params in BELOW_ONE:
        data = colored_cones(params)  # containment/convexity checked inside
        for name, (gens, colors) in data.cones.items():
            det = gens[0][0] * gens[1][1] - gens[0][1] * gens[1][0]
            assert det != 0, (params, name)
            for color in colors:
                vec = data.color_vector(color)
                alpha = Fraction(vec[0] * gens[1][1] - vec[1] * gens[1][0], det)
                beta = Fraction(gens[0][0] * vec[1] - gens[0][1] * vec[0], det)
                assert alpha >= 0 and beta >= 0, (params, name, color)
        colors_of = {name: data.cones[name][1] for name in data.cones}
        assert colors_of["E"] == colors_of["E-"] | {"rho-"}, params
        assert colors_of["E"] == colors_of["E+"] | {"rho+"}, params
    print(f"criterion 10 PASS: colored cones ({len(BELOW_ONE)} instances)")
