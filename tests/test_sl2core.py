"""Tests for the assembled invariants: parameters, class group, canonical
class, flip data, colored cones, degeneration."""

import ast
import contextlib
import io
from collections import Counter
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sl2flip
from sl2flip import cli, git, lattice, semigroup, sl2core, toricgeom, verify
from sl2flip.sl2core import (
    CrossCheckError,
    SL2Params,
    action,
    canonical_class,
    characters,
    class_group,
    colored_cones,
    cox_presentation,
    degeneration_fibers,
    derive_params,
    embedding_data,
    flip_report,
    intersection_numbers,
    is_smooth,
    is_toric,
    iter_instances,
    orbit_structure,
    slice_basis,
    slice_semigroup,
    slice_surfaces,
    toric_degeneration,
)
from sl2flip.semigroup import AffineSemigroup, HilbertBasis
from sl2flip.toricgeom import CyclicSingularity
from test_lattice import IntMatrix, cokernel


def instances(qmax, mmax, below_one=False):
    for params in iter_instances(qmax, mmax):
        if below_one and params.b == 0:
            continue
        yield params


class TestDeriveParams:
    def test_height_one(self):
        params = derive_params(1, 1, 5)
        assert (params.k, params.a, params.b) == (5, 1, 0)

    def test_one_quarter_six(self):
        params = derive_params(1, 4, 6)
        assert (params.k, params.a, params.b) == (3, 2, 1)

    def test_two_thirds_four(self):
        params = derive_params(2, 3, 4)
        assert (params.k, params.a, params.b) == (1, 4, 1)

    def test_unreduced_height_is_absorbed(self):
        assert derive_params(2, 4, 3) == derive_params(1, 2, 3)
        assert derive_params(3, 3, 2) == derive_params(1, 1, 2)

    def test_strict_rejects_unreduced(self):
        with pytest.raises(ValueError):
            derive_params(2, 4, 3, strict=True)
        # already reduced input passes strict
        assert derive_params(1, 2, 3, strict=True) == derive_params(1, 2, 3)

    def test_rejects_height_above_one(self):
        with pytest.raises(ValueError):
            derive_params(3, 2, 1)
        with pytest.raises(ValueError):
            derive_params(4, 2, 1)  # reduces to 2/1, still above 1

    def test_rejects_nonpositive(self):
        for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0), (-1, 2, 1)):
            with pytest.raises(ValueError):
                derive_params(*bad)

    def test_height_property(self):
        assert derive_params(2, 6, 1).height == Fraction(1, 3)

    def test_direct_construction_is_validated(self):
        with pytest.raises(ValueError):
            SL2Params(2, 4, 1)  # unreduced height
        with pytest.raises(ValueError):
            SL2Params(3, 2, 1)  # height above 1

    def test_derived_invariants_sweep(self):
        for params in instances(7, 6):
            assert gcd(params.p, params.q) == 1
            assert params.m == params.a * params.k
            assert params.q - params.p == params.b * params.k
            assert params.b == 0 or gcd(params.a, params.b) == 1
            assert (params.b == 0) == (params.p == params.q == 1)

    @given(
        p=st.integers(1, 8),
        q=st.integers(1, 8),
        m=st.integers(1, 8),
        t=st.integers(1, 5),
    )
    def test_scaling_height_changes_nothing(self, p, q, m, t):
        if p > q:
            p, q = q, p
        assert derive_params(t * p, t * q, m) == derive_params(p, q, m)


class TestCoxPresentation:
    def test_one_third_one(self):
        pres = cox_presentation(derive_params(1, 3, 1))
        assert pres.relation_degree == 2
        assert pres.action.torus_weights == (1, -1, -1, 3, 3)
        assert pres.ambient_dim == 5
        assert pres.equation == "Y0^2 = X1*X4 - X2*X3"

    def test_half_two(self):
        assert cox_presentation(derive_params(1, 2, 2)).relation_degree == 1

    def test_height_one_has_unit_relation(self):
        pres = cox_presentation(derive_params(1, 1, 4))
        assert pres.relation_degree == 0
        assert pres.equation == "1 = X1*X4 - X2*X3"

    def test_relation_degree_is_b(self):
        for params in instances(6, 5):
            assert cox_presentation(params).relation_degree == params.b


TRIVIAL = git.GroupCharacter(0, 0)


def cox_u_exponents(params, box):
    """(i, j) in [0, box]^2 for which Y0^e X1^i X3^j, e = (pi - qj)/k a
    nonnegative integer, has the trivial character of action(params): the
    exponents of the U-invariants of the Cox quotient."""
    act = action(params)
    out = set()
    for i in range(box + 1):
        for j in range(box + 1):
            e, r = divmod(params.p * i - params.q * j, params.k)
            if e >= 0 and r == 0 and git.monomial_character(act, (e, i, 0, j, 0)) == TRIVIAL:
                out.add((i, j))
    return out


def mplus_exponents(params, box):
    semi = slice_semigroup(params, "plus")
    return {(i, j) for i in range(box + 1) for j in range(box + 1) if semi.contains((i, j))}


# the instances of iter_instances(9, 8) with gcd(a, k) > 1: there the finite
# weights of sl2core.action grade Cl by a map that is not injective, so
# the quotient loses part of the finite group; a fix of the weights must
# turn these xfails into passes
COX_GRADING_NOT_ISOMORPHIC = [
    (1, 3, 4), (3, 5, 4), (1, 7, 4), (5, 7, 4), (7, 9, 4),
    (1, 3, 8), (3, 5, 8), (1, 7, 8), (5, 7, 8), (7, 9, 8),
    (1, 5, 8), (3, 7, 8), (5, 9, 8),
]


class TestCoxQuotientUInvariants:
    """The U-invariants of the Cox quotient must be the monomials of M+."""

    def test_agree_with_mplus_when_gcd_a_k_is_one(self):
        checked = 0
        for params in iter_instances(9, 8):
            if gcd(params.a, params.k) == 1:
                box = 2 * params.m + 2
                assert cox_u_exponents(params, box) == mplus_exponents(params, box), params
                checked += 1
        assert checked == 211

    def test_gcd_a_k_exceeds_one_exactly_on_the_pinned_instances(self):
        found = [(t.p, t.q, t.m) for t in iter_instances(9, 8) if gcd(t.a, t.k) > 1]
        assert sorted(found) == sorted(COX_GRADING_NOT_ISOMORPHIC)

    @pytest.mark.xfail(strict=True, reason="the finite weights do not grade Cl "
                       "isomorphically when gcd(a, k) > 1 before ROADMAP item 1")
    @pytest.mark.parametrize("p, q, m", COX_GRADING_NOT_ISOMORPHIC)
    def test_agree_with_mplus_when_gcd_a_k_exceeds_one(self, p, q, m):
        params = derive_params(p, q, m)
        box = 2 * m + 2
        assert cox_u_exponents(params, box) == mplus_exponents(params, box)


def generated_index(params):
    """The index in Z x Z/a of the subgroup the characters of D, S+ and S-
    generate: the order of Z^2 modulo their columns and (0, a), by the
    Smith oracle.  Cl is Z x Z/a, generated by [D], [S+] and [S-], so a
    grading that maps Cl onto the characters isomorphically gives 1."""
    chars = characters(params)
    columns = [(chars[name].torus_part, chars[name].finite_part)
               for name in ("D", "S_plus", "S_minus")]
    quotient = cokernel(IntMatrix.from_cols([*columns, (0, params.a)]))
    return prod(quotient.torsion) if quotient.free_rank == 0 else None


class TestCharactersGenerateTheClassGroup:
    """The check class_group lacks (ROADMAP item 1), which would make `info
    1/3 4` exit 4 if the library ran it today; the fix of the grading
    moves it into class_group."""

    def test_generate_when_gcd_a_k_is_one(self):
        checked = 0
        for params in instances(9, 8, below_one=True):
            if gcd(params.a, params.k) == 1:
                assert generated_index(params) == 1, params
                checked += 1
        assert checked == 203

    @pytest.mark.xfail(strict=True, reason="the characters generate a subgroup of "
                       "index gcd(a, k) when it exceeds 1 before ROADMAP item 1")
    @pytest.mark.parametrize("p, q, m", COX_GRADING_NOT_ISOMORPHIC)
    def test_generate_when_gcd_a_k_exceeds_one(self, p, q, m):
        assert generated_index(derive_params(p, q, m)) == 1


class TestToricAndSmooth:
    def test_spot_values(self):
        assert is_toric(derive_params(1, 3, 2))
        assert not is_smooth(derive_params(1, 3, 2))
        assert not is_toric(derive_params(1, 3, 1))
        assert not is_smooth(derive_params(1, 3, 1))
        assert is_smooth(derive_params(1, 1, 7))
        assert not is_toric(derive_params(1, 1, 7))

    def test_flags_follow_b(self):
        for params in instances(6, 5):
            assert is_toric(params) == (params.b == 1)
            assert is_smooth(params) == (params.b == 0)


class TestOrbitStructure:
    def test_one_third_one(self):
        assert orbit_structure(derive_params(1, 3, 1)) == (
            "SL(2)/C_1",
            "SL(2)/U_4",
            "O",
        )

    def test_height_one(self):
        assert orbit_structure(derive_params(1, 1, 3)) == ("SL(2)/C_3", "SL(2)/T")

    def test_two_thirds_four(self):
        assert "SL(2)/U_20" in orbit_structure(derive_params(2, 3, 4))

    def test_orbit_counts(self):
        for params in instances(5, 4):
            orbits = orbit_structure(params)
            if params.b == 0:
                assert len(orbits) == 2 and "O" not in orbits
            else:
                assert len(orbits) == 3 and orbits[-1] == "O"
            assert orbits[0] == f"SL(2)/C_{params.m}"


class TestClassGroup:
    def test_one_third_one_is_Z(self):
        cl = class_group(derive_params(1, 3, 1))
        assert cl.group.structure() == "Z"
        # the relation [D] + [S+] = 0 makes the generators opposite
        d = cl.class_of_D()
        assert cl.class_of_S_plus() == cl.group.reduce(tuple(-c for c in d))

    def test_two_thirds_four(self):
        cl = class_group(derive_params(2, 3, 4))
        assert cl.group.structure() == "Z x Z/4"

    def test_height_one_is_Z(self):
        for m in (1, 2, 5):
            assert class_group(derive_params(1, 1, m)).group.structure() == "Z"

    def test_both_generator_systems_agree(self):
        for params in instances(5, 4):
            cl = class_group(params)
            assert cl.group.structure() == cl.alt.structure()
            want = "Z" if params.a == 1 else f"Z x Z/{params.a}"
            assert cl.group.structure() == want

    def test_character_relations_sweep(self):
        for params in instances(5, 4):
            chars = characters(params)
            a, m, order = params.a, params.m, params.a
            for coeff, name in ((a * params.p, "S_plus"), (-a * params.q, "S_minus")):
                assert coeff * chars["D"].torus_part + m * chars[name].torus_part == 0
                total = coeff * chars["D"].finite_part + m * chars[name].finite_part
                assert total % order == 0

    def test_character_dictionary_keys(self):
        chars = characters(derive_params(1, 2, 1))
        assert {"plus", "minus", "trivial", "D", "S_plus", "S_minus"} <= set(chars)

    def test_quotient_agrees_with_smith_cokernel_on_a_grid(self):
        # torsion and generator images, so ties and signs are pinned too
        for x in range(-80, 81):
            for y in range(-80, 81):
                if x or y:
                    want = cokernel(IntMatrix.from_cols([(x, y)], rows=2))
                    assert sl2core._column_quotient(x, y) == want, (x, y)

    def test_quotient_agrees_with_smith_cokernel_on_instances(self):
        for params in iter_instances(40, 40):
            cl = class_group(params)
            a, p, q, m = params.a, params.p, params.q, params.m
            assert cl.group == cokernel(IntMatrix.from_cols([(a * p, m)], rows=2)), params
            assert cl.alt == cokernel(IntMatrix.from_cols([(-a * q, m)], rows=2)), params


class TestCanonicalClass:
    def test_one_third_one(self):
        can = canonical_class(derive_params(1, 3, 1))
        assert can.coefficient == -3
        assert (can.chi.torus_part, can.chi_prime.torus_part) == (-5, 2)
        assert can.chi_plus.torus_part == -3

    def test_half_two(self):
        assert canonical_class(derive_params(1, 2, 2)).coefficient == -2

    def test_height_one(self):
        can = canonical_class(derive_params(1, 1, 3))
        assert can.coefficient == -1
        assert can.chi_plus.torus_part == -3
        assert can.chi_prime.torus_part == 0

    def test_adjunction_factors_sweep(self):
        for params in instances(5, 4):
            can = canonical_class(params)
            assert can.coefficient == -(1 + params.b)
            assert (
                can.chi.torus_part + can.chi_prime.torus_part
                == can.chi_plus.torus_part
                == can.coefficient * params.k
            )
            assert can.chi.finite_part == can.chi_prime.finite_part == 0

    def test_inhomogeneous_relation_is_a_cross_check_error(self, monkeypatch):
        # chi' is read off the action: X3 of weight q + 1 gives X1*X4 and
        # X2*X3 two different characters
        real = sl2core.action

        def bent(params):
            act = real(params)
            weights = act.torus_weights[:3] + (params.q + 1,) + act.torus_weights[4:]
            return git.DiagonalAction(weights, act.finite_order, act.finite_weights)

        monkeypatch.setattr(sl2core, "action", bent)
        with pytest.raises(CrossCheckError, match="relation is not homogeneous"):
            canonical_class(derive_params(2, 5, 6))


class TestIntersectionNumbers:
    def test_half_one(self):
        assert intersection_numbers(derive_params(1, 2, 1)) == (
            Fraction(-1, 2),
            Fraction(2),
        )

    def test_one_third_one(self):
        assert intersection_numbers(derive_params(1, 3, 1)) == (
            Fraction(-1, 3),
            Fraction(3),
        )

    def test_two_thirds_two(self):
        assert intersection_numbers(derive_params(2, 3, 2)) == (
            Fraction(-1, 9),
            Fraction(1, 4),
        )

    def test_height_one_fails(self):
        with pytest.raises(ValueError, match="no flip for height 1"):
            intersection_numbers(derive_params(1, 1, 2))

    def test_sign_law_and_product(self):
        for params in instances(5, 4, below_one=True):
            minus, plus = intersection_numbers(params)
            assert minus < 0 < plus
            want = -Fraction(
                (1 + params.b) ** 2 * params.k**2,
                params.a**2 * params.p**2 * params.q**2,
            )
            assert minus * plus == want

    def test_sign_check_runs_for_every_reader(self, monkeypatch):
        # closed forms with the wrong signs: intersection_numbers refuses
        # them, so each command and verify row that reads them fails there
        monkeypatch.setattr(sl2core, "Fraction", lambda n, d: -Fraction(n, d))
        for argv in (["info", "1/3", "1"], ["flip", "2/5", "3"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert cli.main(argv) == 4
            assert "K-degree signs" in err.getvalue()
        rows = {name: check for name, _, check in verify.ROWS}
        for name in ("k-signs", "toric-bridge"):
            with pytest.raises(CrossCheckError, match="K-degree signs"):
                rows[name](derive_params(1, 2, 1))
        found = [
            name for name, node in package_nodes()
            if isinstance(node, ast.Constant) and node.value == "K-degree signs"
        ]
        assert found == ["sl2core.py"]

    def test_toric_instances_cross_check(self):
        # b = 1 instances run the wall-curve comparison internally
        ran = 0
        for q in range(2, 7):
            for p in range(1, q):
                if gcd(p, q) != 1:
                    continue
                for a in range(1, 4):
                    params = derive_params(p, q, a * (q - p))
                    assert params.b == 1
                    intersection_numbers(params)
                    ran += 1
        assert ran == 33


class TestSliceSurfaces:
    def test_one_third_one(self):
        s_plus, s_minus, s_prime = slice_surfaces(derive_params(1, 3, 1))
        assert s_plus.is_smooth
        assert s_minus.order == 3
        assert s_prime == CyclicSingularity(2, 1)

    def test_two_thirds_two(self):
        s_plus, _, _ = slice_surfaces(derive_params(2, 3, 2))
        assert s_plus.order == 4

    def test_half_one(self):
        s_plus, s_minus, s_prime = slice_surfaces(derive_params(1, 2, 1))
        assert s_plus.is_smooth
        assert s_minus.order == 2
        assert s_prime.is_smooth  # b = 1

    def test_height_one_has_no_prime_fixed_point(self):
        s_plus, s_minus, s_prime = slice_surfaces(derive_params(1, 1, 3))
        assert s_plus.is_smooth and s_minus.is_smooth
        assert s_prime is None

    def test_orders_sweep(self):
        for params in instances(5, 4, below_one=True):
            s_plus, s_minus, s_prime = slice_surfaces(params)
            assert s_plus.order == params.a * params.p
            assert s_minus.order == params.a * params.q
            assert s_prime.order == params.b

    def test_prime_not_pointed_below_height_one_raises(self, monkeypatch):
        real = sl2core.quotient_type
        params = derive_params(1, 3, 1)
        prime = slice_semigroup(params, "prime")

        def prime_not_pointed(semi):
            if semi is prime:
                raise ValueError("cone is not pointed")
            return real(semi)

        monkeypatch.setattr(sl2core, "quotient_type", prime_not_pointed)
        with pytest.raises(CrossCheckError, match="slice is not pointed"):
            slice_surfaces(params)
        # at height 1 no order is expected, so S' may have no fixed point
        assert slice_surfaces(derive_params(1, 1, 3))[2] is None

    def test_twist_is_ray_order_independent(self):
        # same_type identifies a surface with its mirror presentation
        from test_semigroup import dual_cone_rays
        from test_toricgeom import classify_2d, same_type

        for params in instances(4, 3, below_one=True):
            rays = dual_cone_rays(slice_semigroup(params, "minus"))
            direct = classify_2d(rays)
            swapped = classify_2d((rays[1], rays[0]))
            assert same_type(direct, swapped)
            _, s_minus, _ = slice_surfaces(params)
            assert same_type(s_minus, direct)


class TestFlipReport:
    def test_half_one(self):
        rep = flip_report(derive_params(1, 2, 1))
        assert rep.k_degrees == (Fraction(-1, 2), Fraction(2))
        assert rep.varieties["E+"].smooth  # ap = 1
        assert not rep.varieties["E-"].smooth
        assert rep.varieties["E-"].slice_singularity.order == 2

    def test_one_third_one_blowup(self):
        rep = flip_report(derive_params(1, 3, 1))
        assert not rep.varieties["E'"].smooth
        assert rep.varieties["E'"].slice_singularity.order == 2

    def test_height_one_fails(self):
        with pytest.raises(ValueError, match="no flip for height 1"):
            flip_report(derive_params(1, 1, 4))

    def test_semistable_loci(self):
        rep = flip_report(derive_params(1, 3, 1))
        assert rep.semistable["plus"].unstable_vanishing == frozenset({"X1", "X2"})
        assert rep.semistable["minus"].unstable_vanishing == frozenset({"X3", "X4"})
        assert rep.semistable["trivial"].unstable_vanishing == frozenset()
        for sub in rep.semistable.values():
            assert not sub.undecided

    def test_large_instance_decided(self):
        # the former budgeted search spent seconds here and then gave up
        rep = flip_report(derive_params(13, 29, 120))
        assert rep.semistable["plus"].unstable_vanishing == frozenset({"X1", "X2"})
        assert rep.semistable["minus"].unstable_vanishing == frozenset({"X3", "X4"})
        for sub in rep.semistable.values():
            assert not sub.undecided
            assert len(sub.witness_monomials) == 15 - (len(sub.unstable_vanishing) > 0)

    def test_report_shape(self):
        params = derive_params(2, 3, 1)
        rep = flip_report(params)
        assert set(rep.varieties) == {"E", "E-", "E+", "E'"}
        assert set(rep.proj_descriptions) == {"E+", "E-"}
        assert "positive K-degree" in rep.convention_note
        assert colored_cones(params).lattice_index == 1
        assert rep.canonical.coefficient == -2

    def test_smoothness_flags_sweep(self):
        for params in instances(4, 3, below_one=True):
            rep = flip_report(params)
            assert rep.varieties["E+"].smooth == (params.a * params.p == 1)
            assert not rep.varieties["E-"].smooth  # aq >= 2 below height 1
            assert rep.varieties["E'"].smooth == (params.b == 1)
            assert not rep.varieties["E"].smooth


class TestColoredCones:
    def test_half_one(self):
        data = colored_cones(derive_params(1, 2, 1))
        assert data.rho == (1, -2)
        assert data.rho_prime == (1, -1)
        gens, colors = data.cones["E"]
        assert gens == ((1, -2), (0, 1)) and colors == {"rho+", "rho-"}
        # rho+ = rho + 2 rho-, placing the color inside cone(rho, rho-)
        combo = tuple(r + 2 * s for r, s in zip(data.rho, data.rho_minus))
        assert combo == data.rho_plus

    def test_cone_assignments(self):
        data = colored_cones(derive_params(2, 5, 3))
        assert data.cones["E-"] == (((2, -5), (1, 0)), frozenset({"rho+"}))
        assert data.cones["E+"] == (((2, -5), (0, 1)), frozenset({"rho-"}))
        assert data.cones["E'"] == (((2, -5), (1, -1)), frozenset())

    def test_exceptional_cone_avoids_colors(self):
        for params in instances(5, 3, below_one=True):
            data = colored_cones(params)
            gens, colors = data.cones["E'"]
            assert colors == frozenset()
            det = gens[0][0] * gens[1][1] - gens[0][1] * gens[1][0]
            for color in (data.rho_plus, data.rho_minus):
                alpha = Fraction(
                    color[0] * gens[1][1] - color[1] * gens[1][0], det
                )
                beta = Fraction(
                    gens[0][0] * color[1] - gens[0][1] * color[0], det
                )
                assert alpha < 0 or beta < 0

    def test_color_growth_law(self):
        # contracting to E adds the color opposite the one each side kept
        for params in instances(5, 3, below_one=True):
            data = colored_cones(params)
            colors_of = {name: data.cones[name][1] for name in data.cones}
            assert colors_of["E"] == colors_of["E-"] | {"rho-"}
            assert colors_of["E"] == colors_of["E+"] | {"rho+"}

    def test_valuation_ray_and_lattice(self):
        for params in instances(5, 3, below_one=True):
            data = colored_cones(params)
            assert data.rho == (params.p, -params.q)
            assert sum(data.rho) <= 0
            assert data.lattice_index == params.m

    def test_height_one_fails(self):
        with pytest.raises(ValueError):
            colored_cones(derive_params(1, 1, 2))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_in_cone_agrees_with_elimination(self, data):
        # colored_cones' Cramer sign test against the rational solve; the
        # target is drawn freely or as a small combination of the rays,
        # so that both answers and the boundary occur
        from test_toricgeom import solve_by_elimination, vectors

        u, v = data.draw(vectors(2)), data.draw(vectors(2))
        if u[0] * v[1] - u[1] * v[0] == 0:
            return  # not a strictly convex cone: colored_cones refuses it
        if data.draw(st.booleans()):
            x = data.draw(vectors(2, 9))
        else:
            a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
            x = (a * u[0] + b * v[0], a * u[1] + b * v[1])
        assert sl2core._in_cone((u, v), x) == (min(solve_by_elimination((u, v), x)) >= 0)


class TestToricDegeneration:
    def test_one_third_two(self):
        params = derive_params(1, 3, 2)
        deg = toric_degeneration(params)
        assert deg.relation_coefficients == (1, 1, 4, 1)
        assert not deg.quasihomogeneous
        v1, v2, v3, v4 = deg.sigma0.rays
        lhs = tuple(1 * (x + y) for x, y in zip(v1, v2))
        rhs = tuple(4 * z + w for z, w in zip(v3, v4))
        assert lhs == rhs
        assert ((2, 0), 3) in degeneration_fibers(params)

    def test_half_one_fiber(self):
        assert ((1, 0), 2) in degeneration_fibers(derive_params(1, 2, 1))

    def test_fiber_counts_sweep(self):
        for params in instances(4, 3, below_one=True):
            toric_degeneration(params)
            assert slice_semigroup(params, "tilde").rank == 3
            for point, count in degeneration_fibers(params):
                assert count == point[0] + point[1] + 1

    def test_height_one_fails(self):
        with pytest.raises(ValueError):
            toric_degeneration(derive_params(1, 1, 1))

    @pytest.mark.parametrize("at", ["first", "last"])
    def test_fiber_count_off_by_one_at_a_run_end_fails(self, monkeypatch, at):
        # the first run one point longer at its start, or the last one at
        # its end, leaves the base of the degeneration semigroup there: the
        # ends of every run are checked, whatever its length
        checked = 0
        for params in instances(7, 7, below_one=True):
            runs = list(sl2core.slice_basis(params, "plus").runs)
            if at == "first":
                (x, y), (dx, dy), count = runs[0]
                runs[0] = ((x - dx, y - dy), (dx, dy), count + 1)
            else:
                start, step, count = runs[-1]
                runs[-1] = (start, step, count + 1)
            longer = HilbertBasis(tuple(runs))
            monkeypatch.setattr(sl2core, "slice_basis", lambda params, which: longer)
            with pytest.raises(CrossCheckError, match="run leaves the base"):
                sl2core.degeneration_fibers(params)
            monkeypatch.undo()
            checked += count > 2
        assert checked

    def test_a_run_stepping_off_the_lattice_fails(self, monkeypatch):
        # both ends of the run (m, 0) + t*(1, 0), t = 0..m, lie in S+ and
        # have the fiber i + j + 1, but its step leaves {i = j mod m}, and so
        # do its inner points
        params = derive_params(1, 2, 5)
        bent = HilbertBasis((((5, 0), (1, 0), 6),))
        monkeypatch.setattr(sl2core, "slice_basis", lambda params, which: bent)
        with pytest.raises(CrossCheckError, match=r"run leaves the base.*\(1, 0\), 6"):
            sl2core.degeneration_fibers(params)

    def test_a_run_not_shown_affine_fails(self, monkeypatch):
        # the degeneration semigroup with l <= i + j written as
        # 2l <= 2(i + j) is the same semigroup, and every count of the run
        # (5 + t, t), t = 0..5, is right, but the count is read only off
        # covectors with c2 = +-1: no point-by-point check stands in for it
        params = derive_params(1, 2, 5)
        assert len(sl2core.slice_basis(params, "plus").runs) == 1
        real = sl2core.make_Mtilde(params)
        twice = AffineSemigroup(3, ((2, 2, -2), *real.inequalities[1:]), real.congruences)
        assert all(
            twice.contains((5 + t, t, l)) == real.contains((5 + t, t, l))
            for t in range(6) for l in range(-1, 12 + 2 * t)
        )
        monkeypatch.setattr(sl2core, "make_Mtilde", lambda params: twice)
        with pytest.raises(CrossCheckError, match=r"not bounded once each way: \(\[\(-2, 2, 2\)"):
            sl2core._checked_fiber_basis(params)

    def test_degeneration_runs_are_shown_affine(self):
        # so the fibers cost O(#runs), not one check per generator: the
        # check expands no generator of the S+ basis
        shown = 0
        for params in instances(9, 9, below_one=True):
            basis = sl2core._checked_fiber_basis(params)
            assert "generators" not in basis.__dict__
            shown += sum(count > 2 for _, _, count in basis.runs)
        assert shown


class TestEmbeddingData:
    def test_one_third_two(self):
        assert embedding_data(derive_params(1, 3, 2)) == (
            ((2, 0), "V_2", 3),
            ((3, 1), "V_4", 5),
        )

    def test_half_two(self):
        assert embedding_data(derive_params(1, 2, 2)) == (
            ((2, 0), "V_2", 3),
            ((3, 1), "V_4", 5),
            ((4, 2), "V_6", 7),
        )

    def test_one_third_one(self):
        assert embedding_data(derive_params(1, 3, 1)) == (
            ((1, 0), "V_1", 2),
            ((3, 1), "V_4", 5),
        )

    def test_labels_match_generators(self):
        for params in instances(5, 4):
            for gen, label, dim in embedding_data(params):
                assert label == f"V_{gen[0] + gen[1]}"
                assert dim == gen[0] + gen[1] + 1


class TestDegenerationCriterion:
    def test_sigma_passes_sigma0_fails(self):
        from sl2flip.toricgeom import gaifullin_criterion, sigma0_of, sigma_of

        for params in instances(5, 3, below_one=True):
            p, q, a = params.p, params.q, params.a
            assert gaifullin_criterion(sigma_of(p, q, a))
            assert not gaifullin_criterion(sigma0_of(p, q))


class TestSmoothnessCoherence:
    def test_flip_exists_exactly_below_height_one(self):
        for params in instances(4, 3):
            if is_smooth(params):
                with pytest.raises(ValueError):
                    flip_report(params)
            else:
                rep = flip_report(params)
                assert rep.varieties["E'"].smooth == (params.b == 1)
                _, _, s_prime = slice_surfaces(params)
                assert (s_prime.order == 1) == (params.b == 1)


class TestComputedOncePerInstance:
    COUNTED = {
        "hilbert_basis": semigroup.hilbert_basis,
        "congruence_lattice_basis": semigroup.congruence_lattice_basis,
        "column_quotient": sl2core._column_quotient,
        "DiagonalAction": git.DiagonalAction,
    }

    def count_calls(self, monkeypatch) -> Counter:
        """Count calls of COUNTED through every module's binding of them."""
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        for mod in (sl2flip, cli, git, lattice, semigroup, sl2core, toricgeom):
            for attr, obj in list(vars(mod).items()):
                for name, fn in self.COUNTED.items():
                    if obj is fn:
                        monkeypatch.setattr(mod, attr, counting(name, fn))
        return calls

    @staticmethod
    def record_tables(monkeypatch) -> list:
        """The distinct character tables that sl2core.characters returns."""
        tables = []
        real = sl2core.characters

        def recorded(params):
            table = real(params)
            if not any(table is seen for seen in tables):
                tables.append(table)
            return table

        for mod in (cli, sl2core):
            monkeypatch.setattr(mod, "characters", recorded)
        return tables

    @staticmethod
    def info():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["info", "3/7", "12", "--json"]) == 0

    def test_info_computes_each_invariant_once(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        tables = self.record_tables(monkeypatch)
        self.info()
        first = Counter(calls)
        # S+ once, for the degeneration and the embedding; one class_group
        # (two column quotients); one action and one character table
        assert first["hilbert_basis"] == 1
        assert first["column_quotient"] == 2
        assert first["DiagonalAction"] == 1
        assert len(tables) == 1
        assert first["congruence_lattice_basis"] <= 3
        # nothing is kept between calls: a second call recomputes everything
        self.info()
        assert calls == first + first
        assert len(tables) == 2

    @pytest.mark.parametrize(
        "argv, bases", [(("flip", "13/29", "120"), 0), (("info", "3/7", "12"), 1)]
    )
    def test_commands_build_only_the_bases_they_print(self, monkeypatch, argv, bases):
        # flip prints slice types, read off the dual cones; info prints the
        # S+ basis (embedding, degeneration fibers) and no other
        calls = self.count_calls(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--json"]) == 0
        assert calls["hilbert_basis"] == bases

    def test_equal_objects_share_nothing(self):
        one, two = derive_params(3, 7, 12), derive_params(3, 7, 12)
        assert one == two and hash(one) == hash(two)
        for fn in (
            action,
            characters,
            class_group,
            canonical_class,
            intersection_numbers,
            slice_surfaces,
            colored_cones,
            toric_degeneration,
        ):
            assert fn(one) is fn(one), fn.__name__
            assert fn(two) is not fn(one), fn.__name__
            assert fn(two) == fn(one), fn.__name__
        for which in ("plus", "minus", "prime"):
            assert slice_semigroup(one, which) is slice_semigroup(one, which)
            assert slice_basis(one, which) is slice_basis(one, which)
            assert slice_basis(two, which) is not slice_basis(one, which)

    def test_cached_values_leave_fields_and_repr_alone(self):
        params = derive_params(3, 7, 12)
        before = repr(params)
        flip_report(params)
        assert repr(params) == before
        assert params == derive_params(3, 7, 12)

    def test_exceptions_are_not_kept(self):
        # each call computes and raises afresh; no exception is stored
        params = derive_params(1, 1, 2)
        for fn, args, match in (
            (intersection_numbers, (), "no flip for height 1"),
            (slice_basis, ("prime",), "not pointed"),
        ):
            raised = []
            for _ in range(2):
                with pytest.raises(ValueError, match=match) as info:
                    fn(params, *args)
                raised.append(info.value)
            assert raised[0] is not raised[1]


def package_nodes():
    for path in sorted(Path(sl2flip.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


class TestRecordFields:
    # a record field is a value that some caller sets and some caller reads;
    # the benchmark tracer reads SemistableReport.undecided, which goes
    # with ROADMAP item 2's schema change
    READ_OUTSIDE_THE_PACKAGE = {"SemistableReport.undecided"}

    def test_every_record_field_is_read_in_the_package(self):
        nodes = [node for _, node in package_nodes()]
        fields = {
            f"{node.name}.{stmt.target.id}"
            for node in nodes
            if isinstance(node, ast.ClassDef)
            and any(getattr(d, "id", None) == "record" for d in node.decorator_list)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
        }
        read = {
            node.attr for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        assert {"SL2Params.p", "SemistableReport.undecided"} <= fields
        unread = {field for field in fields if field.split(".")[1] not in read}
        assert unread <= self.READ_OUTSIDE_THE_PACKAGE


class TestCrossChecks:
    def test_no_assert_statement_in_the_package(self):
        # python -O strips asserts; every check must raise CrossCheckError
        found = [f"{name}:{node.lineno}" for name, node in package_nodes()
                 if isinstance(node, ast.Assert)]
        assert found == []

    def test_no_runtime_error_raised_in_the_package(self):
        # a failed check is a CrossCheckError and a bad input a ValueError;
        # a RuntimeError would surface as a traceback with no documented code
        found = [
            f"{name}:{node.lineno}"
            for name, node in package_nodes()
            if isinstance(node, ast.Raise)
            and node.exc is not None
            and "RuntimeError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
        ]
        assert found == []

    def test_only_the_datum_and_its_readers_call_derive_params(self):
        # raw integers are checked once, where the command line gives them;
        # iter_instances builds SL2Params directly, and every other module
        # takes the validated SL2Params
        callers = {
            name
            for name, node in package_nodes()
            if isinstance(node, ast.Call)
            and "derive_params" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        }
        assert callers == {"cli.py"}

    def test_one_exception_everywhere(self):
        assert sl2flip.CrossCheckError is CrossCheckError is lattice.CrossCheckError
        # slice_surfaces catches ValueError; a failed check must not be one
        assert not issubclass(CrossCheckError, ValueError)
