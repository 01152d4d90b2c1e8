"""Tests for the assembled invariants: parameters, class group, canonical
class, flip data, colored cones, degeneration."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2flip.sl2core import (
    SL2Params,
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
from sl2flip.toricgeom import CyclicSingularity


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
            SL2Params(1, 2, 4, k=2, a=2, b=1)  # k should be 1
        with pytest.raises(ValueError):
            SL2Params(2, 4, 1, k=2, a=1, b=1)  # unreduced height

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
            chars = class_group(params).characters
            a, m, order = params.a, params.m, params.a
            for coeff, name in ((a * params.p, "S_plus"), (-a * params.q, "S_minus")):
                assert coeff * chars["D"].torus_part + m * chars[name].torus_part == 0
                total = coeff * chars["D"].finite_part + m * chars[name].finite_part
                assert total % order == 0

    def test_character_dictionary_keys(self):
        chars = class_group(derive_params(1, 2, 1)).characters
        assert {"plus", "minus", "trivial", "D", "S_plus", "S_minus"} <= set(chars)


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
        assert s_plus.singularity.is_smooth
        assert s_minus.singularity.order == 3
        assert s_prime.singularity == CyclicSingularity(2, 1)

    def test_two_thirds_two(self):
        s_plus, _, _ = slice_surfaces(derive_params(2, 3, 2))
        assert s_plus.singularity.order == 4

    def test_half_one(self):
        s_plus, s_minus, s_prime = slice_surfaces(derive_params(1, 2, 1))
        assert s_plus.singularity.is_smooth
        assert s_minus.singularity.order == 2
        assert s_prime.singularity.is_smooth  # b = 1

    def test_height_one_has_no_prime_fixed_point(self):
        s_plus, s_minus, s_prime = slice_surfaces(derive_params(1, 1, 3))
        assert s_plus.singularity.is_smooth and s_minus.singularity.is_smooth
        assert s_prime.basis is None and s_prime.singularity is None
        assert s_prime.note

    def test_orders_sweep(self):
        for params in instances(5, 4, below_one=True):
            s_plus, s_minus, s_prime = slice_surfaces(params)
            assert s_plus.singularity.order == params.a * params.p
            assert s_minus.singularity.order == params.a * params.q
            assert s_prime.singularity.order == params.b

    def test_twist_is_ray_order_independent(self):
        # same_type identifies a surface with its mirror presentation
        from sl2flip.semigroup import dual_cone_rays, make_Mminus
        from sl2flip.toricgeom import Cone, classify_2d

        for params in instances(4, 3, below_one=True):
            rays = dual_cone_rays(make_Mminus(params.p, params.q, params.m))
            direct = classify_2d(Cone(rays))
            swapped = classify_2d(Cone((rays[1], rays[0])))
            assert direct.same_type(swapped)
            _, s_minus, _ = slice_surfaces(params)
            assert s_minus.singularity.same_type(direct)


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
        rep = flip_report(derive_params(2, 3, 1))
        assert set(rep.varieties) == {"E", "E-", "E+", "E'"}
        assert set(rep.proj_descriptions) == {"E+", "E-"}
        assert "positive K-degree" in rep.convention_note
        assert rep.colored.lattice_index == 1
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


class TestToricDegeneration:
    def test_one_third_two(self):
        deg = toric_degeneration(derive_params(1, 3, 2))
        assert deg.relation_coefficients == (1, 1, 4, 1)
        assert not deg.quasihomogeneous
        v1, v2, v3, v4 = deg.sigma0.rays
        lhs = tuple(1 * (x + y) for x, y in zip(v1, v2))
        rhs = tuple(4 * z + w for z, w in zip(v3, v4))
        assert lhs == rhs
        assert ((2, 0), 3) in deg.fibers

    def test_half_one_fiber(self):
        deg = toric_degeneration(derive_params(1, 2, 1))
        assert ((1, 0), 2) in deg.fibers

    def test_fiber_counts_sweep(self):
        for params in instances(4, 3, below_one=True):
            deg = toric_degeneration(params)
            assert deg.tilde.rank == 3
            for point, count in deg.fibers:
                assert count == point[0] + point[1] + 1

    def test_height_one_fails(self):
        with pytest.raises(ValueError):
            toric_degeneration(derive_params(1, 1, 1))


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
            assert gaifullin_criterion(sigma_of(p, q, a).rays, (p, p, q, q))
            assert not gaifullin_criterion(
                sigma0_of(p, q).rays, (p, p, p + q, 1)
            )


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
                assert (s_prime.singularity.order == 1) == (params.b == 1)
