import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2flip.git import (
    COORDS,
    DiagonalAction,
    GroupCharacter,
    SemistableReport,
    _effective,
    _names,
    default_budgets,
    monomial_character,
    semistable_locus,
    stabilizer_of_support,
    standard_action,
    standard_characters,
    u_invariant_exponents,
)
from sl2flip.lattice import iter_bounded_diophantine
from sl2flip.semigroup import make_Mplus
from sl2flip.sl2core import derive_params, iter_instances


def fs(*names):
    return frozenset(names)


def small_params(qmax=5, mmax=4):
    return [
        (p, q, m)
        for q in range(2, qmax + 1)
        for p in range(1, q)
        if math.gcd(p, q) == 1
        for m in range(1, mmax + 1)
    ]


def run(p, q, m, which):
    act = standard_action(p, q, m)
    chi = standard_characters(p, q, m)[which]
    k = m if p == q else math.gcd(q - p, m)
    b = (q - p) // k
    return semistable_locus(act, chi, b)


def budgeted_semistable_locus(act, chi, relation_degree, n_max, box):
    """The former semistability search, kept as an oracle: the same sign
    test, then the lexicographically first monomial of character n*chi
    with the least n <= n_max and exponents <= box; patterns it cannot
    settle within that budget are reported undecided."""
    n = len(act.torus_weights)
    a = act.finite_order
    patterns = [frozenset((i,)) for i in range(n)] + [
        frozenset((i, j)) for i in range(n) for j in range(i + 1, n)
    ]
    witnesses = {}
    undecided = {}
    unstable = []

    chi_f = chi.finite_part % a
    if chi.torus_part == 0:
        n0 = 1 if chi_f == 0 else a // math.gcd(a, chi_f)
        zero = (0,) * n
        for pat in patterns:
            witnesses[_names(pat)] = (n0, zero)
        return SemistableReport(frozenset(), witnesses, undecided)

    for pat in patterns:
        allowed = [i for i in range(n) if i not in _effective(pat, relation_degree)]
        aw = tuple(act.torus_weights[i] for i in allowed)
        af = tuple(act.finite_weights[i] for i in allowed)
        if chi.torus_part > 0 and all(w <= 0 for w in aw):
            unstable.append(pat)
            continue
        if chi.torus_part < 0 and all(w >= 0 for w in aw):
            unstable.append(pat)
            continue
        found = None
        for power in range(1, n_max + 1):
            sol = next(
                iter_bounded_diophantine(
                    aw,
                    power * chi.torus_part,
                    box,
                    congruence=(af, (power * chi_f) % a, a),
                ),
                None,
            )
            if sol is not None:
                full = [0] * n
                for pos, i in enumerate(allowed):
                    full[i] = sol[pos]
                found = (power, tuple(full))
                break
        if found is not None:
            witnesses[_names(pat)] = found
        else:
            undecided[_names(pat)] = (n_max, box)

    minimal = [pat for pat in unstable if not any(other < pat for other in unstable)]
    vanishing = _names(frozenset.intersection(*minimal)) if minimal else frozenset()
    return SemistableReport(vanishing, witnesses, undecided)


def assert_witnesses_verified(act, chi, relation_degree, report):
    """Each witness has character n*chi and avoids its pattern; each pattern
    without one fails the sign test."""
    a = act.finite_order
    for i in range(len(COORDS)):
        for j in range(i, len(COORDS)):
            pattern = _names(frozenset((i, j)))
            dead = _effective(frozenset((i, j)), relation_degree)
            if pattern not in report.witness_monomials:
                assert chi.torus_part != 0
                assert all(
                    w * chi.torus_part <= 0
                    for c, w in enumerate(act.torus_weights)
                    if c not in dead
                ), pattern
                continue
            n, exps = report.witness_monomials[pattern]
            assert n >= 1
            got = monomial_character(act, exps)
            assert got == GroupCharacter(n * chi.torus_part, n * chi.finite_part % a)
            assert not any(exps[c] for c in dead), (pattern, exps)


def stabilizer_order_oracle(act, support):
    """Count distinct diagonal matrices fixing the support by enumerating
    the candidate roots of unity directly."""
    w, f, a = act.torus_weights, act.finite_weights, act.finite_order
    idx = [COORDS.index(c) for c in support]
    assert idx
    i0 = next(i for i in idx if w[i] != 0)
    big = a * abs(w[i0])
    seen = set()
    for r in range(big):
        for s in range(a):
            if all((a * w[i] * r + big * f[i] * s) % (big * a) == 0 for i in idx):
                seen.add(
                    tuple(
                        (a * w[j] * r + big * f[j] * s) % (big * a)
                        for j in range(len(w))
                    )
                )
    return len(seen)


class TestStandardAction:
    def test_frozen(self):
        act = standard_action(1, 3, 1)
        assert act.torus_weights == (1, -1, -1, 3, 3)
        assert act.finite_order == 1
        assert act.finite_weights == (0, 0, 0, 0, 0)

        act = standard_action(2, 3, 4)
        assert act.torus_weights == (1, -2, -2, 3, 3)
        assert act.finite_order == 4
        assert act.finite_weights == (0, 3, 3, 1, 1)

        act = standard_action(1, 1, 5)
        assert act.torus_weights == (5, -1, -1, 1, 1)
        assert act.finite_order == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            standard_action(2, 4, 1)
        with pytest.raises(ValueError):
            standard_action(3, 2, 1)
        with pytest.raises(ValueError):
            standard_action(1, 2, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiagonalAction((1, -1), 2, (0, 3))  # unreduced finite weight
        with pytest.raises(ValueError):
            DiagonalAction((1,), 2, (0, 1))
        with pytest.raises(ValueError):
            DiagonalAction((1,), 0, (0,))


class TestCharacters:
    def test_monomial_frozen(self):
        act = standard_action(1, 3, 1)
        assert monomial_character(act, (1, 0, 0, 0, 0)) == GroupCharacter(1, 0)
        assert monomial_character(act, (0, 0, 1, 0, 0)) == GroupCharacter(-1, 0)
        assert monomial_character(act, (0, 0, 0, 0, 0)) == GroupCharacter(0, 0)

        act = standard_action(2, 3, 4)
        assert monomial_character(act, (0, 0, 1, 0, 0)) == GroupCharacter(-2, 3)
        assert monomial_character(act, (0, 0, 0, 1, 0)) == GroupCharacter(3, 1)

    def test_matches_named_characters(self):
        for p, q, m in small_params():
            act = standard_action(p, q, m)
            chars = standard_characters(p, q, m)
            assert monomial_character(act, (1, 0, 0, 0, 0)) == chars["D"]
            assert monomial_character(act, (0, 0, 1, 0, 0)) == chars["S_plus"]
            assert monomial_character(act, (0, 0, 0, 1, 0)) == chars["S_minus"]
            plus, minus = chars["plus"], chars["minus"]
            assert plus.torus_part + minus.torus_part == 0
            assert plus.finite_part == minus.finite_part == 0

    def test_bad_exponents(self):
        act = standard_action(1, 2, 1)
        with pytest.raises(ValueError):
            monomial_character(act, (1, 2, 3))
        with pytest.raises(ValueError):
            monomial_character(act, (0, -1, 0, 0, 0))


class TestSemistableLocus:
    def test_frozen_131(self):
        assert run(1, 3, 1, "plus").unstable_vanishing == fs("X1", "X2")
        assert run(1, 3, 1, "minus").unstable_vanishing == fs("X3", "X4")
        assert run(1, 3, 1, "trivial").unstable_vanishing == fs()

    def test_121_plus_patterns(self):
        report = run(1, 2, 1, "plus")
        assert report.unstable_vanishing == fs("X1", "X2")
        assert not report.undecided
        assert fs("X1", "X2") not in report.witness_monomials
        assert len(report.witness_monomials) == 14  # every other pattern

    def test_paper_witness_121(self):
        # X1^(q-p+k) = X1^2 is invariant of character 1*plus
        act = standard_action(1, 2, 1)
        plus = standard_characters(1, 2, 1)["plus"]
        got = monomial_character(act, (0, 2, 0, 0, 0))
        assert (got.torus_part, got.finite_part) == (plus.torus_part, 0)

    def test_witness_characters_exact(self):
        for p, q, m in [(1, 2, 1), (1, 3, 2), (2, 3, 4), (1, 4, 3)]:
            act = standard_action(p, q, m)
            a = act.finite_order
            for which in ("plus", "minus"):
                chi = standard_characters(p, q, m)[which]
                report = run(p, q, m, which)
                assert not report.undecided
                for pattern, (n, exps) in report.witness_monomials.items():
                    got = monomial_character(act, exps)
                    assert got.torus_part == n * chi.torus_part, (p, q, m, pattern)
                    assert got.finite_part == (n * chi.finite_part) % a
                    # the witness really avoids its pattern
                    support = {COORDS[i] for i, e in enumerate(exps) if e}
                    assert not support & pattern

    def test_trivial_character_sweep(self):
        for p, q, m in small_params(4, 3):
            report = run(p, q, m, "trivial")
            assert report.unstable_vanishing == fs()
            assert not report.undecided
            assert len(report.witness_monomials) == 15

    def test_mirror_sweep(self):
        swap = {"Y0": "Y0", "X1": "X3", "X2": "X4", "X3": "X1", "X4": "X2"}
        for p, q, m in small_params(4, 3):
            plus, minus = run(p, q, m, "plus"), run(p, q, m, "minus")
            assert {swap[c] for c in plus.unstable_vanishing} == set(
                minus.unstable_vanishing
            )
            mirrored = {fs(*(swap[c] for c in pat)) for pat in plus.witness_monomials}
            assert mirrored == set(minus.witness_monomials)

    def test_height_one(self):
        # on the unit hypersurface b = 0 there is no Y0 rewrite and Y0 has
        # positive weight, so only the plus side keeps an unstable pattern
        assert run(1, 1, 2, "plus").unstable_vanishing == fs("X1", "X2")
        assert run(1, 1, 2, "minus").unstable_vanishing == fs()
        assert not run(1, 1, 2, "minus").undecided

    def test_nontrivial_finite_part_scaling(self):
        # S_minus has finite part 1; witnesses must scale it correctly
        act = standard_action(2, 3, 4)
        chi = standard_characters(2, 3, 4)["S_minus"]
        report = semistable_locus(act, chi, 0)
        assert not report.undecided
        for pattern, (n, exps) in report.witness_monomials.items():
            got = monomial_character(act, exps)
            assert got == GroupCharacter(n * chi.torus_part, (n * chi.finite_part) % 4)

    def test_bad_bounds(self):
        act = standard_action(1, 2, 1)
        chi = standard_characters(1, 2, 1)["plus"]
        with pytest.raises(ValueError):
            semistable_locus(act, chi, -1)

    def test_deterministic(self):
        a = run(2, 5, 3, "plus")
        b = run(2, 5, 3, "plus")
        assert a == b

    def test_against_budgeted_search(self):
        # q <= 9, m <= 8 with all six standard characters: 1344 reports
        undecided = single = 0
        for params in iter_instances(9, 8):
            p, q, m, b = params.p, params.q, params.m, params.b
            act = standard_action(p, q, m)
            for chi in standard_characters(p, q, m).values():
                old = budgeted_semistable_locus(act, chi, b, *default_budgets(p, q, m))
                new = semistable_locus(act, chi, b)
                where = (p, q, m, chi)
                assert new.unstable_vanishing == old.unstable_vanishing, where
                assert not new.undecided
                assert set(new.witness_monomials) == (
                    set(old.witness_monomials) | set(old.undecided)
                ), where
                assert_witnesses_verified(act, chi, b, new)
                undecided += len(old.undecided)
                for pattern, (n_old, exps) in old.witness_monomials.items():
                    if sum(1 for e in exps if e) == 1:
                        single += 1
                        assert new.witness_monomials[pattern][0] <= n_old, where
        # the search left these undecided; single-coordinate witnesses pin n
        assert (undecided, single) == (132, 7992)

    def test_witness_is_a_single_coordinate_of_least_power(self):
        # X1^(q-p+k) = X1^2 is the paper's witness for plus at (1, 2, 1)
        report = run(1, 2, 1, "plus")
        assert report.witness_monomials[fs("X3")] == (1, (0, 2, 0, 0, 0))
        # X1 and X2 tie at every pattern avoiding both: the lower index wins
        assert report.witness_monomials[fs("Y0", "X4")] == (1, (0, 2, 0, 0, 0))
        assert report.witness_monomials[fs("X1", "X3")] == (1, (0, 0, 2, 0, 0))


@st.composite
def huge_instances(draw):
    q = draw(st.integers(2, 10**4))
    p = draw(st.integers(1, q - 1).filter(lambda p: math.gcd(p, q) == 1))
    m = draw(st.integers(1, 10**12))
    return derive_params(p, q, m)


class TestSemistableLocusAtScale:
    # cost depends on the number of patterns, not on p, q, m or chi;
    # the budgeted search could not finish any of these cases
    @settings(max_examples=60, deadline=None)
    @given(params=huge_instances())
    def test_standard_loci(self, params):
        act = standard_action(params.p, params.q, params.m)
        chars = standard_characters(params.p, params.q, params.m)
        want = {
            "plus": fs("X1", "X2"),
            "minus": fs("X3", "X4"),
            "trivial": fs(),
        }
        for name, expected in want.items():
            report = semistable_locus(act, chars[name], params.b)
            assert report.unstable_vanishing == expected
            assert not report.undecided
            assert_witnesses_verified(act, chars[name], params.b, report)

    @settings(max_examples=60, deadline=None)
    @given(params=huge_instances(), data=st.data())
    def test_custom_character(self, params, data):
        act = standard_action(params.p, params.q, params.m)
        torus = data.draw(st.integers(-(10**12), 10**12))
        finite = data.draw(st.integers(0, params.a - 1))
        chi = GroupCharacter(torus, finite)
        report = semistable_locus(act, chi, params.b)
        assert not report.undecided
        assert_witnesses_verified(act, chi, params.b, report)


class TestStabilizer:
    def test_y0_support(self):
        act = standard_action(2, 3, 4)
        g = stabilizer_of_support(act, {"Y0"})
        assert g.order() == 4

    def test_mixed_support_trivial(self):
        for p, q, m in small_params():
            act = standard_action(p, q, m)
            for one in ("X1", "X2"):
                for other in ("X3", "X4"):
                    assert stabilizer_of_support(act, {one, other}).is_trivial()

    def test_empty_support(self):
        act = standard_action(2, 3, 4)
        g = stabilizer_of_support(act, set())
        assert g.free_rank == 1
        assert g.structure() == "Z x Z/4"

    def test_empty_support_ineffective_kernel(self):
        # at (1,3,4) the abstract group has a diagonal mu_2 acting trivially
        act = standard_action(1, 3, 4)
        g = stabilizer_of_support(act, set())
        assert g.free_rank == 1 and g.torsion == ()

    def test_oracle_sweep(self):
        instances = [(1, 2, 1), (1, 3, 1), (2, 3, 4), (1, 3, 4), (1, 1, 3), (2, 5, 6)]
        for p, q, m in instances:
            act = standard_action(p, q, m)
            supports = [set(s) for s in combinations(COORDS, 1)]
            supports += [set(s) for s in combinations(COORDS, 2)]
            supports += [{"Y0", "X1", "X3"}, {"X1", "X2", "X3"}]
            for support in supports:
                got = stabilizer_of_support(act, support).order()
                assert got == stabilizer_order_oracle(act, support), (p, q, m, support)

    def test_monotone(self):
        for p, q, m in small_params(4, 4):
            act = standard_action(p, q, m)
            for small in combinations(COORDS, 1):
                for extra in COORDS:
                    if extra in small:
                        continue
                    lo = stabilizer_of_support(act, set(small)).order()
                    hi = stabilizer_of_support(act, set(small) | {extra}).order()
                    assert lo % hi == 0


class TestUInvariants:
    def test_frozen_121(self):
        got = u_invariant_exponents(1, 2, 1, 6)
        assert got == {(i, j) for i in range(7) for j in range(7) if 2 * j <= i}

    def test_box_zero(self):
        assert u_invariant_exponents(1, 2, 1, 0) == {(0, 0)}

    def test_matches_semigroup_132(self):
        s = make_Mplus(1, 3, 2)
        got = u_invariant_exponents(1, 3, 2, 6)
        assert got == {
            (i, j)
            for i in range(7)
            for j in range(7)
            if s.contains((i, j))
        }

    def test_default_budgets(self):
        assert default_budgets(1, 2, 1) == (8, 16)
        assert default_budgets(2, 3, 4) == (12, 24)
