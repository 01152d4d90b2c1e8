import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2flip import CrossCheckError, git, sl2core, verify
from sl2flip.git import (
    COORDS,
    DiagonalAction,
    GroupCharacter,
    SemistableReport,
    _effective,
    _names,
    _pattern_table,
    monomial_character,
    semistable_locus,
    stabilizer_of_support,
)
from sl2flip.lattice import _hermite_basis, iter_bounded_diophantine
from sl2flip.sl2core import (
    action,
    characters,
    derive_params,
    iter_instances,
    slice_semigroup,
)
from test_lattice import IntMatrix, cokernel, group_order, kernel_basis


def fs(*names):
    return frozenset(names)


def key(pat: frozenset[int]) -> tuple[str, ...]:
    """The witness key of a pattern of coordinate indices: its sorted names."""
    return tuple(sorted(_names(pat)))


def small_params(qmax=5, mmax=4):
    return [
        (p, q, m)
        for q in range(2, qmax + 1)
        for p in range(1, q)
        if math.gcd(p, q) == 1
        for m in range(1, mmax + 1)
    ]


def run(p, q, m, which):
    params = derive_params(p, q, m)
    return semistable_locus(action(params), characters(params)[which], params.b)


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
            witnesses[key(pat)] = (n0, zero)
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
            witnesses[key(pat)] = found
        else:
            undecided[key(pat)] = (n_max, box)

    minimal = [pat for pat in unstable if not any(other < pat for other in unstable)]
    vanishing = _names(frozenset.intersection(*minimal)) if minimal else frozenset()
    return SemistableReport(vanishing, witnesses, undecided)


def assert_witnesses_verified(act, chi, relation_degree, report):
    """Each witness has character n*chi and avoids its pattern; each pattern
    without one fails the sign test."""
    a = act.finite_order
    for i in range(len(COORDS)):
        for j in range(i, len(COORDS)):
            pattern = key(frozenset((i, j)))
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


def trivial_covectors(act):
    """Basis of the covectors c in Z^n pairing trivially with the group:
    sum c_i w_i = 0 and sum c_i f_i = 0 mod a, by Smith normal form."""
    n = len(act.torus_weights)
    system = IntMatrix.from_rows(
        (act.torus_weights + (0,), act.finite_weights + (act.finite_order,))
    )
    return [v[:n] for v in kernel_basis(system)]


def stabilizer_snf_oracle(act, support, trivial=None):
    """(free_rank, torsion) of Z^n modulo the trivial covectors and the
    supported coordinate characters, by Smith normal form."""
    n = len(act.torus_weights)
    if trivial is None:
        trivial = trivial_covectors(act)
    cols = trivial + [
        tuple(1 if i == j else 0 for j in range(n))
        for i in sorted({COORDS.index(c) for c in support})
    ]
    g = cokernel(IntMatrix.from_cols(cols, rows=n))
    return g.free_rank, g.torsion


ALL_SUPPORTS = [
    frozenset(c for bit, c in enumerate(COORDS) if mask >> bit & 1) for mask in range(32)
]


@st.composite
def diagonal_actions(draw):
    """Actions with zero, negative and repeated torus weights, a = 1
    included."""
    a = draw(st.integers(1, 12))
    torus = tuple(
        draw(st.one_of(st.just(0), st.integers(-9, 9))) for _ in COORDS
    )
    finite = tuple(draw(st.integers(0, a - 1)) for _ in COORDS)
    return DiagonalAction(torus, a, finite)


class TestStandardAction:
    def test_frozen(self):
        act = action(derive_params(1, 3, 1))
        assert act.torus_weights == (1, -1, -1, 3, 3)
        assert act.finite_order == 1
        assert act.finite_weights == (0, 0, 0, 0, 0)

        act = action(derive_params(2, 3, 4))
        assert act.torus_weights == (1, -2, -2, 3, 3)
        assert act.finite_order == 4
        assert act.finite_weights == (0, 3, 3, 1, 1)

        act = action(derive_params(1, 1, 5))
        assert act.torus_weights == (5, -1, -1, 1, 1)
        assert act.finite_order == 1

    def test_validation(self):
        torus = (1, -1, -1, 1, 1)
        with pytest.raises(ValueError, match="reduced"):
            DiagonalAction(torus, 2, (0, 3, 0, 0, 0))  # unreduced finite weight
        with pytest.raises(ValueError, match="different length"):
            DiagonalAction(torus, 2, (0, 1))
        with pytest.raises(ValueError, match="finite_order"):
            DiagonalAction((1,), 0, (0,))

    @pytest.mark.parametrize("n", [4, 6])
    def test_one_weight_per_coordinate(self, n):
        # semistable_locus and stabilizer_of_support name coordinates
        # through COORDS; six weights made the first raise IndexError
        with pytest.raises(ValueError, match="need 5 torus weights"):
            DiagonalAction((1,) * n, 2, (0,) * n)


class TestCharacters:
    def test_monomial_frozen(self):
        act = action(derive_params(1, 3, 1))
        assert monomial_character(act, (1, 0, 0, 0, 0)) == GroupCharacter(1, 0)
        assert monomial_character(act, (0, 0, 1, 0, 0)) == GroupCharacter(-1, 0)
        assert monomial_character(act, (0, 0, 0, 0, 0)) == GroupCharacter(0, 0)

        act = action(derive_params(2, 3, 4))
        assert monomial_character(act, (0, 0, 1, 0, 0)) == GroupCharacter(-2, 3)
        assert monomial_character(act, (0, 0, 0, 1, 0)) == GroupCharacter(3, 1)

    def test_matches_named_characters(self):
        for p, q, m in small_params():
            params = derive_params(p, q, m)
            act, chars = action(params), characters(params)
            assert monomial_character(act, (1, 0, 0, 0, 0)) == chars["D"]
            assert monomial_character(act, (0, 0, 1, 0, 0)) == chars["S_plus"]
            assert monomial_character(act, (0, 0, 0, 1, 0)) == chars["S_minus"]
            plus, minus = chars["plus"], chars["minus"]
            assert plus.torus_part + minus.torus_part == 0
            assert plus.finite_part == minus.finite_part == 0

    def test_bad_exponents(self):
        act = action(derive_params(1, 2, 1))
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
        assert ("X1", "X2") not in report.witness_monomials
        assert len(report.witness_monomials) == 14  # every other pattern

    def test_paper_witness_121(self):
        # X1^(q-p+k) = X1^2 is invariant of character 1*plus
        params = derive_params(1, 2, 1)
        act, plus = action(params), characters(params)["plus"]
        got = monomial_character(act, (0, 2, 0, 0, 0))
        assert (got.torus_part, got.finite_part) == (plus.torus_part, 0)

    def test_witness_characters_exact(self):
        for p, q, m in [(1, 2, 1), (1, 3, 2), (2, 3, 4), (1, 4, 3)]:
            params = derive_params(p, q, m)
            act = action(params)
            a = act.finite_order
            for which in ("plus", "minus"):
                chi = characters(params)[which]
                report = run(p, q, m, which)
                assert not report.undecided
                for pattern, (n, exps) in report.witness_monomials.items():
                    got = monomial_character(act, exps)
                    assert got.torus_part == n * chi.torus_part, (p, q, m, pattern)
                    assert got.finite_part == (n * chi.finite_part) % a
                    # the witness really avoids its pattern
                    support = {COORDS[i] for i, e in enumerate(exps) if e}
                    assert support.isdisjoint(pattern)

    def test_wrong_witness_character_is_a_cross_check_error(self, monkeypatch):
        real = git.monomial_character

        def shifted(act, exps):
            chi = real(act, exps)
            return GroupCharacter(chi.torus_part + 1, chi.finite_part)

        monkeypatch.setattr(git, "monomial_character", shifted)
        with pytest.raises(CrossCheckError, match="witness character"):
            run(1, 2, 1, "plus")

    def test_one_character_check_per_candidate(self, monkeypatch):
        # a candidate is a coordinate whose torus weight has the sign of
        # chi's; its witness is built and checked once, not once per pattern
        real = git.monomial_character
        calls = []

        def counting(act, exps):
            calls.append(exps)
            return real(act, exps)

        monkeypatch.setattr(git, "monomial_character", counting)
        for p, q, m in small_params():
            params = derive_params(p, q, m)
            act, chars = action(params), characters(params)
            for which in ("plus", "minus", "trivial"):
                t = chars[which].torus_part
                calls.clear()
                semistable_locus(act, chars[which], params.b)
                assert len(calls) == sum(w * t > 0 for w in act.torus_weights) <= 5

    @pytest.mark.parametrize("relation_degree", [0, 1])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_pattern_table_agrees_with_the_per_call_enumeration(self, n, relation_degree):
        # the enumeration semistable_locus ran on every call before the
        # table, over the first n coordinates, in the order cli._sec_git
        # sorted the witnesses into: the table's patterns on those
        # coordinates are that enumeration, in that order; past the five
        # named coordinates the enumeration fails and the table has none
        def per_call():
            patterns = [frozenset((i,)) for i in range(n)] + [
                frozenset((i, j)) for i in range(n) for j in range(i + 1, n)
            ]
            patterns.sort(key=lambda pat: (len(pat), sorted(_names(pat))))
            return tuple(
                (pat, key(pat), _effective(pat, relation_degree)) for pat in patterns
            )

        table = _pattern_table(relation_degree >= 1)
        if n > len(COORDS):
            with pytest.raises(IndexError):
                per_call()
            assert {i for pat, *_ in table for i in pat} == set(range(len(COORDS)))
        else:
            assert tuple(row for row in table if max(row[0]) < n) == per_call()
        assert len(table) == 15

    def test_every_candidate_character_is_checked(self, monkeypatch):
        # shifting the character of any one candidate coordinate raises,
        # also for a candidate that no pattern picks: at (1/2, m = 2) with
        # chi = (2, 1), X3 and X4 need power 1 and Y0 power 2, and every
        # pattern leaves X3 or X4 except {X3, X4}, which also kills Y0
        params = derive_params(1, 2, 2)
        act = action(params)
        custom = GroupCharacter(2, 1)
        witnesses = semistable_locus(act, custom, params.b).witness_monomials
        assert all(exps[0] == 0 for _, exps in witnesses.values())
        cases = [(act, custom, params.b)]
        for p, q, m in small_params(4, 3):
            params = derive_params(p, q, m)
            act, chars = action(params), characters(params)
            cases += [(act, chars[which], params.b) for which in ("plus", "minus")]
        real = git.monomial_character
        for act, chi, b in cases:
            candidates = [j for j, w in enumerate(act.torus_weights) if w * chi.torus_part > 0]
            assert candidates
            for j in candidates:

                def shifted(act, exps, j=j):
                    got = real(act, exps)
                    return GroupCharacter(got.torus_part + bool(exps[j]), got.finite_part)

                with monkeypatch.context() as patch:
                    patch.setattr(git, "monomial_character", shifted)
                    with pytest.raises(CrossCheckError, match="witness character"):
                        semistable_locus(act, chi, b)

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
            mirrored = {tuple(sorted(swap[c] for c in pat)) for pat in plus.witness_monomials}
            assert mirrored == set(minus.witness_monomials)

    def test_height_one(self):
        # on the unit hypersurface b = 0 there is no Y0 rewrite and Y0 has
        # positive weight, so only the plus side keeps an unstable pattern
        assert run(1, 1, 2, "plus").unstable_vanishing == fs("X1", "X2")
        assert run(1, 1, 2, "minus").unstable_vanishing == fs()
        assert not run(1, 1, 2, "minus").undecided

    def test_nontrivial_finite_part_scaling(self):
        # S_minus has finite part 1; witnesses must scale it correctly
        params = derive_params(2, 3, 4)
        act, chi = action(params), characters(params)["S_minus"]
        report = semistable_locus(act, chi, 0)
        assert not report.undecided
        for pattern, (n, exps) in report.witness_monomials.items():
            got = monomial_character(act, exps)
            assert got == GroupCharacter(n * chi.torus_part, (n * chi.finite_part) % 4)

    def test_bad_bounds(self):
        params = derive_params(1, 2, 1)
        act, chi = action(params), characters(params)["plus"]
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
            act = action(params)
            for chi in characters(params).values():
                # the former default budgets 2s and 4s, s = p + q + k
                s = p + q + params.k
                old = budgeted_semistable_locus(act, chi, b, 2 * s, 4 * s)
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

    def test_torus_part_zero_with_every_finite_part(self):
        # (0, c) for c = 0..a-1: the constant of order a/gcd(a, c) is every
        # pattern's witness, in the table's order, which cli prints as is
        reports = 0
        for params in iter_instances(9, 8):
            act, b, s = action(params), params.b, params.p + params.q + params.k
            order = [row[1] for row in _pattern_table(b >= 1)]  # the names
            for c in range(params.a):
                chi = GroupCharacter(0, c)
                new = semistable_locus(act, chi, b)
                assert new == budgeted_semistable_locus(act, chi, b, 2 * s, 4 * s), (params, c)
                assert list(new.witness_monomials) == order, (params, c)
                reports += 1
        assert reports == 821

    def test_witness_is_a_single_coordinate_of_least_power(self):
        # X1^(q-p+k) = X1^2 is the paper's witness for plus at (1, 2, 1)
        report = run(1, 2, 1, "plus")
        assert report.witness_monomials[("X3",)] == (1, (0, 2, 0, 0, 0))
        # X1 and X2 tie at every pattern avoiding both: the lower index wins
        assert report.witness_monomials[("X4", "Y0")] == (1, (0, 2, 0, 0, 0))
        assert report.witness_monomials[("X1", "X3")] == (1, (0, 0, 2, 0, 0))


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
        act = action(params)
        chars = characters(params)
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
        act = action(params)
        torus = data.draw(st.integers(-(10**12), 10**12))
        finite = data.draw(st.integers(0, params.a - 1))
        chi = GroupCharacter(torus, finite)
        report = semistable_locus(act, chi, params.b)
        assert not report.undecided
        assert_witnesses_verified(act, chi, params.b, report)


class TestHermiteBasis:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), max_size=5))
    def test_is_the_normal_form_of_the_span(self, vectors):
        alpha, beta, gamma = _hermite_basis(vectors)
        assert alpha >= 0 and gamma >= 0
        assert alpha == math.gcd(*(x for x, _ in vectors))
        if gamma:
            assert 0 <= beta < gamma
        if not alpha:
            assert beta == 0
        # every vector lies in the span of the basis ...
        for x, y in vectors:
            c = x // alpha if alpha else 0
            assert x == c * alpha
            rest = y - c * beta
            assert (rest % gamma == 0) if gamma else rest == 0
        # ... and the basis in the span of the vectors: it dies in their
        # cokernel
        g = cokernel(IntMatrix.from_cols(vectors, rows=2))
        zero = (0,) * (g.free_rank + len(g.torsion))
        for u, v in ((alpha, beta), (0, gamma)):
            image = [u * s + v * t for s, t in zip(*g.generator_images)]
            assert g.reduce(image) == zero

    def test_frozen(self):
        assert _hermite_basis([]) == (0, 0, 0)
        assert _hermite_basis([(0, 6), (0, 4)]) == (0, 0, 2)
        assert _hermite_basis([(6, 4), (-12, 1), (3, 11)]) == (3, 2, 9)


class TestStabilizer:
    def test_y0_support(self):
        act = action(derive_params(2, 3, 4))
        g = stabilizer_of_support(act, {"Y0"})
        assert group_order(g) == 4

    def test_mixed_support_trivial(self):
        for p, q, m in small_params():
            act = action(derive_params(p, q, m))
            for one in ("X1", "X2"):
                for other in ("X3", "X4"):
                    assert stabilizer_of_support(act, {one, other}).is_trivial()

    def test_empty_support(self):
        act = action(derive_params(2, 3, 4))
        g = stabilizer_of_support(act, set())
        assert g.free_rank == 1
        assert g.structure() == "Z x Z/4"

    def test_empty_support_ineffective_kernel(self):
        # at (1,3,4) the abstract group has a diagonal mu_2 acting trivially
        act = action(derive_params(1, 3, 4))
        g = stabilizer_of_support(act, set())
        assert g.free_rank == 1 and g.torsion == ()

    def test_character_lattice_once_per_action(self, monkeypatch):
        # L is the same for every support: one Hermite basis for it and one
        # per distinct pair of characters R is spanned by.  X1, X2 share a
        # character, and so do X3, X4, so the four supports of the verify
        # row take two
        real = git._hermite_basis
        calls = []
        monkeypatch.setattr(git, "_hermite_basis", lambda v: calls.append(v) or real(v))
        for p, q, m in small_params():
            calls.clear()
            verify._check_stabilizer(derive_params(p, q, m))
            assert len(calls) == 2, (p, q, m)

    @pytest.mark.parametrize("moved, computed", [
        ("X2", [fs("X1", "X3"), fs("X2", "X3")]),
        ("X4", [fs("X1", "X3"), fs("X1", "X4")]),
    ])
    def test_one_group_per_distinct_character_pair(self, monkeypatch, moved, computed):
        # one coordinate moved off its partner's character, to torus and
        # finite weight 0: the four supports then have two distinct pairs
        # of characters, so the row computes two groups, and a nontrivial
        # one still fails with the text of the first such support in the
        # row's order
        real_action, real_stabilizer = sl2core.action, git.stabilizer_of_support
        index = COORDS.index(moved)

        def moved_apart(params):
            act = real_action(params)
            torus, finite = list(act.torus_weights), list(act.finite_weights)
            torus[index] = finite[index] = 0
            return DiagonalAction(tuple(torus), act.finite_order, tuple(finite))

        supports = []

        def recorded(act, support):
            supports.append(support)
            return real_stabilizer(act, support)

        monkeypatch.setattr(sl2core, "action", moved_apart)
        monkeypatch.setattr(git, "stabilizer_of_support", recorded)
        failed = 0
        for p, q, m in small_params():
            params = derive_params(p, q, m)
            act = moved_apart(params)
            groups = {
                (left, right): real_stabilizer(act, {left, right})
                for left in ("X1", "X2")
                for right in ("X3", "X4")
            }
            first = next((pair for pair, g in groups.items() if not g.is_trivial()), None)
            supports.clear()
            if first is None:
                verify._check_stabilizer(params)
            else:
                failed += 1
                with pytest.raises(CrossCheckError) as info:
                    verify._check_stabilizer(params)
                want = f"stabilizer on {first[0]}, {first[1]}: ({groups[first]!r},)"
                assert str(info.value) == want, (p, q, m)
            assert supports == computed, (p, q, m)
        assert failed > 0

    def test_oracle_sweep(self):
        instances = [(1, 2, 1), (1, 3, 1), (2, 3, 4), (1, 3, 4), (1, 1, 3), (2, 5, 6)]
        for p, q, m in instances:
            act = action(derive_params(p, q, m))
            supports = [set(s) for s in combinations(COORDS, 1)]
            supports += [set(s) for s in combinations(COORDS, 2)]
            supports += [{"Y0", "X1", "X3"}, {"X1", "X2", "X3"}]
            for support in supports:
                got = group_order(stabilizer_of_support(act, support))
                assert got == stabilizer_order_oracle(act, support), (p, q, m, support)

    def test_agrees_with_smith_oracle_on_instances(self):
        for params in iter_instances(16, 16):
            act = action(params)
            trivial = trivial_covectors(act)
            for support in ALL_SUPPORTS:
                g = stabilizer_of_support(act, support)
                want = stabilizer_snf_oracle(act, support, trivial)
                assert (g.free_rank, g.torsion) == want, (params, support)

    @settings(max_examples=300, deadline=None)
    @given(act=diagonal_actions(), support=st.sampled_from(ALL_SUPPORTS))
    def test_agrees_with_smith_oracle_on_any_action(self, act, support):
        g = stabilizer_of_support(act, support)
        assert (g.free_rank, g.torsion) == stabilizer_snf_oracle(act, support)
        assert g.generator_images == ()

    @pytest.mark.parametrize(
        "torus, a, finite, support, structure",
        [
            # every torus weight 0: L and R have rank 1 and the image of the
            # group is finite
            ((0, 0, 0, 0, 0), 6, (1, 2, 3, 0, 0), (), "Z/6"),
            ((0, 0, 0, 0, 0), 6, (1, 2, 3, 0, 0), ("Y0",), "0"),
            ((0, 0, 0, 0, 0), 6, (1, 2, 3, 0, 0), ("X2",), "Z/3"),
            # supports without torus weights: R has rank 1 inside a rank-2 L
            ((0, 2, 0, 0, 0), 4, (2, 1, 0, 0, 0), ("Y0",), "Z"),
            ((0, 2, 0, 0, 0), 4, (2, 1, 0, 0, 0), ("X2",), "Z x Z/2"),
            # (t^2, t, zeta) on (Y0, X1, X2) acts faithfully; the point with
            # only Y0 nonzero is fixed by t = +-1 and every zeta
            ((2, 1, 0, 0, 0), 2, (0, 0, 1, 0, 0), ("Y0",), "Z/2 x Z/2"),
        ],
    )
    def test_degenerate_lattices(self, torus, a, finite, support, structure):
        act = DiagonalAction(torus, a, finite)
        g = stabilizer_of_support(act, support)
        assert g.structure() == structure
        assert (g.free_rank, g.torsion) == stabilizer_snf_oracle(act, support)

    def test_monotone(self):
        for p, q, m in small_params(4, 4):
            act = action(derive_params(p, q, m))
            for small in combinations(COORDS, 1):
                for extra in COORDS:
                    if extra in small:
                        continue
                    lo = group_order(stabilizer_of_support(act, set(small)))
                    hi = group_order(stabilizer_of_support(act, set(small) | {extra}))
                    assert lo % hi == 0


def u_invariant_exponents(params, box):
    """Exponent pairs (i, j) in [0, box]^2 for which X0^e0 X1^i X3^j can be
    made invariant under the torus acting with weights (1, -p, q) and the
    mu_m action with weights (0, -1, 1): the torus forces e0 = pi - qj,
    which must be a legal exponent, and mu_m forces m | i - j.  The box
    oracle of verify's u-oracle row, which compares cones and lattices."""
    p, q, m = params.p, params.q, params.m
    return {
        (i, j)
        for i in range(box + 1)
        for j in range(box + 1)
        if p * i - q * j >= 0 and (j - i) % m == 0
    }


class TestUInvariants:
    def test_frozen_121(self):
        got = u_invariant_exponents(derive_params(1, 2, 1), 6)
        assert got == {(i, j) for i in range(7) for j in range(7) if 2 * j <= i}

    def test_box_zero(self):
        assert u_invariant_exponents(derive_params(1, 2, 1), 0) == {(0, 0)}

    def test_matches_semigroup_132(self):
        params = derive_params(1, 3, 2)
        s = slice_semigroup(params, "plus")
        got = u_invariant_exponents(params, 6)
        assert got == {
            (i, j)
            for i in range(7)
            for j in range(7)
            if s.contains((i, j))
        }
