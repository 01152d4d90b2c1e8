"""CLI tests: frozen command outputs, exit codes, JSON determinism."""

import argparse
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sl2flip import CrossCheckError, cli, git, semigroup, sl2core, verify
from sl2flip.lattice import FinAbGroup
from sl2flip.semigroup import AffineSemigroup, HilbertBasis, hilbert_basis
from sl2flip.sl2core import derive_params, iter_instances, slice_basis, slice_semigroup
from test_git import u_invariant_exponents
from test_semigroup import brute_minimal_generators, runs_of_chain


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_see(monkeypatch, module, name, value):
    """module.name replaced by value in the verify rows' view only: verify's
    reference to the module becomes a copy that holds the one substituted
    name, so the library's own callers still call the original."""
    short = module.__name__.rpartition(".")[2]
    view = SimpleNamespace(**{**vars(getattr(verify, short)), name: value})
    monkeypatch.setattr(verify, short, view)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


class TestInfo:
    def test_one_third_one(self, capsys):
        doc = run_json(capsys, "info", "1/3", "1")
        assert doc["schema_version"] == "1.0"
        assert doc["params"] == {"p": 1, "q": 3, "m": 1, "k": 1, "a": 1, "b": 2}
        assert doc["sections"]["class_group"]["structure"] == "Z"
        assert doc["sections"]["canonical"]["coefficient_D"] == -3
        flip = doc["sections"]["flip"]
        assert flip["k_degrees"]["C_minus"] == {"num": -1, "den": 3}
        assert flip["k_degrees"]["C_plus"] == {"num": 3, "den": 1}

    def test_height_one_replaces_flip_sections(self, capsys):
        doc = run_json(capsys, "info", "1/1", "5")
        assert doc["sections"]["flip"] == "no flip (height 1)"
        assert doc["sections"]["params"]["smooth"] is True
        assert doc["sections"]["orbits"] == ["SL(2)/C_5", "SL(2)/T"]

    def test_unreduced_height_warns(self, capsys):
        doc = run_json(capsys, "info", "2/4", "1")
        assert doc["params"]["p"] == 1 and doc["params"]["q"] == 2
        assert any("reduced" in w for w in doc["warnings"])

    def test_strict_rejects_unreduced(self, capsys):
        code, _, err = run(capsys, "info", "2/4", "1", "--strict")
        assert code == 3
        assert "lowest terms" in err

    def test_text_output_has_sections(self, capsys):
        code, out, _ = run(capsys, "info", "1/3", "1")
        assert code == 0
        assert out.startswith("params: p=1 q=3 m=1")
        for header in ("[cox]", "[class_group]", "[flip]", "[embedding]"):
            assert header in out

    def test_convention_warnings_present_below_height_one(self, capsys):
        doc = run_json(capsys, "info", "1/2", "1")
        joined = " ".join(doc["warnings"])
        assert "positive K-degree" in joined
        assert "transposed" in joined


class TestHilbert:
    def test_plus(self, capsys):
        doc = run_json(capsys, "hilbert", "1/3", "2", "plus")
        assert doc["sections"]["hilbert"]["generators"] == [[2, 0], [3, 1]]

    def test_minus(self, capsys):
        doc = run_json(capsys, "hilbert", "1/2", "1", "minus")
        assert doc["sections"]["hilbert"]["generators"] == [
            [0, -1],
            [1, 0],
            [2, 1],
        ]

    def test_tilde_fiber_table(self, capsys):
        doc = run_json(capsys, "hilbert", "1/3", "2", "tilde")
        assert doc["sections"]["hilbert"]["fibers"] == [
            {"point": [2, 0], "count": 3},
            {"point": [3, 1], "count": 5},
        ]

    def test_tilde_fibers_are_cross_checked(self, capsys, monkeypatch):
        # hilbert ... tilde prints the fibers toric_degeneration checks: a
        # degeneration semigroup bounded by l <= 2i + j has the wrong count
        wrong = AffineSemigroup(
            3, ((2, 1, -1), (2, -5, 0), (0, 1, 0), (0, 0, 1)), (((1, -1, 0), 9),)
        )
        monkeypatch.setattr(sl2core, "make_Mtilde", lambda params: wrong)
        code, out, err = run(capsys, "hilbert", "2/5", "9", "tilde")
        assert (code, out) == (4, "")
        assert err.startswith("cross-check failed: ") and "i + j + 1" in err, err

    def test_tilde_at_height_one(self, capsys):
        doc = run_json(capsys, "hilbert", "1/1", "3", "tilde")
        assert doc["sections"]["hilbert"]["fibers"] == [
            {"point": [1, 1], "count": 3},
            {"point": [3, 0], "count": 4},
        ]

    def test_tilde_lists_the_degeneration_fibers(self, capsys):
        # hilbert ... tilde and degeneration print the one listing
        listed = 0
        for params in iter_instances(7, 6):
            if params.b >= 1:
                argv = (f"{params.p}/{params.q}", str(params.m))
                tilde = run_json(capsys, "hilbert", *argv, "tilde")["sections"]["hilbert"]
                deg = run_json(capsys, "degeneration", *argv)["sections"]["degeneration"]
                assert tilde["fibers"] == deg["fibers"], argv
                listed += 1
        assert listed == 102
        # at height 1 only hilbert ... tilde lists it
        doc = run_json(capsys, "hilbert", "1", "3", "tilde")
        assert doc["sections"]["hilbert"]["fibers"] == [
            {"point": [1, 1], "count": 3},
            {"point": [3, 0], "count": 4},
        ]

    def test_tilde_basis_is_domain_error(self, capsys):
        code, _, err = run(capsys, "hilbert", "1/3", "2", "tilde", "--basis")
        assert code == 3
        assert "fiber" in err or "basis" in err

    def test_prime_at_height_one_is_domain_error(self, capsys):
        code, _, err = run(capsys, "hilbert", "1/1", "2", "prime")
        assert code == 3

    def test_unknown_semigroup_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "hilbert", "1/3", "2", "bogus")
        assert code == 2


class TestGit:
    def test_plus(self, capsys):
        doc = run_json(capsys, "git", "1/3", "1", "plus")
        assert doc["sections"]["git"]["unstable_vanishing"] == ["X1", "X2"]

    def test_trivial(self, capsys):
        doc = run_json(capsys, "git", "1/3", "1", "trivial")
        assert doc["sections"]["git"]["unstable_vanishing"] == []

    def test_minus_two_thirds_four(self, capsys):
        doc = run_json(capsys, "git", "2/3", "4", "minus")
        assert doc["sections"]["git"]["unstable_vanishing"] == ["X3", "X4"]

    def test_custom_character(self, capsys):
        doc = run_json(capsys, "git", "1/2", "1", "1,0")
        git = doc["sections"]["git"]
        assert git["character"]["name"] == "custom"
        assert git["character"]["torus"] == 1

    def test_malformed_character_is_usage_error(self, capsys):
        code, _, err = run(capsys, "git", "1/2", "1", "wibble")
        assert code == 2
        assert "character" in err

    def test_height_one_plus_warns_empty_locus(self, capsys):
        doc = run_json(capsys, "git", "1/1", "2", "plus")
        assert any("empty" in w for w in doc["warnings"])

    def test_budget_flags_are_gone(self, capsys):
        code, _, err = run(capsys, "flip", "2/3", "5", "--nmax", "200")
        assert code == 2
        assert "--nmax" in err

    def test_schema_budget_fields_keep_their_values(self, capsys):
        # schema 1.0 still reports the former default budgets
        git = run_json(capsys, "git", "2/3", "4", "minus")["sections"]["git"]
        assert (git["n_max"], git["box"], git["undecided"]) == (12, 24, [])

    def test_info_two_thirds_five_is_decided(self, capsys):
        # the former default search budget left this flip report undecided
        semistable = run_json(capsys, "info", "2/3", "5")["sections"]["flip"]["semistable"]
        assert set(semistable) == {"plus", "minus", "trivial"}
        assert all(section["undecided"] == [] for section in semistable.values())


class TestGitSectionOrder:
    # the witnesses come in the pattern table's order, which must be the
    # sort by (size, sorted names) that _sec_git made before the table
    @staticmethod
    def _sorted_witnesses(report):
        return [
            {"pattern": sorted(pattern), "n": n, "exponents": list(exps)}
            for pattern, (n, exps) in sorted(
                report.witness_monomials.items(),
                key=lambda item: (len(item[0]), sorted(item[0])),
            )
        ]

    def test_standard_and_custom_characters(self):
        rng = random.Random(24)
        relation_degrees = set()
        for params in iter_instances(7, 5):
            act = sl2core.action(params)
            chars = list(sl2core.characters(params).items())
            chars += [
                ("custom", git.GroupCharacter(rng.randint(-30, 30), rng.randrange(params.a)))
                for _ in range(3)
            ]
            for name, chi in chars:
                report = git.semistable_locus(act, chi, params.b)
                section = cli._sec_git(report, name, chi, params)
                assert section["witnesses"] == self._sorted_witnesses(report), (params, name)
            relation_degrees.add(min(params.b, 2))
        assert relation_degrees == {0, 1, 2}


class TestFlipConesDegeneration:
    def test_flip_half_one(self, capsys):
        doc = run_json(capsys, "flip", "1/2", "1")
        flip = doc["sections"]["flip"]
        assert flip["k_degrees"] == {
            "C_minus": {"num": -1, "den": 2},
            "C_plus": {"num": 2, "den": 1},
        }
        assert flip["varieties"]["E+"]["smooth"] is True
        assert flip["varieties"]["E-"]["slice_singularity"]["order"] == 2

    def test_cones_half_one(self, capsys):
        doc = run_json(capsys, "cones", "1/2", "1")
        cones = doc["sections"]["colored_cones"]
        assert cones["rho"] == [1, -2]
        assert cones["cones"]["E"]["colors"] == ["rho+", "rho-"]
        assert cones["cones"]["E'"]["colors"] == []

    def test_degeneration_one_third_two(self, capsys):
        doc = run_json(capsys, "degeneration", "1/3", "2")
        deg = doc["sections"]["degeneration"]
        assert deg["relation_coefficients"] == [1, 1, 4, 1]
        assert deg["quasihomogeneous"] is False
        assert {"point": [2, 0], "count": 3} in deg["fibers"]

    def test_height_one_is_domain_error(self, capsys):
        for command in ("flip", "cones", "degeneration"):
            code, _, err = run(capsys, command, "1/1", "2")
            assert code == 3
            assert "height 1" in err


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--qmax", "2", "--mmax", "1")
        assert code == 0
        assert "all properties pass" in out
        assert "1/2 m=1" in out and "git-loci ok" in out

    @pytest.mark.parametrize("option", ["--qmax", "--mmax"])
    def test_a_bound_that_is_no_integer_is_refused_as_m_is(self, capsys, option):
        code, out, err = run(capsys, "verify", option, "abc")
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {option}: invalid int value: 'abc'\n"), err
        _, _, err = run(capsys, "info", "1/2", "abc")
        assert err.endswith("error: argument m: invalid int value: 'abc'\n"), err

    def test_height_one_only_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--qmax", "1", "--mmax", "2")
        assert code == 0
        assert "k-signs" not in out  # no flip properties at height 1

    def test_ordering_is_q_then_p_then_m(self, capsys):
        code, out, _ = run(capsys, "verify", "--qmax", "3", "--mmax", "1")
        rows = [line.split(":")[0] for line in out.splitlines() if " m=" in line]
        assert rows == ["1/1 m=1", "1/2 m=1", "1/3 m=1", "2/3 m=1"]

    @pytest.mark.parametrize("qmax, mmax, bound", [
        ("1000000000000", "3", "1500000000001500000000000"),
        ("4472", "1", "10001628"),
        (str(10**4000), "3", "a 8001-digit number of"),
    ])
    def test_a_grid_past_the_instance_cap_is_refused_at_once(self, capsys, qmax, mmax, bound):
        # such a grid used to print lines and never reach an exit code
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--qmax", qmax, "--mmax", mmax)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (
            f"error: the grid q <= {qmax}, m <= {mmax} has up to {bound} instances, "
            f"more than the {cli.MAX_VERIFY_INSTANCES} verify runs\n"
        )

    def test_failure_exits_4_and_names_instance(self, capsys, monkeypatch):
        def failing_check(params):
            raise CrossCheckError("injected")

        rows_see(monkeypatch, sl2core, "canonical_class", failing_check)
        code, out, err = run(capsys, "verify", "--qmax", "2", "--mmax", "1")
        assert code == 4
        assert "canonical FAIL" in out
        assert "FAIL 1/1 m=1: canonical" in err

    def test_failure_line_ends_in_the_cross_check_message(self, capsys, monkeypatch):
        def failing_check(params):
            raise CrossCheckError("injected")

        rows_see(monkeypatch, sl2core, "canonical_class", failing_check)
        code, _, err = run(capsys, "verify", "--qmax", "2", "--mmax", "1")
        assert code == 4
        lines = [line for line in err.splitlines() if line.startswith("FAIL 1/2 m=1: canonical")]
        assert lines == ["FAIL 1/2 m=1: canonical: CrossCheckError: injected"]

    def test_failure_line_names_an_oracle_exception(self, capsys, monkeypatch):
        real = sl2core.slice_basis

        def empty_at_one_third(params, which):
            if (params.p, params.q, params.m) == (1, 3, 1):
                return HilbertBasis(())
            return real(params, which)

        rows_see(monkeypatch, sl2core, "slice_basis", empty_at_one_third)
        code, out, err = run(capsys, "verify", "--qmax", "3", "--mmax", "1")
        assert code == 4
        assert "1/3 m=1: hilbert FAIL" in out
        assert err.splitlines() == [
            "FAIL 1/3 m=1: hilbert: IndexError: list index out of range",
            "1 properties failed",
        ]

    def test_rows_list_no_generator_of_a_large_basis(self):
        # every row proves its facts per run of the S+ basis; only a command
        # that prints the generators expands them
        params = derive_params(1, 2, 1000)
        for _, applies, check in verify.ROWS:
            if applies(params.b):
                check(params)
        assert "generators" not in slice_basis(params, "plus").__dict__
        assert len(sl2core.degeneration_fibers(params)) == slice_basis(params, "plus").size

    def test_sweep_past_the_former_budget_passes(self, capsys):
        # at m = 5 the former default search budget failed git-loci 9 times
        code, out, err = run(capsys, "verify", "--qmax", "8", "--mmax", "6")
        assert (code, err) == (0, "")
        assert "git-loci FAIL" not in out and "all properties pass" in out
        # every row of verify.ROWS, in order, on 160 instances
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ee30195c6a708145a50d061fafdde15897ffe05a7d18cae9ff8df7f215540553"
        )

    def test_a_wrong_hilbert_basis_fails_with_its_reason(self, capsys, monkeypatch):
        real = sl2core.slice_basis

        def mutant(params, which):
            gens = tuple(_drop_inner(params, real(params, which).generators))
            return HilbertBasis(runs_of_chain(gens))

        rows_see(monkeypatch, sl2core, "slice_basis", mutant)
        code, _, err = run(capsys, "verify", "--qmax", "3", "--mmax", "3")
        assert code == 4
        *fails, summary = err.splitlines()
        assert fails and summary == f"{len(fails)} properties failed"
        assert all(": hilbert: CrossCheckError: " in line for line in fails), fails

    def test_a_nontrivial_stabilizer_fails_with_its_reason(self, capsys, monkeypatch):
        rows_see(monkeypatch, git, "stabilizer_of_support", lambda act, sup: FinAbGroup(0, (2,)))
        code, out, err = run(capsys, "verify", "--qmax", "2", "--mmax", "1")
        assert code == 4
        assert "stabilizer FAIL" in out
        assert err.splitlines() == [
            f"FAIL {head}: stabilizer: CrossCheckError: stabilizer on X1, X3: "
            "(FinAbGroup(free_rank=0, torsion=(2,), generator_images=()),)"
            for head in ("1/1 m=1", "1/2 m=1")
        ] + ["2 properties failed"]


    def test_cross_checks_run_under_python_O(self):
        # a wrong S+ character breaks class_group's check, asserts or not
        script = textwrap.dedent(
            """
            import sys
            from sl2flip import cli, git, sl2core

            real = sl2core.characters

            def shifted(params):
                chars = dict(real(params))
                s_plus = chars["S_plus"]
                chars["S_plus"] = git.GroupCharacter(
                    s_plus.torus_part + 1, s_plus.finite_part
                )
                return chars

            sl2core.characters = shifted
            sys.exit(cli.main(["verify", "--qmax", "3", "--mmax", "2"]))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=_fresh_process_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 4, proc.stderr
        assert any(
            line.startswith("FAIL 2/3 m=2: class-group: CrossCheckError: ")
            for line in proc.stderr.splitlines()
        ), proc.stderr


def _u_oracle_row():
    return next(check for name, _, check in verify.ROWS if name == "u-oracle")


def _plus_with(monkeypatch, at, inequalities, congruences):
    """Replace S+ at the instance (p, q, m) `at` by a semigroup with the
    given covectors and congruences, i, j >= 0."""
    real = sl2core.slice_semigroup

    def mutant(params, which):
        if which == "plus" and (params.p, params.q, params.m) == at:
            return AffineSemigroup(2, (*inequalities, (1, 0), (0, 1)), congruences)
        return real(params, which)

    rows_see(monkeypatch, sl2core, "slice_semigroup", mutant)


class TestUOracle:
    """The u-oracle row compares the cone and the congruence lattice of its
    U-invariant model with those of S+; the box enumeration is the oracle."""

    def test_agrees_with_the_box_oracle(self):
        row = _u_oracle_row()
        for params in iter_instances(12, 12):
            row(params)  # raises on a mismatch
            box = 2 * params.m + 2
            semi = slice_semigroup(params, "plus")
            want = {(i, j) for i in range(box + 1) for j in range(box + 1) if semi.contains((i, j))}
            assert u_invariant_exponents(params, box) == want, params

    def test_a_mutant_the_box_cannot_see_fails(self, monkeypatch):
        # p i - q j >= 0 and 101 i - 201 j >= 0 agree on [0, 100]^2 at
        # h = 1/2, so the former 9 x 9 box comparison passed this S+
        params = derive_params(1, 2, 2)
        ineqs, congs = ((101, -201),), (((1, -1), 2),)
        mutant = AffineSemigroup(2, (*ineqs, (1, 0), (0, 1)), congs)
        box = {(i, j) for i in range(9) for j in range(9) if mutant.contains((i, j))}
        assert box == u_invariant_exponents(params, 8)
        _plus_with(monkeypatch, (1, 2, 2), ineqs, congs)
        with pytest.raises(CrossCheckError, match="U-invariant cone and lattice"):
            _u_oracle_row()(params)

    @pytest.mark.parametrize("ineqs, congs", [
        (((1, -3),), (((1, -1), 2),)),  # another cone
        (((1, -2),), (((1, -1), 4),)),  # another lattice
        (((1, -2),), (((1, 1), 2),)),  # the same lattice: passes
    ])
    def test_fails_exactly_when_the_box_differs(self, monkeypatch, ineqs, congs):
        params = derive_params(1, 2, 2)
        mutant = AffineSemigroup(2, (*ineqs, (1, 0), (0, 1)), congs)
        differs = u_invariant_exponents(params, 8) != {
            (i, j) for i in range(9) for j in range(9) if mutant.contains((i, j))
        }
        _plus_with(monkeypatch, (1, 2, 2), ineqs, congs)
        if differs:
            with pytest.raises(CrossCheckError):
                _u_oracle_row()(params)
        else:
            _u_oracle_row()(params)

    def test_one_cone_rays_call_per_row(self, monkeypatch):
        # S+'s rays are read from the semigroup, where its Hilbert basis
        # cached them; only the model's are computed in the row
        real = semigroup.cone_rays
        calls = []
        rows_see(monkeypatch, semigroup, "cone_rays", lambda s: calls.append(s) or real(s))
        for params in iter_instances(5, 5):
            calls.clear()
            _u_oracle_row()(params)
            assert len(calls) == 1, params

    def test_verify_names_the_row(self, capsys, monkeypatch):
        _plus_with(monkeypatch, (1, 2, 2), ((101, -201),), (((1, -1), 2),))
        code, out, err = run(capsys, "verify", "--qmax", "2", "--mmax", "2")
        assert code == 4
        assert "1/2 m=2: hilbert ok  u-oracle FAIL  class-group ok" in out
        *fails, summary = err.splitlines()
        assert summary == "1 properties failed"
        assert [line.split(": CrossCheckError: ")[0] for line in fails] == [
            "FAIL 1/2 m=2: u-oracle"
        ]


def _by_angle(gens):
    # every nonzero point of S+ has i > 0
    return sorted(gens, key=lambda g: Fraction(g[1], g[0]))


def _drop_inner(params, gens):
    chain = _by_angle(gens)
    return chain[:1] + chain[2:] if len(chain) > 2 else chain


def _add_ends_sum(params, gens):
    chain = _by_angle(gens)
    ends = (chain[0][0] + chain[-1][0], chain[0][1] + chain[-1][1])
    return [*chain, ends]


def _add_neighbours_sum(params, gens):
    # generates, with determinant m on both sides; only c >= 2 rejects it
    chain = _by_angle(gens)
    inner = (chain[0][0] + chain[1][0], chain[0][1] + chain[1][1])
    return [*chain, inner]


def _double_end(params, gens):
    chain = _by_angle(gens)
    return chain[:-1] + [(2 * chain[-1][0], 2 * chain[-1][1])]


def _drop_end(params, gens):
    return _by_angle(gens)[:-1]


def _other_lattice(params, gens):
    # the basis of the same cone in another lattice of index m, {i = xj mod
    # m}: it meets the rays at the same points, so only membership rejects it
    p, q, m = params.p, params.q, params.m
    for x in range(2, m):
        if math.gcd(m, q - x * p) == math.gcd(m, q - p):
            semi = AffineSemigroup(2, ((p, -q), (1, 0), (0, 1)), (((1, -x), m),))
            return hilbert_basis(semi).generators
    return gens


class TestHilbertCertificate:
    def test_passes_and_agrees_with_the_box_scan(self):
        for params in iter_instances(9, 8):
            verify._check_hilbert(params)
            box = params.m + params.a * params.q
            semi = slice_semigroup(params, "plus")
            brute = brute_minimal_generators(semi, (0, 0), (box, box))
            assert sorted(slice_basis(params, "plus").generators) == brute, params

    @pytest.mark.parametrize(
        "mutate",
        [_drop_inner, _add_ends_sum, _add_neighbours_sum, _double_end, _drop_end, _other_lattice],
    )
    def test_output_mutants_fail(self, monkeypatch, mutate):
        real = sl2core.slice_basis

        def mutant(params, which):
            gens = tuple(mutate(params, real(params, which).generators))
            return HilbertBasis(runs_of_chain(gens))

        rows_see(monkeypatch, sl2core, "slice_basis", mutant)
        changed = [
            params
            for params in iter_instances(7, 7)
            if set(mutant(params, "plus").generators)
            != set(real(params, "plus").generators)
        ]
        # the b = 1 closed form would catch a mutant there on its own
        assert any(params.b != 1 for params in changed)
        for params in changed:
            with pytest.raises(CrossCheckError):
                verify._check_hilbert(params)


def _replace_run(runs, k, run):
    return runs[:k] + (run,) + runs[k + 1:]


def _step_in_lattice(params, runs):
    # the start stays, every other point of the first run moves in the lattice
    (x, y), (dx, dy), count = runs[0]
    return _replace_run(runs, 0, ((x, y), (dx + params.m, dy + params.m), count))


def _step_off_lattice(params, runs):
    (x, y), (dx, dy), count = runs[0]
    return _replace_run(runs, 0, ((x, y), (dx + 1, dy), count))


def _longer(params, runs):
    start, step, count = runs[-1]
    return _replace_run(runs, len(runs) - 1, (start, step, count + 1))


def _shorter(params, runs):
    start, step, count = runs[0]
    return _replace_run(runs, 0, (start, step, count - 1))


def _join_repeats_the_end(params, runs):
    # the last run starts one step back, on the end of the run before it
    (x, y), (dx, dy), count = runs[-1]
    return _replace_run(runs, len(runs) - 1, ((x - dx, y - dy), (dx, dy), count + 1))


def _join_skips_a_point(params, runs):
    # the first run split in two with its middle point left out
    (x, y), (dx, dy), count = runs[0]
    half = count // 2
    rest = ((x + (half + 1) * dx, y + (half + 1) * dy), (dx, dy), count - half - 1)
    return (((x, y), (dx, dy), half), rest, *runs[1:])


def _runs_swapped(params, runs):
    return runs[::-1]


class TestRunCertificate:
    @pytest.mark.parametrize(
        "mutate",
        [_step_in_lattice, _step_off_lattice, _longer, _shorter, _join_repeats_the_end,
         _join_skips_a_point, _runs_swapped],
    )
    def test_run_mutants_fail(self, monkeypatch, mutate):
        # every mutated chain fails the row, b = 1 or not, one run or more;
        # swapped runs keep the points but not the chain
        real = sl2core.slice_basis

        def mutant(params, which):
            return HilbertBasis(mutate(params, real(params, which).runs))

        rows_see(monkeypatch, sl2core, "slice_basis", mutant)
        changed = []
        for params in iter_instances(9, 8):
            if mutant(params, "plus").runs != real(params, "plus").runs:
                changed.append(params)
                with pytest.raises(CrossCheckError):
                    verify._check_hilbert(params)
        assert any(params.b != 1 for params in changed)
        assert any(len(real(params, "plus").runs) > 1 for params in changed)

    def test_one_run_of_the_other_lattice_fails_on_its_step(self, monkeypatch):
        # at (1/3, 3) the basis of {i = 2j mod 3} is the run (3, 0) + t(2, 1),
        # t = 0..3: both its ends are the ends of S+'s chain, and every
        # determinant and triple is right, so only the step's lattice fails it
        params = derive_params(1, 3, 3)
        other = HilbertBasis((((3, 0), (2, 1), 4),))
        rows_see(monkeypatch, sl2core, "slice_basis", lambda params, which: other)
        with pytest.raises(CrossCheckError, match="run outside S"):
            verify._check_hilbert(params)

    def test_a_bend_at_the_start_of_a_long_run_fails(self, monkeypatch):
        # at (1/5, 2) the chain (2, 0), (13, 1) + t(-2, 0), t = 0..4, ends at
        # (5, 1) with every determinant 2 and every point in S+; only the
        # triple (2, 0), (13, 1), (11, 1), where the long run starts, has
        # c = 1, so (7, 1) = (2, 0) + (5, 1) is redundant
        params = derive_params(1, 5, 2)
        bent = HilbertBasis((((2, 0), (11, 1), 1), ((13, 1), (-2, 0), 5)))
        rows_see(monkeypatch, sl2core, "slice_basis", lambda params, which: bent)
        with pytest.raises(CrossCheckError, match=r"c >= 2: \(\(2, 0\), \(13, 1\), \(11, 1\)\)"):
            verify._check_hilbert(params)

    def test_runs_are_compared_at_b_one(self, monkeypatch):
        # the same points in two runs are not the closed form's one run
        params = derive_params(1, 2, 4)
        basis = slice_basis(params, "plus")
        split = HilbertBasis((((4, 0), (1, 1), 2), ((6, 2), (1, 1), 3)))
        assert split.generators == basis.generators
        rows_see(monkeypatch, sl2core, "slice_basis", lambda params, which: split)
        with pytest.raises(CrossCheckError, match="basis at b = 1"):
            verify._check_hilbert(params)

    def test_long_runs_are_checked_at_their_ends(self):
        # a run of 10**12 + 1 points is checked in O(1)
        params = derive_params(1, 2, 10**12)
        start = time.perf_counter()
        verify._check_hilbert(params)
        assert time.perf_counter() - start < 0.05


class TestParsingAndExitCodes:
    def test_missing_arguments_is_usage(self, capsys):
        assert run(capsys, "info", "1/3")[0] == 2
        assert run(capsys)[0] == 2

    def test_decimal_height_is_usage(self, capsys):
        code, _, err = run(capsys, "info", "0.5", "1")
        assert code == 2
        assert "fraction" in err

    def test_domain_errors(self, capsys):
        assert run(capsys, "info", "3/2", "1")[0] == 3  # height above 1
        assert run(capsys, "info", "1/2", "0")[0] == 3  # degree too small
        assert run(capsys, "info", "0/2", "1")[0] == 3  # zero height

    def test_bare_integer_height(self, capsys):
        doc = run_json(capsys, "info", "1", "3")
        assert doc["params"] == {"p": 1, "q": 1, "m": 3, "k": 3, "a": 1, "b": 0}

    def test_usage_lists_the_subcommands_in_order(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        usage = out.splitlines()[0]
        assert "{info,hilbert,git,flip,cones,degeneration,verify}" in usage

    @pytest.mark.parametrize(
        "command",
        [("info",), ("hilbert", "plus"), ("git", "plus"), ("flip",), ("cones",), ("degeneration",)],
        ids=lambda command: command[0],
    )
    def test_instance_subcommands_exit_0_or_3(self, capsys, command):
        # every library ValueError, and only that, is exit 3
        for h in ("1/1", "1/3", "2/4", "3/2", "0/1", "1/0"):
            for m in ("0", "1", "4"):
                for strict in ((), ("--strict",)):
                    argv = (command[0], h, m, *command[1:], *strict)
                    code, out, err = run(capsys, *argv)
                    assert code in (0, 3), argv
                    if code == 3:
                        assert out == "" and err.startswith("error: "), argv

    @pytest.mark.parametrize("command", ["info", "flip"])
    def test_a_cross_check_error_in_any_command_exits_4(self, capsys, monkeypatch, command):
        # a wrong S+ character fails class_group's cross-check
        real = sl2core.characters

        def shifted(params):
            chars = dict(real(params))
            s_plus = chars["S_plus"]
            chars["S_plus"] = git.GroupCharacter(s_plus.torus_part + 1, s_plus.finite_part)
            return chars

        monkeypatch.setattr(sl2core, "characters", shifted)
        code, out, err = run(capsys, command, "1/3", "2")
        assert (code, out) == (4, "")
        assert err == "cross-check failed: generator character: ('S_plus',)\n"


@st.composite
def _coprime_heights(draw):
    q = draw(st.integers(2, 10**6))
    p = draw(st.integers(1, q - 1).filter(lambda p: math.gcd(p, q) == 1))
    return f"{p}/{q}"


_characters = st.one_of(
    st.sampled_from(["plus", "minus", "trivial"]),
    st.builds("{},{}".format, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
)


class TestHugeInputs:
    # flip, cones and git build no Hilbert basis, so their cost does not
    # grow with the size of (p, q, m); run() clears capsys on every call
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        h=_coprime_heights(),
        m=st.integers(1, 10**12),
        command=st.one_of(st.sampled_from([("flip",), ("cones",)]),
                          st.tuples(st.just("git"), st.just("--"), _characters)),
        as_json=st.booleans(),
    )
    def test_below_height_one_answers_at_once(self, capsys, h, m, command, as_json):
        argv = (command[0], h, str(m), *(("--json",) if as_json else ()), *command[1:])
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert time.perf_counter() - start < 1.0, argv

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m=st.integers(1, 10**12), command=st.sampled_from(["flip", "cones"]))
    def test_height_one_is_a_domain_error(self, capsys, m, command):
        code, out, err = run(capsys, command, "1", str(m))
        assert (code, out) == (3, "")
        assert err == "error: no flip for height 1\n"

    # info, degeneration and hilbert list a Hilbert basis (or one fiber per
    # generator), counted from its runs first.  A listing of 10**4 to
    # MAX_LISTED_GENERATORS generators is bound by its output, which the
    # golden and CI digests time, so those draws are left out here.
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        h=_coprime_heights(),
        m=st.integers(1, 10**12),
        command=st.sampled_from(
            [("info",), ("degeneration",), *(("hilbert", w) for w in ("plus", "minus", "prime", "tilde"))]
        ),
        as_json=st.booleans(),
    )
    @example(h="999999/1000000", m=7, command=("info",), as_json=False)
    @example(h="1/2", m=10**12, command=("hilbert", "minus"), as_json=True)
    @example(h="1/2", m=10**12, command=("hilbert", "prime"), as_json=False)
    @example(h="3/1000000", m=999999999989, command=("degeneration",), as_json=True)
    def test_listing_commands_answer_or_refuse_at_once(self, capsys, h, m, command, as_json):
        p, q = map(int, h.split("/"))
        listed = command[1] if command[1:] and command[1] != "tilde" else "plus"
        size = slice_basis(derive_params(p, q, m), listed).size
        assume(not 10**4 < size <= cli.MAX_LISTED_GENERATORS)
        argv = (command[0], h, str(m), *command[1:], *(("--json",) if as_json else ()))
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code in (0, 2, 3, 4) and "Traceback" not in err, (argv, code, err)
        if size > cli.MAX_LISTED_GENERATORS:
            assert (code, out) == (3, ""), argv
            assert err == (
                f"error: the {listed} Hilbert basis has {size} generators, more than "
                f"the {cli.MAX_LISTED_GENERATORS} a command lists\n"
            )
        else:
            assert (code, err) == (0, ""), argv

    def test_info_past_the_listing_limit_is_a_domain_error(self, capsys):
        # it used to end in a MemoryError traceback with exit 1
        code, out, err = run(capsys, "info", "999999/1000000", "7")
        assert (code, out) == (3, "")
        assert err == (
            "error: the plus Hilbert basis has 6999994 generators, more than the "
            "1000000 a command lists\n"
        )


# The interpreter's limit on the digits of an int converted to or from a
# string (sys.get_int_max_str_digits, Python 3.10.7 on; 4300 by default).
# The program leaves it as it is, since main() may run inside a host
# process.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(DIGIT_LIMIT != 4300, reason="sized for the default digit limit")
class TestDigitLimit:
    def test_a_number_past_the_limit_is_a_usage_error_in_any_argument(self, capsys):
        for argv, argument in [
            (("info", "1/1" + "0" * 4400, "3"), "h"),
            (("git", "1/2", "5", "--", "1," + "1" * 4401), "character"),
        ]:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argument
            assert err == (
                f"usage error: argument {argument}: a number of 4401 digits, more "
                "than the interpreter's limit of 4300\n"
            )
        # as argparse already made it for m
        code, out, err = run(capsys, "info", "1/2", "1" * 4401)
        assert (code, out) == (2, "")
        assert "argument m: invalid int value" in err
        assert sys.get_int_max_str_digits() == DIGIT_LIMIT

    @pytest.mark.parametrize("as_json", [False, True])
    def test_a_result_past_the_limit_is_a_domain_error(self, capsys, as_json):
        # K.C+- has a denominator a*q^2 of more than 4300 digits
        argv = ("flip", f"1/{10**1201 + 1}", "2" * 3000, *(("--json",) if as_json else ()))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (
            "error: the result holds an integer of more digits than the "
            "interpreter's limit of 4300 lets it print\n"
        )
        assert sys.get_int_max_str_digits() == DIGIT_LIMIT

    @pytest.mark.parametrize("command", ["info", "flip"])
    def test_a_label_past_the_limit_is_a_domain_error(self, capsys, command):
        # at 10^4299/(10^4299 + 1), m = 10^10, the orbit label SL(2)/U_n
        # has n = a(p + q) of more than 4300 digits, formatted before any
        # result is rendered
        p = 10**4299
        code, out, err = run(capsys, command, f"{p}/{p + 1}", str(10**10))
        assert (code, out) == (3, "")
        assert err == (
            "error: the result holds an integer of more digits than the "
            "interpreter's limit of 4300 lets it print\n"
        )
        assert sys.get_int_max_str_digits() == DIGIT_LIMIT

    @pytest.mark.parametrize("command", [("hilbert", "plus"), ("degeneration",)])
    def test_a_basis_size_past_the_limit_is_named_by_its_digits(self, capsys, command):
        # the S+ basis of 10^4299/(10^4299 + 1) at m = 10^10 (h of two
        # 4300-digit numbers) has a number of generators of more than 4300
        # digits, which str() refuses
        p, q, m = 10**4299, 10**4299 + 1, 10**10
        name, *which = command
        code, out, err = run(capsys, name, f"{p}/{q}", str(m), *which)
        assert (code, out) == (3, "")
        prefix, digits, suffix = re.fullmatch(r"(.*) a (\d+)-digit number (.*)\n", err).groups()
        assert (prefix, suffix) == (
            "error: the plus Hilbert basis has",
            "of generators, more than the 1000000 a command lists",
        )
        size = slice_basis(derive_params(p, q, m), "plus").size
        assert 10 ** (int(digits) - 1) <= size < 10 ** int(digits) and int(digits) > DIGIT_LIMIT
        assert sys.get_int_max_str_digits() == DIGIT_LIMIT


class TestDeterminism:
    def test_json_byte_identical(self, capsys):
        _, first, _ = run(capsys, "info", "1/3", "1", "--json")
        _, second, _ = run(capsys, "info", "1/3", "1", "--json")
        assert first == second

    def test_json_round_trips(self, capsys):
        doc = run_json(capsys, "info", "2/3", "2")
        again = json.loads(json.dumps(doc, sort_keys=True))
        assert again == doc

    def test_text_byte_identical(self, capsys):
        _, first, _ = run(capsys, "flip", "1/2", "1")
        _, second, _ = run(capsys, "flip", "1/2", "1")
        assert first == second


# sha256 of stdout; the same on every supported Python version
GOLDEN_STDOUT_SHA256 = {
    ("info", "3/7", "12", "--json"):
        "23e4bef52cfafc38f3393c827cc8cc4ff40e8ae8ef35bf2123939ef2bb3138f8",
    ("info", "3/7", "12"):
        "12bac186a678ca5d22541676ea07320f42032a3bc3bac6880b280c5f1f108ad3",
    ("git", "2/5", "7", "--json", "--", "3,1"):
        "5b32fe35168739f9bc53acda002fedc670b962a6600ee81866bccd533ac9787d",
    ("flip", "13/29", "120", "--json"):
        "7fd762f7f90c4747952b39ee10d967361011e666d362c0b8e0b10342d86676ba",
    # b >= 2, height 1, verify, and the sections read from per-instance values
    ("info", "2/7", "9", "--json"):
        "ad8d8e0b439a99e4e73b8c936fe2cea041209e0b162995c0547e8123230dd674",
    ("info", "2/7", "9"):
        "ac5dcdc8fef126d42f5ca68659829b343b5164350c4563532d4cd31cd7468de4",
    ("info", "1/1", "4", "--json"):
        "d873c566a2afa9ded81faf7c3c3a3f19dcdd1e5c5c31c78ad740cfe50b408a95",
    ("verify", "--qmax", "3", "--mmax", "5"):
        "f61f465b0b7c1f296664487d4596c0183c66b926c8ff1f5cee829e32442df8ce",
    ("degeneration", "7/19", "24", "--json"):
        "b9aadbf73ab3d97d05c6b40c10da629dcdeb177f9de7a833026853b7c78c11d8",
    ("cones", "3/7", "12", "--json"):
        "4cd6a162d5d2e73dc83131c70fe9379e6af3cdb9d340854c50d0320cc7a12b47",
    # the text form of each report subcommand, info at b = 1
    ("flip", "1/2", "1"):
        "66c40c4c38904a7ba864b44c84bb2a278227c8c8e6227dda8d1237a6c9b818a3",
    ("cones", "1/2", "1"):
        "ea7ab2ddbc4b7c4b464bf77c00984eefa68733db56f427ce34f7eac9de553232",
    ("degeneration", "1/3", "2"):
        "1d40d5804c0966b57e2f6f0eae9ac62ef4813aaa087206725181995b13ab92e6",
    ("info", "1/2", "1"):
        "05bb426d88e177d14ee3ed92884480693913bb56abb061c389ce69c692d8437d",
}


@pytest.mark.parametrize("argv", GOLDEN_STDOUT_SHA256, ids=" ".join)
def test_golden_stdout_digest(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


def _grid_argvs(qmax=6, mmax=5):
    for params in iter_instances(qmax, mmax):
        inst = (f"{params.p}/{params.q}", str(params.m))
        for command in ("info", "flip", "cones", "degeneration"):
            yield (command, *inst)
            yield (command, *inst, "--json")
        for which in ("plus", "minus", "prime", "tilde"):
            yield ("hilbert", *inst, which, "--json")
        for chi in ("plus", "minus", "trivial", "3,1"):
            yield ("git", *inst, "--json", "--", chi)


# Pinned before the Cox action, its characters and the slice semigroups
# moved into sl2core.  Update it only together with a CHANGES.md entry that
# lists the output the change alters on purpose.
GRID_SHA256 = "7cdf4ab155c27bf9fb582146c74bcc453a054aee4180c810de33bd559b0dc626"


def test_output_grid_digest(capsys):
    # every report, hilbert and git call on q <= 6, m <= 5 (960 calls, exit
    # codes 0 and 3 both); usage errors are left out because argparse words
    # them differently across Python versions
    digest = hashlib.sha256()
    calls = 0
    for argv in _grid_argvs():
        digest.update(repr((argv, *run(capsys, *argv))).encode())
        calls += 1
    assert calls == 960
    assert digest.hexdigest() == GRID_SHA256


def _fresh_process_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    # argparse wraps help text to $COLUMNS, or to the terminal if unset
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""),
            "COLUMNS": "80"}


class TestClosedStdout:
    # the reader is gone before the command writes a byte, as when
    # `| head` has read its lines, so every write meets a broken pipe
    @pytest.mark.parametrize("argv", [
        ("info", "2/9", "8"),
        ("info", "2/9", "8", "--json"),
        ("verify", "--qmax", "6", "--mmax", "6"),
    ])
    def test_exits_1_without_a_traceback(self, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "sl2flip.cli", *argv],
            env=_fresh_process_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (1, "")


class TestStartUp:
    # pytest itself imports these, so only a fresh interpreter shows whether
    # the package does; -S keeps site's own imports out of the picture.
    # sl2flip.verify, the rows, is loaded only by the verify command
    HEAVY = ("argparse", "dataclasses", "inspect", "json", "typing", "sl2flip.verify")

    def _run(self, script):
        return subprocess.run(
            [sys.executable, "-S", "-c", script],
            env=_fresh_process_env(), capture_output=True, text=True, timeout=120,
        )

    @pytest.mark.parametrize("module", ["sl2flip", "sl2flip.cli"])
    def test_import_loads_none_of_the_heavy_modules(self, module):
        script = f"import {module}, sys; print(sorted(set({self.HEAVY}) & set(sys.modules)))"
        proc = self._run(script)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_only_json_output_imports_json(self):
        script = textwrap.dedent(
            """
            import contextlib, io, sys
            import sl2flip.cli as cli
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["info", "1/3", "1"]) == 0
            assert "json" not in sys.modules
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["info", "1/3", "1", "--json"]) == 0
            import json
            assert json.loads(out.getvalue())["params"]["q"] == 3
            """
        )
        proc = self._run(script)
        assert (proc.returncode, proc.stderr) == (0, "")


def assert_parses_as_the_top_level_parser(capsys, argv):
    """cli._parse (the direct path, or the top-level parser when the argv
    is not plain) against argparse's own top-level parse on the running
    Python version: the same Namespace, or the same exit code and output."""
    parser = cli._build_parser()
    outcomes = []
    for parse in (cli._parse, parser.parse_args):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
        outcomes.append((result, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1], argv


class TestParserReuse:
    # one call per exit path: usage error, help, domain error, each renderer
    SEQUENCE = [
        (("info", "1/3"), 2),
        (("--help",), 0),
        (("git", "--help"), 0),
        (("info", "3/2", "1"), 3),
        (("info", "3/7", "12", "--json"), 0),
        (("git", "2/5", "7", "--json", "--", "3,1"), 0),
        (("hilbert", "2/5", "9", "tilde"), 0),
        (("degeneration", "2/5", "9"), 0),
        (("verify", "--qmax", "2", "--mmax", "2"), 0),
        # "--" before a negative character, read directly; and what goes
        # to the top-level parser: left-over arguments, an abbreviated
        # option, an unknown command, no arguments, an option before the
        # command
        (("git", "2/3", "4", "plus", "extra"), 2),
        (("info", "2/3", "4", "--js"), 0),
        (("git", "2/5", "7", "--json", "--", "-3,1"), 0),
        (("nope",), 2),
        ((), 2),
        (("--json", "info", "1/2", "3"), 2),
        (("verify", "--qmax", "0"), 2),
        (("verify", "--qmax", "abc"), 2),
        # argparse quirks the direct path declines: a second "--" leaves
        # a positional an empty list, a usage error here, and a last "--"
        # is refused
        (("git", "1/2", "4", "--", "--"), 2),
        (("info", "1/2", "--", "--"), 2),
        (("info", "3", "0", "--strict", "--"), 2),
    ]
    # argv that are only parsed, for the test against the top-level parser
    PARSED_ONLY = [
        ("-h",),
        ("--help", "info"),
        ("info", "-h"),
        ("info",),
        ("info", "1/2", "x"),
        ("hilbert", "1/2", "3", "bogus"),
        ("info", "1/2", "3", "a", "b", "--zz"),
        ("git", "1/2", "3", "plus", "--zz=4"),
        ("--", "info", "1/2", "3"),
        ("info", "--", "1/2", "3"),
        ("info", "1/2", "3", "--"),
        ("info", "--strict", "2/4", "3"),
        ("verify", "--qmax=2", "--mmax", "1"),
        ("verify", "extra"),
    ]

    def test_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        env = _fresh_process_env()
        monkeypatch.setenv("COLUMNS", env["COLUMNS"])
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "sl2flip.cli", *argv],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for argv, _ in self.SEQUENCE
        ]
        fresh = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            fresh.append((proc.returncode, out, err))
        for (argv, code), alone in zip(self.SEQUENCE, fresh):
            in_process = run(capsys, *argv)
            assert in_process[0] == code, argv
            assert in_process == alone, argv

    def _run_script(self, body):
        # -S, as in TestStartUp: site's own imports stay out of sys.modules
        proc = subprocess.run(
            [sys.executable, "-S", "-c", textwrap.dedent(body)],
            env=_fresh_process_env(), capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_parser_is_built_once_by_the_first_call_that_needs_it(self):
        self._run_script(
            """
            import contextlib, io, sys
            import sl2flip.cli as cli
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["info", "1/3", "1"]) == 0
                assert cli.main(["git", "1/3", "1", "--", "plus"]) == 0
                assert cli.main(["verify", "--qmax", "1", "--mmax", "1"]) == 0
            assert cli._build_parser.cache_info().currsize == 0
            assert "argparse" not in sys.modules
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(["info", "--help"]) == 0
                assert cli.main(["info", "1/3", "x"]) == 2
                assert cli.main(["info", "1/3", "1", "--js"]) == 0
            info = cli._build_parser.cache_info()
            assert (info.misses, info.hits) == (1, 2), info
            """
        )

    def test_json_encoder_is_built_once_by_the_first_json_call(self):
        self._run_script(
            """
            import contextlib, io
            import sl2flip.cli as cli
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["info", "1/3", "1"]) == 0
                assert cli._json_encoder.cache_info().currsize == 0
                assert cli.main(["info", "1/3", "1", "--json"]) == 0
                assert cli.main(["git", "1/3", "1", "--json", "--", "plus"]) == 0
            info = cli._json_encoder.cache_info()
            assert (info.misses, info.hits) == (1, 1), info
            """
        )

    def test_routing_parses_as_the_top_level_parser(self, capsys):
        for argv in [argv for argv, _ in self.SEQUENCE] + self.PARSED_ONLY:
            assert_parses_as_the_top_level_parser(capsys, argv)

    def test_an_argv_that_is_not_plain_is_parsed_once_by_the_top_level_parser(
        self, capsys, monkeypatch
    ):
        # argparse itself hands the rest of the argv on to the subcommand's
        # parser, through parse_known_args
        real = argparse.ArgumentParser.parse_args
        parsed_by = []

        def spy(self, *args, **kwargs):
            parsed_by.append(self.prog)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        assert run(capsys, "git", "2/3", "4", "plus")[0] == 0
        assert parsed_by == []
        assert run(capsys, "git", "2/3", "4", "plus", "extra")[0] == 2
        assert parsed_by == ["sl2flip"]
        assert run(capsys, "git", "2/3", "4", "--js", "--", "plus")[0] == 0
        assert parsed_by == ["sl2flip", "sl2flip"]


# the tokens that decide how an argv parses: every subcommand, heights and
# degrees good and bad, each option exactly, abbreviated and with "=",
# "--", "-", help, and characters and semigroups good and bad
PARSE_TOKENS = (
    *cli.COMMANDS, "1/2", "3", "0", "-3", "abc", "", " 4", "+4", "--json", "--js",
    "--strict", "--basis", "--", "-", "-h", "--help", "--qmax", "--qmax=2", "--mmax",
    "plus", "tilde", "bogus", "3,1", "-3,1",
)
PARSE_WORDS = ("1/2", "3", "0", "-3", "abc", "", " 4", "+4", "plus", "tilde", "bogus", "3,1", "-3,1")


@st.composite
def _argvs(draw):
    """Any tokens, or a subcommand's shape in any order: a word per
    positional, some of its options (a valued one with a word), perhaps
    one "--"; about one draw in ten is plain."""
    if draw(st.booleans()):
        return [draw(st.sampled_from(PARSE_TOKENS)),
                *draw(st.lists(st.sampled_from(PARSE_TOKENS), max_size=6))]
    command = draw(st.sampled_from(tuple(cli.COMMANDS)))
    units = []
    for name, keywords in cli.COMMANDS[command][2]:
        if name[0] != "-":
            units.append([draw(st.sampled_from(PARSE_WORDS))])
        elif draw(st.booleans()):
            value = [] if "action" in keywords else [draw(st.sampled_from(PARSE_WORDS))]
            units.append([name, *value])
    tokens = [token for unit in draw(st.permutations(units)) for token in unit]
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), "--")
    return [command, *tokens]


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
@example(argv=["git", "1/2", "4", "--", "--"])
@example(argv=["info", "3", "0", "--strict", "--"])
@example(argv=["verify", "--qmax", " 4", "--mmax", "+4"])
@example(argv=["hilbert", "--", "1/2", "-3", "tilde"])
def test_parse_matches_the_top_level_parser(capsys, argv):
    assert_parses_as_the_top_level_parser(capsys, argv)
