"""CLI tests: frozen command outputs, exit codes, JSON determinism."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sl2flip import CrossCheckError, cli, git, sl2core
from sl2flip.lattice import FinAbGroup
from sl2flip.semigroup import AffineSemigroup, hilbert_basis
from sl2flip.sl2core import iter_instances, slice_basis, slice_semigroup
from test_semigroup import brute_minimal_generators


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        # hilbert ... tilde prints the fibers toric_degeneration checks
        monkeypatch.setattr(sl2core, "fiber_count", lambda s, base: base[0] + base[1])
        code, out, err = run(capsys, "hilbert", "2/5", "9", "tilde")
        assert (code, out) == (4, "")
        assert err.startswith("cross-check failed: ") and "i + j + 1" in err, err

    def test_tilde_at_height_one(self, capsys):
        doc = run_json(capsys, "hilbert", "1/1", "3", "tilde")
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

    def test_height_one_only_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--qmax", "1", "--mmax", "2")
        assert code == 0
        assert "k-signs" not in out  # no flip properties at height 1

    def test_ordering_is_q_then_p_then_m(self, capsys):
        code, out, _ = run(capsys, "verify", "--qmax", "3", "--mmax", "1")
        rows = [line.split(":")[0] for line in out.splitlines() if " m=" in line]
        assert rows == ["1/1 m=1", "1/2 m=1", "1/3 m=1", "2/3 m=1"]

    def test_failure_exits_4_and_names_instance(self, capsys, monkeypatch):
        def failing_check(params):
            raise CrossCheckError("injected")

        monkeypatch.setattr(cli, "canonical_class", failing_check)
        code, out, err = run(capsys, "verify", "--qmax", "2", "--mmax", "1")
        assert code == 4
        assert "canonical FAIL" in out
        assert "FAIL 1/1 m=1: canonical" in err

    def test_failure_line_ends_in_the_cross_check_message(self, capsys, monkeypatch):
        def failing_check(params):
            raise CrossCheckError("injected")

        monkeypatch.setattr(cli, "canonical_class", failing_check)
        code, _, err = run(capsys, "verify", "--qmax", "2", "--mmax", "1")
        assert code == 4
        lines = [line for line in err.splitlines() if line.startswith("FAIL 1/2 m=1: canonical")]
        assert lines == ["FAIL 1/2 m=1: canonical: CrossCheckError: injected"]

    def test_failure_line_names_an_oracle_exception(self, capsys, monkeypatch):
        real = cli.slice_basis

        def empty_at_one_third(params, which):
            basis = real(params, which)
            if (params.p, params.q, params.m) == (1, 3, 1):
                return dataclasses.replace(basis, generators=())
            return basis

        monkeypatch.setattr(cli, "slice_basis", empty_at_one_third)
        code, out, err = run(capsys, "verify", "--qmax", "3", "--mmax", "1")
        assert code == 4
        assert "1/3 m=1: hilbert FAIL" in out
        assert err.splitlines() == [
            "FAIL 1/3 m=1: hilbert: IndexError: list index out of range",
            "1 properties failed",
        ]

    def test_sweep_past_the_former_budget_passes(self, capsys):
        # at m = 5 the former default search budget failed git-loci 9 times
        code, out, err = run(capsys, "verify", "--qmax", "8", "--mmax", "6")
        assert (code, err) == (0, "")
        assert "git-loci FAIL" not in out and "all properties pass" in out
        # every row of VERIFY_ROWS, in order, on 160 instances
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ee30195c6a708145a50d061fafdde15897ffe05a7d18cae9ff8df7f215540553"
        )

    def test_a_wrong_hilbert_basis_fails_with_its_reason(self, capsys, monkeypatch):
        real = cli.slice_basis

        def mutant(params, which):
            basis = real(params, which)
            gens = tuple(_drop_inner(params, basis.generators))
            return dataclasses.replace(basis, generators=gens)

        monkeypatch.setattr(cli, "slice_basis", mutant)
        code, _, err = run(capsys, "verify", "--qmax", "3", "--mmax", "3")
        assert code == 4
        *fails, summary = err.splitlines()
        assert fails and summary == f"{len(fails)} properties failed"
        assert all(": hilbert: CrossCheckError: " in line for line in fails), fails

    def test_a_nontrivial_stabilizer_fails_with_its_reason(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "stabilizer_of_support", lambda act, support: FinAbGroup(0, (2,)))
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
            semi = AffineSemigroup(2, ((p, -q),), (((1, -x), m),), nonneg_coords=(0, 1))
            return hilbert_basis(semi).generators
    return gens


class TestHilbertCertificate:
    def test_passes_and_agrees_with_the_box_scan(self):
        for params in iter_instances(9, 8):
            cli._check_hilbert(params)
            box = params.m + params.a * params.q
            semi = slice_semigroup(params, "plus")
            brute = brute_minimal_generators(semi, (0, 0), (box, box))
            assert sorted(slice_basis(params, "plus").generators) == brute, params

    @pytest.mark.parametrize(
        "mutate",
        [_drop_inner, _add_ends_sum, _add_neighbours_sum, _double_end, _drop_end, _other_lattice],
    )
    def test_output_mutants_fail(self, monkeypatch, mutate):
        real = cli.slice_basis

        def mutant(params, which):
            basis = real(params, which)
            gens = tuple(mutate(params, basis.generators))
            return dataclasses.replace(basis, generators=gens)

        monkeypatch.setattr(cli, "slice_basis", mutant)
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
                cli._check_hilbert(params)


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

    def test_parser_is_built_on_the_first_call_and_reused(self):
        script = textwrap.dedent(
            """
            import contextlib, io
            import sl2flip.cli as cli
            assert cli._build_parser.cache_info().currsize == 0
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["info", "1/3", "1"]) == 0
                assert cli.main(["git", "1/3", "1", "plus"]) == 0
            info = cli._build_parser.cache_info()
            assert (info.misses, info.hits) == (1, 1), info
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=_fresh_process_env(), capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
