"""CLI tests: frozen command outputs, exit codes, JSON determinism."""

import json

import pytest

from sl2flip import cli


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
        monkeypatch.setattr(cli, "_check_canonical", lambda params: False)
        code, out, err = run(capsys, "verify", "--qmax", "2", "--mmax", "1")
        assert code == 4
        assert "canonical FAIL" in out
        assert "FAIL 1/1 m=1: canonical" in err

    def test_sweep_past_the_former_budget_passes(self, capsys):
        # at m = 5 the former default search budget failed git-loci 9 times
        code, out, err = run(capsys, "verify", "--qmax", "8", "--mmax", "6")
        assert (code, err) == (0, "")
        assert "git-loci FAIL" not in out and "all properties pass" in out


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
