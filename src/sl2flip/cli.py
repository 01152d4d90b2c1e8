"""Command-line surface.

One binary, seven subcommands:

    sl2flip info 1/3 1 --json
    sl2flip hilbert 1/3 2 plus
    sl2flip git 2/3 4 minus
    sl2flip flip 1/2 1
    sl2flip cones 1/2 1
    sl2flip degeneration 1/3 2
    sl2flip verify --qmax 4 --mmax 3

Heights are exact fractions ("p/q" or a bare integer); decimals are
rejected.  Exit codes: 0 success, 2 usage error, 3 domain error, 4
verification failure.  Semistability is decided exactly, so there are no
search budgets to set; the n_max / box fields of the git JSON sections are
kept at their former defaults for schema 1.0 only.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .git import (
    GroupCharacter,
    default_budgets,
    semistable_locus,
    standard_action,
    standard_characters,
    stabilizer_of_support,
    u_invariant_exponents,
)
from .semigroup import (
    hilbert_basis,
    fiber_count,
    make_Mminus,
    make_Mplus,
    make_Mprime,
    make_Mtilde,
)
from .sl2core import (
    CONVENTION_NOTE,
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
from .toricgeom import multiplicity, sigma_of, star_subdivide_at_v5

SCHEMA_VERSION = "1.0"

NO_FLIP = "no flip (height 1)"

TILDE_NOTE = (
    "rank-3 semigroup convention: the projection covector is aligned with "
    "the rank-2 upper semigroup; a variant with the first two coordinates "
    "transposed is available in the library (make_Mtilde(transpose_ij=True))"
)


class UsageError(Exception):
    pass


class DomainError(Exception):
    pass


def _parse_height(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)/(\d+)", text) or re.fullmatch(r"(\d+)", text)
    if match is None:
        raise UsageError(
            f"height must be an exact fraction like 2/3, got {text!r}"
        )
    groups = match.groups()
    return (int(groups[0]), int(groups[1])) if len(groups) == 2 else (
        int(groups[0]),
        1,
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _params_from_args(args) -> tuple[SL2Params, list[str]]:
    p_raw, q_raw = _parse_height(args.h)
    warnings = []
    try:
        params = derive_params(p_raw, q_raw, args.m, strict=args.strict)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    if (p_raw, q_raw) != (params.p, params.q):
        warnings.append(
            f"height {p_raw}/{q_raw} reduced to {params.p}/{params.q}"
        )
    return params, warnings


# ---------------------------------------------------------------------------
# section builders: plain dicts of str / int / bool / None / Fraction / list


def _sec_params(params: SL2Params) -> dict:
    return {
        "p": params.p,
        "q": params.q,
        "m": params.m,
        "k": params.k,
        "a": params.a,
        "b": params.b,
        "height": params.height,
        "toric": is_toric(params),
        "smooth": is_smooth(params),
    }


def _sec_cox(params: SL2Params) -> dict:
    pres = cox_presentation(params)
    return {
        "equation": pres.equation,
        "relation_degree": pres.relation_degree,
        "ambient_dim": pres.ambient_dim,
        "torus_weights": list(pres.action.torus_weights),
        "finite_order": pres.action.finite_order,
        "finite_weights": list(pres.action.finite_weights),
    }


def _char_dict(chi: GroupCharacter) -> dict:
    return {"torus": chi.torus_part, "finite": chi.finite_part}


def _sec_class_group(params: SL2Params) -> dict:
    cl = class_group(params)
    return {
        "structure": cl.group.structure(),
        "alt_structure": cl.alt.structure(),
        "D": list(cl.class_of_D()),
        "S_plus": list(cl.class_of_S_plus()),
        "characters": {
            name: _char_dict(chi) for name, chi in sorted(cl.characters.items())
        },
    }


def _sec_canonical(params: SL2Params) -> dict:
    can = canonical_class(params)
    return {
        "coefficient_D": can.coefficient,
        "coords": list(can.coords),
        "chi": _char_dict(can.chi),
        "chi_prime": _char_dict(can.chi_prime),
        "chi_plus": _char_dict(can.chi_plus),
    }


def _singularity_dict(sing) -> dict | None:
    if sing is None:
        return None
    return {"order": sing.order, "twist": sing.twist, "label": str(sing)}


def _sec_git(report, chi_name: str, chi: GroupCharacter, params: SL2Params) -> dict:
    witnesses = [
        {
            "pattern": sorted(pattern),
            "n": n,
            "exponents": list(exps),
        }
        for pattern, (n, exps) in sorted(
            report.witness_monomials.items(),
            key=lambda item: (len(item[0]), sorted(item[0])),
        )
    ]
    # schema 1.0 still carries the search-era fields: an always empty
    # undecided list and the former default budgets, which bound nothing
    n_max, box = default_budgets(params.p, params.q, params.m)
    return {
        "character": {"name": chi_name, **_char_dict(chi)},
        "unstable_vanishing": sorted(report.unstable_vanishing),
        "witnesses": witnesses,
        "undecided": [],
        "n_max": n_max,
        "box": box,
    }


def _sec_flip(params: SL2Params) -> dict:
    rep = flip_report(params)
    chars = standard_characters(params.p, params.q, params.m)
    return {
        "k_degrees": {"C_minus": rep.k_degrees[0], "C_plus": rep.k_degrees[1]},
        "canonical_coefficient_D": rep.canonical.coefficient,
        "semistable": {
            name: _sec_git(sub, name, chars[name], params)
            for name, sub in sorted(rep.semistable.items())
        },
        "varieties": {
            name: {
                "orbits": list(summary.orbits),
                "smooth": summary.smooth,
                "slice_singularity": _singularity_dict(summary.slice_singularity),
                "notes": list(summary.notes),
            }
            for name, summary in sorted(rep.varieties.items())
        },
        "proj": dict(sorted(rep.proj_descriptions.items())),
        "note": rep.convention_note,
    }


def _sec_cones(params: SL2Params) -> dict:
    data = colored_cones(params)
    return {
        "lattice": f"{{(i, j) : {data.lattice_index} divides i - j}}",
        "rho": list(data.rho),
        "rho_prime": list(data.rho_prime),
        "rho_plus": list(data.rho_plus),
        "rho_minus": list(data.rho_minus),
        "cones": {
            name: {
                "generators": [list(g) for g in gens],
                "colors": sorted(colors),
            }
            for name, (gens, colors) in sorted(data.cones.items())
        },
    }


def _sec_degeneration(params: SL2Params) -> dict:
    deg = toric_degeneration(params)
    return {
        "sigma0_rays": [list(r) for r in deg.sigma0.rays],
        "relation_coefficients": list(deg.relation_coefficients),
        "quasihomogeneous": deg.quasihomogeneous,
        "fibers": [
            {"point": list(point), "count": count} for point, count in deg.fibers
        ],
    }


def _sec_embedding(params: SL2Params) -> dict:
    return {
        "generators": [
            {"point": list(gen), "module": label, "dimension": dim}
            for gen, label, dim in embedding_data(params)
        ]
    }


def _sec_orbits(params: SL2Params) -> list:
    return list(orbit_structure(params))


# ---------------------------------------------------------------------------
# documents


def _document(params: SL2Params, sections: dict, warnings: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "params": {
            "p": params.p,
            "q": params.q,
            "m": params.m,
            "k": params.k,
            "a": params.a,
            "b": params.b,
        },
        "sections": sections,
        "warnings": warnings,
    }


class _Encoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, Fraction):
            return {"num": o.numerator, "den": o.denominator}
        return super().default(o)


def _emit(doc: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True, cls=_Encoder))
    else:
        print(_render_text(doc))


def _fmt_scalar(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    return str(value)


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, rows)
        if not value:
            rows.append((prefix, "-"))
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            rows.append(
                (prefix, "(" + ", ".join(_fmt_scalar(v) for v in value) + ")")
            )
        else:
            for i, sub in enumerate(value):
                _flatten(f"{prefix}[{i}]", sub, rows)
    else:
        rows.append((prefix, _fmt_scalar(value)))


def _render_text(doc: dict) -> str:
    lines = []
    par = doc["params"]
    lines.append(
        "params: "
        + " ".join(f"{key}={par[key]}" for key in ("p", "q", "m", "k", "a", "b"))
    )
    for name, content in doc["sections"].items():
        if name == "params":
            continue
        lines.append("")
        lines.append(f"[{name}]")
        rows: list[tuple[str, str]] = []
        _flatten("", content, rows)
        if rows:
            width = max(len(key) for key, _ in rows)
            for key, text in rows:
                lines.append(f"  {key:<{width}}  {text}".rstrip())
    for warning in doc["warnings"]:
        lines.append("")
        lines.append(f"warning: {warning}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_info(args) -> int:
    params, warnings = _params_from_args(args)
    sections = {
        "params": _sec_params(params),
        "cox": _sec_cox(params),
        "orbits": _sec_orbits(params),
        "class_group": _sec_class_group(params),
        "canonical": _sec_canonical(params),
    }
    if params.b == 0:
        sections["flip"] = NO_FLIP
        sections["colored_cones"] = NO_FLIP
        sections["degeneration"] = NO_FLIP
    else:
        sections["flip"] = _sec_flip(params)
        sections["colored_cones"] = _sec_cones(params)
        sections["degeneration"] = _sec_degeneration(params)
        warnings.append(CONVENTION_NOTE)
        warnings.append(TILDE_NOTE)
    sections["embedding"] = _sec_embedding(params)
    _emit(_document(params, sections, warnings), args.json)
    return 0


def _cmd_hilbert(args) -> int:
    params, warnings = _params_from_args(args)
    p, q, m = params.p, params.q, params.m
    if args.which == "tilde":
        if args.basis:
            raise DomainError(
                "the rank-3 semigroup supports membership and fiber queries "
                "only; no Hilbert basis is reported"
            )
        tilde = make_Mtilde(p, q, m)
        fibers = [
            {"point": list(gen), "count": fiber_count(tilde, gen)}
            for gen in hilbert_basis(make_Mplus(p, q, m)).generators
        ]
        section = {"which": "tilde", "fibers": fibers}
        warnings.append(TILDE_NOTE)
    else:
        factory = {"plus": make_Mplus, "minus": make_Mminus, "prime": make_Mprime}
        try:
            basis = hilbert_basis(factory[args.which](p, q, m))
        except ValueError as exc:
            raise DomainError(str(exc)) from exc
        section = {
            "which": args.which,
            "generators": [list(gen) for gen in basis.generators],
        }
    sections = {"params": _sec_params(params), "hilbert": section}
    _emit(_document(params, sections, warnings), args.json)
    return 0


def _parse_character(text: str, params: SL2Params) -> tuple[str, GroupCharacter]:
    named = standard_characters(params.p, params.q, params.m)
    if text in ("plus", "minus", "trivial"):
        return text, named[text]
    match = re.fullmatch(r"(-?\d+),(-?\d+)", text)
    if match is None:
        raise UsageError(
            "character must be plus, minus, trivial, or a pair 'w,c'"
        )
    torus, finite = int(match.group(1)), int(match.group(2))
    return "custom", GroupCharacter(torus, finite % params.a)


def _cmd_git(args) -> int:
    params, warnings = _params_from_args(args)
    chi_name, chi = _parse_character(args.character, params)
    act = standard_action(params.p, params.q, params.m)
    report = semistable_locus(act, chi, params.b)
    if params.b == 0 and chi_name == "plus":
        warnings.append(
            "at height 1 the plus-semistable locus is empty: the unstable "
            "set below describes the pattern analysis, not a usable quotient"
        )
    sections = {
        "params": _sec_params(params),
        "git": _sec_git(report, chi_name, chi, params),
    }
    _emit(_document(params, sections, warnings), args.json)
    return 0


def _require_flip(params: SL2Params) -> None:
    if params.b == 0:
        raise DomainError("no flip for height 1")


def _cmd_flip(args) -> int:
    params, warnings = _params_from_args(args)
    _require_flip(params)
    warnings.append(CONVENTION_NOTE)
    sections = {
        "params": _sec_params(params),
        "flip": _sec_flip(params),
    }
    _emit(_document(params, sections, warnings), args.json)
    return 0


def _cmd_cones(args) -> int:
    params, warnings = _params_from_args(args)
    _require_flip(params)
    sections = {
        "params": _sec_params(params),
        "colored_cones": _sec_cones(params),
    }
    _emit(_document(params, sections, warnings), args.json)
    return 0


def _cmd_degeneration(args) -> int:
    params, warnings = _params_from_args(args)
    _require_flip(params)
    warnings.append(TILDE_NOTE)
    sections = {
        "params": _sec_params(params),
        "degeneration": _sec_degeneration(params),
    }
    _emit(_document(params, sections, warnings), args.json)
    return 0


# ---------------------------------------------------------------------------
# verify sweep


def _check_hilbert(params: SL2Params) -> bool:
    semi = make_Mplus(params.p, params.q, params.m)
    basis = set(hilbert_basis(semi).generators)
    if params.b == 1:
        want = {
            (params.m + t, t) for t in range(params.a * params.p + 1)
        }
        if basis != want:
            return False
    box = params.m + params.a * params.q
    points = [
        (i, j)
        for i in range(box + 1)
        for j in range(box + 1)
        if semi.contains((i, j)) and (i, j) != (0, 0)
    ]
    point_set = set(points)
    minimal = {
        x
        for x in points
        if not any(
            (x[0] - y[0], x[1] - y[1]) in point_set
            for y in points
            if y != x and y[0] <= x[0] and y[1] <= x[1]
        )
    }
    return minimal == basis


def _check_u_oracle(params: SL2Params) -> bool:
    box = 8
    semi = make_Mplus(params.p, params.q, params.m)
    found = u_invariant_exponents(params.p, params.q, params.m, box)
    want = {
        (i, j)
        for i in range(box + 1)
        for j in range(box + 1)
        if semi.contains((i, j))
    }
    return found == want


def _check_class_group(params: SL2Params) -> bool:
    cl = class_group(params)
    want = "Z" if params.a == 1 else f"Z x Z/{params.a}"
    return cl.group.structure() == want and cl.alt.structure() == want


def _check_canonical(params: SL2Params) -> bool:
    can = canonical_class(params)
    return (
        can.coefficient == -(1 + params.b)
        and can.chi_plus.torus_part == can.coefficient * params.k
    )


def _check_smoothness(params: SL2Params) -> bool:
    if is_toric(params) != (params.b == 1):
        return False
    if is_smooth(params) != (params.b == 0):
        return False
    if params.b == 0:
        try:
            intersection_numbers(params)
        except ValueError:
            return True
        return False
    return True


def _check_k_signs(params: SL2Params) -> bool:
    minus, plus = intersection_numbers(params)
    product = -Fraction(
        (1 + params.b) ** 2 * params.k**2,
        params.a**2 * params.p**2 * params.q**2,
    )
    return minus < 0 < plus and minus * plus == product


def _check_toric_bridge(params: SL2Params) -> bool:
    # intersection_numbers cross-checks wall degrees internally when b = 1
    intersection_numbers(params)
    fan = star_subdivide_at_v5(sigma_of(params.p, params.q, params.a))
    return all(multiplicity(c) == 1 for c in fan.max_cones)


def _check_slices(params: SL2Params) -> bool:
    s_plus, s_minus, s_prime = slice_surfaces(params)
    return (
        s_plus.singularity.order == params.a * params.p
        and s_minus.singularity.order == params.a * params.q
        and s_prime.singularity.order == params.b
    )


def _check_git_loci(params: SL2Params) -> bool:
    act = standard_action(params.p, params.q, params.m)
    chars = standard_characters(params.p, params.q, params.m)
    want = {
        "plus": frozenset({"X1", "X2"}),
        "minus": frozenset({"X3", "X4"}),
        "trivial": frozenset(),
    }
    for name, expected in want.items():
        report = semistable_locus(act, chars[name], params.b)
        if report.unstable_vanishing != expected:
            return False
    return True


def _check_stabilizer(params: SL2Params) -> bool:
    act = standard_action(params.p, params.q, params.m)
    for left in ("X1", "X2"):
        for right in ("X3", "X4"):
            group = stabilizer_of_support(act, frozenset({left, right}))
            if not group.is_trivial():
                return False
    return True


def _check_cones(params: SL2Params) -> bool:
    data = colored_cones(params)
    colors_of = {name: data.cones[name][1] for name in data.cones}
    return (
        colors_of["E"] == colors_of["E-"] | {"rho-"}
        and colors_of["E"] == colors_of["E+"] | {"rho+"}
    )


def _check_degeneration(params: SL2Params) -> bool:
    deg = toric_degeneration(params)
    return not deg.quasihomogeneous and all(
        count == point[0] + point[1] + 1 for point, count in deg.fibers
    )


def _cmd_verify(args) -> int:
    failures: list[tuple[SL2Params, str]] = []
    for params in iter_instances(args.qmax, args.mmax):
        checks: list[tuple[str, object]] = [
            ("hilbert", _check_hilbert),
            ("u-oracle", _check_u_oracle),
            ("class-group", _check_class_group),
            ("canonical", _check_canonical),
            ("smoothness", _check_smoothness),
            ("stabilizer", _check_stabilizer),
        ]
        if params.b >= 1:
            checks.append(("k-signs", _check_k_signs))
            if params.b == 1:
                checks.append(("toric-bridge", _check_toric_bridge))
            checks.append(("slices", _check_slices))
            checks.append(("git-loci", _check_git_loci))
            checks.append(("cones", _check_cones))
            checks.append(("degeneration", _check_degeneration))
        cells = []
        for name, fn in checks:
            try:
                passed = bool(fn(params))
            except Exception:
                passed = False
            cells.append(f"{name} {'ok' if passed else 'FAIL'}")
            if not passed:
                failures.append((params, name))
        print(f"{params.p}/{params.q} m={params.m}: " + "  ".join(cells))
    if failures:
        for params, name in failures:
            print(
                f"FAIL {params.p}/{params.q} m={params.m}: {name}",
                file=sys.stderr,
            )
        print(f"{len(failures)} properties failed", file=sys.stderr)
        return 4
    print("all properties pass")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2flip",
        description="Invariants of normal affine SL(2)-threefolds "
        "classified by a height and a degree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("h", help="height as an exact fraction p/q")
        sp.add_argument("m", type=int, help="degree (>= 1)")
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.add_argument(
            "--strict",
            action="store_true",
            help="reject an unreduced height instead of reducing it",
        )

    sp = sub.add_parser("info", help="full report")
    add_common(sp)
    sp.set_defaults(fn=_cmd_info)

    sp = sub.add_parser("hilbert", help="semigroup generators / fiber table")
    add_common(sp)
    sp.add_argument(
        "which",
        choices=("plus", "minus", "prime", "tilde"),
        help="which semigroup",
    )
    sp.add_argument(
        "--basis",
        action="store_true",
        help="insist on a Hilbert basis (unsupported for tilde)",
    )
    sp.set_defaults(fn=_cmd_hilbert)

    sp = sub.add_parser("git", help="semistable locus for a character")
    add_common(sp)
    sp.add_argument(
        "character", help="plus, minus, trivial, or a custom pair 'w,c'"
    )
    sp.set_defaults(fn=_cmd_git)

    sp = sub.add_parser("flip", help="flip diagram report")
    add_common(sp)
    sp.set_defaults(fn=_cmd_flip)

    sp = sub.add_parser("cones", help="colored cones")
    add_common(sp)
    sp.set_defaults(fn=_cmd_cones)

    sp = sub.add_parser("degeneration", help="toric degeneration data")
    add_common(sp)
    sp.set_defaults(fn=_cmd_degeneration)

    sp = sub.add_parser("verify", help="run the property sweep")
    sp.add_argument("--qmax", type=_positive_int, default=4)
    sp.add_argument("--mmax", type=_positive_int, default=3)
    sp.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
