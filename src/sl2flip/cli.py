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
rejected.  Exit codes: 0 success, 2 usage error, 3 domain error (any
`ValueError` the library raises for a datum or a query it does not
support), 4 verification failure: a `verify` row that failed, or a
`CrossCheckError` in any command, reported in one line on stderr.
`main(argv)` returns the exit code rather than exiting and may be called
any number of times in one process; only the argument parser, built on
the first call, is kept between calls.

`info`, `flip`, `cones` and `degeneration` print sections of one report,
listed per subcommand in `REPORTS`.  `verify` runs the rows of
`VERIFY_ROWS`; each failed row gets a line `FAIL p/q m=M: row: Type:
message` on stderr.

Semistability is decided exactly, so there are no search budgets to set;
the n_max / box fields of the git JSON sections are kept at their former
defaults for schema 1.0 only.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .git import (
    GroupCharacter,
    semistable_locus,
    stabilizer_of_support,
    u_invariant_exponents,
)
from .lattice import CrossCheckError, _require, det2
from .sl2core import (
    CONVENTION_NOTE,
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
from .toricgeom import multiplicity, sigma_of, star_subdivide_at_v5

SCHEMA_VERSION = "1.0"

PARAM_KEYS = ("p", "q", "m", "k", "a", "b")

NO_FLIP = "no flip (height 1)"

TILDE_NOTE = (
    "rank-3 semigroup convention: the projection covector is aligned with "
    "the rank-2 upper semigroup; a variant with the first two coordinates "
    "transposed is available in the library (make_Mtilde(transpose_ij=True))"
)


class UsageError(Exception):
    pass


def _parse_height(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)(?:/(\d+))?", text)
    if match is None:
        raise UsageError(
            f"height must be an exact fraction like 2/3, got {text!r}"
        )
    return int(match.group(1)), int(match.group(2) or 1)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _params_from_args(args) -> tuple[SL2Params, list[str]]:
    p_raw, q_raw = _parse_height(args.h)
    warnings = []
    params = derive_params(p_raw, q_raw, args.m, strict=args.strict)
    if (p_raw, q_raw) != (params.p, params.q):
        warnings.append(
            f"height {p_raw}/{q_raw} reduced to {params.p}/{params.q}"
        )
    return params, warnings


# ---------------------------------------------------------------------------
# section builders: plain dicts of str / int / bool / None / Fraction / list


def _sec_params(params: SL2Params) -> dict:
    return {
        **{key: getattr(params, key) for key in PARAM_KEYS},
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
    # undecided list and the former default budgets 2s and 4s,
    # s = p + q + k, which bound nothing
    s = params.p + params.q + params.k
    return {
        "character": {"name": chi_name, **_char_dict(chi)},
        "unstable_vanishing": sorted(report.unstable_vanishing),
        "witnesses": witnesses,
        "undecided": [],
        "n_max": 2 * s,
        "box": 4 * s,
    }


def _sec_flip(params: SL2Params) -> dict:
    rep = flip_report(params)
    chars = characters(params)
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


# ---------------------------------------------------------------------------
# documents


def _document(params: SL2Params, sections: dict, warnings: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "params": {key: getattr(params, key) for key in PARAM_KEYS},
        "sections": sections,
        "warnings": warnings,
    }


def _emit(doc: dict, as_json: bool) -> None:
    if as_json:
        # Fractions are the only values json cannot encode itself
        print(json.dumps(doc, indent=2, sort_keys=True, default=lambda f: {
            "num": f.numerator, "den": f.denominator}))
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
        + " ".join(f"{key}={par[key]}" for key in PARAM_KEYS)
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


# each section's builder and the note it adds to the warnings; the flip
# sections exist only for b >= 1, where `info` prints NO_FLIP instead
SECTIONS = {
    "cox": (_sec_cox, None),
    "orbits": (lambda params: list(orbit_structure(params)), None),
    "class_group": (_sec_class_group, None),
    "canonical": (_sec_canonical, None),
    "flip": (_sec_flip, CONVENTION_NOTE),
    "colored_cones": (_sec_cones, None),
    "degeneration": (_sec_degeneration, TILDE_NOTE),
    "embedding": (_sec_embedding, None),
}
FLIP_SECTIONS = ("flip", "colored_cones", "degeneration")
REPORTS = {
    "info": ("cox", "orbits", "class_group", "canonical", *FLIP_SECTIONS, "embedding"),
    "flip": ("flip",),
    "cones": ("colored_cones",),
    "degeneration": ("degeneration",),
}


def _cmd_report(args) -> int:
    params, warnings = _params_from_args(args)
    if params.b == 0 and args.command != "info":
        raise ValueError("no flip for height 1")
    sections = {"params": _sec_params(params)}
    for name in REPORTS[args.command]:
        if params.b == 0 and name in FLIP_SECTIONS:
            sections[name] = NO_FLIP
            continue
        build, note = SECTIONS[name]
        sections[name] = build(params)
        if note:
            warnings.append(note)
    _emit(_document(params, sections, warnings), args.json)
    return 0


def _cmd_hilbert(args) -> int:
    params, warnings = _params_from_args(args)
    if args.which == "tilde":
        if args.basis:
            raise ValueError(
                "the rank-3 semigroup supports membership and fiber queries "
                "only; no Hilbert basis is reported"
            )
        fibers = [
            {"point": list(gen), "count": count}
            for gen, count in degeneration_fibers(params)
        ]
        section = {"which": "tilde", "fibers": fibers}
        warnings.append(TILDE_NOTE)
    else:
        basis = slice_basis(params, args.which)
        section = {
            "which": args.which,
            "generators": [list(gen) for gen in basis.generators],
        }
    sections = {"params": _sec_params(params), "hilbert": section}
    _emit(_document(params, sections, warnings), args.json)
    return 0


def _parse_character(text: str, params: SL2Params) -> tuple[str, GroupCharacter]:
    if text in ("plus", "minus", "trivial"):
        return text, characters(params)[text]
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
    report = semistable_locus(action(params), chi, params.b)
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


# ---------------------------------------------------------------------------
# verify sweep: each property is one row of VERIFY_ROWS, (name, applies to
# b, check), which passes when its check returns and fails when it raises.
# Five checks are library calls, whose cross-checks raise CrossCheckError;
# the oracles below raise it through _require.  A library row looks up
# cli's name for its function at call time, so a tracer that rebinds the
# name still sees the call.


def _check_hilbert(params: SL2Params) -> None:
    """The S+ basis passes the Hirzebruch-Jung certificate of a 2-d cone
    (Oda, Convex Bodies, 1.6): sorted by angle it runs from (m, 0) to
    (aq, ap), the minimal points of the two rays; each consecutive pair has
    determinant m, the index of {i = j mod m}, so it generates; and each
    inner g has neighbours summing to c*g with c >= 2, so none is
    redundant.  That proves it is the Hilbert basis in O(|basis|)."""
    p, q, m, a = params.p, params.q, params.m, params.a
    gens = slice_basis(params, "plus").generators
    if params.b == 1:
        closed = {(m + t, t) for t in range(a * p + 1)}
        _require(set(gens) == closed, "basis at b = 1 is not {(m + t, t)}", set(gens) ^ closed)
    semi = slice_semigroup(params, "plus")
    # a nonzero point of S+ has i > 0, which the angle key needs
    outside = [g for g in gens if not (semi.contains(g) and g[0] > 0)]
    _require(not outside, "generators outside S+ \\ 0", outside)
    chain = sorted(gens, key=lambda g: Fraction(g[1], g[0]))
    ends = (chain[0], chain[-1])
    _require(ends == ((m, 0), (a * q, a * p)), "chain ends are not (m, 0), (aq, ap)", ends)
    for u, v in zip(chain, chain[1:]):
        _require(det2(u, v) == m, "neighbours without determinant m", u, v)
    for u, g, v in zip(chain, chain[1:], chain[2:]):
        s = (u[0] + v[0], u[1] + v[1])
        c = s[0] // g[0]
        _require(c >= 2 and s == (c * g[0], c * g[1]), "not u + v = c*g, c >= 2", u, g, v)


def _check_u_oracle(params: SL2Params) -> None:
    box = 8
    semi = slice_semigroup(params, "plus")
    found = u_invariant_exponents(params, box)
    want = {(i, j) for i in range(box + 1) for j in range(box + 1) if semi.contains((i, j))}
    _require(found == want, "U-invariant exponents other than S+", found ^ want)


def _check_smoothness(params: SL2Params) -> None:
    if params.b == 0:
        try:
            intersection_numbers(params)
        except ValueError:
            return
        raise CrossCheckError("intersection numbers defined at height 1")


def _check_k_signs(params: SL2Params) -> None:
    minus, plus = intersection_numbers(params)
    p, q, k, a, b = params.p, params.q, params.k, params.a, params.b
    product = -Fraction((1 + b) ** 2 * k**2, a**2 * p**2 * q**2)
    _require(minus < 0 < plus, "K-degree signs", minus, plus)
    _require(minus * plus == product, "K-degree product", minus * plus, product)


def _check_toric_bridge(params: SL2Params) -> None:
    # intersection_numbers cross-checks wall degrees internally when b = 1
    intersection_numbers(params)
    fan = star_subdivide_at_v5(sigma_of(params.p, params.q, params.a))
    singular = [c for c in fan.max_cones if multiplicity(c) != 1]
    _require(not singular, "singular cones in the star subdivision", singular)


def _check_git_loci(params: SL2Params) -> None:
    act, chars = action(params), characters(params)
    want = {"plus": {"X1", "X2"}, "minus": {"X3", "X4"}, "trivial": set()}
    for name, expected in want.items():
        found = semistable_locus(act, chars[name], params.b).unstable_vanishing
        _require(found == expected, f"{name}-unstable coordinates", sorted(found))


def _check_stabilizer(params: SL2Params) -> None:
    act = action(params)
    for left in ("X1", "X2"):
        for right in ("X3", "X4"):
            group = stabilizer_of_support(act, frozenset({left, right}))
            _require(group.is_trivial(), f"stabilizer on {left}, {right}", group)


VERIFY_ROWS = (
    ("hilbert", lambda b: True, _check_hilbert),
    ("u-oracle", lambda b: True, _check_u_oracle),
    ("class-group", lambda b: True, lambda params: class_group(params)),
    ("canonical", lambda b: True, lambda params: canonical_class(params)),
    ("smoothness", lambda b: True, _check_smoothness),
    ("stabilizer", lambda b: True, _check_stabilizer),
    ("k-signs", lambda b: b >= 1, _check_k_signs),
    ("toric-bridge", lambda b: b == 1, _check_toric_bridge),
    ("slices", lambda b: b >= 1, lambda params: slice_surfaces(params)),
    ("git-loci", lambda b: b >= 1, _check_git_loci),
    ("cones", lambda b: b >= 1, lambda params: colored_cones(params)),
    ("degeneration", lambda b: b >= 1, lambda params: toric_degeneration(params)),
)


def _cmd_verify(args) -> int:
    failures: list[str] = []
    for params in iter_instances(args.qmax, args.mmax):
        head = f"{params.p}/{params.q} m={params.m}"
        cells = []
        for name, applies, check in VERIFY_ROWS:
            if applies(params.b):
                try:
                    check(params)
                except Exception as exc:
                    cells.append(f"{name} FAIL")
                    failures.append(f"FAIL {head}: {name}: {type(exc).__name__}: {exc}")
                else:
                    cells.append(f"{name} ok")
        print(f"{head}: " + "  ".join(cells))
    if failures:
        for line in failures:
            print(line, file=sys.stderr)
        print(f"{len(failures)} properties failed", file=sys.stderr)
        return 4
    print("all properties pass")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first `main` call and reused: the parser depends on no
    input, and parse_args returns a fresh Namespace per call.  The `fn`
    defaults bind the `_cmd_*` functions as they are at that first call."""
    parser = argparse.ArgumentParser(
        prog="sl2flip",
        description="Invariants of normal affine SL(2)-threefolds "
        "classified by a height and a degree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(name, help_text, fn=_cmd_report):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("h", help="height as an exact fraction p/q")
        sp.add_argument("m", type=int, help="degree (>= 1)")
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.add_argument(
            "--strict",
            action="store_true",
            help="reject an unreduced height instead of reducing it",
        )
        sp.set_defaults(fn=fn)
        return sp

    add_instance("info", "full report")
    sp = add_instance("hilbert", "semigroup generators / fiber table", _cmd_hilbert)
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
    sp = add_instance("git", "semistable locus for a character", _cmd_git)
    sp.add_argument(
        "character", help="plus, minus, trivial, or a custom pair 'w,c'"
    )
    add_instance("flip", "flip diagram report")
    add_instance("cones", "colored cones")
    add_instance("degeneration", "toric degeneration data")

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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CrossCheckError as exc:
        print(f"cross-check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
