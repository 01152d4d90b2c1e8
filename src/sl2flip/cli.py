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
rejected.  Exit codes: 0 success, 1 output cut short (stdout closed
before everything was written, as by `| head`), 2 usage error, 3 domain
error (any `ValueError` the library raises for a datum or a query it does
not support, a Hilbert basis of more than MAX_LISTED_GENERATORS generators
where a command would list it, a `verify` grid that may hold more than
MAX_VERIFY_INSTANCES instances, and an integer to print of more digits than
sys.get_int_max_str_digits()), 4 verification failure: a
`verify` row that failed, or a `CrossCheckError` in any command, reported
in one line on stderr.
`main(argv)` returns the exit code rather than exiting and may be called
any number of times in one process.  Two things are kept between calls:
the argparse parser, built by the first call that needs it, and the JSON
encoder, built by the first `--json` call.  Each subcommand's grammar is
written once, in `COMMANDS`.  A plain argv (a subcommand, then its
words, exact flags, valued options and at most one "--"; see
`_parse_plain`) is read straight from that table, with no argparse.  Any
other argv goes through the top-level parser, so help and every usage
error about the shape of an argv still come from argparse.

`info`, `flip`, `cones` and `degeneration` print sections of one report,
listed per subcommand in `REPORTS`.  `verify` runs the rows of
`verify.ROWS`; each failed row gets a line `FAIL p/q m=M: row: Type:
message` on stderr.

Semistability is decided exactly, so there are no search budgets to set;
the n_max / box fields of the git JSON sections are kept at their former
defaults for schema 1.0 only.
"""

from __future__ import annotations

import functools
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .git import GroupCharacter, semistable_locus
from .lattice import CrossCheckError
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
    is_smooth,
    is_toric,
    iter_instances,
    orbit_structure,
    slice_basis,
    toric_degeneration,
)

SCHEMA_VERSION = "1.0"

PARAM_KEYS = ("p", "q", "m", "k", "a", "b")

NO_FLIP = "no flip (height 1)"

# The most generators a command lists: a basis is counted from its runs
# before any is expanded, and a larger one is a domain error (exit 3).
# Every documented, tested and benchmarked call stays far below it.
MAX_LISTED_GENERATORS = 10**6

# The most instances a verify grid may hold, bounded before its first line
# by qmax * (qmax + 1) / 2 * mmax; a larger grid is a domain error (exit 3).
# CI's 60 x 60 grid is bounded by 109 800.
MAX_VERIFY_INSTANCES = 10**7

TILDE_NOTE = (
    "rank-3 semigroup convention: the projection covector is aligned with "
    "the rank-2 upper semigroup; a variant with the first two coordinates "
    "transposed is available in the library (make_Mtilde(transpose_ij=True))"
)


class UsageError(Exception):
    pass


def _int(digits: str, argument: str) -> int:
    """int(digits), or a usage error past the interpreter's digit limit,
    which belongs to the host process and stays as it is."""
    try:
        return int(digits)
    except ValueError:
        raise UsageError(
            f"argument {argument}: a number of {len(digits.lstrip('-'))} digits, more "
            f"than the interpreter's limit of {sys.get_int_max_str_digits()}"
        ) from None


def _parse_height(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)(?:/(\d+))?", text)
    if match is None:
        raise UsageError(
            f"height must be an exact fraction like 2/3, got {text!r}"
        )
    return _int(match.group(1), "h"), _int(match.group(2) or "1", "h")


def _positive_int(text: str) -> int:
    try:
        value, message = int(text), "must be a positive integer"
    except ValueError:
        # the message argparse gives a type=int argument such as m
        value, message = 0, f"invalid int value: {text!r}"
    if value >= 1:
        return value
    import argparse  # here, not at the top: argparse reports a refused value

    raise argparse.ArgumentTypeError(message)


def _params_from_args(args) -> tuple[SL2Params, list[str]]:
    p_raw, q_raw = _parse_height(args.h)
    params = derive_params(p_raw, q_raw, args.m, strict=args.strict)
    if (p_raw, q_raw) == (params.p, params.q):
        return params, []
    return params, [f"height {p_raw}/{q_raw} reduced to {params.p}/{params.q}"]


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
            name: _char_dict(chi) for name, chi in sorted(characters(params).items())
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
    # the witnesses come in report order; a pattern proven unstable has none
    witnesses = [
        {"pattern": list(names), "n": n, "exponents": list(exps)}
        for names, (n, exps) in report.witness_monomials.items()
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


def _listed_basis(params: SL2Params, which: str):
    """The basis of slice_semigroup(params, which), for a command that lists
    its generators or one fiber per generator; a domain error when it has
    more than MAX_LISTED_GENERATORS, counted from its runs."""
    basis = slice_basis(params, which)
    if basis.size > MAX_LISTED_GENERATORS:
        raise ValueError(
            f"the {which} Hilbert basis has {_count_text(basis.size)} generators, more "
            f"than the {MAX_LISTED_GENERATORS} a command lists"
        )
    return basis


def _count_text(n: int) -> str:
    """n in digits, or "a D-digit number of" past the interpreter's digit
    limit, where str() refuses it: bit length times log10(2) falls at most
    one short of its digits."""
    digits = int(n.bit_length() * 0.30102999566398120)
    digits += n >= 10**digits
    return f"a {digits}-digit number of" if 0 < sys.get_int_max_str_digits() < digits else str(n)


def _fibers(params: SL2Params) -> list[dict]:
    # the one listing, printed by the degeneration section and hilbert tilde
    return [{"point": list(point), "count": count} for point, count in degeneration_fibers(params)]


def _sec_degeneration(params: SL2Params) -> dict:
    _listed_basis(params, "plus")
    deg = toric_degeneration(params)
    return {
        "sigma0_rays": [list(r) for r in deg.sigma0.rays],
        "relation_coefficients": list(deg.relation_coefficients),
        "quasihomogeneous": deg.quasihomogeneous,
        "fibers": _fibers(params),
    }


def _sec_embedding(params: SL2Params) -> dict:
    _listed_basis(params, "plus")
    return {
        "generators": [
            {"point": list(gen), "module": label, "dimension": dim}
            for gen, label, dim in embedding_data(params)
        ]
    }


# ---------------------------------------------------------------------------
# documents


@functools.cache
def _json_encoder():
    """The encoder of every --json document, built by the first."""
    import json  # here, not at the top: start-up and text output skip it

    # Fractions are the only values json cannot encode itself; a document
    # is a fresh tree, so there is no cycle to check for
    return json.JSONEncoder(
        indent=2, sort_keys=True, check_circular=False,
        default=lambda f: {"num": f.numerator, "den": f.denominator},
    )


def _emit(params: SL2Params, sections: dict, warnings: list[str], as_json: bool) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": {key: getattr(params, key) for key in PARAM_KEYS},
        "sections": sections,
        "warnings": warnings,
    }
    print(_json_encoder().encode(doc) if as_json else _render_text(doc))


def _fmt_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# A document holds only dicts, lists and the scalar types below, never a
# subclass, so rendering dispatches on type(value): isinstance against
# Fraction goes through ABCMeta on every scalar.
_SCALAR_FORMATS = {
    int: str,
    str: str,
    Fraction: _fmt_fraction,
    bool: lambda value: "yes" if value else "no",
    type(None): lambda value: "-",
}


def _fmt_scalar(value) -> str:
    return _SCALAR_FORMATS.get(type(value), str)(value)


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    kind = type(value)
    if kind is dict:
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, rows)
        if not value:
            rows.append((prefix, "-"))
    elif kind is list:
        for v in value:
            if type(v) is dict or type(v) is list:
                break
        else:
            rows.append((prefix, "(" + ", ".join(map(_fmt_scalar, value)) + ")"))
            return
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
    _emit(params, sections, warnings, args.json)
    return 0


def _cmd_hilbert(args) -> int:
    params, warnings = _params_from_args(args)
    if args.which == "tilde":
        if args.basis:
            raise ValueError(
                "the rank-3 semigroup supports membership and fiber queries "
                "only; no Hilbert basis is reported"
            )
        _listed_basis(params, "plus")
        section = {"which": "tilde", "fibers": _fibers(params)}
        warnings.append(TILDE_NOTE)
    else:
        basis = _listed_basis(params, args.which)
        section = {"which": args.which, "generators": list(map(list, basis.generators))}
    sections = {"params": _sec_params(params), "hilbert": section}
    _emit(params, sections, warnings, args.json)
    return 0


def _parse_character(text: str, params: SL2Params) -> tuple[str, GroupCharacter]:
    if text in ("plus", "minus", "trivial"):
        return text, characters(params)[text]
    match = re.fullmatch(r"(-?\d+),(-?\d+)", text)
    if match is None:
        raise UsageError(
            "character must be plus, minus, trivial, or a pair 'w,c'"
        )
    torus, finite = _int(match.group(1), "character"), _int(match.group(2), "character")
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
    _emit(params, sections, warnings, args.json)
    return 0


def _cmd_verify(args) -> int:
    bound = args.qmax * (args.qmax + 1) // 2 * args.mmax
    if bound > MAX_VERIFY_INSTANCES:
        raise ValueError(
            f"the grid q <= {args.qmax}, m <= {args.mmax} has up to {_count_text(bound)} "
            f"instances, more than the {MAX_VERIFY_INSTANCES} verify runs"
        )
    from . import verify  # here, not at the top: only this command runs the rows

    failures: list[str] = []
    for params in iter_instances(args.qmax, args.mmax):
        head = f"{params.p}/{params.q} m={params.m}"
        cells = []
        for name, applies, check in verify.ROWS:
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
# argument parsing: one grammar, read by the direct path and by argparse


_INSTANCE_ARGUMENTS = (
    ("h", {"help": "height as an exact fraction p/q"}),
    ("m", {"type": int, "help": "degree (>= 1)"}),
    ("--json", {"action": "store_true", "help": "emit JSON"}),
    (
        "--strict",
        {"action": "store_true", "help": "reject an unreduced height instead of reducing it"},
    ),
)

# Each subcommand in the order the usage lists it: its help text, the
# function that runs it, and its arguments in add order, each with the
# keywords of ArgumentParser.add_argument.  The direct path reads only
# `type`, `choices`, `action="store_true"` and `default` from them.
COMMANDS = {
    "info": ("full report", _cmd_report, _INSTANCE_ARGUMENTS),
    "hilbert": ("semigroup generators / fiber table", _cmd_hilbert, (
        *_INSTANCE_ARGUMENTS,
        ("which", {"choices": ("plus", "minus", "prime", "tilde"), "help": "which semigroup"}),
        (
            "--basis",
            {"action": "store_true", "help": "insist on a Hilbert basis (unsupported for tilde)"},
        ),
    )),
    "git": ("semistable locus for a character", _cmd_git, (
        *_INSTANCE_ARGUMENTS,
        ("character", {"help": "plus, minus, trivial, or a custom pair 'w,c'"}),
    )),
    "flip": ("flip diagram report", _cmd_report, _INSTANCE_ARGUMENTS),
    "cones": ("colored cones", _cmd_report, _INSTANCE_ARGUMENTS),
    "degeneration": ("toric degeneration data", _cmd_report, _INSTANCE_ARGUMENTS),
    "verify": ("run the property sweep", _cmd_verify, (
        ("--qmax", {"type": _positive_int, "default": 4}),
        ("--mmax", {"type": _positive_int, "default": 3}),
    )),
}


def _grammar(fn, arguments) -> tuple:
    """COMMANDS' arguments of one subcommand as the direct path reads
    them: the positionals as (dest, type, choices), the store-true flags
    and the valued options by their exact spelling, and the Namespace
    before parsing."""
    positionals, flags, options, defaults = [], {}, {}, {"fn": fn}
    for name, keywords in arguments:
        dest = name.lstrip("-")
        if name[0] != "-":
            positionals.append((dest, keywords.get("type"), keywords.get("choices")))
        elif keywords.get("action") == "store_true":
            flags[name] = dest
            defaults[dest] = False
        else:
            options[name] = (dest, keywords["type"])
            defaults[dest] = keywords["default"]
    return positionals, flags, options, defaults


_GRAMMARS = {name: _grammar(fn, arguments) for name, (_, fn, arguments) in COMMANDS.items()}


@functools.cache
def _build_parser():
    """The top-level argparse parser, built from COMMANDS by the first call
    that needs it and reused: it depends on no input, and each parse
    returns a fresh Namespace."""
    import argparse  # here, not at the top: a plain argv never needs it

    parser = argparse.ArgumentParser(
        prog="sl2flip",
        description="Invariants of normal affine SL(2)-threefolds "
        "classified by a height and a degree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fn, arguments) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            sp.add_argument(flag, **keywords)
        sp.set_defaults(fn=fn)
    return parser


def _parse_plain(command: str, tokens: list[str]) -> SimpleNamespace | None:
    """The Namespace argparse gives `command tokens` when the tokens are
    plain, else None.  Plain means: words that do not start with "-", the
    subcommand's exact flags, its valued options each followed by a value
    its type accepts, and at most one "--", not last, after which every
    token is a word; the words fill the positionals exactly, and their
    types and choices accept them.  argparse gives such an argv the same
    Namespace on 3.10 to 3.13."""
    positionals, flags, options, defaults = _GRAMMARS[command]
    values = {"command": command, **defaults}
    words = []
    end = len(tokens)
    i = 0
    try:
        while i < end:
            token = tokens[i]
            i += 1
            if token == "--":
                if i == end or "--" in tokens[i:]:
                    return None
                words += tokens[i:]
                break
            if token[:1] != "-":
                words.append(token)
            elif token in flags:
                values[flags[token]] = True
            elif token in options and i < end:
                dest, convert = options[token]
                values[dest] = convert(tokens[i])
                i += 1
            else:
                return None
        if len(words) != len(positionals):
            return None
        for word, (dest, convert, choices) in zip(words, positionals):
            value = word if convert is None else convert(word)
            if choices is not None and value not in choices:
                return None
            values[dest] = value
    except Exception:  # a value its type refuses: argparse words the error
        return None
    return SimpleNamespace(**values)


def _parse(argv: list[str]):
    """Parse argv as the top-level parser would, raising SystemExit on a
    usage error or help.  A plain argv (see _parse_plain) is read straight
    from COMMANDS; any other goes through the top-level parser."""
    if argv and argv[0] in _GRAMMARS:
        args = _parse_plain(argv[0], argv[1:])
        if args is not None:
            return args
    return _build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        # a reader that left early shows here, not in the final flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        import os  # here, not at the top: only a cut-off pipe needs it

        # stdout is gone; point it at devnull so that the interpreter's
        # final flush stays silent (Python docs, signal, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv: list[str]) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # argparse (3.10 to 3.13.0 at least) gives a positional an empty list
    # when its only strings are "--" tokens, as in `git 1/2 4 -- --`
    empty = [name for name, value in vars(args).items() if type(value) is list]
    try:
        if empty:
            raise UsageError(f"argument {empty[0]}: expected one argument")
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        if "integer string conversion" in str(exc):
            # str() of an int past the interpreter's digit limit, in a
            # label or a rendered result alike
            exc = (
                "the result holds an integer of more digits than the interpreter's "
                f"limit of {sys.get_int_max_str_digits()} lets it print"
            )
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CrossCheckError as exc:
        print(f"cross-check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
