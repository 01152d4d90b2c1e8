"""Closed-form checks of sl2flip CLI output.

Every expected value here is derived from (p, q, m) by the formulas of the
paper, never by calling sl2flip: k = gcd(q - p, m) (k = m at height 1),
a = m/k, b = (q - p)/k, the class group Z x Z/a, K = -(1+b)[D],
K.C- = -(1+b)k/(aq^2), K.C+ = (1+b)k/(ap^2), slice orders ap, aq, b, the
unstable loci {X1,X2}, {X3,X4} and the empty set, witness characters under
the weights (k,-p,-p,q,q) and (0,-1,-1,1,1) mod a, fiber counts i+j+1, and
the b = 1 upper basis {(m+t, t)}.

A rank-2 Hilbert basis is checked without enumerating the semigroup: sorted
by angle, it must run from the minimal point of one extremal ray to that of
the other, each consecutive pair must be a basis of the lattice
{i = j mod m} (determinant m), and each inner generator g_i must satisfy
g_{i-1} + g_{i+1} = c_i g_i with c_i >= 2.  Those conditions hold exactly
for the Hilbert basis (the Hirzebruch-Jung chain on the boundary of the
convex hull), so they prove membership, generation and minimality at once.

check_op classifies one CLI call as "ok", "undecided" (the program reported
a budget-limited search instead of an answer) or "failed" (a wrong answer
or an error the program does not document).
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from math import gcd

COORDS = ("Y0", "X1", "X2", "X3", "X4")
NO_FLIP = "no flip (height 1)"
PATTERNS = [frozenset((i,)) for i in range(5)] + [
    frozenset((i, j)) for i in range(5) for j in range(i + 1, 5)
]
UNDECIDED_MESSAGE = "semistability undecided"


class Instance:
    """The datum (p, q, m) and its derived (k, a, b)."""

    def __init__(self, p: int, q: int, m: int):
        self.p, self.q, self.m = p, q, m
        self.k = m if p == q else gcd(q - p, m)
        self.a = m // self.k
        self.b = (q - p) // self.k

    def torus_weights(self) -> tuple[int, ...]:
        return (self.k, -self.p, -self.p, self.q, self.q)

    def finite_weights(self) -> tuple[int, ...]:
        a = self.a
        return (0, -1 % a, -1 % a, 1 % a, 1 % a)

    def character(self, exponents) -> tuple[int, int]:
        """(torus, finite) character of the monomial with these exponents."""
        t = sum(e * w for e, w in zip(exponents, self.torus_weights()))
        f = sum(e * w for e, w in zip(exponents, self.finite_weights()))
        return t, f % self.a

    def standard_characters(self) -> dict[str, tuple[int, int]]:
        p, q, k, a, b = self.p, self.q, self.k, self.a, self.b
        return {
            "plus": (-(1 + b) * k, 0),
            "minus": ((1 + b) * k, 0),
            "trivial": (0, 0),
            "D": (k, 0),
            "S_plus": (-p, -1 % a),
            "S_minus": (q, 1 % a),
        }

    def budgets(self) -> tuple[int, int]:
        """The CLI's documented default search budgets (n_max, box)."""
        s = self.p + self.q + self.k
        return 2 * s, 4 * s

    def group_structure(self) -> str:
        return "Z" if self.a == 1 else f"Z x Z/{self.a}"


class Rejected(Exception):
    """An output disagrees with the closed forms."""


def expect(got, want, what: str) -> None:
    if got != want:
        raise Rejected(f"{what}: got {got!r}, want {want!r}")


# ---------------------------------------------------------------------------
# parsing: both output formats become one flat map  path -> typed value


def _typed_json(value):
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        return Fraction(value["num"], value["den"])
    return value


def _flatten_json(prefix: str, value, rows: dict) -> None:
    value = _typed_json(value)
    if isinstance(value, dict):
        if not value:
            rows[prefix] = None
        for key, sub in value.items():
            _flatten_json(f"{prefix}.{key}" if prefix else key, sub, rows)
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        for i, sub in enumerate(value):
            _flatten_json(f"{prefix}[{i}]", sub, rows)
    elif isinstance(value, list):
        rows[prefix] = [_typed_json(v) for v in value]
    else:
        rows[prefix] = value


def _typed_text(text: str):
    if text == "-":
        return None
    if text in ("yes", "no"):
        return text == "yes"
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    if re.fullmatch(r"-?\d+/\d+", text):
        return Fraction(text)
    return text


def parse_json(out: str) -> dict:
    doc = json.loads(out)
    rows: dict = {}
    _flatten_json("params", doc["params"], rows)
    for name, content in doc["sections"].items():
        _flatten_json(name, content, rows)
    rows["warnings"] = list(doc["warnings"])
    rows["format"] = "json"
    return rows


def parse_text(out: str) -> dict:
    """Invert the aligned-table rendering: '[section]' headers, then rows
    '  key  value' where a value '(x, y)' is a list of scalars."""
    rows: dict = {}
    warnings = []
    section = None
    for line in out.splitlines():
        if line.startswith("params: "):
            for item in line[len("params: "):].split():
                key, _, value = item.partition("=")
                rows[f"params.{key}"] = int(value)
        elif line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif line.startswith("warning: "):
            warnings.append(line[len("warning: "):])
        elif line.startswith("  ") and section is not None:
            body = line[2:]
            key, _, value = body.partition(" ")
            value = value.strip()
            path = f"{section}.{key}" if key else section
            if value.startswith("(") and value.endswith(")"):
                inner = value[1:-1]
                rows[path] = [_typed_text(v) for v in inner.split(", ")] if inner else []
            else:
                rows[path] = _typed_text(value)
        elif line:
            raise Rejected(f"unparsed output line {line!r}")
    rows["warnings"] = warnings
    rows["format"] = "text"
    return rows


def get(rows: dict, path: str):
    if path not in rows:
        raise Rejected(f"missing {path}")
    return rows[path]


def items(rows: dict, prefix: str) -> list[dict]:
    """The records stored under prefix[0].*, prefix[1].*, ..."""
    pattern = re.compile(re.escape(prefix) + r"\[(\d+)\]\.(.+)")
    records: dict[int, dict] = {}
    for path, value in rows.items():
        match = pattern.fullmatch(path)
        if match:
            records.setdefault(int(match.group(1)), {})[match.group(2)] = value
    if sorted(records) != list(range(len(records))):
        raise Rejected(f"{prefix}: records are not numbered 0..n-1")
    return [records[i] for i in range(len(records))]


def points(rows: dict, prefix: str) -> list[tuple[int, int]]:
    found = []
    while f"{prefix}[{len(found)}]" in rows:
        found.append(tuple(rows[f"{prefix}[{len(found)}]"]))
    return found


# ---------------------------------------------------------------------------
# rank-2 Hilbert bases


def _det(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def semigroup(inst: Instance, which: str):
    """(membership test, minimal point on the first ray, on the second)."""
    p, q, m, a = inst.p, inst.q, inst.m, inst.a

    def cong(x):
        return (x[0] - x[1]) % m == 0

    if which == "plus":
        return (
            lambda x: x[0] >= 0 and x[1] >= 0 and p * x[0] >= q * x[1] and cong(x),
            (m, 0),
            (a * q, a * p),
        )
    if which == "minus":
        return (
            lambda x: x[0] >= 0 and p * x[0] >= q * x[1] and cong(x),
            (0, -m),
            (a * q, a * p),
        )
    if which == "prime":
        return (
            lambda x: p * x[1] >= q * x[0] and x[1] >= x[0] and cong(x),
            (a * p, a * q),
            (-1, -1),
        )
    raise ValueError(which)


def check_hilbert_basis(inst: Instance, which: str, gens) -> None:
    contains, first, last = semigroup(inst, which)
    gens = [tuple(g) for g in gens]
    what = f"{which} Hilbert basis"
    if len(set(gens)) != len(gens):
        raise Rejected(f"{what}: repeated generator")
    for g in gens:
        if not contains(g):
            raise Rejected(f"{what}: {g} is not in the semigroup")
    chain = sorted(gens, key=functools.cmp_to_key(lambda x, y: -_det(x, y)))
    if not chain or chain[0] != first or chain[-1] != last:
        raise Rejected(f"{what}: does not run from {first} to {last}")
    for u, v in zip(chain, chain[1:]):
        if _det(u, v) != inst.m:
            raise Rejected(f"{what}: {u}, {v} is not a lattice basis")
    for u, g, v in zip(chain, chain[1:], chain[2:]):
        s = (u[0] + v[0], u[1] + v[1])
        c = s[0] // g[0] if g[0] else s[1] // g[1]
        if (c * g[0], c * g[1]) != s or c < 2:
            raise Rejected(f"{what}: {g} is not an irreducible generator")
    if which == "plus" and inst.b == 1:
        want = {(inst.m + t, t) for t in range(inst.a * inst.p + 1)}
        expect(set(gens), want, "toric upper basis")


# ---------------------------------------------------------------------------
# GIT loci


def _effective(pattern: frozenset[int], b: int) -> frozenset[int]:
    # on {pattern = 0} the equation Y0^b = X1 X4 - X2 X3 forces Y0 = 0 once
    # both products vanish
    if b >= 1 and pattern & {1, 4} and pattern & {2, 3}:
        return pattern | {0}
    return pattern


def _unstable_patterns(inst: Instance, torus: int) -> list[frozenset[int]]:
    if torus == 0:
        return []
    weights = inst.torus_weights()
    return [
        pat
        for pat in PATTERNS
        if all(
            weights[i] * torus <= 0
            for i in range(5)
            if i not in _effective(pat, inst.b)
        )
    ]


def _names(indices) -> list[str]:
    return sorted(COORDS[i] for i in indices)


def check_git_section(rows: dict, prefix: str, inst: Instance, chi: tuple[int, int]) -> int:
    """Check one semistability report; return its number of undecided patterns."""
    torus, finite = chi
    unstable = _unstable_patterns(inst, torus)
    minimal = [p for p in unstable if not any(o < p for o in unstable)]
    vanishing = frozenset.intersection(*minimal) if minimal else frozenset()
    got = get(rows, f"{prefix}.unstable_vanishing")
    expect(got, _names(vanishing), f"{prefix} unstable locus")
    n_max, box = inst.budgets()
    got = (get(rows, f"{prefix}.n_max"), get(rows, f"{prefix}.box"))
    expect(got, (n_max, box), f"{prefix} budgets")
    seen = []
    for w in items(rows, f"{prefix}.witnesses"):
        pattern = frozenset(COORDS.index(c) for c in w["pattern"])
        exps, n = w["exponents"], w["n"]
        if len(exps) != 5 or min(exps) < 0 or n < 1:
            raise Rejected(f"{prefix}: malformed witness {w}")
        if any(exps[i] for i in _effective(pattern, inst.b)):
            raise Rejected(f"{prefix}: witness {exps} vanishes on {sorted(w['pattern'])}")
        want = (n * torus, (n * finite) % inst.a)
        expect(inst.character(exps), want, f"{prefix} witness character for {w['pattern']}")
        seen.append(pattern)
    undecided = items(rows, f"{prefix}.undecided")
    for u in undecided:
        expect((u["n_max"], u["box"]), (n_max, box), f"{prefix} undecided budget")
        seen.append(frozenset(COORDS.index(c) for c in u["pattern"]))
    want = sorted(map(sorted, set(PATTERNS) - set(unstable)))
    expect(sorted(map(sorted, seen)), want, f"{prefix} patterns covered")
    return len(undecided)


# ---------------------------------------------------------------------------
# documents


def check_params(rows: dict, inst: Instance) -> None:
    for key in ("p", "q", "m", "k", "a", "b"):
        expect(get(rows, f"params.{key}"), getattr(inst, key), f"params.{key}")


def _check_sec_params(rows: dict, inst: Instance) -> None:
    if rows["format"] == "text":
        return  # the text rendering shows only the params line
    expect(get(rows, "params.height"), Fraction(inst.p, inst.q), "height")
    expect(get(rows, "params.toric"), inst.b == 1, "toric")
    expect(get(rows, "params.smooth"), inst.b == 0, "smooth")


def _check_char(rows: dict, prefix: str, chi: tuple[int, int]) -> None:
    expect((get(rows, f"{prefix}.torus"), get(rows, f"{prefix}.finite")), chi, prefix)


def _check_upper_basis_records(rows: dict, prefix: str, inst: Instance) -> list:
    records = items(rows, prefix)
    gens = [tuple(r["point"]) for r in records]
    check_hilbert_basis(inst, "plus", gens)
    return records


def check_info(rows: dict, inst: Instance) -> None:
    p, q, m, k, a, b = inst.p, inst.q, inst.m, inst.k, inst.a, inst.b
    check_params(rows, inst)
    _check_sec_params(rows, inst)
    expect(get(rows, "cox.relation_degree"), b, "relation degree")
    expect(get(rows, "cox.torus_weights"), list(inst.torus_weights()), "torus weights")
    expect(get(rows, "cox.finite_order"), a, "finite order")
    expect(get(rows, "cox.finite_weights"), list(inst.finite_weights()), "finite weights")
    orbits = [f"SL(2)/C_{m}", "SL(2)/T"] if b == 0 else [
        f"SL(2)/C_{m}", f"SL(2)/U_{a * (p + q)}", "O"
    ]
    expect(get(rows, "orbits"), orbits, "orbits")

    expect(get(rows, "class_group.structure"), inst.group_structure(), "class group")
    expect(get(rows, "class_group.alt_structure"), inst.group_structure(), "class group via S-")
    for name, chi in inst.standard_characters().items():
        _check_char(rows, f"class_group.characters.{name}", chi)
    # the free quotient Z^2/(ap, m) -> Z is (x, y) -> +-(kx - py)
    d, s = get(rows, "class_group.D"), get(rows, "class_group.S_plus")
    if d[0] not in (k, -k) or s[0] * k != -p * d[0]:
        raise Rejected(f"class_group: [D] = {d}, [S+] = {s} break ap[D] + m[S+] = 0")
    coeff = -(1 + b)
    expect(get(rows, "canonical.coefficient_D"), coeff, "K = -(1+b)[D]")
    want_coords = [coeff * d[0]] + [(coeff * x) % a for x in d[1:]]
    expect(get(rows, "canonical.coords"), want_coords, "coordinates of K")
    _check_char(rows, "canonical.chi", (-(1 + 2 * b) * k, 0))
    _check_char(rows, "canonical.chi_prime", (b * k, 0))
    _check_char(rows, "canonical.chi_plus", (coeff * k, 0))

    records = _check_upper_basis_records(rows, "embedding.generators", inst)
    for r in records:
        i, j = r["point"]
        expect((r["module"], r["dimension"]), (f"V_{i + j}", i + j + 1), "embedding module")

    if b == 0:
        for name in ("flip", "colored_cones", "degeneration"):
            expect(get(rows, name), NO_FLIP, name)
        return
    _check_flip(rows, inst)
    _check_cones(rows, inst)
    _check_degeneration(rows, inst)


def _check_flip(rows: dict, inst: Instance) -> None:
    p, q, k, a, b = inst.p, inst.q, inst.k, inst.a, inst.b
    expect(get(rows, "flip.k_degrees.C_minus"), Fraction(-(1 + b) * k, a * q * q), "K.C-")
    expect(get(rows, "flip.k_degrees.C_plus"), Fraction((1 + b) * k, a * p * p), "K.C+")
    expect(get(rows, "flip.canonical_coefficient_D"), -(1 + b), "flip K coefficient")
    chars = inst.standard_characters()
    for name in ("plus", "minus", "trivial"):
        prefix = f"flip.semistable.{name}"
        _check_char(rows, f"{prefix}.character", chars[name])
        if check_git_section(rows, prefix, inst, chars[name]):
            raise Rejected(f"{prefix}: undecided patterns in a completed flip report")
    for name, order in (("E+", a * p), ("E-", a * q), ("E'", b)):
        prefix = f"flip.varieties.{name}"
        expect(get(rows, f"{prefix}.slice_singularity.order"), order, f"{name} slice order")
        expect(get(rows, f"{prefix}.smooth"), order == 1, f"{name} smooth")
    expect(get(rows, "flip.varieties.E.slice_singularity"), None, "E slice")


def _check_cones(rows: dict, inst: Instance) -> None:
    rho = [inst.p, -inst.q]
    expect(get(rows, "colored_cones.rho"), rho, "rho")
    expect(get(rows, "colored_cones.rho_prime"), [1, -1], "rho'")
    cones = {
        "E": ([0, 1], ["rho+", "rho-"]),
        "E-": ([1, 0], ["rho+"]),
        "E+": ([0, 1], ["rho-"]),
        "E'": ([1, -1], []),
    }
    for name, (second, colors) in cones.items():
        prefix = f"colored_cones.cones.{name}"
        expect(points(rows, f"{prefix}.generators"), [tuple(rho), tuple(second)], f"{name} cone")
        expect(get(rows, f"{prefix}.colors"), colors, f"{name} colors")


def _check_degeneration(rows: dict, inst: Instance) -> None:
    p, q = inst.p, inst.q
    expect(get(rows, "degeneration.relation_coefficients"), [p, p, p + q, 1], "relation")
    expect(get(rows, "degeneration.quasihomogeneous"), False, "quasihomogeneous")
    for r in _check_upper_basis_records(rows, "degeneration.fibers", inst):
        i, j = r["point"]
        expect(r["count"], i + j + 1, f"fiber count over {(i, j)}")


def check_degeneration(rows: dict, inst: Instance) -> None:
    check_params(rows, inst)
    _check_sec_params(rows, inst)
    _check_degeneration(rows, inst)


def check_hilbert(rows: dict, inst: Instance, which: str) -> None:
    check_params(rows, inst)
    _check_sec_params(rows, inst)
    expect(get(rows, "hilbert.which"), which, "which")
    check_hilbert_basis(inst, which, points(rows, "hilbert.generators"))


def parse_character(text: str, inst: Instance) -> tuple[int, int]:
    if text in ("plus", "minus", "trivial"):
        return inst.standard_characters()[text]
    torus, finite = text.split(",")
    return int(torus), int(finite) % inst.a


def check_git(rows: dict, inst: Instance, character: str) -> int:
    check_params(rows, inst)
    _check_sec_params(rows, inst)
    name = character if character in ("plus", "minus", "trivial") else "custom"
    expect(get(rows, "git.character.name"), name, "character name")
    chi = parse_character(character, inst)
    _check_char(rows, "git.character", chi)
    return check_git_section(rows, "git", inst, chi)


# ---------------------------------------------------------------------------
# verify


def verify_checks(b: int) -> list[str]:
    names = ["hilbert", "u-oracle", "class-group", "canonical", "smoothness", "stabilizer"]
    if b >= 1:
        names += ["k-signs"] + (["toric-bridge"] if b == 1 else [])
        names += ["slices", "git-loci", "cones", "degeneration"]
    return names


def iter_grid(qmax: int, mmax: int):
    for q in range(1, qmax + 1):
        for p in range(1, q + 1):
            if gcd(p, q) == 1:
                for m in range(1, mmax + 1):
                    yield Instance(p, q, m)


def check_verify(out: str, err: str, rc: int, qmax: int, mmax: int) -> bool:
    """Check a verify sweep; return True when only budget-limited git-loci
    properties failed (the sweep is then undecided, not wrong)."""
    lines = out.splitlines()
    grid = list(iter_grid(qmax, mmax))
    if len(lines) < len(grid):
        raise Rejected(f"verify: {len(lines)} lines for {len(grid)} instances")
    failures = []
    for inst, line in zip(grid, lines):
        head = f"{inst.p}/{inst.q} m={inst.m}: "
        if not line.startswith(head):
            raise Rejected(f"verify: line {line!r} is not {head!r}")
        cells = [c.rsplit(" ", 1) for c in line[len(head):].split("  ")]
        expect([c[0] for c in cells], verify_checks(inst.b), f"verify checks at {head}")
        for name, status in cells:
            if status not in ("ok", "FAIL"):
                raise Rejected(f"verify: status {status!r}")
            if status == "FAIL":
                failures.append(f"FAIL {inst.p}/{inst.q} m={inst.m}: {name}")
    tail = lines[len(grid):]
    if not failures:
        expect((rc, tail, err), (0, ["all properties pass"], ""), "verify summary")
        return False
    expect(rc, 4, "verify exit code")
    expect(tail, [], "verify stdout tail")
    expect(err.splitlines(), failures + [f"{len(failures)} properties failed"], "verify stderr")
    wrong = [f for f in failures if not f.endswith(": git-loci")]
    if wrong:
        raise Rejected(f"verify: {wrong[0]}")
    return True


# ---------------------------------------------------------------------------
# one CLI call


def _instance(argv) -> tuple[Instance, list[str]]:
    positional = [t for t in argv[1:] if not t.startswith("--")]
    p, q = (int(x) for x in positional[0].split("/"))
    return Instance(p, q, int(positional[1])), positional[2:]


def check_op(argv, rc, out: str, err: str, exc: BaseException | None) -> tuple[str, str]:
    """Classify one call of main(argv): (status, reason)."""
    command = argv[0]
    try:
        if command == "verify":
            if exc is not None:
                raise Rejected(f"raised {exc!r}")
            qmax = int(argv[argv.index("--qmax") + 1])
            mmax = int(argv[argv.index("--mmax") + 1])
            if check_verify(out, err, rc, qmax, mmax):
                return "undecided", "git-loci undecided at the default budget"
            return "ok", ""
        inst, rest = _instance(argv)
        if (
            command == "info"
            and isinstance(exc, RuntimeError)
            and str(exc).startswith(UNDECIDED_MESSAGE)
            and inst.b >= 1
        ):
            return "undecided", str(exc)
        if exc is not None:
            raise Rejected(f"raised {exc!r}")
        expect(rc, 0, "exit code")
        rows = parse_json(out) if "--json" in argv else parse_text(out)
        undecided = 0
        if command == "info":
            check_info(rows, inst)
        elif command == "hilbert":
            check_hilbert(rows, inst, rest[0])
        elif command == "degeneration":
            check_degeneration(rows, inst)
        elif command == "git":
            undecided = check_git(rows, inst, rest[0])
        else:
            raise Rejected(f"no checker for {command!r}")
    except Rejected as exc_:
        return "failed", str(exc_)
    except (KeyError, IndexError, TypeError, ValueError) as exc_:
        return "failed", f"malformed output: {exc_!r}"
    if undecided:
        return "undecided", f"{undecided} patterns undecided"
    return "ok", ""
