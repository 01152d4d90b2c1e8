"""Fault injection: which seeded faults the rows of `verify` can see.

Each fault is a mutant of one library function: one piece of its source
replaced, so that the wrong value enters before the function's own checks
run (a fault applied after them would tell nothing).  The mutant is
compiled in its module and bound under every name the package holds the
function by; the rows of verify.ROWS call the package through its modules,
so they call it too.  Every row then runs over the grid, and the rows that
fail on some instance must be exactly the ones the fault names.  A fault no row sees
is a strict xfail that names the ROADMAP item whose row will catch it
(mutation analysis: DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978).
"""

import inspect
import sys
from math import gcd

import pytest

from sl2flip import git, lattice, semigroup, sl2core, toricgeom, verify
from sl2flip.sl2core import action, characters, derive_params, iter_instances, slice_semigroup
from sl2flip.toricgeom import CyclicSingularity, sigma_of

GRID = (8, 8)  # iter_instances(8, 8): 176 instances, 168 of them with b >= 1


def other_twist(sing: CyclicSingularity) -> CyclicSingularity:
    """1/n(1, u) for the least unit u other than the twist t and its
    inverse, or sing itself when n has no third unit."""
    n, t = sing.order, sing.twist
    for u in range(1, n):
        if gcd(u, n) == 1 and u != t and u * t % n != 1:
            return CyclicSingularity(n, u)
    return sing


def x1_x3_span(params):
    """The characters of X1 and X3 with (0, a): the lattice R of the
    stabilizer row's support {X1, X3}, before it is written in L's basis."""
    act = action(params)
    return [(act.torus_weights[i], act.finite_weights[i]) for i in (1, 3)] + [
        (0, act.finite_order)
    ]


def mutant(module, name: str, old: str, new: str):
    """module.name with `old`, which occurs once in its source, replaced by
    `new`, compiled against a copy of the module's globals that also holds
    other_twist."""
    original = getattr(module, name)
    lines, first = inspect.getsourcelines(original)
    source = "".join(lines)
    assert source.count(old) == 1, (name, old)
    # blank lines first, so a traceback points into the module's own lines
    code = compile(
        "\n" * (first - 1) + source.replace(old, new), inspect.getsourcefile(original), "exec"
    )
    namespace = {}
    exec(code, {**vars(module), "other_twist": other_twist}, namespace)
    return namespace[name]


def outcome(fn, *args):
    """fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def failing_rows() -> set[str]:
    """The rows of verify.ROWS that fail on some instance of the grid,
    each row run as `verify` runs it."""
    failed = set()
    for params in iter_instances(*GRID):
        for name, applies, check in verify.ROWS:
            if applies(params.b):
                try:
                    check(params)
                except Exception:
                    failed.add(name)
    return failed


# each fault: the function, the text of its source it replaces and by
# what, and the rows that must fail
FAULTS = {
    "finite-weights-zeroed": (
        sl2core, "action",
        "finite_weights=(0, (-1) % a, (-1) % a, 1 % a, 1 % a)",
        "finite_weights=(0, 0, 0, 0, 0)",
        {"class-group", "canonical"},
    ),
    "s-plus-minus-characters-swapped": (
        sl2core, "characters",
        '"S_plus": GroupCharacter(-p, (-1) % a),\n        "S_minus": GroupCharacter(q, 1 % a),',
        '"S_plus": GroupCharacter(q, 1 % a),\n        "S_minus": GroupCharacter(-p, (-1) % a),',
        {"class-group", "canonical"},
    ),
    "k-degrees-scaled-at-b-2": (
        sl2core, "intersection_numbers",
        '    _require(minus < 0 < plus, "K-degree signs", minus, plus)\n',
        "    if b >= 2:\n        minus, plus = 2 * minus, plus / 2\n"
        '    _require(minus < 0 < plus, "K-degree signs", minus, plus)\n',
        {"k-signs"},
    ),
    "wall-degree-without-the-relation-coefficient": (
        toricgeom, "flip_K_degrees",
        "Fraction(-total, rel[o] * chamber)",
        "Fraction(-total, chamber)",
        {"k-signs", "toric-bridge"},
    ),
    "slice-twist-another-unit": (
        sl2core, "slice_surfaces",
        "sing = CyclicSingularity(*quotient_type(semi))\n",
        "sing = other_twist(CyclicSingularity(*quotient_type(semi)))\n",
        {"slices"},
    ),
    "e-plus-minus-colors-swapped": (
        sl2core, "colored_cones",
        '"E-": ((rho, (1, 0)), frozenset({"rho+"})),\n'
        '            "E+": ((rho, (0, 1)), frozenset({"rho-"})),',
        '"E-": ((rho, (1, 0)), frozenset({"rho-"})),\n'
        '            "E+": ((rho, (0, 1)), frozenset({"rho+"})),',
        {"cones"},
    ),
    "sigma0-of-the-wrong-height": (
        sl2core, "toric_degeneration",
        "sigma0 = sigma0_of(p, q)",
        "sigma0 = sigma0_of(p, p + q)",
        {"degeneration"},
    ),
    "mtilde-l-bound-tilted": (
        sl2core, "make_Mtilde",
        "(1, 1, -1), (p, -q, 0)",
        "(1, 2, -1), (p, -q, 0)",
        {"degeneration"},
    ),
    "mtilde-base-covector-tilted": (
        sl2core, "make_Mtilde",
        "(p, -q, 0)",
        "(p, -q - 1, 0)",
        {"degeneration"},
    ),
    "mtilde-congruence-doubled": (
        sl2core, "make_Mtilde",
        "params.m",
        "2 * params.m",
        {"degeneration"},
    ),
    "mtilde-loses-its-l-covector": (
        sl2core, "make_Mtilde",
        "(*ineqs, (0, 0, 1))",
        "ineqs",
        {"degeneration"},
    ),
    "s-plus-loses-its-j-covector": (
        sl2core, "slice_semigroup",
        '"plus": ((p, -q), (1, 0), (0, 1)),',
        '"plus": ((p, -q), (1, 0)),',
        {"degeneration", "hilbert", "slices", "smoothness", "u-oracle"},
    ),
    "s-minus-gains-a-j-covector": (
        sl2core, "slice_semigroup",
        '"minus": ((p, -q), (1, 0)),',
        '"minus": ((p, -q), (1, 0), (0, 1)),',
        {"slices", "smoothness"},
    ),
    "toric-at-every-b": (
        sl2core, "is_toric",
        "b == 1",
        "b >= 1",
        {"smoothness"},
    ),
    "smooth-at-b-1": (
        sl2core, "is_smooth",
        "b == 0",
        "b <= 1",
        {"smoothness"},
    ),
    "git-candidates-of-the-wrong-sign": (
        git, "semistable_locus",
        "if w * t > 0:",
        "if w * t < 0:",
        {"git-loci"},
    ),
    "git-witness-on-its-own-pattern": (
        git, "semistable_locus",
        "if j not in dead:",
        "if True:",
        {"git-loci"},
    ),
    "chain-point-off-by-the-lattice-step": (
        semigroup, "hilbert_basis",
        "b1, b2, v1, v2, n, u1, _ = s._normal_form\n",
        "b1, b2, v1, v2, n, u1, _ = s._normal_form\n    u1 = (u1[0] + v1[0], u1[1] + v1[1])\n",
        {"degeneration", "hilbert"},
    ),
    "hilbert-last-run-one-short": (
        semigroup, "hilbert_basis",
        "last + 1",
        "last + (1 if d - last * delta else 0)",
        {"hilbert"},
    ),
    "hermite-gamma-sign": (
        lattice, "_hermite_basis",
        "- alpha // g * y",
        "+ alpha // g * y",
        {"stabilizer"},
    ),
}

# how a faulty function is called on an instance, where that is not on
# the instance's params alone
CALLS = {
    "git-candidates-of-the-wrong-sign":
        lambda params: (action(params), characters(params)["plus"], params.b),
    "git-witness-on-its-own-pattern":
        lambda params: (action(params), characters(params)["plus"], params.b),
    "chain-point-off-by-the-lattice-step": lambda params: (slice_semigroup(params, "plus"),),
    "hilbert-last-run-one-short": lambda params: (slice_semigroup(params, "plus"),),
    "s-plus-loses-its-j-covector": lambda params: (params, "plus"),
    "s-minus-gains-a-j-covector": lambda params: (params, "minus"),
    "hermite-gamma-sign": lambda params: (x1_x3_span(params),),
    "wall-degree-without-the-relation-coefficient":
        lambda params: (sigma_of(params.p, params.q, params.a),),
}

# the faults no row sees today, each with the ROADMAP item that makes its
# row see it
SURVIVORS = {
    "k-degrees-scaled-at-b-2": 9,
    "slice-twist-another-unit": 9,
}


@pytest.mark.parametrize("fault", FAULTS)
def test_each_fault_changes_its_function_on_the_grid(fault):
    # so that a strict xfail below fails for the fault, not for a mutant
    # that changes nothing; each call gets fresh params, as the values are
    # kept on the params object.  An outcome is the value or the type of
    # the exception, so a mutant that raises where the original returns (a
    # failed check, a division by zero) changes it, and a call that raises
    # the same way for both (a missing CALLS entry) does not
    module, name, old, new, _ = FAULTS[fault]
    original, faulty = getattr(module, name), mutant(module, name, old, new)
    call = CALLS.get(fault, lambda params: (params,))
    changed = 0
    for t in iter_instances(*GRID):
        if t.b >= 1:
            fresh = derive_params(t.p, t.q, t.m)
            changed += outcome(faulty, *call(fresh)) != outcome(original, *call(t))
    assert changed > 0


@pytest.mark.parametrize("fault", [
    pytest.param(fault, marks=pytest.mark.xfail(
        strict=True, reason=f"no row sees it before ROADMAP item {SURVIVORS[fault]}"))
    if fault in SURVIVORS else fault
    for fault in FAULTS
])
def test_the_rows_that_see_a_fault_fail(monkeypatch, fault):
    module, name, old, new, rows = FAULTS[fault]
    original, faulty = getattr(module, name), mutant(module, name, old, new)
    for held in [m for key, m in sys.modules.items() if key.partition(".")[0] == "sl2flip"]:
        if getattr(held, name, None) is original:
            monkeypatch.setattr(held, name, faulty)
    assert failing_rows() == rows
