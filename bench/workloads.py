"""Seeded argv lists for the four benchmark workloads.

A workload is a fixed set of CLI calls, its pass.  The seed draws the
seeded parts of the calls (text or JSON rendering, the custom GIT
character) and the order of every pass, so the same seed gives the same
calls and every seed gives a pass of the same composition.  That keeps
runs with different seeds comparable: sampling a subset of a grid instead
would let one heavy instance decide a run's throughput.  A run repeats the
pass in new orders, so each call is timed once per pass.

report_sweep     every instance with q <= 9, m <= 8 (224 calls of `info`,
                 alternating --json and text).  b = 0, b = 1 and b >= 2 all
                 occur; 34 instances end in the budget RuntimeError.
hilbert_scaling  heights 1/2, 2/5, 5/8, 7/19 on the ladder m = 24, 48, 96;
                 per instance `hilbert plus|minus|prime` then `degeneration`,
                 four calls on the same instance in a row.
git_loci         half of the instances with q <= 13, m <= 10, b >= 1: every
                 other height for each (q, m), so a pass is short enough to
                 repeat within a run.  Left out before halving are q - p = 1
                 with m >= 9, which take 25 of the whole grid's 40 s (12/13
                 m=10 alone 7.4 s), more than a run.
                 Per instance `git` for plus, minus, trivial and one custom
                 character, the character of a seeded 0/1 monomial, so a
                 witness of it exists and its finite part is usually nonzero.
verify_sweep     `verify --qmax Q --mmax M` for Q = 1..5, M = 5..8; every
                 grid contains m = 5, where the budget leaves git-loci
                 undecided.
"""

from __future__ import annotations

import random
from math import gcd

WORKLOADS = ("report_sweep", "hilbert_scaling", "git_loci", "verify_sweep")

HILBERT_HEIGHTS = ((1, 2), (2, 5), (5, 8), (7, 19))
HILBERT_LADDER = (24, 48, 96)

# The percentile reported as op_tail_ms: the highest of 50, 75, 90 and 95
# with at least ten calls beyond it in one pass, so every run qualifies.
# Beyond 95 the tail of git_loci rests on a score of calls and moved by
# more than its bound from one seed to the next.
TAIL_PERCENTILE = {
    "report_sweep": 95,
    "hilbert_scaling": 75,
    "git_loci": 95,
    "verify_sweep": 50,
}


def instances(qmax: int, mmax: int):
    """(p, q, m) with 0 < p <= q <= qmax coprime and m <= mmax."""
    for q in range(1, qmax + 1):
        for p in range(1, q + 1):
            if gcd(p, q) == 1:
                for m in range(1, mmax + 1):
                    yield p, q, m


def _monomial_character(rng: random.Random, p: int, q: int, m: int) -> str:
    k = gcd(q - p, m)
    a = m // k
    torus_weights = (k, -p, -p, q, q)
    finite_weights = (0, -1, -1, 1, 1)
    while True:
        exps = [rng.randrange(2) for _ in range(5)]
        torus = sum(e * w for e, w in zip(exps, torus_weights))
        if torus:
            finite = sum(e * w for e, w in zip(exps, finite_weights)) % a
            return f"{torus},{finite}"


def _report_groups(rng: random.Random) -> list[list[tuple[str, ...]]]:
    grid = list(instances(9, 8))
    rng.shuffle(grid)
    return [
        [("info", f"{p}/{q}", str(m)) + (("--json",) if i % 2 == 0 else ())]
        for i, (p, q, m) in enumerate(grid)
    ]


def _hilbert_groups(rng: random.Random) -> list[list[tuple[str, ...]]]:
    groups = []
    for p, q in HILBERT_HEIGHTS:
        for m in HILBERT_LADDER:
            h = f"{p}/{q}"
            groups.append(
                [("hilbert", h, str(m), which, "--json") for which in ("plus", "minus", "prime")]
                + [("degeneration", h, str(m), "--json")]
            )
    return groups


def _git_groups(rng: random.Random) -> list[list[tuple[str, ...]]]:
    grid = sorted(
        (q, m, p) for p, q, m in instances(13, 10) if p < q and not (q - p == 1 and m >= 9)
    )
    return [
        [
            ("git", f"{p}/{q}", str(m), "--json", "--", character)
            for character in ("plus", "minus", "trivial", _monomial_character(rng, p, q, m))
        ]
        for q, m, p in grid[::2]
    ]


def _verify_groups(rng: random.Random) -> list[list[tuple[str, ...]]]:
    return [
        [("verify", "--qmax", str(qmax), "--mmax", str(mmax))]
        for qmax in range(1, 6)
        for mmax in range(5, 9)
    ]


_GROUPS = {
    "report_sweep": _report_groups,
    "hilbert_scaling": _hilbert_groups,
    "git_loci": _git_groups,
    "verify_sweep": _verify_groups,
}


def passes(workload: str, seed: int):
    """Endless sequence of passes for one seed: the same calls each time,
    in a new order; the calls on one instance stay together and in order."""
    rng = random.Random(f"{workload}:{seed}")
    groups = _GROUPS[workload](rng)
    while True:
        rng.shuffle(groups)
        yield [argv for group in groups for argv in group]
