"""Spans around the public functions of sl2flip's six modules.

The tracer wraps every public module-level function of lattice, semigroup,
toricgeom, git, sl2core and cli from outside and rebinds each module's name
for it, because cli and sl2core hold their own bindings made by
`from ... import`.  A span is (name, start, end, parent, op id); it also
keeps the time spent inside the call (busy) and whether the call raised.
Spans stay in memory until the run writes them out.

iter_bounded_diophantine returns a generator: its span times only the
next() calls its consumer makes, and counts the values it yields.

Four leaf functions run in the innermost loops (det2, primitive, xgcd and
AffineSemigroup.contains).  A span per call would cost more than the call,
so they are only counted; their time is their caller's self time.
"""

from __future__ import annotations

import inspect
import json
import math
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("lattice", "semigroup", "toricgeom", "git", "sl2core", "cli")
COUNTED_ONLY = ("lattice.det2", "lattice.primitive", "lattice.xgcd")
GENERATORS = ("lattice.iter_bounded_diophantine",)

NAME, START, END, PARENT, OP, BUSY, ERROR, EXTRA = range(8)


def _observe_hilbert(args, result):
    semi = args[0]
    return semi, len(result.generators), semi.congruences[0][1]


def _observe_semistable(args, result):
    n = len(args[0].torus_weights)
    return n * (n + 1) // 2, len(result.undecided)


OBSERVERS = {
    "semigroup.hilbert_basis": _observe_hilbert,
    "git.semistable_locus": _observe_semistable,
}


class Tracer:
    """Spans and counts of one traced pass; install() patches sl2flip,
    uninstall() restores it.  The caller sets `op` before each CLI call."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name_id: int) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name_id, 0.0, 0.0, parent, self.op, 0.0, False, None])
        return idx

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        observe = OBSERVERS.get(name)

        if name in COUNTED_ONLY:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        if name in GENERATORS:
            def generator(*args, **kwargs):
                idx = self._span(name_id)
                spans[idx][EXTRA] = 0
                return self._drive(idx, fn(*args, **kwargs))

            return generator

        def call(*args, **kwargs):
            idx = self._span(name_id)
            rec = spans[idx]
            stack.append(idx)
            rec[START] = t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = t1 = perf_counter()
                rec[BUSY] = t1 - t0
                stack.pop()
            if observe is not None:
                rec[EXTRA] = observe(args, result)
            return result

        return call

    def _drive(self, idx: int, gen):
        rec = self.spans[idx]
        while True:
            self.stack.append(idx)
            t0 = perf_counter()
            if not rec[START]:
                rec[START] = t0
            try:
                value = next(gen)
            except StopIteration:
                return
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = t1 = perf_counter()
                rec[BUSY] += t1 - t0
                self.stack.pop()
            rec[EXTRA] += 1
            yield value

    # -- patching ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of the package's modules, rebinding
        every module's reference to each of them."""
        modules = {short: getattr(package, short) for short in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and callable(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        semi_cls = modules["semigroup"].AffineSemigroup
        self._restore.append((semi_cls, "contains", semi_cls.contains))
        counts, contains = self.counts, semi_cls.contains

        def counted_contains(self_, x):
            counts["semigroup.contains"] += 1
            return contains(self_, x)

        semi_cls.contains = counted_contains

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def write(self, path: str, t_origin: float) -> None:
        """One JSON array per line: name, start, end (seconds from
        t_origin), parent span index, op id."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for rec in self.spans:
                fh.write(
                    json.dumps(
                        [
                            rec[NAME],
                            round(rec[START] - t_origin, 7),
                            round(rec[END] - t_origin, 7),
                            rec[PARENT],
                            rec[OP],
                        ]
                    )
                    + "\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded."""
        names = self.names
        spans = self.spans
        module_of = [n.split(".")[0] for n in names]
        bit = {m: 1 << i for i, m in enumerate(MODULES)}
        child_busy = [0.0] * len(spans)
        above = [0] * len(spans)  # modules among a span's ancestors
        calls = Counter(self.counts)
        for mod_name in list(self.counts):
            calls[mod_name.split(".")[0]] += self.counts[mod_name]
        busy: defaultdict[str, float] = defaultdict(float)
        self_s: defaultdict[str, float] = defaultdict(float)
        errors: Counter = Counter()
        for idx, rec in enumerate(spans):
            parent = rec[PARENT]
            if parent >= 0:
                child_busy[parent] += rec[BUSY]
                above[idx] = above[parent] | bit[module_of[spans[parent][NAME]]]
        for idx, rec in enumerate(spans):
            name = names[rec[NAME]]
            mod = module_of[rec[NAME]]
            calls[name] += 1
            calls[mod] += 1
            if not above[idx] & bit[mod]:
                busy[mod] += rec[BUSY]
            parent = rec[PARENT]
            if parent < 0 or spans[parent][NAME] != rec[NAME]:
                busy[name] += rec[BUSY]
            self_s[mod] += rec[BUSY] - child_busy[idx]
            errors[mod] += rec[ERROR]

        out: dict[str, float] = {}
        for mod in MODULES:
            out[f"{mod}.calls"] = calls[mod]
            out[f"{mod}.busy_s"] = busy[mod]
            out[f"{mod}.self_s"] = self_s[mod]
            out[f"{mod}.errors"] = errors[mod]
        for name in (
            "sl2core.flip_report",
            "sl2core.slice_surfaces",
            "sl2core.toric_degeneration",
            "semigroup.fiber_count",
            "git.semistable_locus",
            "git.stabilizer_of_support",
            "git.u_invariant_exponents",
        ):
            out[f"{name}.busy_s"] = busy[name]
        for name in ("lattice.smith_normal_form", "lattice.iter_bounded_diophantine"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
        out["semigroup.contains.calls"] = calls["semigroup.contains"]

        hb_id = names.index("semigroup.hilbert_basis")
        hb = [rec for rec in spans if rec[NAME] == hb_id and rec[EXTRA] is not None]
        gens = sum(rec[EXTRA][1] for rec in hb)
        distinct = len({(rec[OP], rec[EXTRA][0]) for rec in hb})
        out["semigroup.hilbert_basis.calls"] = calls["semigroup.hilbert_basis"]
        out["semigroup.hilbert_basis.busy_s"] = busy["semigroup.hilbert_basis"]
        out["semigroup.hilbert_basis.generators"] = gens
        out["semigroup.hilbert_basis.us_per_generator"] = (
            busy["semigroup.hilbert_basis"] * 1e6 / gens if gens else 0.0
        )
        out["semigroup.hilbert_basis.distinct_ratio"] = distinct / len(hb) if hb else 0.0
        out["semigroup.hilbert_basis.m_exponent"] = _loglog_slope(
            [(rec[EXTRA][2], rec[BUSY]) for rec in hb]
        )

        sl_id = names.index("git.semistable_locus")
        sl = [rec[EXTRA] for rec in spans if rec[NAME] == sl_id and rec[EXTRA] is not None]
        attempted = sum(a for a, _ in sl)
        undecided = sum(u for _, u in sl)
        out["git.undecided_patterns"] = undecided
        out["git.decided_ratio"] = (attempted - undecided) / attempted if attempted else 0.0

        ibd_id = names.index("lattice.iter_bounded_diophantine")
        out["lattice.iter_bounded_diophantine.solutions"] = sum(
            rec[EXTRA] for rec in spans if rec[NAME] == ibd_id
        )
        return out


def _loglog_slope(samples: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(mean busy per call) against log(m)."""
    by_m: defaultdict[int, list[float]] = defaultdict(list)
    for m, t in samples:
        by_m[m].append(t)
    pts = [(math.log(m), math.log(sum(ts) / len(ts))) for m, ts in by_m.items() if sum(ts) > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0
