"""Benchmark of the sl2flip command line, driven in process.

    python3 bench/run.py --workload report_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  One caller in one process calls sl2flip.cli.main(argv) in a closed
loop, with no other threads: each call starts when the previous one has
returned.  The argv lists come from bench/workloads.py and the seed.  The
run repeats whole passes of the workload until --seconds have gone, checks
every output against closed forms (bench/checker.py) and prints a report,
then one JSON line with the metrics.  A record with the machine, the code
version and the stdout digest goes to bench/results/.

Timings are scaled to a reference CPU speed.  On a shared host the speed
of a CPU changes from one second to the next: a fixed loop took 24, 36 or
45 ms depending on when it ran, far more than the differences worth
measuring.  So a fixed calibration kernel, which does
not touch sl2flip, runs right before every call, and the call's time is
multiplied by REF_KERNEL_S over the kernel's time.  (The speed changes
within a second: scaling by the median of neighbouring kernel runs tracked
it worse than the kernel run next to the call.)  A time then reads as it
would on a machine where the kernel takes REF_KERNEL_S.  The unscaled
figures are kept in the record.

--trace 0 reports the end-to-end metrics.  --trace 1 measures the same way
with tracing off, then runs one more pass with every public function of the
six modules wrapped (bench/tracing.py) and reports the per-layer metrics and
the tracing overhead; the spans go to bench/results/ as JSON lines.

Exit status: 0 when every output is correct, 1 when one is wrong, 2 when
the checkout holds no sl2flip sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import marshal
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checker
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 9
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REF_KERNEL_S = 0.0004
REF_STARTUP_KERNEL_S = 0.004

# Which end-to-end metric each layer metric should move, and where; written
# into every result record.  "unchanged" lists the workloads where the
# layer is off the blocking path, so the prediction there is no change.
LAYER_EXPECTATIONS = [
    {
        "layer": ["cli.self_s", "cli.stdout_bytes"],
        "moves": ["op_p50_ms"],
        "on": ["report_sweep", "git_loci"],
        "unchanged": ["hilbert_scaling"],
    },
    {
        "layer": [
            "sl2core.self_s",
            "sl2core.flip_report.busy_s",
            "sl2core.slice_surfaces.busy_s",
            "sl2core.toric_degeneration.busy_s",
            "semigroup.hilbert_basis.distinct_ratio",
        ],
        "moves": ["ops_per_s"],
        "on": ["report_sweep", "verify_sweep"],
        "unchanged": ["git_loci"],
    },
    {
        "layer": [
            "semigroup.hilbert_basis.calls",
            "semigroup.hilbert_basis.busy_s",
            "semigroup.hilbert_basis.generators",
            "semigroup.hilbert_basis.us_per_generator",
            "semigroup.hilbert_basis.m_exponent",
            "semigroup.contains.calls",
            "semigroup.fiber_count.busy_s",
        ],
        "moves": ["ops_per_s", "op_tail_ms"],
        "on": ["hilbert_scaling", "report_sweep"],
        "unchanged": ["git_loci"],
    },
    {
        "layer": [
            "git.semistable_locus.busy_s",
            "git.undecided_patterns",
            "git.decided_ratio",
            "lattice.iter_bounded_diophantine.calls",
            "lattice.iter_bounded_diophantine.busy_s",
            "lattice.iter_bounded_diophantine.solutions",
            "git.stabilizer_of_support.busy_s",
            "git.u_invariant_exponents.busy_s",
        ],
        "moves": ["ops_per_s", "op_tail_ms", "answered_frac"],
        "on": ["git_loci", "report_sweep", "verify_sweep"],
        "unchanged": ["hilbert_scaling"],
    },
    {
        "layer": [
            "lattice.smith_normal_form.calls",
            "lattice.smith_normal_form.busy_s",
            "toricgeom.calls",
            "toricgeom.busy_s",
        ],
        "moves": ["ops_per_s"],
        "on": ["verify_sweep", "report_sweep"],
        "unchanged": [],
    },
]


def kernel_seconds() -> float:
    """Time one run of a fixed pure-Python kernel: tuples, dicts, sorting,
    Fractions and JSON, the operations sl2flip spends its time on."""
    t0 = perf_counter()
    table = {}
    acc = Fraction(0)
    for i in range(300):
        key = (i, i * 3 % 17, -i)
        table[key] = sorted(key)
        if i % 10 == 0:
            acc += Fraction(i, i % 7 + 1)
    json.dumps({str(k): v for k, v in list(table.items())[:50]})
    return perf_counter() - t0


def startup_kernel_seconds() -> float:
    """Time a fixed piece of what importing a module costs: compiling
    source, unmarshalling code and building dataclasses."""
    t0 = perf_counter()
    source = "from dataclasses import dataclass\n" + "".join(
        f"@dataclass(frozen=True)\nclass C{i}:\n    a: int\n    b: tuple\n"
        f"    def f(self, x):\n        return [y * self.a for y in x if y % 3]\n"
        for i in range(6)
    )
    code = compile(source, "<startup kernel>", "exec", dont_inherit=True)
    exec(marshal.loads(marshal.dumps(code)), {"__name__": "startup_kernel"})
    return perf_counter() - t0


SETUP_PROBE = """
import time
import sl2flip.cli
t = time.perf_counter()
import statistics, sys
sys.path.insert(0, sys.argv[1])
from run import startup_kernel_seconds
print(t, statistics.median(startup_kernel_seconds() for _ in range(5)))
"""


def measure_setup(repeats: int) -> tuple[float, float]:
    """Median time from starting a fresh interpreter until it has imported
    sl2flip.cli, scaled and unscaled.  perf_counter is one system-wide
    clock, so the child reports when its import ended.  The child also
    times the startup kernel, since it may run on the other CPU; start-up
    follows the CPU's speed like compiling does, not like kernel_seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", SETUP_PROBE, str(Path(__file__).resolve().parent)]
    subprocess.run(cmd, env=env, check=True, timeout=120, capture_output=True)  # caches bytecode
    raw, scaled = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        child = subprocess.run(
            cmd, env=env, check=True, timeout=120, capture_output=True, text=True
        )
        t_imported, kernel = (float(x) for x in child.stdout.split())
        raw.append(t_imported - t0)
        scaled.append((t_imported - t0) * REF_STARTUP_KERNEL_S / kernel)
    return statistics.median(scaled), statistics.median(raw)


class Run:
    """Calls and outcomes of one measurement."""

    def __init__(self):
        self.argvs: list[tuple[str, ...]] = []
        self.times: list[float] = []
        self.kernel: list[float] = []  # kernel_seconds() before each call
        self.outcomes: Counter = Counter()
        self.failures: list[str] = []
        self.stdout_bytes = 0
        self.digest = hashlib.sha256()
        self.passes = 0

    def call(self, cli, argv, tracer=None, digest=False) -> None:
        out, err = io.StringIO(), io.StringIO()
        rc, exc = None, None
        if tracer is not None:
            tracer.op = len(self.times)
        self.kernel.append(kernel_seconds())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = cli.main(list(argv))
            except Exception as caught:  # classified by the checker
                exc = caught
            dt = perf_counter() - t0
        self.argvs.append(argv)
        self.times.append(dt)
        text = out.getvalue()
        self.stdout_bytes += len(text.encode())
        if digest:
            self.digest.update(json.dumps([argv, rc, text]).encode())
        status, reason = checker.check_op(argv, rc, text, err.getvalue(), exc)
        self.outcomes[status] += 1
        if status == "failed" and len(self.failures) < 10:
            self.failures.append(f"{' '.join(argv)}: {reason}")

    def scaled_times(self) -> list[float]:
        """Call times at the reference speed."""
        return [t * REF_KERNEL_S / k for t, k in zip(self.times, self.kernel)]

    def per_call(self, times: list[float]) -> list[float]:
        """Median time of each distinct call over the passes."""
        by_call: dict[tuple[str, ...], list[float]] = {}
        for argv, t in zip(self.argvs, times):
            by_call.setdefault(argv, []).append(t)
        return [statistics.median(ts) for ts in by_call.values()]


def percentile(values: list[float], pct: float) -> float:
    """Percentile with linear interpolation between the closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(cli, workload: str, seed: int, seconds: float, limit: int | None = None) -> Run:
    """Whole passes until the next one would end past `seconds`."""
    run = Run()
    pass_times = []
    t_start = perf_counter()
    for ops in workloads.passes(workload, seed):
        t_pass = perf_counter()
        for argv in ops[:limit]:
            run.call(cli, argv, digest=run.passes == 0)
        run.passes += 1
        pass_times.append(perf_counter() - t_pass)
        if perf_counter() - t_start + statistics.mean(pass_times) / 2 >= seconds:
            return run
    raise AssertionError("passes() is endless")


def ops_per_s(per_call: list[float]) -> float:
    return len(per_call) / sum(per_call)


def end_to_end(run: Run, times: list[float], workload: str, setup_s: float) -> dict[str, float]:
    """Throughput and latency of one pass with each call at its median time."""
    per_call = run.per_call(times)
    pct = workloads.TAIL_PERCENTILE[workload]
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(per_call),
        "op_p50_ms": percentile(per_call, 50) * 1e3,
        "op_tail_ms": percentile(per_call, pct) * 1e3,
        "answered_frac": run.outcomes["ok"] / len(run.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass(package, cli, workload: str, seed: int, limit: int | None):
    tracer = tracing.Tracer()
    run = Run()
    ops = next(workloads.passes(workload, seed))[:limit]
    tracer.install(package)
    try:
        for argv in ops:
            run.call(cli, argv, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer, run


def per_layer(tracer, traced: Run, untraced: Run) -> dict[str, float]:
    metrics = tracer.layer_metrics()
    metrics["cli.stdout_bytes"] = traced.stdout_bytes
    metrics["trace.spans"] = len(tracer.spans)
    traced_ops_per_s = ops_per_s(traced.per_call(traced.scaled_times()))
    untraced_ops_per_s = ops_per_s(untraced.per_call(untraced.scaled_times()))
    metrics["trace.ops_per_s"] = traced_ops_per_s
    metrics["trace.overhead"] = untraced_ops_per_s / traced_ops_per_s
    return metrics


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def run_benchmark(workload: str, seed: int, seconds: float, traced: bool,
                  limit: int | None = None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Measure one workload; return the full result record."""
    setup_s, setup_raw_s = measure_setup(setup_repeats)
    sys.path.insert(0, str(SRC))
    import sl2flip
    import sl2flip.cli as cli

    run = measure(cli, workload, seed, seconds, limit)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        **machine(),
        "ops": len(run.times),
        "passes": run.passes,
        "outcomes": {k: run.outcomes[k] for k in ("ok", "undecided", "failed")},
        "failures": run.failures,
        "stdout_sha256": run.digest.hexdigest(),
        "tail_percentile": workloads.TAIL_PERCENTILE[workload],
        "tail_samples": len(set(run.argvs)),
    }
    if not traced:
        values = end_to_end(run, run.scaled_times(), workload, setup_s)
        record["unscaled"] = end_to_end(run, run.times, workload, setup_raw_s)
    else:
        tracer, traced_run = traced_pass(sl2flip, cli, workload, seed, limit)
        values = per_layer(tracer, traced_run, run)
        record["traced_ops"] = len(traced_run.times)
        record["traced_outcomes"] = dict(traced_run.outcomes)
        record["failures"] += traced_run.failures
        record["outcomes"]["failed"] += traced_run.outcomes["failed"]
        record["layer_expectations"] = LAYER_EXPECTATIONS
        record["spans"] = tracer
    spec = SPEC["per_layer" if traced else "end_to_end"]
    if set(values) != {m["name"] for m in spec}:
        raise ValueError(f"metrics differ from BENCHMARK.json: {sorted(set(values))}")
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return record


def report(record: dict) -> None:
    outcomes = record["outcomes"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"ops {record['ops']} in {record['passes']} passes  "
        f"ok {outcomes['ok']}  undecided {outcomes['undecided']}  failed {outcomes['failed']}"
    )
    print(
        f"git {record['git_sha']}  python {record['python']}  nproc {record['nproc']}  "
        f"cpu {record['cpu']}"
    )
    print(f"stdout sha256 (first pass) {record['stdout_sha256']}")
    for name, metric in record["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{record['tail_percentile']} of {record['tail_samples']} distinct calls)"
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}{note}")
    for failure in record["failures"]:
        print(f"WRONG {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sl2flip" / "cli.py").is_file():
        print(f"no sl2flip sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("SL2FLIP_NMAX", "SL2FLIP_BOX"):
        os.environ.pop(var, None)  # the calls must see the documented defaults

    t_origin = perf_counter()
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("spans", None)
    if tracer is not None:
        record["spans_file"] = f"{stem}.spans.jsonl"
        tracer.write(str(RESULTS / record["spans_file"]), t_origin)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    report(record)
    failed = record["outcomes"]["failed"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": record["ops"] + record.get("traced_ops", 0),
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
