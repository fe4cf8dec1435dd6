"""Benchmark of the stiefel package, driven from outside the package.

Usage (from the root of a checkout):

    python3 bench/run.py --workload products --seed 1 --seconds 20 --trace 0

Workloads are products, steenrod, pieces and cli (see BENCHMARK.json and
bench/NOTES.md).  Each run imports the package from this checkout's src/,
builds its seeded inputs, runs one operation at a time (a closed loop with
one client) in passes over a pool of operations for the given seconds and
at least MIN_PASSES passes, then checks every distinct output.  Times are
scaled to a nominal host speed (see NOMINAL_YARDSTICK_S).  Human-readable
lines go to stdout first; the last line is one JSON object with the keys
correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the run
first measures half the time untraced, then replays the same operations
with timing wrappers on the package's layers, and reports per-layer
metrics (sums are per operation) and the tracing overhead.  A JSON record
with provenance, the strata and the spans goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BENCHMARK = ROOT / "BENCHMARK.json"

MIN_PASSES = 3       # every operation repeats, so that its median time discards bursts
MAX_PHASE_S = 100    # hard stop for one timed phase, whatever --seconds asks
SETUPS = 3           # set-up is repeated and its median reported
MODULES = ("coefficients", "algebra", "targets", "operations", "maps", "linalg",
           "serialize", "render", "suites")


class SetupError(Exception):
    pass


def load_package(with_cli: bool) -> SimpleNamespace:
    """Import stiefel from this checkout's src/, discarding earlier imports."""
    for name in [n for n in sys.modules if n == "stiefel" or n.startswith("stiefel.")]:
        del sys.modules[name]
    if not (SRC / "stiefel" / "__init__.py").is_file():
        raise SetupError(f"no stiefel package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("stiefel")
    if Path(pkg.__file__).resolve().parent != (SRC / "stiefel").resolve():
        raise SetupError(f"imported stiefel from {pkg.__file__}, not from {SRC}")
    names = MODULES + (("cli",) if with_cli else ())
    return SimpleNamespace(pkg=pkg, **{n: importlib.import_module(f"stiefel.{n}") for n in names})


# The host's speed drifts by up to 2x over minutes (its two cores are
# shared).  Every time is therefore reported at nominal speed: scaled by
# NOMINAL_YARDSTICK_S / (median time of a fixed pure-Python loop, run
# before each operation of the same phase).  The nominal value is the
# loop's time on this 2-core x86-64 host when quiet.  The loop never
# touches the stiefel package, so no change to the package moves it.  Raw
# values are printed alongside.
NOMINAL_YARDSTICK_S = 0.0015


def yardstick() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - start


def speed_scale(yardsticks: list[float]) -> float:
    """Factor from measured times to times at nominal host speed."""
    return NOMINAL_YARDSTICK_S / statistics.median(yardsticks)


def set_up(workload: str, seed: int, toy: bool):
    """Import and build the workload SETUPS times; return the last build,
    the set-up times (raw) and their median at nominal speed."""
    import workloads

    raw, nominal, built = [], [], None
    for _ in range(SETUPS):
        scale = speed_scale([yardstick() for _ in range(15)])
        start = time.perf_counter()
        S = load_package(with_cli=(workload == "cli"))
        built = workloads.BUILDERS[workload](S, seed, toy=toy)
        raw.append(time.perf_counter() - start)
        nominal.append(raw[-1] * scale)
    return S, built, statistics.median(nominal), raw


# ------------------------------------------------------------------ timing

class Outcomes:
    """Per-run bookkeeping of attempts, failures and outputs.

    The first output of each distinct operation is kept and checked after
    the timed phases; every later execution must reproduce it.
    """

    def __init__(self, ops):
        self.ops = ops
        self.first: dict[int, object] = {}
        self.executions: dict[int, int] = {}
        self.failures: list[str] = []
        self.failed = 0
        self.attempted = 0
        self.known_hits: dict[int, str] = {}

    def record(self, index: int, output, error) -> None:
        self.attempted += 1
        self.executions[index] = self.executions.get(index, 0) + 1
        if error is not None:
            self.failed += 1
            self.failures.append(f"{self.ops[index].label}: raised {error!r}")
        elif index not in self.first:
            self.first[index] = output
        elif output != self.first[index]:
            self.failed += 1
            self.failures.append(f"{self.ops[index].label}: output changed between runs")

    def check_all(self) -> None:
        for index, output in self.first.items():
            op = self.ops[index]
            try:
                problem = op.check(output)
            except Exception as exc:  # a crashing check is a failed check
                problem = f"check raised {exc!r}"
            if problem is None:
                continue
            if op.known_defect is not None:
                self.known_hits[index] = op.known_defect
                continue
            self.failed += self.executions[index]
            self.failures.append(f"{op.label}: {problem}")

    def known_defect_counts(self) -> tuple[int, int]:
        """(executions that hit a known defect, executions of malformed requests)."""
        hit = sum(self.executions[i] for i in self.known_hits)
        total = sum(n for i, n in self.executions.items() if self.ops[i].malformed)
        return hit, total

    def violation_ratio(self) -> float:
        hit, total = self.known_defect_counts()
        return hit / total if total else 0.0


def timed_phase(calls, outcomes: Outcomes, seconds: float, min_passes: int,
                passes: int | None = None, wrap=None) -> "Latency":
    """Run the pool calls[0], calls[1], ... in passes, one call at a time,
    each preceded by the yardstick.

    Stops at the end of a pass: after `passes` passes when given, else at
    the pass boundary nearest to `seconds` once `min_passes` are done."""
    clock = time.perf_counter
    latencies: list[list[float]] = [[] for _ in calls]
    yardsticks: list[float] = []
    start = clock()
    done = 0
    while True:
        for index, call in enumerate(calls):
            if wrap is not None:
                call = (lambda c=call: wrap(c))
            yardsticks.append(yardstick())
            t0 = clock()
            try:
                output, error = call(), None
            except Exception as exc:  # an operation that raises is a failed operation
                output, error = None, exc
            latencies[index].append(clock() - t0)
            outcomes.record(index, output, error)
        done += 1
        elapsed = clock() - start
        if passes is not None:
            if done >= passes:
                break
        elif done >= min_passes and elapsed + elapsed / done / 2 >= seconds:
            break  # the pass boundary nearest to `seconds`
        elif elapsed >= MAX_PHASE_S:
            break
    return Latency(latencies, speed_scale(yardsticks), done)


class Latency:
    """Latency statistics robust to the host's noise, at nominal speed.

    Each operation's time is the median over its repeats in the run, scaled
    to nominal speed.  The percentiles are over all executions, each counted
    at its operation's time; ops_per_s is one pass over the pool at those
    times."""

    def __init__(self, latencies: list[list[float]], scale: float, passes: int):
        self.passes = passes
        self.scale = scale
        self.medians = [statistics.median(times) * scale for times in latencies]
        self.samples = sorted(m for m, times in zip(self.medians, latencies) for _ in times)
        self.executions = len(self.samples)

    def percentile(self, q: int) -> float:
        return statistics.quantiles(self.samples, n=100, method="inclusive")[q - 1]

    def ops_per_s(self) -> float:
        return len(self.medians) / sum(self.medians)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def spawn_seconds(code: str, repeats: int = 7) -> float:
    """Median wall time of a child interpreter running `code`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -------------------------------------------------------------- provenance

def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "stiefel").glob("*.py"))
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": platform.platform(),
        "src_lines": src_lines,
    }


# -------------------------------------------------------------------- runs

def end_to_end(built, seconds: float, min_passes: int):
    outcomes = Outcomes(built.ops)
    latency = timed_phase([op.run for op in built.ops], outcomes, seconds, min_passes)
    outcomes.check_all()
    p90 = latency.percentile(90)
    metrics = {
        "setup_s": None,  # filled in by the caller
        "ops_per_s": latency.ops_per_s(),
        "latency_p50_ms": latency.percentile(50) * 1000,
        "latency_p90_ms": p90 * 1000,
        "peak_rss_mb": peak_rss_mb(built.spawns),
    }
    info = {
        "samples": latency.executions,
        "distinct": len(latency.medians),
        "passes": latency.passes,
        "beyond_p90": sum(1 for t in latency.samples if t > p90),
        "speed_scale": latency.scale,
        "raw_ops_per_s": latency.ops_per_s() * latency.scale,
    }
    return outcomes, metrics, info


def traced(built, S, seconds: float, min_passes: int):
    import tracing

    calls = [op.inproc or op.run for op in built.ops]
    outcomes = Outcomes(built.ops)
    plain = timed_phase(calls, outcomes, seconds / 2, min_passes)
    tracer = tracing.Tracer()
    root = "cli.command" if built.name == "cli" else "bench.op"
    tracer.install(S)
    try:
        with_trace = timed_phase(calls, outcomes, 0, 0, passes=plain.passes,
                                 wrap=lambda call: tracer.span(root, call))
    finally:
        tracer.remove()
    outcomes.check_all()
    metrics = tracer.metrics(with_trace.executions, with_trace.scale)
    metrics["trace.untraced_ops_per_s"] = plain.ops_per_s()
    metrics["trace.ops_per_s"] = with_trace.ops_per_s()
    metrics["trace.overhead_pct"] = (plain.ops_per_s() / with_trace.ops_per_s() - 1) * 100
    if built.spawns:
        scale = speed_scale([yardstick() for _ in range(15)])
        interpreter = spawn_seconds("pass")
        metrics["cli.interpreter_s"] = interpreter * scale
        metrics["cli.import_s"] = (spawn_seconds("import stiefel.cli") - interpreter) * scale
    else:
        metrics["cli.interpreter_s"] = 0.0
        metrics["cli.import_s"] = 0.0
    metrics["cli.bad_input_violations"] = outcomes.violation_ratio()
    info = {"samples": with_trace.executions, "passes": with_trace.passes,
            "speed_scale": with_trace.scale, "spans": len(tracer.spans),
            "dropped_spans": tracer.dropped_spans}
    return outcomes, metrics, info, tracer.spans


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False,
        corrupt=None) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    corrupt, when given, is applied to the built workload before timing
    (the smoke test uses it to plant a wrong output)."""
    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    min_passes = 1 if toy else MIN_PASSES
    S, built, setup_s, setup_times = set_up(workload, seed, toy)
    if corrupt is not None:
        corrupt(built)
    print(f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}: "
          f"{len(built.ops)} distinct operations")
    prov = provenance()
    print("provenance " + json.dumps(prov))
    spans = []
    if trace:
        outcomes, metrics, info, spans = traced(built, S, seconds, min_passes)
    else:
        outcomes, metrics, info = end_to_end(built, seconds, min_passes)
        metrics["setup_s"] = setup_s
    units = declared_units(trace)
    missing = set(units) ^ set(metrics)
    if missing:
        raise SetupError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    hit, total = outcomes.known_defect_counts()
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"raw set-up times {setup_times!r} s; {info['samples']} executions in "
          f"{info['passes']} passes; speed scale {info['speed_scale']!r}"
          + (f"; {info['distinct']} distinct operations, {info['beyond_p90']} executions "
             f"beyond p90; raw ops_per_s {info['raw_ops_per_s']!r}"
             if "beyond_p90" in info else ""))
    print(f"failed_ratio {outcomes.failed}/{outcomes.attempted} = "
          f"{outcomes.failed / outcomes.attempted!r} ratio")
    if total:
        print(f"malformed requests breaking the exit-code contract: {hit}/{total} executions "
              f"= {outcomes.violation_ratio()!r}; known defects: "
              + "; ".join(sorted(set(outcomes.known_hits.values()))))
    for failure in outcomes.failures[:10]:
        print(f"FAILED {failure}")
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if not toy:
        OUT_DIR.mkdir(exist_ok=True)
        record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                      provenance=prov, setup_runs=setup_times, info=info,
                      known_defects={"hit": hit, "executions": total},
                      strata=[op.label for op in built.ops],
                      failures=outcomes.failures,
                      spans=[list(s) for s in spans])
        path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(record))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["products", "steenrod",
                                                              "pieces", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs and a single pass (for the smoke test)")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    except (SetupError, ImportError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
