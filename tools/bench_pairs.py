"""Run the benchmark on two commits in alternating pairs and write a record.

Usage (from the root of a git checkout):

    python3 tools/bench_pairs.py --out BENCH_11.json --pairs 10 --first-seed 11 \
        [--workloads products ...] [--parent HEAD~1] [--change HEAD] \
        [--trace-seed 5] [--tier1]

Both commits are exported with `git archive` into a new temporary directory,
so each side runs `bench/run.py` from its own committed files, as a clean
checkout would.  The workloads (all by default) and the run length come from
the change's BENCHMARK.json.  Pair i runs seed first_seed + i on both sides;
the parent runs first in even pairs and the change in odd ones.  For each
workload and side the record keeps every run and the median and quartiles of
each end-to-end metric, counts the pairs in which the change reads
better, and keeps each pair's change/parent ratio of every end-to-end
metric with their median.  Each workload's entry also keeps the argv of the
run that wrote it, its first seed and its pair count.  Records written
before these were added are left as they are.  --trace-seed adds one traced
run per workload and side (the per-layer metrics); --tier1 runs the tier-1
tests on each side and records their exit status, and their wall time only
when they pass.  An existing record of the same two commits is updated in
place: the workloads run now replace their earlier entries, and the others
are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Write the files of rev into dest; return its full sha."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in (checkout / "src" / "stiefel").glob("*.py"))


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One bench/run.py run; its last stdout line is the result object."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=checkout, check=True, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def tier1(checkout: Path) -> dict:
    """Exit status and summary line of the tier-1 test run, and its wall
    time if it passed."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    out = {"tier1_exit": proc.returncode, "tier1_summary": proc.stdout.strip().splitlines()[-1]}
    if proc.returncode == 0:
        out["tier1_s"] = seconds
    return out


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the runs."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def ratio(change: float, parent: float) -> float | None:
    """change / parent, or None when the parent reads 0."""
    return change / parent if parent else None


def compare(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per side, the summary of each end-to-end metric; per metric, the
    pairs in which the change reads better (ties count for neither), each
    pair's change/parent ratio and the median of those ratios."""
    out = {side: {name: summary([r["metrics"][name] for r in runs[side]]) for name in better}
           for side in SIDES}
    for side in SIDES:
        out[side]["failed"] = [r["failed"] for r in runs[side]]
        out[side]["attempted"] = [r["attempted"] for r in runs[side]]
    sign = {"higher": 1, "lower": -1}
    out["change_better_pairs"] = {
        name: sum(1 for p, c in zip(runs["parent"], runs["change"])
                  if sign[way] * (c["metrics"][name] - p["metrics"][name]) > 0)
        for name, way in better.items()}
    out["pair_ratios"] = {
        name: [ratio(c["metrics"][name], p["metrics"][name])
               for p, c in zip(runs["parent"], runs["change"])]
        for name in better}
    out["median_ratio"] = {
        name: statistics.median(defined) if (defined := [r for r in ratios if r is not None])
        else None
        for name, ratios in out["pair_ratios"].items()}
    out["pairs"] = len(runs["parent"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", nargs="+", help="default: every workload")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--tier1", action="store_true")
    args = parser.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else list(argv)
    spec = json.loads(git("show", f"{args.change}:BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    if unknown := set(args.workloads or ()) - set(names):
        parser.error(f"unknown workloads {sorted(unknown)}; BENCHMARK.json has {names}")
    args.workloads = args.workloads or names
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as work:
        record_pairs(args, spec, Path(work))
    return 0


def record_pairs(args: argparse.Namespace, spec: dict, work: Path) -> None:
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    dirs = {side: work / side for side in SIDES}
    shas = {side: export(rev, dirs[side])
            for side, rev in zip(SIDES, (args.parent, args.change))}

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    if {side: record.get("sides", {}).get(side, {}).get("git_sha") for side in SIDES} != shas:
        record = {"workloads": {}}  # a record of other commits is replaced, not merged
    record.update({
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": platform.platform(),
        "seconds": seconds,
        "sides": {side: dict(record.get("sides", {}).get(side, {}), git_sha=shas[side],
                             src_lines=src_lines(dirs[side])) for side in SIDES},
    })
    if args.tier1:
        for side in SIDES:
            record["sides"][side].pop("tier1_s", None)  # an earlier run's time
            record["sides"][side].update(tier1(dirs[side]))
            print(side, record["sides"][side]["tier1_summary"], flush=True)

    for workload in args.workloads:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                run = bench(dirs[side], workload, args.first_seed + i, seconds, False)
                runs[side].append(run)
                print(workload, args.first_seed + i, side,
                      f"ops_per_s {run['metrics']['ops_per_s']:.2f}", flush=True)
        entry = compare(runs, better)
        entry.update(argv=args.argv, first_seed=args.first_seed)
        if args.trace_seed is not None:
            entry["traced"] = {side: bench(dirs[side], workload, args.trace_seed,
                                           seconds, True) for side in SIDES}
        record["workloads"][workload] = entry
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
