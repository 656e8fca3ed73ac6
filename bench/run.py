"""Run the repository benchmark.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--trace 0|1]
                         [--quick] [--out DIR]

Without ``--workload`` every workload in ``BENCHMARK.json`` runs, one
after another.  Each round is a fresh ``python`` process
(``bench/round.py``) and rounds run one at a time, so at most one core
is busy.  Rounds repeat until ``run_seconds`` of ``BENCHMARK.json`` have
passed (at least four rounds); ``--quick`` runs one round of shrunken
inputs.  The run length belongs to the benchmark, so that two commits
are measured alike: ``--seconds`` is accepted only with that value.

``--trace 0`` reports the end-to-end metrics: medians over rounds, and
percentiles over every latency sample of the run.  ``--trace 1`` runs
pairs of an untraced and a traced round on the same inputs, at least
one and no more than fit in the run length, and reports the per-layer
metrics (medians over traced rounds) plus the tracing overhead; the
last traced round's spans go to ``<out>/trace-<workload>.json``.

Every metric is printed by name with its unit, the result with its
provenance and per-round samples is written to ``<out>``, and the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 1 when a correctness check failed and 2 when a round
could not run (for example without ``src/``); no result is printed then.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Every untraced run makes at least this many rounds, and coverage is
#: averaged over exactly these: coverage depends on the inputs only, so
#: it must not depend on how many rounds the host's speed let fit.
MIN_ROUNDS = 4
ROUND_TIMEOUT_S = 120


class RoundError(RuntimeError):
    """A round process failed or printed no result."""


def percentile(values, p: int) -> float:
    """The ``p``-th percentile (1..99), interpolated between ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_round(workload: str, seed: int, rnd: int, *, quick: bool,
              trace_file: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), "--round", str(rnd)]
    if quick:
        cmd.append("--quick")
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{workload} round timed out after "
                         f"{ROUND_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"{workload} round exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_workload(workload: str, tail: int, seed: int, seconds: float, *,
                 trace: bool, quick: bool, out: Path) -> dict:
    """Run rounds of one workload; returns its entry in the result."""
    min_rounds = 1 if quick or trace else MIN_ROUNDS
    untraced, traced = [], []
    start = time.perf_counter()
    # Untraced rounds start until ``seconds`` have passed; a traced run
    # does not start a pair that would end after them.
    pair_s = 0.0
    while (len(untraced) < min_rounds
           or not quick and time.perf_counter() - start + pair_s < seconds):
        t0 = time.perf_counter()
        untraced.append(run_round(workload, seed, len(untraced),
                                  quick=quick))
        if trace:
            # The traced round repeats the untraced one's inputs.
            traced.append(run_round(
                workload, seed, len(untraced) - 1, quick=quick,
                trace_file=out / f"trace-{workload}.json"))
            pair_s = time.perf_counter() - t0
    rounds = untraced + traced

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    # A unit (suite, fuzz case) seen in two rounds must not differ.
    seen: dict = {}
    for i, r in enumerate(rounds):
        for unit, digest in r["digests"]:
            if unit in seen:
                attempted += 1
                if seen[unit] != digest:
                    failed += 1
                    failures.append(f"round {i}: {unit} differs from an "
                                    "earlier round")
            seen.setdefault(unit, digest)

    latencies = [g for r in untraced for g in r["latencies_ms"]]
    tail_ms = percentile(latencies, tail)
    med = statistics.median
    if trace:
        metrics = {name: med(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_frac"] = med(
            t["wall_s"] / u["wall_s"] - 1.0 for u, t in zip(untraced, traced))
    else:
        metrics = {
            "setup_s": med(r["setup_s"] for r in untraced),
            "wall_s": med(r["wall_s"] for r in untraced),
            "latency_p50_ms": med(latencies),
            "latency_tail_ms": tail_ms,
            "coverage_pct": statistics.fmean(
                r["coverage_pct"] for r in untraced[:MIN_ROUNDS]),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
        }
    return {
        "metrics": metrics,
        "rate": {"value": sum(r["rate_items"] for r in untraced)
                 / sum(r["wall_s"] for r in untraced),
                 "unit": untraced[0]["rate_unit"]},
        "latency": {"samples": len(latencies), "tail_percentile": tail,
                    "beyond_tail": sum(1 for g in latencies if g > tail_ms)},
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "rounds": [{k: v for k, v in r.items() if k != "digests"}
                   | {"traced": "layers" in r,
                      "latencies_ms": [round(x, 4) for x in r["latencies_ms"]]}
                   for r in rounds],
    }


def provenance(args, seconds) -> dict:
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", *cmd], cwd=ROOT, text=True,
                                  capture_output=True, timeout=30).stdout
        commit = git("rev-parse", "HEAD").strip() or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no")
                     .strip())
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": seconds,
        "trace": bool(args.trace),
        "quick": args.quick,
        "started_unix_s": time.time(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="must equal run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one round of shrunken inputs (smoke test)")
    ap.add_argument("--out", type=Path, default=HERE / "out")
    args = ap.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        ap.error(f"--seconds must be {spec['run_seconds']}, the run length "
                 "BENCHMARK.json fixes for every commit")
    workloads = args.workload or names
    args.out.mkdir(parents=True, exist_ok=True)

    # Byte-compile once up front: users do not pay that on every run.
    compileall.compile_dir(ROOT / "src", quiet=2)
    sys.path[0] = str(ROOT)
    from bench.workloads import WORKLOADS

    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {"provenance": provenance(args, spec["run_seconds"]),
              "workloads": {}}
    try:
        for name in workloads:
            result["workloads"][name] = run_workload(
                name, WORKLOADS[name].tail, args.seed, spec["run_seconds"],
                trace=bool(args.trace), quick=args.quick, out=args.out)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, entry in result["workloads"].items():
        prefix = f"{name}/" if len(workloads) > 1 else ""
        for metric, unit in units.items():
            value = entry["metrics"][metric]
            summary["metrics"][prefix + metric] = {"value": value,
                                                   "unit": unit}
            print(f"{name:18} {metric:32} {value:14.6f} {unit}")
        if not args.trace:
            lat = entry["latency"]
            rate = entry["rate"]
            print(f"{name:18} {'rate':32} {rate['value']:14.3f} "
                  f"{rate['unit']}")
            print(f"{name:18} rounds {len(entry['rounds'])}, latency "
                  f"samples {lat['samples']}, tail p{lat['tail_percentile']}"
                  f" with {lat['beyond_tail']} beyond")
        print(f"{name:18} checks {entry['attempted'] - entry['failed']}/"
              f"{entry['attempted']} passed")
        for failure in entry["failures"]:
            print(f"{name:18} FAILED {failure}")
        summary["attempted"] += entry["attempted"]
        summary["failed"] += entry["failed"]
    summary["correct"] = summary["failed"] == 0

    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = (args.out
            / f"run-{stamp}-s{args.seed}-t{args.trace}-{os.getpid()}.json")
    path.write_text(json.dumps(result) + "\n")
    print(f"result: {path}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
