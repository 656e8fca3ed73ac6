"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a result file written
by ``bench/run.py --trace 0`` or a directory of them.  Runs of one
workload are paired in the order they started.  For every end-to-end
metric of ``BENCHMARK.json`` and every workload the verdict is:

- ``worse``: B's runs failed more correctness checks on the workload
  than A's (a gain does not count then), or B's median is worse than
  A's by more than the metric's bound;
- ``improved``: at least 10 pairs, run in alternating order (each pair
  starts with the other side than the pair before), B better in at
  least 9 of every 10 pairs (ties count for neither), and the medians
  differ by more than A's interquartile range;
- ``unresolved``: A's or B's interquartile range, as a share of its
  median, is wider than the bound, unless every B run reads better
  than every A run;
- ``unchanged``: otherwise.

The exit code is 1 when any verdict is ``worse``, and 2 when the runs
cannot be compared: ``--quick`` runs, or sides whose run lengths differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(a, b, *, better: str, bound: float, alternating: bool = True,
            failed_a: int = 0, failed_b: int = 0) -> dict:
    """Judge change ``b`` against parent ``a`` (run values in start
    order, pair ``i`` being ``(a[i], b[i])``); ``failed_*`` are the
    correctness checks each side's runs failed."""
    sign = 1.0 if better == "higher" else -1.0

    def beats(x, y):
        return sign * (x - y) > 0

    ma, mb = statistics.median(a), statistics.median(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if beats(y, x))
    gain = sign * (mb - ma) / ma
    spread = max(iqr(a) / ma, iqr(b) / mb)
    if failed_b > failed_a or -gain > bound:
        status = "worse"
    elif (len(pairs) >= MIN_PAIRS and alternating
            and wins >= WIN_SHARE * len(pairs)
            and abs(mb - ma) > iqr(a) and gain > 0):
        status = "improved"
    elif spread > bound and not all(beats(y, x) for x in a for y in b):
        status = "unresolved"
    else:
        status = "unchanged"
    return {"status": status, "median_a": ma, "median_b": mb, "gain": gain,
            "spread": spread, "wins": wins, "pairs": len(pairs)}


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("run-*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    runs = [r for r in runs if not r["provenance"]["trace"]]
    return sorted(runs, key=lambda r: r["provenance"]["started_unix_s"])


def samples(runs, workload, metric):
    """(start time, value) of every run of ``workload``."""
    return [(r["provenance"]["started_unix_s"],
             r["workloads"][workload]["metrics"][metric])
            for r in runs if workload in r["workloads"]]


def failed(runs, workload) -> int:
    return sum(r["workloads"][workload]["failed"]
               for r in runs if workload in r["workloads"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="parent runs (file or directory)")
    ap.add_argument("b", type=Path, help="change runs (file or directory)")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    if any(r["provenance"]["quick"] for r in runs_a + runs_b):
        ap.error("--quick runs are smoke tests, not measurements")
    lengths = {r["provenance"]["seconds"] for r in runs_a + runs_b}
    if len(lengths) > 1:
        ap.error(f"runs of different lengths cannot be paired: "
                 f"{sorted(lengths)} s")

    worse = 0
    print(f"{'workload':18} {'metric':16} {'A median':>12} {'B median':>12}"
          f" {'gain':>8} {'spread':>7} {'bound':>6} {'wins':>7}"
          f" {'failed':>7}  verdict")
    for w in spec["workloads"]:
        fa, fb = failed(runs_a, w["name"]), failed(runs_b, w["name"])
        for m in spec["end_to_end"]:
            sa = samples(runs_a, w["name"], m["name"])
            sb = samples(runs_b, w["name"], m["name"])
            if not sa or not sb:
                continue
            firsts = [ta < tb for (ta, _), (tb, _) in zip(sa, sb)]
            alternating = all(x != y for x, y in zip(firsts, firsts[1:]))
            v = verdict([x for _, x in sa], [x for _, x in sb],
                        better=m["better"], bound=m["bound"],
                        alternating=alternating, failed_a=fa, failed_b=fb)
            worse += v["status"] == "worse"
            print(f"{w['name']:18} {m['name']:16} {v['median_a']:12.5g} "
                  f"{v['median_b']:12.5g} {v['gain']:+8.2%} "
                  f"{v['spread']:7.2%} {m['bound']:6.0%} "
                  f"{v['wins']:3}/{v['pairs']:<3} {fa:3}/{fb:<3}  "
                  f"{v['status']}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
