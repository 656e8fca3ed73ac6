"""One benchmark round in a fresh process.

    python bench/round.py --workload NAME --seed N --round R [--quick]
                          [--trace FILE]

Runs round R of the workload's set-up, timed work and correctness check and
prints one JSON object as the last line of standard output.  With
``--trace FILE`` the layer wrappers are installed before set-up, the
spans are written to FILE, and the object carries the per-layer
metrics.  ``run.py`` starts one of these per round.
"""

import time

T0 = time.perf_counter()  # before any other import: set-up starts here

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from bench.trace import Tracer, layer_metrics  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--trace", metavar="FILE")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    phase = tracer.span if tracer else (lambda _name: nullcontext())
    if tracer:
        tracer.install()
    try:
        with phase("bench.round"):
            with phase("bench.setup"):
                state = workload.setup(args.seed, args.round, args.quick)
            setup_s = time.perf_counter() - T0
            with phase("bench.work"):
                work = workload.work(state)
            usage = resource.getrusage(resource.RUSAGE_SELF)
            with phase("bench.check"):
                check = workload.check(state, work)
    finally:
        if tracer:
            tracer.uninstall()

    out = {
        "setup_s": setup_s,
        "wall_s": work.wall_s,
        "latencies_ms": work.latencies_ms,
        "coverage_pct": work.coverage_pct,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "digests": [*work.digests.items(), *check.digests.items()],
        "rate_unit": work.rate_unit,
        "rate_items": work.rate_items,
        "attempted": check.attempted,
        "failed": check.failed,
        "failures": check.failures,
    }
    if tracer:
        work_idx = next(i for i, s in enumerate(tracer.spans)
                        if s[0] == "bench.work")
        out["layers"] = layer_metrics(tracer.spans, work_idx)
        tracer.dump(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
