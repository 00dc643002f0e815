"""One fresh benchmark process: set up a workload, time passes, check them.

Started by ``run.py``.  It prints ``READY`` once the workload's first
timed operation can start (interpreter up, bellpath imported, inputs built,
wings listening), so the parent can time set-up from the outside.  With
``--role setup`` it stops there.  Otherwise it runs whole passes in a closed
loop until the next pass would end after ``--seconds``, checks the first
pass against the references and every later pass against the first, and
prints one JSON line with the pass times, counts and per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from tracing import Tracer, metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (imports bellpath)


def measure(wl, seconds: float, tracer: Tracer | None, trace_out: str | None) -> dict:
    pass_s, layer, errors = [], [], []
    attempted = failed = 0
    first = None
    deadline = perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.reset()
            tracer.enabled = True
        t0 = perf_counter()
        try:
            out = wl.run_pass()
        except Exception:
            traceback.print_exc()
            attempted += wl.ops_per_pass
            failed += wl.ops_per_pass
            break
        finally:
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
        wl.after_pass(out)
        attempted += wl.ops_per_pass
        failed += wl.failed(out)
        if first is None:
            errors += wl.check(out)
            first = wl.fingerprint(out)
            if tracer is not None and trace_out:
                tracer.dump(trace_out, {"pass_s": dt})
        elif wl.fingerprint(out) != first:
            errors.append(f"pass {len(pass_s)} outputs differ from pass 0")
        figures = wl.figures(out)
        if tracer is not None:
            figures.update(metrics(tracer.spans))
        pass_s.append(dt)
        layer.append(figures)
        if perf_counter() + dt > deadline:
            break
        wl.prepare_next()
    return {
        "pass_s": pass_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layer": {k: statistics.median(f[k] for f in layer) for k in (layer[0] if layer else {})},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("measure", "setup"), default="measure")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload](BENCH.parent, args.seed, Path(args.workdir))
    try:
        wl.setup()
        print("READY", flush=True)
        if args.role == "setup":
            return 0
        result = measure(wl, args.seconds, tracer, args.trace_out)
    finally:
        wl.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
