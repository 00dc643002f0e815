"""Benchmark entry point: one workload, several fresh processes, one JSON line.

    python3 perfbench/run.py --workload statistics --seed 1 --seconds 30 --trace 0

Run from the root of a bellpath checkout; the program is imported from
``src``.  With ``--trace 0`` it starts MEASURE_PROCS worker processes one
after another, each timing whole passes for an equal share of
``--seconds``, plus SETUP_ONLY_PROCS processes that only set up, and prints
the end-to-end metrics: ``setup_s`` (median time from launching a worker to
its first timed operation), ``run_s`` (the least of the workers' median
pass times) and ``peak_rss_mb`` (median over workers of their own peak resident
memory).  With ``--trace 1`` it runs one untraced and one traced worker and
prints the per-layer metrics of the traced one, with the tracing overhead.
The last line of standard output is the result; a copy and the spans of the
first traced pass are written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("distributed", "statistics", "path_integral")
#: The run spreads its passes over several fresh processes and reports the
#: least of their median pass times: on a shared virtual machine the
#: hypervisor takes the CPUs away for seconds at a time (steal), which slows
#: every pass that falls in such a period, so the median of the
#: least-disturbed process is the steadiest estimate of the program's cost.
MEASURE_PROCS = 3
SETUP_ONLY_PROCS = 2
#: Every run must end within this many seconds.
RUN_LIMIT_S = 170.0

LAYER_METRICS = {
    "rng.calls": "count", "rng.draws": "count", "rng.self_s": "s",
    "hv_models.sample_calls": "count", "hv_models.sample_s": "s",
    "hv_models.outcome_s": "s", "hv_models.wire_text_s": "s",
    "bell_stats.exact_calls": "count", "bell_stats.quadrature_points": "count",
    "bell_stats.exact_s": "s", "bell_stats.mc_trials": "count", "bell_stats.mc_s": "s",
    "interferometer.scan_s": "s", "interferometer.exact_scan_s": "s",
    "path_engine.propagator_s": "s", "path_engine.kernel_bytes": "bytes",
    "path_engine.kernel_applications": "count", "path_engine.max_rel_err": "ratio",
    "path_engine.sample_paths_s": "s", "path_engine.action_s": "s",
    "path_engine.resultant_s": "s",
    "harness.source_run_s": "s", "harness.simulate_run_s": "s",
    "harness.log_write_s": "s", "harness.log_read_s": "s", "harness.audit_s": "s",
    "harness.merge_s": "s", "harness.log_bytes": "bytes", "harness.messages": "count",
    "harness.trial_rtt_p50_us": "us", "harness.trial_rtt_p99_us": "us",
    "harness.wing_start_s": "s",
    "cli.self_s": "s", "util.render_s": "s",
    "trace.overhead_s": "s",
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, role: str, traced: int, seconds: float, workdir: Path, deadline: float):
    """Launch one worker; return (set-up seconds, result dict or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(traced),
           "--role", role, "--workdir", str(workdir)]
    if traced:
        cmd += ["--trace-out", str(OUT / f"trace-{args.workload}-seed{args.seed}.json")]
    t0 = perf_counter()
    # a session of its own, so that a worker that hangs is killed with its wings
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        if ready.strip() != "READY":
            raise WorkerFailed(f"worker did not get ready: {ready!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed("worker ran past the run's time limit") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    if role == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "bellpath" / "__init__.py").is_file():
        print(f"no bellpath sources under {ROOT / 'src'}; run from a bellpath checkout",
              file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    if args.trace:
        plan = [("measure", 0), ("measure", 1)]
    else:
        plan = [("measure", 0)] * MEASURE_PROCS
        for i in range(SETUP_ONLY_PROCS):
            plan.insert(2 * i + 1, ("setup", 0))
    share = args.seconds / sum(1 for role, _ in plan if role == "measure")

    setups, results = [], []
    try:
        for role, traced in plan:
            setup_s, res = run_worker(args, role, traced, share, workdir, deadline)
            setups.append(setup_s)
            if res is not None:
                results.append(res)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not all(r["pass_s"] for r in results):
        print("benchmark failed: a worker completed no pass", file=sys.stderr)
        return 1
    errors = [e for r in results for e in r["errors"]]
    for e in errors[:50]:
        print(f"check failed: {e}", file=sys.stderr)
    out = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if args.trace:
        plain, traced = results
        layer = dict(traced["layer"])
        layer["trace.overhead_s"] = (statistics.median(traced["pass_s"])
                                     - statistics.median(plain["pass_s"]))
        out["metrics"] = {name: _metric(layer.get(name, 0), unit)
                          for name, unit in LAYER_METRICS.items()}
    else:
        out["metrics"] = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "run_s": _metric(min(statistics.median(r["pass_s"]) for r in results), "s"),
            "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in results), "MB"),
        }
    line = json.dumps(out)
    detail = {**out, "setup_samples_s": setups, "pass_s": [r["pass_s"] for r in results]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail) + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
