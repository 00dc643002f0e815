"""Re-measure the per-layer baseline table of ROADMAP Open item 1.

    python3 perfbench/baseline.py [--reps 3]

Times each layer call at the table's sizes in this one process and prints
a Markdown table of the median over ``--reps`` repetitions.  It checks
nothing and is not part of the benchmark's runs; ``run.py`` is.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from bellpath import bell_stats, cli, harness, interferometer, path_engine  # noqa: E402
from bellpath.hv_models import ClockModel, MerminModel, Setting  # noqa: E402


def _time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _source_run(model, n: int, seed: int, workdir: Path) -> tuple[harness.RunLog, float]:
    cfg = workdir / "clock.cfg"
    cfg.write_text("model=clock\nb_convention=anti_aligned\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    wings = [subprocess.Popen([sys.executable, "-m", "bellpath.cli", "wing", "--wing", w,
                               "--model-config", str(cfg), "--setting", s],
                              stdout=subprocess.PIPE, text=True, env=env)
             for w, s in (("A", "i0"), ("B", "i1"))]
    try:
        ends = [(words[3], int(words[4])) for words in (p.stdout.readline().split() for p in wings)]
        t0 = perf_counter()
        log = harness.source_run(model, n, seed, ends[0], ends[1])
        elapsed = perf_counter() - t0
    finally:
        for p in wings:
            p.wait(timeout=60)
            p.stdout.close()
    return log, elapsed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=3)
    reps = ap.parse_args().reps
    clock, mermin = ClockModel(), MerminModel.uniform()
    i0, i1 = Setting.index(0), Setting.index(1)
    rows = []

    def row(layer, fn, fmt="ms"):
        t = _time(fn, reps)
        rows.append((layer, f"{t * 1e3:.1f} ms" if fmt == "ms" else f"{t:.2f} s"))

    row("`estimate_E` 1e6 trials, clock", lambda: bell_stats.estimate_E(clock, i0, i1, 10**6, 1))
    row("`estimate_E` 1e6 trials, mermin", lambda: bell_stats.estimate_E(mermin, i0, i1, 10**6, 1))
    row("`exact_E` clock, 10k grid", lambda: bell_stats.exact_E(clock, i0, i1, 10_000))
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        tmp = Path(tmp)
        row("`bellpath chsh --model clock --scan 1000`",
            lambda: cli.main(["chsh", "--model", "clock", "--scan", "1000", "--out", str(tmp / "s")]), "s")
        for n in (1024, 2048, 4096):
            spec = path_engine.PropagatorSpec(1.0, path_engine.FREE, 0.0, 1.0, 1.0, 8, (-20.0, 20.0, n))
            row(f"`sliced_propagator` 8 slices, N = {n}", lambda: path_engine.sliced_propagator(spec), "s")
        side = interferometer.SideConfig(arm_lengths=(1.0, 1.3), k_wave=6.0, n_ensemble=4, sigma_path=0.05)
        grid = [6.283185307179586 * k / 16 for k in range(16)]
        row("`correlation_scan` 16x16 cells, 10k trials, 8 paths",
            lambda: interferometer.correlation_scan(side, side, grid, 10_000, 1))
        fa, fb = harness.FixedPolicy(i0), harness.FixedPolicy(i1)
        row("`simulate_run` 10k trials", lambda: harness.simulate_run(clock, fa, fb, 10_000, 97), "s")
        log, elapsed = _source_run(clock, 10_000, 97, tmp)
        rows.append(("`source_run` 10k trials over loopback", f"{elapsed:.2f} s"))

        def write_read():
            log.write(tmp / "run.log")
            harness.RunLog.read(tmp / "run.log")

        row("log write + read, 10k trials", write_read, "s")
        row("`audit_log`, 10k trials", lambda: harness.audit_log(log))
        row("`merge_statistics`, 10k trials", lambda: harness.merge_statistics(log))
    print("| layer | measured |\n| --- | --- |")
    for layer, value in rows:
        print(f"| {layer} | {value} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
