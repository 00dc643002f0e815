"""Tests of the benchmark itself: references, checks at reduced size, tracing.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bellpath import path_engine, rng  # noqa: E402
from bellpath.hv_models import ALL_INSTRUCTION_SETS, threshold_sign  # noqa: E402


# -- references -----------------------------------------------------------------------

def test_splitmix64_published_first_output():
    assert ref.splitmix64_outputs(0, 1)[0] == ref.SPLITMIX64_SEED0_FIRST == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("seed", [0, 1, 97, 2**40 + 3, 2**64 - 1])
def test_seed_schedule_matches_program(seed):
    assert ref.trial_u64(seed, 5) == [int(x) for x in rng.u64_stream(seed, 5)]
    assert ref.uniforms(seed, 4) == list(rng.uniforms_for_seeds([seed], 4)[0])


def test_half_circle_rule_boundaries_and_program():
    assert ref.threshold_sign(0.0) == 1 and ref.threshold_sign(math.pi) == -1
    assert ref.threshold_sign(math.pi - 1e-13) == -1  # snapped onto pi
    assert ref.threshold_sign(ref.TWO_PI - 1e-13) == 1  # snapped onto 0
    assert ref.threshold_sign(-0.5) == -1
    thetas = [k * 0.37 - 5.0 for k in range(200)]
    assert [ref.threshold_sign(t) for t in thetas] == [int(threshold_sign(t)) for t in thetas]


def test_clock_closed_form_is_the_detector_rule_averaged():
    n = 6000
    for a, b in [(0.0, 1.0), (0.3, 4.0), (2.0, 2.0), (0.0, math.pi)]:
        grid = [ref.TWO_PI * k / n for k in range(n)]
        mean = sum(ref.threshold_sign(t + a) * ref.threshold_sign(t + b) for t in grid) / n
        assert abs(mean - ref.clock_E(a, b, anti_aligned=False)) <= 6.0 / n
        assert ref.clock_E(a, b) == -ref.clock_E(a, b, anti_aligned=False)
    assert abs(ref.clock_E(0.0, 1.0) - (-0.36338022763241865)) < 1e-15


def test_instruction_set_enumeration():
    assert len(set(ref.INSTRUCTION_SETS)) == 8
    assert list(ref.INSTRUCTION_SETS) == [s.text for s in ALL_INSTRUCTION_SETS]
    _, _, overall = ref.mermin_tables([1 / 8] * 8)
    assert abs(overall - 2 / 3) < 1e-15
    for k in range(8):
        probs = [1.0 if j == k else 0.0 for j in range(8)]
        e, agree, overall = ref.mermin_tables(probs)
        assert overall >= 5 / 9 - 1e-15
        assert all(e[i][i] == 1.0 and agree[i][i] == 1.0 for i in range(3))


def test_closed_form_propagators():
    free = ref.free_propagator(1.0, 1.0, 0.0, 1.0, 1.0)
    assert abs(free - path_engine.analytic_propagator(path_engine.FREE, 1.0, 1.0, 0.0, 1.0, 1.0)) < 1e-15
    assert abs(abs(free) - 1 / math.sqrt(2 * math.pi)) < 1e-15
    osc = ref.harmonic_propagator(1.0, 1.0, 1.0, 0.2, 0.9, 0.7)
    assert abs(osc - path_engine.analytic_propagator(path_engine.harmonic(1.0), 1.0, 1.0, 0.2, 0.9, 0.7)) < 1e-14
    # a weak oscillator approaches the free particle
    weak = ref.harmonic_propagator(1.0, 1e-5, 1.0, 0.2, 0.9, 0.7)
    assert abs(weak - ref.free_propagator(1.0, 1.0, 0.2, 0.9, 0.7)) < 1e-9
    # one midpoint slice of a free particle is the free kernel
    assert ref.midpoint_slice_kernel(1.0, 0.0, 1.0, 0.2, 0.9, 0.7) == ref.free_propagator(1.0, 1.0, 0.2, 0.9, 0.7)


def test_midpoint_action():
    line = [0.5 + 0.25 * k for k in range(5)]  # straight path, 4 segments, t = 2
    action, scale = ref.midpoint_action(line, 2.0, 3.0, 0.0)
    assert action == pytest.approx(3.0 * 1.0 ** 2 / (2 * 2.0), rel=1e-15) and scale == action
    wiggly = [0.0, 0.4, -0.3, 0.8, 1.0]
    path = path_engine.PathSample(wiggly, 1.5)
    want, _ = ref.midpoint_action(wiggly, 1.5, 1.0, 1.0)
    assert path_engine.discrete_action(path, path_engine.harmonic(1.0), 1.0) == pytest.approx(want, rel=1e-14)


def test_phasor_sum_and_percentile():
    assert abs(ref.phasor_sum([0.0, math.pi])) < 1e-15
    assert ref.phasor_sum([0.0] * 3) == 3
    values = list(range(1, 101))
    assert ref.percentile(values, 0.5) == 50 and ref.percentile(values, 0.99) == 99


# -- workload checks at reduced size -------------------------------------------------------

class SmallDistributed(workloads.Distributed):
    N_TRIALS = 60


class SmallStatistics(workloads.Statistics):
    SCAN_POINTS = 20
    MC_N = 20_000
    MC_S_MAX = 1.5
    MERMIN_N = 20_000
    RT_POINTS = 3
    RT_N = 500
    RT_EXACT_POINTS = 2


class SmallPathIntegral(workloads.PathIntegral):
    TABLES = {
        "free": ((256, (1, 2, 16)), (1024, (1, 8))),
        "harmonic": ((256, (1, 4)), (1024, (1, 2, 8))),
    }
    N_PATHS = 300


def _one_pass(cls, tmp_path, seed=3):
    cpus = os.sched_getaffinity(0)  # the distributed set-up pins its process
    wl = cls(ROOT, seed, tmp_path)
    try:
        wl.setup()
        out = wl.run_pass()
        wl.after_pass(out)
    finally:
        wl.close()
        os.sched_setaffinity(0, cpus)
    return wl, out


@pytest.mark.parametrize("cls", [SmallDistributed, SmallStatistics, SmallPathIntegral])
def test_checks_pass_on_the_program(cls, tmp_path):
    wl, out = _one_pass(cls, tmp_path)
    assert wl.failed(out) == 0
    assert wl.check(out) == []
    assert wl.fingerprint(out) == wl.fingerprint(out)
    assert all(v >= 0 for v in wl.figures(out).values())


def test_distributed_check_catches_a_flipped_outcome(tmp_path):
    wl, out = _one_pass(SmallDistributed, tmp_path)
    entry = next(e for e in out["log"].entries if e.message.type == "outcome")
    entry.message.payload["sign"] *= -1
    errs = wl.check(out)
    assert any("outcome" in e for e in errs) and any("simulate_run" in e for e in errs)
    figures = wl.figures(out)
    assert figures["harness.messages"] == 6 + 4 * SmallDistributed.N_TRIALS
    assert figures["harness.trial_rtt_p99_us"] >= figures["harness.trial_rtt_p50_us"] > 0


def test_statistics_checks_catch_wrong_values(tmp_path):
    wl, out = _one_pass(SmallStatistics, tmp_path)
    scan = json.loads(out["text"]["chsh_scan.json"])
    scan["max_abs_s"] -= 0.01
    assert wl._check_chsh_scan(json.dumps(scan))
    mc = json.loads(out["text"]["chsh_mc.json"])
    mc["terms"][0]["mean"] += 6 * mc["terms"][0]["stderr"]
    assert wl._check_chsh_mc(json.dumps(mc))
    lines = out["text"]["rt.csv"].splitlines()
    row = lines[1].split(",")
    row[-1] = repr(float(row[-1]) + 1e-12)  # quantum_fringe
    assert wl._check_rt("\n".join([lines[0], ",".join(row), *lines[2:]]))


def test_path_integral_checks_catch_wrong_values(tmp_path):
    wl, out = _one_pass(SmallPathIntegral, tmp_path)
    out["actions"][5] *= 1 + 1e-9
    assert any("action" in e for e in wl.check(out))
    out["props"][0] = path_engine.PropagatorResult(out["props"][0].value * (1 + 1e-9), False)
    assert any("one slice" in e for e in wl.check(out))


# -- tracing -----------------------------------------------------------------------------------

def test_self_time_excludes_children():
    tr = tracing.Tracer()
    inner = tr.wrap("rng", "rng.inner", lambda: sum(range(20000)))
    outer = tr.wrap("cli", "cli.outer", lambda: [inner() for _ in range(3)])
    tr.enabled = True
    outer()
    tr.enabled = False
    spans = tr.spans
    assert [s[tracing.NAME] for s in spans] == ["cli.outer"] + ["rng.inner"] * 3
    assert all(s[tracing.PARENT] == 0 for s in spans[1:])
    total = spans[0][tracing.END] - spans[0][tracing.START]
    children = sum(s[tracing.END] - s[tracing.START] for s in spans[1:])
    assert spans[0][tracing.CHILD_S] == pytest.approx(children)
    m = tracing.metrics(spans)
    assert m["cli.self_s"] == pytest.approx(total - children)
    assert m["rng.calls"] == 3


def test_install_traces_every_module(tmp_path):
    script = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from bellpath import bell_stats
from bellpath.hv_models import ClockModel, Setting
tr = tracing.Tracer()
tr.install()
tr.enabled = True
bell_stats.exact_E(ClockModel(), Setting.index(0), Setting.index(1), 600)
bell_stats.estimate_E(ClockModel(), Setting.index(0), Setting.index(1), 1000, 5)
tr.enabled = False
print(json.dumps(tracing.metrics(tr.spans)))
"""
    res = subprocess.run([sys.executable, "-c", script, str(BENCH), str(ROOT / "src")],
                         capture_output=True, text=True, check=True)
    m = json.loads(res.stdout)
    assert m["bell_stats.exact_calls"] == 1 and m["bell_stats.quadrature_points"] == 600
    assert m["bell_stats.mc_trials"] == 1000 and m["rng.draws"] == 1000
    assert m["hv_models.sample_calls"] == 1 and m["rng.calls"] == 2
    assert m["hv_models.outcome_s"] > 0 and m["bell_stats.exact_s"] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "statistics",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0 and res.stdout == ""
