import dataclasses
import inspect
import math

import numpy as np
import pytest

from bellpath import bell_stats as bs
from bellpath import cli
from bellpath import interferometer as itf
from bellpath import oracle
from bellpath.hv_models import ALIGNED, ClockModel, Setting, TWO_PI, wrap_angle
from bellpath.path_engine import DEGENERATE_R, resultant
from bellpath.util import fmt17


def simple_side(delta=0.0, arms=(1.0, 1.0), k=TWO_PI, **kw):
    return itf.SideConfig(arm_lengths=arms, k_wave=k, phase_shifter=delta, **kw)


def single_path_side(delta=0.0, k=1.0, length=1.0, g=1.0):
    return itf.SideConfig(arm_lengths=(length,), k_wave=k, phase_shifter=delta,
                          geometry_sign=g)


NO_SPREAD = itf.SourceSpreads(0.0, 0.0)


def one_trial(cfg_a, cfg_b=None, spreads=NO_SPREAD, seed=3):
    """The single trial ``seed`` of a batch, as {key: scalar}."""
    batch = itf._run_batch(cfg_a, cfg_b or cfg_a, spreads, 1, seed)
    return {key: value[0] for key, value in batch.items()}


def reference_phases(cfg, side, dx0, seed):
    """phi = k*(L + g*dx0 + jitter) + delta; arm m, replica e at m*n_ensemble + e."""
    jitter = itf._jitters(cfg, side, seed, 1)[0]
    lengths = np.repeat(cfg.arm_lengths, cfg.n_ensemble)
    phases = cfg.k_wave * (lengths + cfg.geometry_sign * dx0 + jitter)
    lo = cfg.shifted_arm * cfg.n_ensemble
    phases[lo:lo + cfg.n_ensemble] += cfg.phase_shifter
    return phases


# -- one side's path sum ------------------------------------------------------------


def test_congruent_paths_add_coherently():
    # two equal arms, no jitter, k*L a multiple of 2pi: both clocks agree
    assert abs(one_trial(simple_side())["r_a"] - 2.0) < 1e-12


def test_half_turn_path_difference_cancels():
    cfg = simple_side(arms=(1.0, 1.5), k=TWO_PI)  # k*dL = pi
    trial = one_trial(cfg)
    assert trial["r_a"] < DEGENERATE_R
    assert trial["outcome_a"] == itf.UNDETERMINED


def test_shifter_on_one_of_two_equal_arms():
    trial = one_trial(simple_side(delta=math.pi / 2))
    assert abs(trial["r_a"] - math.sqrt(2)) < 1e-12
    assert abs(trial["theta_a"] - math.pi / 4) < 1e-12


def test_jitter_layout_and_side_stream():
    cfg = simple_side(arms=(1.0, 2.0), n_ensemble=3, sigma_path=0.1)
    jitter = itf._jitters(cfg, "A", 5, 4)
    assert jitter.shape == (4, 6)
    assert np.array_equal(jitter, itf._jitters(cfg, "A", 5, 4))
    assert not np.array_equal(jitter, itf._jitters(cfg, "B", 5, 4))
    # trial i of a batch is the one-trial batch of seed + i
    assert np.array_equal(jitter[2], itf._jitters(cfg, "A", 7, 1)[0])


# -- detector --------------------------------------------------------------------


def test_detector_threshold():
    angles = np.array([math.pi / 4, 3 * math.pi / 2, 0.1])
    totals = np.append(np.exp(1j * angles), 0.0)
    out, r, theta = itf._outcomes_from_sum(totals)
    assert out.tolist() == [1, -1, 1, itf.UNDETERMINED]
    assert np.allclose(r, [1.0, 1.0, 1.0, 0.0]) and np.allclose(theta[:3], angles)


# -- two-sided trials -------------------------------------------------------------------


def test_no_randomness_is_fully_deterministic():
    cfg = simple_side()
    batch = itf._run_batch(cfg, cfg, NO_SPREAD, 5, seed=0)
    assert np.all(batch["outcome_a"] == batch["outcome_a"][0])
    assert np.array_equal(batch["outcome_a"], batch["outcome_b"])


def test_changing_remote_shifter_leaves_side_a_bitwise_unchanged():
    cfg_a = simple_side(delta=0.7, arms=(1.0, 1.25), sigma_path=0.05, n_ensemble=2)
    spreads = itf.SourceSpreads(0.1, 0.8)
    base = itf._run_batch(cfg_a, simple_side(delta=0.0), spreads, 50, seed=9)
    moved = itf._run_batch(cfg_a, simple_side(delta=2.9), spreads, 50, seed=9)
    for key in ("outcome_a", "r_a", "theta_a", "dt0", "dx0"):
        assert np.array_equal(base[key], moved[key]), key
    # and the other direction: side B ignores every change on side A
    cfg_b = simple_side(delta=1.3, arms=(1.0, 1.1))
    one = itf._run_batch(cfg_a, cfg_b, spreads, 50, seed=9)
    two = itf._run_batch(simple_side(delta=0.5, arms=(2.0,)), cfg_b, spreads, 50, seed=9)
    for key in ("outcome_b", "r_b", "theta_b"):
        assert np.array_equal(one[key], two[key]), key


def test_trial_batch_is_reproducible():
    cfg_a, cfg_b = simple_side(0.3), simple_side(1.1)
    spreads = itf.SourceSpreads(0.2, 0.5)
    a = itf._run_batch(cfg_a, cfg_b, spreads, 1, seed=81)
    b = itf._run_batch(cfg_a, cfg_b, spreads, 1, seed=81)
    assert a.keys() == b.keys()
    assert all(np.array_equal(a[key], b[key]) for key in a)


def test_marginals_are_balanced_with_spread():
    cfg = single_path_side(k=1.0)
    batch = itf._run_batch(cfg, cfg, itf.SourceSpreads(0.0, 50.0), 100_000, seed=12)
    for key in ("outcome_a", "outcome_b"):
        out = batch[key]
        frac = np.mean(out == 1)
        # 3 sigma of a fair coin at n=1e5 is ~0.0047
        assert abs(frac - 0.5) < 0.005


# -- correlation scan -----------------------------------------------------------------


def test_scan_shape_and_fringe_column():
    cfg = simple_side()
    grid = [0.0, math.pi / 2, math.pi]
    rows = itf.correlation_scan(cfg, cfg, grid, n_per_point=200, seed=3)
    assert len(rows) == 9
    for r in rows:
        assert abs(r.quantum_fringe - oracle.rt_coincidence_prob(r.delta_a, r.delta_b)) < 1e-12


def test_scan_is_deterministic():
    cfg = simple_side(arms=(1.0, 1.3), sigma_path=0.1)
    grid = [0.0, 2.0]
    one = itf.correlation_scan(cfg, cfg, grid, 500, seed=5)
    two = itf.correlation_scan(cfg, cfg, grid, 500, seed=5)
    assert one == two


def test_scan_side_a_column_ignores_delta_b():
    # common random numbers across cells: the A marginal per delta_a row of
    # the scan cannot depend on delta_b
    cfg = simple_side(arms=(1.0, 1.2), sigma_path=0.2, n_ensemble=2)
    spreads = itf.SourceSpreads(0.1, 0.6)
    batch = itf._run_batch(cfg, cfg, spreads, 300, seed=8)
    for da in (0.4, 2.2):
        totals = []
        for db in (0.0, 1.0, 5.0):
            total_a = batch["plain_a"] + np.exp(1j * da) * batch["shift_a"]
            totals.append(itf._outcomes_from_sum(total_a)[0])
        assert np.array_equal(totals[0], totals[1])
        assert np.array_equal(totals[0], totals[2])


def test_all_zero_phases_symmetric_sides_give_unit_correlation():
    cfg = single_path_side()
    rows = itf.correlation_scan(cfg, cfg, [0.0], 500, seed=2,
                                spreads=itf.SourceSpreads(0.0, 5.0))
    assert rows[0].e_value == 1.0
    assert rows[0].p_undetermined == 0.0


def test_scan_csv_rows_shape(capsys):
    # the scan written as CSV by `rt`: one line per cell, seven fields each,
    # carrying the values correlation_scan computed
    cfg = simple_side()
    rows = itf.correlation_scan(cfg, cfg, [0.0, 1.0], 50, seed=0)
    code = cli.main(["rt", "--settings", "0,1", "--n-per-point", "50", "--seed", "0"])
    text = capsys.readouterr().out.strip().splitlines()[1:]
    assert code == 0
    assert len(text) == 4
    assert all(len(line.split(",")) == 7 for line in text)
    assert [line.split(",")[2] for line in text] == [fmt17(r.e_value) for r in rows]


# -- degeneration onto the clock model ---------------------------------------------------


def test_degenerate_exact_scan_matches_clock_tables_bitwise():
    grid_settings = [Setting.index(i).radians for i in range(3)]
    cfg = single_path_side(k=1.0, length=1.0, g=1.0)
    for n_grid in (10_000, 10_002):
        rows = itf.degenerate_exact_scan(cfg, cfg, grid_settings, n_grid)
        clock = ClockModel(b_convention=ALIGNED)
        k = 0
        for i in range(3):
            for j in range(3):
                e = bs.exact_E(clock, Setting.index(i), Setting.index(j), n_grid)
                p = bs.exact_agreement_prob(clock, Setting.index(i), Setting.index(j), n_grid)
                assert rows[k].e_value == e.mean
                assert rows[k].p_agree == p.value
                k += 1


def test_degenerate_exact_scan_requires_single_path():
    cfg = simple_side()
    with pytest.raises(ValueError):
        itf.degenerate_exact_scan(cfg, cfg, [0.0])


@pytest.mark.parametrize("sign_product", [1.0, -1.0])
def test_exact_scan_matches_monte_carlo(sign_product):
    # random single-path sides with |k_A*g_A| = |k_B*g_B|; a wide source
    # spread makes the shared phase uniform, which the exact table assumes
    g = np.random.default_rng(31 if sign_product > 0 else 32)
    for _ in range(3):
        k_a, g_a = g.uniform(0.5, 4.0), g.choice([-1.0, 1.0]) * g.uniform(0.3, 2.0)
        k_b = g.uniform(0.5, 4.0)
        g_b = sign_product * np.sign(g_a) * abs(k_a * g_a) / k_b
        cfg_a = single_path_side(k=k_a, length=g.uniform(0.1, 3.0), g=g_a)
        cfg_b = single_path_side(k=k_b, length=g.uniform(0.1, 3.0), g=g_b)
        grid = list(g.uniform(0.0, TWO_PI, 3))
        exact = itf.degenerate_exact_scan(cfg_a, cfg_b, grid, 600)
        mc = itf.correlation_scan(cfg_a, cfg_b, grid, 40_000, seed=int(g.integers(1 << 40)),
                                  spreads=itf.SourceSpreads(0.0, 200.0))
        for e, m in zip(exact, mc):
            assert (e.delta_a, e.delta_b) == (m.delta_a, m.delta_b)
            assert abs(e.e_value - m.e_value) <= 5.0 * m.stderr
            assert e.p_agree == (1.0 + e.e_value) / 2.0
            assert (e.stderr, e.p_undetermined, e.n_trials) == (0.0, 0.0, 600)


def test_exact_scan_requires_equal_couplings():
    for g_b in (0.5, 0.0, 2.0, -3.0):
        with pytest.raises(ValueError, match="equal and nonzero"):
            itf.degenerate_exact_scan(single_path_side(), single_path_side(g=g_b), [0.0])
    # k*g overflowing to inf (and inf - inf = NaN) fails the test in either place
    huge = single_path_side(k=1e200, g=1e200)
    for cfg_a, cfg_b in ((single_path_side(), huge), (huge, single_path_side()), (huge, huge)):
        with pytest.raises(ValueError, match="equal and nonzero"):
            itf.degenerate_exact_scan(cfg_a, cfg_b, [0.0])
    with pytest.raises(ValueError, match="equal and nonzero"):
        itf.degenerate_exact_scan(single_path_side(g=0.0), single_path_side(g=0.0), [0.0])
    with pytest.raises(ValueError, match="n_grid"):
        itf.degenerate_exact_scan(single_path_side(), single_path_side(), [0.0], 0)
    # equal up to rounding is accepted: k*g = 0.3*3 against 0.9
    itf.degenerate_exact_scan(single_path_side(k=0.3, g=3.0), single_path_side(k=0.9), [0.0])


def test_degenerate_trials_equal_clock_outcomes():
    # trial by trial: the single-path interferometer applies the clock rule
    # to theta0 = wrap(k*(L + g*dx0))
    cfg_a = single_path_side(delta=0.0)
    cfg_b = single_path_side(delta=Setting.index(1).radians)
    spreads = itf.SourceSpreads(0.0, 7.0)
    clock = ClockModel(b_convention=ALIGNED)
    batch = itf._run_batch(cfg_a, cfg_b, spreads, 2000, seed=21)
    theta0 = wrap_angle(cfg_a.k_wave * (cfg_a.arm_lengths[0] + cfg_a.geometry_sign * batch["dx0"]))
    expect_a = clock.outcomes_a(theta0, Setting.angle(0.0))
    expect_b = clock.outcomes_b(theta0, Setting.index(1))
    assert np.array_equal(batch["outcome_a"], expect_a)
    assert np.array_equal(batch["outcome_b"], expect_b)


def test_run_trial_agrees_with_side_phases_route():
    # the phase formula summed by path_engine.resultant and the batch phasor
    # decomposition inside _run_batch must describe the same resultant
    cfg_a = simple_side(delta=0.9, arms=(1.0, 1.4), sigma_path=0.2, n_ensemble=2)
    cfg_b = simple_side(delta=2.1, arms=(0.8,))
    trial = one_trial(cfg_a, cfg_b, itf.SourceSpreads(0.3, 0.7), seed=37)
    for cfg, side in ((cfg_a, "A"), (cfg_b, "B")):
        res = resultant(reference_phases(cfg, side, trial["dx0"], 37))
        assert abs(res.r - trial["r_" + side.lower()]) < 1e-12
        d = abs(res.theta - trial["theta_" + side.lower()]) % TWO_PI
        assert min(d, TWO_PI - d) < 1e-12


def test_global_length_shift_rotates_resultant():
    # adding a constant to every path length on one side rotates that side's
    # resultant angle by k*c and leaves its modulus unchanged
    cfg = itf.SideConfig(arm_lengths=(1.0, 1.3), k_wave=3.0, n_ensemble=2,
                         sigma_path=0.1, phase_shifter=0.4)
    spreads = itf.SourceSpreads(0.0, 0.7)
    base = one_trial(cfg, spreads=spreads, seed=6)
    for c in (0.25, 1.0, 2.5):
        shifted_cfg = itf.SideConfig(
            arm_lengths=tuple(x + c for x in cfg.arm_lengths), k_wave=cfg.k_wave,
            n_ensemble=cfg.n_ensemble, sigma_path=cfg.sigma_path,
            phase_shifter=cfg.phase_shifter, geometry_sign=cfg.geometry_sign)
        rot = one_trial(shifted_cfg, spreads=spreads, seed=6)
        assert abs(rot["r_a"] - base["r_a"]) < 1e-12
        d = abs((base["theta_a"] + cfg.k_wave * c) % TWO_PI - rot["theta_a"]) % TWO_PI
        assert min(d, TWO_PI - d) < 1e-10


# -- structure ------------------------------------------------------------------------------


def test_side_computation_signatures_have_no_remote_input():
    params = list(inspect.signature(itf._jitters).parameters)
    assert params == ["cfg", "side", "seed", "n"]
    params = list(inspect.signature(itf._phasor_parts).parameters)
    assert params == ["cfg", "side", "dx0", "seed", "n"]


def test_side_config_validation():
    with pytest.raises(ValueError):
        itf.SideConfig(arm_lengths=(), k_wave=1.0)
    with pytest.raises(ValueError):
        itf.SideConfig(arm_lengths=(1.0,), k_wave=0.0)
    with pytest.raises(ValueError):
        itf.SideConfig(arm_lengths=(1.0,), k_wave=1.0, n_ensemble=0)
    with pytest.raises(ValueError):
        itf.SideConfig(arm_lengths=(-1.0,), k_wave=1.0)
    with pytest.raises(ValueError):
        itf.SideConfig(arm_lengths=(1.0,), k_wave=1.0, shifted_arm=1)
    with pytest.raises(ValueError, match="^phase_shifter must be finite"):
        itf.SideConfig(arm_lengths=(1.0,), k_wave=1.0, phase_shifter=math.inf)
    with pytest.raises(ValueError, match="^phase_shifter must be finite"):
        simple_side().replace_shifter(math.nan)


def test_configs_are_frozen():
    cfg = simple_side()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.k_wave = 2.0
