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
from bellpath.path_engine import resultant
from bellpath.util import fmt17


def simple_side(delta=0.0, arms=(1.0, 1.0), k=TWO_PI, **kw):
    return itf.SideConfig(arm_lengths=arms, k_wave=k, phase_shifter=delta, **kw)


def single_path_side(delta=0.0, k=1.0, length=1.0, g=1.0):
    return itf.SideConfig(arm_lengths=(length,), k_wave=k, phase_shifter=delta,
                          geometry_sign=g)


NO_SPREAD = itf.SourceSpreads(0.0, 0.0)
LAM0 = itf.SourceLambda(0.0, 0.0)


# -- side_phases ----------------------------------------------------------------


def test_congruent_paths_add_coherently():
    # two equal arms, no jitter, k*L a multiple of 2pi: both clocks agree
    phases = itf.side_phases(simple_side(), LAM0, seed=3)
    res = resultant(phases)
    assert abs(res.r - 2.0) < 1e-12


def test_half_turn_path_difference_cancels():
    cfg = simple_side(arms=(1.0, 1.5), k=TWO_PI)  # k*dL = pi
    res = resultant(itf.side_phases(cfg, LAM0, seed=3))
    assert res.degenerate
    assert itf.detector_outcome(res) == itf.UNDETERMINED


def test_shifter_on_one_of_two_equal_arms():
    cfg = simple_side(delta=math.pi / 2)
    res = resultant(itf.side_phases(cfg, LAM0, seed=3))
    assert abs(res.r - math.sqrt(2)) < 1e-12
    assert abs(res.theta - math.pi / 4) < 1e-12


def test_side_phases_layout_and_jitter_stream():
    cfg = simple_side(arms=(1.0, 2.0), n_ensemble=3, sigma_path=0.1)
    phases = itf.side_phases(cfg, LAM0, seed=5)
    assert phases.shape == (6,)
    again = itf.side_phases(cfg, LAM0, seed=5)
    assert np.array_equal(phases, again)
    other_side = itf.side_phases(cfg, LAM0, seed=5, side="B")
    assert not np.array_equal(phases, other_side)


# -- detector --------------------------------------------------------------------


def test_detector_threshold():
    from bellpath.path_engine import Resultant

    assert itf.detector_outcome(Resultant(1.0, math.pi / 4)) == 1
    assert itf.detector_outcome(Resultant(1.0, 3 * math.pi / 2)) == -1
    assert itf.detector_outcome(Resultant(0.0, 0.0, degenerate=True)) == itf.UNDETERMINED
    assert itf.detector_outcome(itf.SideResultant("A", Resultant(1.0, 0.1))) == 1


# -- run_trial ----------------------------------------------------------------------


def test_no_randomness_is_fully_deterministic():
    cfg = simple_side()
    records = [itf.run_trial(cfg, cfg, NO_SPREAD, seed=0, trial=t) for t in range(5)]
    assert all(r.outcome_a == records[0].outcome_a for r in records)
    assert all(r.outcome_a == r.outcome_b for r in records)


def test_changing_remote_shifter_leaves_side_a_bitwise_unchanged():
    cfg_a = simple_side(delta=0.7, arms=(1.0, 1.25), sigma_path=0.05, n_ensemble=2)
    spreads = itf.SourceSpreads(0.1, 0.8)
    for trial in range(50):
        base = itf.run_trial(cfg_a, simple_side(delta=0.0), spreads, seed=9, trial=trial)
        moved = itf.run_trial(cfg_a, simple_side(delta=2.9), spreads, seed=9, trial=trial)
        assert base.outcome_a == moved.outcome_a
        assert base.r_a == moved.r_a and base.theta_a == moved.theta_a
        assert base.lam == moved.lam
        # and the other direction: side B ignores every change on side A
        cfg_b = simple_side(delta=1.3, arms=(1.0, 1.1))
        one = itf.run_trial(cfg_a, cfg_b, spreads, seed=9, trial=trial)
        two = itf.run_trial(simple_side(delta=0.5, arms=(2.0,)), cfg_b, spreads,
                            seed=9, trial=trial)
        assert one.outcome_b == two.outcome_b
        assert one.r_b == two.r_b and one.theta_b == two.theta_b


def test_trial_record_is_reproducible():
    cfg_a, cfg_b = simple_side(0.3), simple_side(1.1)
    spreads = itf.SourceSpreads(0.2, 0.5)
    a = itf.run_trial(cfg_a, cfg_b, spreads, seed=77, trial=4)
    b = itf.run_trial(cfg_a, cfg_b, spreads, seed=77, trial=4)
    assert a == b


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
    for g_b in (0.5, 0.0, 2.0, -3.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="equal and nonzero"):
            itf.degenerate_exact_scan(single_path_side(), single_path_side(g=g_b), [0.0])
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
    # the scalar API (side_phases + resultant) and the batch phasor
    # decomposition inside run_trial must describe the same resultant
    cfg_a = simple_side(delta=0.9, arms=(1.0, 1.4), sigma_path=0.2, n_ensemble=2)
    cfg_b = simple_side(delta=2.1, arms=(0.8,))
    spreads = itf.SourceSpreads(0.3, 0.7)
    rec = itf.run_trial(cfg_a, cfg_b, spreads, seed=31, trial=6)
    res_a = resultant(itf.side_phases(cfg_a, rec.lam, rec.seed, side="A"))
    res_b = resultant(itf.side_phases(cfg_b, rec.lam, rec.seed, side="B"))
    assert abs(res_a.r - rec.r_a) < 1e-12
    assert abs(res_b.r - rec.r_b) < 1e-12
    d = abs(res_a.theta - rec.theta_a) % TWO_PI
    assert min(d, TWO_PI - d) < 1e-12


def test_global_length_shift_rotates_resultant():
    # adding a constant to every path length on one side rotates that side's
    # resultant angle by k*c and leaves its modulus unchanged
    cfg = itf.SideConfig(arm_lengths=(1.0, 1.3), k_wave=3.0, n_ensemble=2,
                         sigma_path=0.1, phase_shifter=0.4)
    lam = itf.SourceLambda(0.0, 0.7)
    base = resultant(itf.side_phases(cfg, lam, seed=6))
    for c in (0.25, 1.0, 2.5):
        shifted_cfg = itf.SideConfig(
            arm_lengths=tuple(x + c for x in cfg.arm_lengths), k_wave=cfg.k_wave,
            n_ensemble=cfg.n_ensemble, sigma_path=cfg.sigma_path,
            phase_shifter=cfg.phase_shifter, geometry_sign=cfg.geometry_sign)
        rot = resultant(itf.side_phases(shifted_cfg, lam, seed=6))
        assert abs(rot.r - base.r) < 1e-12
        d = abs((base.theta + cfg.k_wave * c) % TWO_PI - rot.theta) % TWO_PI
        assert min(d, TWO_PI - d) < 1e-10


# -- structure ------------------------------------------------------------------------------


def test_side_computation_signatures_have_no_remote_input():
    params = list(inspect.signature(itf.side_phases).parameters)
    assert params == ["cfg", "lam", "seed", "side"]
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


def test_configs_are_frozen():
    cfg = simple_side()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.k_wave = 2.0
