import dataclasses
import inspect
import itertools
import math

import numpy as np
import pytest

from bellpath import bell_stats as bs
from bellpath import cli
from bellpath import interferometer as itf
from bellpath import oracle
from bellpath.hv_models import ALIGNED, ClockModel, Setting, TWO_PI
from bellpath.path_engine import DEGENERATE_R, resultant
from bellpath.util import fmt17


def simple_side(arms=(1.0, 1.0), k=TWO_PI, **kw):
    return itf.SideConfig(arm_lengths=arms, k_wave=k, **kw)


def single_path_side(k=1.0, length=1.0, g=1.0):
    return itf.SideConfig(arm_lengths=(length,), k_wave=k, geometry_sign=g)


def trials(cfg_a, cfg_b, spread_dx, n, seed, delta_a=0.0, delta_b=0.0):
    """n two-sided trials with the shifters at (delta_a, delta_b), as {key: array}."""
    dx0, parts_a, parts_b = itf._run_batch(cfg_a, cfg_b, spread_dx, n, seed)
    out = {"dx0": dx0}
    for side, parts, delta in (("a", parts_a, delta_a), ("b", parts_b, delta_b)):
        out["plain_" + side], out["shift_" + side] = parts
        out["outcome_" + side], out["r_" + side], out["theta_" + side] = \
            itf._side_outcomes(*parts, delta)
    return out


def one_trial(cfg_a, cfg_b=None, spread_dx=0.0, seed=3, delta_a=0.0, delta_b=0.0):
    """The single trial ``seed`` of a batch, as {key: scalar}."""
    batch = trials(cfg_a, cfg_b or cfg_a, spread_dx, 1, seed, delta_a, delta_b)
    return {key: value[0] for key, value in batch.items()}


def reference_phases(cfg, side, dx0, seed, delta):
    """phi = k*(L + g*dx0 + jitter) + delta; arm m, replica e at m*n_ensemble + e."""
    jitter = itf._jitters(cfg, side, seed, 1)[0]
    lengths = np.repeat(cfg.arm_lengths, cfg.n_ensemble)
    phases = cfg.k_wave * (lengths + cfg.geometry_sign * dx0 + jitter)
    lo = cfg.shifted_arm * cfg.n_ensemble
    phases[lo:lo + cfg.n_ensemble] += delta
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
    trial = one_trial(simple_side(), delta_a=math.pi / 2)
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
    # jitter-free sides draw nothing
    assert np.array_equal(itf._jitters(simple_side(n_ensemble=3), "A", 5, 4), np.zeros((4, 6)))


# -- detector --------------------------------------------------------------------


def test_detector_threshold():
    angles = np.array([math.pi / 4, 3 * math.pi / 2, 0.1])
    totals = np.append(np.exp(1j * angles), 0.0)
    out, r, theta = itf._side_outcomes(totals, np.zeros(4), 1.0)
    assert out.tolist() == [1, -1, 1, itf.UNDETERMINED]
    assert np.allclose(r, [1.0, 1.0, 1.0, 0.0]) and np.allclose(theta[:3], angles)


# -- two-sided trials -------------------------------------------------------------------


def test_no_randomness_is_fully_deterministic():
    cfg = simple_side()
    batch = trials(cfg, cfg, 0.0, 5, seed=0)
    assert np.all(batch["outcome_a"] == batch["outcome_a"][0])
    assert np.array_equal(batch["outcome_a"], batch["outcome_b"])


def test_changing_remote_shifter_leaves_side_a_bitwise_unchanged():
    cfg_a = simple_side(arms=(1.0, 1.25), sigma_path=0.05, n_ensemble=2)
    base = trials(cfg_a, simple_side(), 0.8, 50, seed=9, delta_a=0.7, delta_b=0.0)
    moved = trials(cfg_a, simple_side(arms=(1.0, 1.7), k=3.0, sigma_path=0.2, shifted_arm=1),
                   0.8, 50, seed=9, delta_a=0.7, delta_b=2.9)
    for key in ("outcome_a", "r_a", "theta_a", "plain_a", "shift_a", "dx0"):
        assert np.array_equal(base[key], moved[key]), key
    # and the other direction: side B ignores every change on side A
    cfg_b = simple_side(arms=(1.0, 1.1))
    one = trials(cfg_a, cfg_b, 0.8, 50, seed=9, delta_a=0.7, delta_b=1.3)
    two = trials(simple_side(arms=(2.0,)), cfg_b, 0.8, 50, seed=9, delta_a=0.5, delta_b=1.3)
    for key in ("outcome_b", "r_b", "theta_b", "plain_b", "shift_b"):
        assert np.array_equal(one[key], two[key]), key


def test_trial_batch_is_reproducible():
    cfg_a, cfg_b = simple_side(), simple_side(arms=(1.0, 1.4))
    a = trials(cfg_a, cfg_b, 0.5, 1, seed=81, delta_a=0.3, delta_b=1.1)
    b = trials(cfg_a, cfg_b, 0.5, 1, seed=81, delta_a=0.3, delta_b=1.1)
    assert a.keys() == b.keys()
    assert all(np.array_equal(a[key], b[key]) for key in a)


def test_marginals_are_balanced_with_spread():
    cfg = single_path_side(k=1.0)
    batch = trials(cfg, cfg, 50.0, 100_000, seed=12)
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


def test_scan_rows_equal_a_per_cell_recomputation():
    # every cell recomputed from both sides' outcomes at its own (delta_a,
    # delta_b), with the determined trials counted, agreement counted as
    # equal signs and the unbiased variance of the +/-1 products; side A's
    # arms cancel at delta_a = 0, so that row has no determined trial
    cfg_a = simple_side(arms=(1.0, 1.5))
    cfg_b = simple_side(arms=(1.0, 1.2), k=5.0, sigma_path=0.3, shifted_arm=1)
    grid = [0.0, 2.2, 5.0]
    rows = itf.correlation_scan(cfg_a, cfg_b, grid, 300, seed=8, spread_dx=0.6)
    assert [(r.delta_a, r.delta_b) for r in rows] == [(a, b) for a in grid for b in grid]
    for row in rows:
        cell = trials(cfg_a, cfg_b, 0.6, 300, seed=8, delta_a=row.delta_a, delta_b=row.delta_b)
        a, b = cell["outcome_a"], cell["outcome_b"]
        det = (a != itf.UNDETERMINED) & (b != itf.UNDETERMINED)
        n_det = int(det.sum())
        assert row.p_undetermined == 1.0 - n_det / 300 and row.n_trials == 300
        if row.delta_a == 0.0:
            assert n_det == 0 and (row.e_value, row.stderr, row.p_agree) == (None, None, None)
            continue
        assert n_det > 1
        mean = float((a[det].astype(np.int64) * b[det]).sum() / n_det)
        var = (1.0 - mean * mean) * n_det / (n_det - 1)
        assert row.e_value == mean
        assert row.stderr == math.sqrt(var / n_det)
        assert row.p_agree == int((a[det] == b[det]).sum()) / n_det


def test_scan_row_tallies_only_trials_determined_on_both_sides():
    out_a = np.array([1, -1, 0, 1, 1], dtype=np.int64)
    out_b = np.array([1, 1, 1, 0, -1], dtype=np.int8)
    row = itf._scan_row(0.5, 1.0, out_a, out_b)
    # trials 0, 1 and 4 are determined, with products 1, -1 and -1
    assert (row.e_value, row.p_agree, row.p_undetermined, row.n_trials) == (-1 / 3, 1 / 3, 0.4, 5)
    assert row.stderr == math.sqrt((1.0 - 1 / 9) * 3 / 2 / 3)


def test_scan_computes_one_outcome_column_per_side_and_phase(monkeypatch):
    # A's column once per row and B's once per phase: 2*len(grid) in all
    calls = []

    def counted(plain, shifted, delta):
        calls.append(delta)
        return side_outcomes(plain, shifted, delta)

    side_outcomes = itf._side_outcomes
    monkeypatch.setattr(itf, "_side_outcomes", counted)
    grid = [0.1 * k for k in range(8)]
    rows = itf.correlation_scan(simple_side(arms=(1.0, 1.3)), simple_side(), grid, 50, seed=4)
    assert len(rows) == 64
    assert len(calls) == 2 * len(grid)
    assert sorted(calls) == sorted(grid + grid)


def _jittered_side(g):
    n_arms = int(g.integers(1, 4))
    return itf.SideConfig(arm_lengths=tuple(g.uniform(0.5, 2.0, n_arms)),
                          k_wave=float(g.uniform(1.0, 10.0)), n_ensemble=int(g.integers(1, 4)),
                          sigma_path=1.0 - float(g.uniform()),  # in (0, 1]
                          geometry_sign=float(g.choice([-1.0, 1.0])),
                          shifted_arm=int(g.integers(n_arms)))


@pytest.mark.parametrize("seed", range(8))
def test_shared_draw_bounds_the_chsh_of_every_jittered_table(seed):
    # one trial ensemble and one outcome column per phase: on four cells with no
    # undetermined trial, each trial adds S = +/-2, so |S| <= 2 up to rounding
    g = np.random.default_rng(2100 + seed)
    grid = list(g.uniform(0.0, TWO_PI, 6))
    rows = itf.correlation_scan(_jittered_side(g), _jittered_side(g), grid, 2000,
                                seed=int(g.integers(1 << 62)), spread_dx=float(g.uniform(0.5, 5)))
    e = np.array([np.nan if r.e_value is None else r.e_value for r in rows]).reshape(6, 6)
    live = np.array([r.p_undetermined == 0.0 for r in rows]).reshape(6, 6)
    quads = np.array(list(itertools.product(range(6), repeat=4))).T  # (a, a', b, b')
    pairs = bs.chsh_pairs(*quads)
    ok = np.logical_and.reduce([live[i, j] for i, j in pairs])
    s = bs.chsh_s([e[i, j] for i, j in pairs])
    assert ok.any()
    assert np.abs(s[ok]).max() <= 2.0 + 1e-12


@pytest.mark.parametrize("spread_dx", [math.nan, math.inf, -math.inf, -1.0])
def test_scan_refuses_a_bad_spread_before_the_grid(spread_dx):
    cfg = simple_side()
    with pytest.raises(ValueError, match="^sigma_dx must be finite and nonnegative, got"):
        itf.correlation_scan(cfg, cfg, [math.nan], 10, seed=0, spread_dx=spread_dx)


def test_all_zero_phases_symmetric_sides_give_unit_correlation():
    cfg = single_path_side()
    rows = itf.correlation_scan(cfg, cfg, [0.0], 500, seed=2, spread_dx=5.0)
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
                assert rows[k].e_value == e.mean
                assert rows[k].p_agree == e.p_agree
                k += 1


def test_exact_scan_refuses_jittered_sides():
    for sigma_a, sigma_b in ((0.1, 0.0), (0.0, 0.1), (1e-300, 1e-300)):
        with pytest.raises(ValueError, match="^exact scan requires jitter-free sides"):
            itf.degenerate_exact_scan(simple_side(sigma_path=sigma_a),
                                      simple_side(sigma_path=sigma_b), [0.0])


def _jitter_free_side(g, k, coupling, single_path):
    """1-3 arms of 1-3 replicas, some a half wavelength apart so that sums cancel at 0 or pi."""
    base = g.uniform(0.1, 3.0)
    arms = tuple(base + g.integers(0, 3) * math.pi / k if g.random() < 0.5
                 else g.uniform(0.1, 3.0) for _ in range(1 if single_path else g.integers(1, 4)))
    return itf.SideConfig(arm_lengths=arms, k_wave=k,
                          n_ensemble=1 if single_path else int(g.integers(1, 4)),
                          geometry_sign=coupling / k, shifted_arm=int(g.integers(len(arms))))


@pytest.mark.parametrize("sign_product", [1.0, -1.0])
def test_exact_scan_matches_monte_carlo(sign_product):
    # every jitter-free side is exp(i*k*g*dx0) times a fixed sum C(delta): the
    # exact table is the clock model's at the settings arg C, and a cell whose
    # C_A or C_B vanishes is undetermined on every trial; a wide source spread
    # makes the shared phase uniform, which the exact table assumes
    g = np.random.default_rng(41 if sign_product > 0 else 42)
    undetermined = 0
    for trial in range(30):
        coupling = g.choice([-1.0, 1.0]) * g.uniform(0.5, 2.0)
        cfg_a, cfg_b = (_jitter_free_side(g, g.uniform(0.5, 4.0), c, single_path=trial < 3)
                        for c in (coupling, sign_product * coupling))
        grid = [0.0, math.pi, *g.uniform(0.0, TWO_PI, 2)]
        exact = itf.degenerate_exact_scan(cfg_a, cfg_b, grid, 600)
        mc = itf.correlation_scan(cfg_a, cfg_b, grid, 20_000, seed=int(g.integers(1 << 40)),
                                  spread_dx=200.0)
        for e, m in zip(exact, mc):
            assert (e.delta_a, e.delta_b, e.n_trials) == (m.delta_a, m.delta_b, 600)
            if e.e_value is None:
                undetermined += 1
                assert (e.stderr, e.p_agree, e.p_undetermined) == (None, None, 1.0)
                # rounding in k*(L + g*dx0) can leave a cancelling trial's sum
                # just above DEGENERATE_R
                assert m.p_undetermined >= 0.99
            else:
                assert (e.stderr, e.p_undetermined) == (0.0, 0.0)
                assert e.p_agree == (1.0 + e.e_value) / 2.0
                assert m.p_undetermined <= 0.01
                assert abs(e.e_value - m.e_value) <= 5.0 * m.stderr, (cfg_a, cfg_b, e, m)
    assert undetermined > 0


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
    cfg_a = cfg_b = single_path_side()
    clock = ClockModel(b_convention=ALIGNED)
    batch = trials(cfg_a, cfg_b, 7.0, 2000, seed=21, delta_b=Setting.index(1).radians)
    theta0 = np.mod(cfg_a.k_wave * (cfg_a.arm_lengths[0] + cfg_a.geometry_sign * batch["dx0"]),
                    TWO_PI)
    theta0[theta0 >= TWO_PI] = 0.0
    expect_a = clock.outcomes_a(theta0, Setting.angle(0.0))
    expect_b = clock.outcomes_b(theta0, Setting.index(1))
    assert np.array_equal(batch["outcome_a"], expect_a)
    assert np.array_equal(batch["outcome_b"], expect_b)


def test_run_trial_agrees_with_side_phases_route():
    # the phase formula summed by path_engine.resultant and the batch phasor
    # decomposition inside _run_batch must describe the same resultant
    cfg_a = simple_side(arms=(1.0, 1.4), sigma_path=0.2, n_ensemble=2)
    cfg_b = simple_side(arms=(0.8,))
    trial = one_trial(cfg_a, cfg_b, 0.7, seed=37, delta_a=0.9, delta_b=2.1)
    for cfg, side, delta in ((cfg_a, "A", 0.9), (cfg_b, "B", 2.1)):
        res = resultant(reference_phases(cfg, side, trial["dx0"], 37, delta))
        assert abs(res.r - trial["r_" + side.lower()]) < 1e-12
        d = abs(res.theta - trial["theta_" + side.lower()]) % TWO_PI
        assert min(d, TWO_PI - d) < 1e-12


def test_global_length_shift_rotates_resultant():
    # adding a constant to every path length on one side rotates that side's
    # resultant angle by k*c and leaves its modulus unchanged
    cfg = itf.SideConfig(arm_lengths=(1.0, 1.3), k_wave=3.0, n_ensemble=2, sigma_path=0.1)
    base = one_trial(cfg, spread_dx=0.7, seed=6, delta_a=0.4)
    for c in (0.25, 1.0, 2.5):
        shifted_cfg = dataclasses.replace(cfg, arm_lengths=tuple(x + c for x in cfg.arm_lengths))
        rot = one_trial(shifted_cfg, spread_dx=0.7, seed=6, delta_a=0.4)
        assert abs(rot["r_a"] - base["r_a"]) < 1e-12
        d = abs((base["theta_a"] + cfg.k_wave * c) % TWO_PI - rot["theta_a"]) % TWO_PI
        assert min(d, TWO_PI - d) < 1e-10


# -- structure ------------------------------------------------------------------------------


def test_side_computation_signatures_have_no_remote_input():
    params = list(inspect.signature(itf._jitters).parameters)
    assert params == ["cfg", "side", "seed", "n"]
    params = list(inspect.signature(itf._phasor_parts).parameters)
    assert params == ["cfg", "side", "dx0", "seed", "n"]
    params = list(inspect.signature(itf._side_outcomes).parameters)
    assert params == ["plain", "shifted", "delta"]


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
    with pytest.raises(ValueError, match="^geometry_sign must be finite"):
        itf.SideConfig(arm_lengths=(1.0,), k_wave=1.0, geometry_sign=math.nan)
    # the shifter phase is an argument of the scan, never stored config
    with pytest.raises(TypeError):
        itf.SideConfig(arm_lengths=(1.0,), k_wave=1.0, phase_shifter=0.0)


def test_configs_are_frozen():
    cfg = simple_side()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.k_wave = 2.0
