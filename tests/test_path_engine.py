import math
import pickle
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpath import path_engine as pe
from bellpath import rng

TWO_PI = 2.0 * math.pi


# -- discrete action -----------------------------------------------------------


def straight_path(u, v, t, n):
    return pe.PathSample(np.linspace(u, v, n + 1), t)


def test_action_straight_free_path():
    # constant velocity 1: S = m/2 * v^2 * t = 1/2, any slicing
    for n in (1, 7, 100):
        assert abs(pe.discrete_action(straight_path(0, 1, 1, n)) - 0.5) < 1e-12


def test_action_stationary_path():
    assert pe.discrete_action(straight_path(0, 0, 2.0, 10)) == 0.0


def test_action_straight_path_harmonic():
    # S = 1/2 - integral of x^2/2 over the line = 1/2 - 1/6 = 1/3
    s = pe.discrete_action(straight_path(0, 1, 1, 10_000), pe.harmonic(1.0))
    assert abs(s - (0.5 - 1.0 / 6.0)) < 1e-6


def test_action_scales_with_mass():
    s1 = pe.discrete_action(straight_path(0, 1, 1, 10), mass=1.0)
    s2 = pe.discrete_action(straight_path(0, 1, 1, 10), mass=3.0)
    assert abs(s2 - 3.0 * s1) < 1e-12


def test_path_sample_validation():
    with pytest.raises(ValueError):
        pe.PathSample(np.array([0.0]), 1.0)
    with pytest.raises(ValueError):
        pe.PathSample(np.array([0.0, np.inf]), 1.0)
    with pytest.raises(ValueError):
        pe.PathSample(np.array([0.0, 1.0]), 0.0)


# -- analytic propagator -------------------------------------------------------


def test_analytic_free_zero_displacement():
    # sqrt(1/(2*pi*i*t)): modulus 1/sqrt(2*pi*t), phase -pi/4
    for t in (0.5, 1.0, 3.0):
        k = pe.analytic_propagator(pe.FREE, 1.0, 1.0, 0.3, 0.3, t)
        assert abs(abs(k) - 1.0 / math.sqrt(TWO_PI * t)) < 1e-14
        assert abs(np.angle(k) + math.pi / 4) < 1e-14


def test_analytic_free_unit_displacement():
    k = pe.analytic_propagator(pe.FREE, 1.0, 1.0, 0.0, 1.0, 1.0)
    assert abs(abs(k) - 0.3989422804014327) < 1e-15  # 1/sqrt(2*pi)
    # phase = 1/2 - pi/4
    assert abs(np.angle(k) - (0.5 - math.pi / 4)) < 1e-14


def test_analytic_harmonic_caustic_raises():
    with pytest.raises(ValueError):
        pe.analytic_propagator(pe.harmonic(1.0), 1.0, 1.0, 0.0, 0.0, math.pi)


def test_analytic_harmonic_modulus():
    k = pe.analytic_propagator(pe.harmonic(1.0), 1.0, 1.0, 0.0, 0.0, 1.0)
    assert abs(abs(k) - math.sqrt(1.0 / (TWO_PI * math.sin(1.0)))) < 1e-14


def test_analytic_harmonic_small_omega_approaches_free():
    kf = pe.analytic_propagator(pe.FREE, 1.0, 1.0, 0.0, 1.0, 1.0)
    kh = pe.analytic_propagator(pe.harmonic(1e-6), 1.0, 1.0, 0.0, 1.0, 1.0)
    assert abs(kf - kh) / abs(kf) < 1e-6


# -- sliced propagator ------------------------------------------------------------


def test_one_slice_is_the_exact_free_kernel():
    spec = pe.PropagatorSpec(1.0, pe.FREE, 0.0, 1.0, 1.0, 1, (-20, 20, 2048))
    got = pe.sliced_propagator(spec)
    ref = pe.analytic_propagator(pe.FREE, 1.0, 1.0, 0.0, 1.0, 1.0)
    assert abs(got.value - ref) <= 1e-10
    assert not got.support_warning


def test_sliced_free_accuracy_moderate_grid():
    spec = pe.PropagatorSpec(1.0, pe.FREE, 0.0, 1.0, 1.0, 4, (-20, 20, 1024))
    got = pe.sliced_propagator(spec).value
    ref = pe.analytic_propagator(pe.FREE, 1.0, 1.0, 0.0, 1.0, 1.0)
    assert abs(abs(got) - abs(ref)) / abs(ref) < 0.05


def test_grid_doubling_halves_the_error():
    ref = pe.analytic_propagator(pe.FREE, 1.0, 1.0, 0.0, 1.0, 1.0)
    errs = []
    for n_points in (256, 512, 1024, 2048):
        spec = pe.PropagatorSpec(1.0, pe.FREE, 0.0, 1.0, 1.0, 8, (-20, 20, n_points))
        got = pe.sliced_propagator(spec).value
        errs.append(abs(got - ref) / abs(ref))
    for coarse, fine in zip(errs, errs[1:]):
        assert fine < 0.5 * coarse


def test_slice_composition_semigroup():
    # composing k damped slices must equal one slice of the total complex
    # time; on a wide grid the grid integration reproduces that closed form
    grid = (-40.0, 40.0, 4096)
    x = np.linspace(*grid)
    dx = x[1] - x[0]
    for k in (2, 4, 8):
        spec = pe.PropagatorSpec(1.0, pe.FREE, 0.0, 1.0, 1.0, k, grid)
        eta = 2.0 * spec.damping * dx * dx / (math.pi**2 * (1.0 / k))
        total_time = 1.0 * (1.0 - 1j * eta)
        target = np.sqrt(1.0 / (2j * np.pi * total_time)) * np.exp(
            1j * 1.0 / (2.0 * total_time))
        got = pe.sliced_propagator(spec).value
        assert abs(got - target) / abs(target) < 1e-3


def test_support_warning_fires_for_flat_kernels():
    # a free delta source fills the grid with near-constant |psi|:
    # truncation is material and must be surfaced
    spec = pe.PropagatorSpec(1.0, pe.FREE, 0.0, 1.0, 1.0, 8, (-20, 20, 2048))
    assert pe.sliced_propagator(spec).support_warning


def test_no_support_warning_for_confined_harmonic():
    spec = pe.PropagatorSpec(1.0, pe.harmonic(1.0), 0.0, 0.0, 1.0, 32, (-20, 20, 2048))
    assert not pe.sliced_propagator(spec).support_warning


# -- FFT joints against a dense reference ------------------------------------------


def slice_eta(spec):
    dx = (spec.grid[1] - spec.grid[0]) / (spec.grid[2] - 1)
    return 2.0 * spec.damping * spec.mass * dx * dx / (math.pi**2 * spec.hbar * (spec.t / spec.n_slices))


def dense_propagator(spec):
    """The N x N kernel loop that the FFT joints replace, kept as a reference."""
    x = np.linspace(*spec.grid)
    dx = x[1] - x[0]
    tau = spec.t / spec.n_slices * (1.0 - 1j * slice_eta(spec))
    weights = np.full(x.size, dx)
    weights[[0, -1]] *= 0.5
    psi = pe._slice_kernel(spec, tau, x, spec.u)
    kernel = pe._slice_kernel(spec, tau, x[:, None], x[None, :])
    for _ in range(spec.n_slices - 2):
        psi = kernel @ (weights * psi)
    return complex(np.sum(weights * pe._slice_kernel(spec, tau, spec.v, x) * psi))


@st.composite
def propagator_specs(draw):
    x_min = -draw(st.floats(1.0, 30.0))
    x_max = draw(st.floats(1.0, 30.0))
    inside = st.floats(0.95 * x_min, 0.95 * x_max)
    # omega up to 40 puts omega*dt past 2, where only the Hankel split decays
    potential = draw(st.one_of(st.just(pe.FREE), st.floats(0.1, 40.0).map(pe.harmonic)))
    return pe.PropagatorSpec(
        mass=draw(st.floats(0.2, 5.0)), potential=potential, u=draw(inside), v=draw(inside),
        t=draw(st.floats(0.1, 3.0)), n_slices=draw(st.integers(3, 24)),
        grid=(x_min, x_max, draw(st.integers(16, 600))),
        hbar=draw(st.floats(0.3, 3.0)), damping=draw(st.floats(2.0, 12.0)))


@settings(max_examples=60, deadline=None)
@given(propagator_specs())
def test_fft_joints_match_the_dense_kernel(spec):
    scale = math.sqrt(spec.mass / (2.0 * math.pi * spec.hbar * spec.t))
    got = pe.sliced_propagator(spec)
    assert abs(got.value - dense_propagator(spec)) <= 1e-10 * scale
    assert got.eta == pytest.approx(slice_eta(spec), rel=1e-12)
    assert got.support_warning == (got.edge_fraction > pe.SUPPORT_WARNING_LEVEL)


def test_hankel_split_where_the_toeplitz_factor_grows():
    # omega*dt = 8/3 > 2/sqrt(1 + eta^2): the Toeplitz middle factor grows as
    # exp(+c*(x-x')^2) and a Toeplitz-only product overflows to ~1e81
    spec = pe.PropagatorSpec(1.0, pe.harmonic(8.0), 0.0, 1.0, 1.0, 3, (-20.0, 20.0, 256))
    got = pe.sliced_propagator(spec)
    want = dense_propagator(spec)
    assert abs(want - (0.01681291705425189 + 0.004513405782659664j)) < 1e-12
    assert abs(got.value - want) < 1e-12
    assert not got.support_warning


def test_fine_grid_runs_in_linear_memory():
    # a dense 32768-point kernel would take 16 GB
    spec = pe.PropagatorSpec(1.0, pe.FREE, 0.0, 1.0, 1.0, 8, (-20.0, 20.0, 32768))
    got = pe.sliced_propagator(spec)
    ref = pe.analytic_propagator(pe.FREE, 1.0, 1.0, 0.0, 1.0, 1.0)
    # the eta bias is gone here; what is left is domain truncation, flagged
    assert got.eta < 1e-4
    assert got.support_warning
    assert abs(got.value - ref) / abs(ref) < 0.02


def test_eta_and_edge_fraction_are_reported():
    one = pe.sliced_propagator(pe.PropagatorSpec(1.0, pe.FREE, 0.0, 1.0, 1.0, 1, (-20, 20, 16)))
    assert one.eta == 0.0 and one.edge_fraction == 0.0
    coarse = pe.sliced_propagator(pe.PropagatorSpec(1.0, pe.FREE, 0.0, 1.0, 1.0, 3, (-20, 20, 16)))
    assert coarse.eta > 30.0 > pe.ETA_WARNING_LEVEL
    assert not coarse.support_warning and coarse.edge_fraction <= pe.SUPPORT_WARNING_LEVEL
    flat = pe.sliced_propagator(pe.PropagatorSpec(1.0, pe.FREE, 0.0, 1.0, 1.0, 8, (-20, 20, 2048)))
    assert flat.eta < pe.ETA_WARNING_LEVEL
    assert flat.support_warning and flat.edge_fraction > pe.SUPPORT_WARNING_LEVEL


def test_spec_validation():
    with pytest.raises(ValueError):
        pe.PropagatorSpec(1.0, pe.FREE, 0.0, 30.0, 1.0, 8, (-20, 20, 2048))
    with pytest.raises(ValueError):
        pe.PropagatorSpec(1.0, pe.FREE, 0.0, 1.0, 1.0, 0, (-20, 20, 2048))
    with pytest.raises(ValueError):
        pe.PropagatorSpec(1.0, pe.FREE, 0.0, 1.0, 1.0, 8, (-20, 20, 8))
    with pytest.raises(ValueError):
        pe.PropagatorSpec(-1.0, pe.FREE, 0.0, 1.0, 1.0, 8, (-20, 20, 2048))


# -- resultant ----------------------------------------------------------------------


def test_resultant_single_phase():
    r = pe.resultant([2.5])
    assert abs(r.r - 1.0) < 1e-15
    assert abs(r.theta - 2.5) < 1e-15
    assert not r.degenerate


def test_resultant_cancellation():
    r = pe.resultant([0.0, math.pi])
    assert r.r < 1e-12
    assert r.theta == 0.0
    assert r.degenerate


def test_resultant_two_phases():
    # e^{i0} + e^{i pi/2} has modulus sqrt(2) and angle pi/4
    r = pe.resultant([0.0, math.pi / 2])
    assert abs(r.r - math.sqrt(2)) < 1e-14
    assert abs(r.theta - math.pi / 4) < 1e-14


def test_resultant_rejects_empty():
    with pytest.raises(ValueError):
        pe.resultant([])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=40),
       st.integers(min_value=0, max_value=999))
def test_resultant_permutation_invariance(phases, perm_seed):
    base = pe.resultant(phases)
    perm = list(np.random.default_rng(perm_seed).permutation(phases))
    other = pe.resultant(perm)
    assert abs(base.r - other.r) < 1e-12
    if not base.degenerate and not other.degenerate and base.r > 1e-6:
        d = abs(base.theta - other.theta) % TWO_PI
        assert min(d, TWO_PI - d) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=40),
       st.floats(min_value=-6.0, max_value=6.0))
def test_resultant_global_phase_equivariance(phases, shift):
    base = pe.resultant(phases)
    rotated = pe.resultant([p + shift for p in phases])
    assert abs(base.r - rotated.r) < 1e-12
    if not base.degenerate and base.r > 1e-6:
        d = abs((base.theta + shift) % TWO_PI - rotated.theta) % TWO_PI
        assert min(d, TWO_PI - d) < 1e-11


# -- path sampling --------------------------------------------------------------------


def test_paths_pinned_exactly():
    paths = pe.sample_paths(0.3, -1.7, 2.0, 16, 200, jitter_scale=0.5, seed=5)
    assert len(paths) == 200
    for p in paths:
        assert p.positions[0] == 0.3
        assert p.positions[-1] == -1.7


def test_zero_jitter_gives_straight_lines():
    paths = pe.sample_paths(0.0, 1.0, 1.0, 8, 5, jitter_scale=0.0, seed=1)
    base = np.linspace(0, 1, 9)
    for p in paths:
        assert np.allclose(p.positions, base, atol=1e-15)


def test_paths_deterministic_per_seed_offset():
    a = pe.sample_paths(0.0, 1.0, 1.0, 8, 10, 0.5, seed=100)
    b = pe.sample_paths(0.0, 1.0, 1.0, 8, 3, 0.5, seed=107)
    assert np.array_equal(a[7].positions, b[0].positions)


def test_straight_line_minimizes_free_action():
    straight = pe.discrete_action(straight_path(0, 1, 1, 16))
    paths = pe.sample_paths(0.0, 1.0, 1.0, 16, 10_000, jitter_scale=0.5, seed=9)
    actions = np.array([pe.discrete_action(p) for p in paths])
    assert actions.min() >= straight - 1e-9
    assert actions.mean() > straight


# -- batch sampling and the lean action against the per-row reference ---------------


def reference_paths(u, v, t, n_slices, n_paths, jitter_scale, seed):
    """The per-row construction that sample_paths replaces, kept as a reference."""
    dt = t / n_slices
    base = np.linspace(u, v, n_slices + 1)
    z = rng.normals_for_seeds(rng.trial_seeds(seed, n_paths), n_slices)
    walk = np.cumsum(z * math.sqrt(dt), axis=1)
    frac = np.arange(1, n_slices + 1) / n_slices
    bridge = walk - frac[None, :] * walk[:, -1:]
    paths = np.repeat(base[None, :], n_paths, axis=0)
    paths[:, 1:] += jitter_scale * bridge
    paths[:, -1] = v
    rows = []
    for row in paths:
        pos = np.asarray(row, dtype=np.float64)
        assert pos.ndim == 1 and pos.size >= 2 and np.all(np.isfinite(pos)) and t > 0
        rows.append(pos)
    return rows


def reference_action(x, t_total, potential, mass):
    """The np.diff/np.sum midpoint rule that discrete_action replaces."""
    dt = t_total / (x.size - 1)
    dx = np.diff(x)
    mid = 0.5 * (x[:-1] + x[1:])
    kinetic = 0.5 * mass * (dx / dt) ** 2
    return float(np.sum((kinetic - potential.energy(mid, mass)) * dt))


@settings(max_examples=200, deadline=None)
@given(u=st.floats(-5.0, 5.0), v=st.floats(-5.0, 5.0), t=st.floats(0.01, 10.0),
       n_slices=st.integers(1, 64), n_paths=st.integers(1, 50), jitter=st.floats(0.0, 3.0),
       seed=st.one_of(st.sampled_from([0, -1, 2**64 - 3]), st.integers(-2**70, 2**70)),
       potential=st.one_of(st.just(pe.FREE), st.floats(0.01, 10.0).map(pe.harmonic)),
       mass=st.floats(0.05, 20.0))
def test_batch_paths_and_actions_are_bit_identical_to_the_per_row_rule(
        u, v, t, n_slices, n_paths, jitter, seed, potential, mass):
    paths = pe.sample_paths(u, v, t, n_slices, n_paths, jitter, seed)
    want = reference_paths(u, v, t, n_slices, n_paths, jitter, seed)
    assert len(paths) == n_paths
    for path, ref in zip(paths, want):
        assert path.t_total == t
        assert not path.positions.flags.writeable
        assert np.array_equal(path.positions, ref)
        assert pe.discrete_action(path, potential, mass) == reference_action(ref, t, potential, mass)


def test_a_batch_holds_little_beyond_its_matrix():
    # a path is its batch and row: about 90 bytes with its list slot and row number
    pe.sample_paths(0, 1, 1, 16, 2, 0.5, 1)  # first-call allocations are not the batch's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        paths = pe.sample_paths(0, 1, 1, 16, 20000, 0.5, 1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(paths) == 20000
    assert (held - 20000 * 17 * 8) / 20000 <= 120


def test_a_path_reprs_as_its_positions_and_duration():
    assert repr(pe.PathSample([0.0, 1.0], 1.0)) == "PathSample(positions=array([0., 1.]), t_total=1.0)"


def test_rows_cannot_be_made_writeable():
    path = pe.sample_paths(0.0, 1.0, 1.0, 4, 3, 0.5, seed=2)[1]
    with pytest.raises(ValueError):
        path.positions[1] = 0.0
    with pytest.raises(ValueError):
        path.positions.flags.writeable = True


def test_path_sample_copies_the_callers_array():
    base = np.array([0.0, 0.5, 1.0, 1.5])
    path = pe.PathSample(base[:3], 1.0)
    action = pe.discrete_action(path)
    base[1] = 0.9
    assert base.flags.writeable
    assert path.positions[1] == 0.5
    assert not path.positions.flags.writeable
    assert pe.discrete_action(path) == action


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
def test_sample_paths_needs_a_finite_positive_t(bad):
    with pytest.raises(ValueError, match=r"^t must be finite and positive"):
        pe.sample_paths(0.0, 1.0, bad, 4, 2, 0.5, seed=1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["u", "v", "jitter_scale"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sample_paths_names_a_non_finite_input(name, bad):
    args = {"u": 0.0, "v": 1.0, "t": 1.0, "n_slices": 4, "n_paths": 2, "jitter_scale": 0.5,
            "seed": 1, name: bad}
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        pe.sample_paths(**args)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [-2.0, math.nan, math.inf])
def test_path_sample_needs_a_finite_positive_duration(bad):
    with pytest.raises(ValueError, match=r"^t_total must be finite and positive"):
        pe.PathSample([0.0, 1.0], bad)


# -- one action table per batch --------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(u=st.floats(-5.0, 5.0), v=st.floats(-5.0, 5.0), t=st.floats(0.01, 10.0),
       n_slices=st.one_of(st.integers(1, 70), st.integers(120, 300)),
       n_paths=st.integers(1, 20), jitter=st.floats(0.0, 3.0), seed=st.integers(-2**70, 2**70),
       keys=st.lists(st.tuples(st.one_of(st.just(pe.FREE),
                                         st.floats(0.01, 10.0).map(pe.harmonic)),
                               st.floats(0.05, 20.0)), min_size=2, max_size=2),
       calls=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 10**6), st.booleans()),
                      min_size=1, max_size=40))
def test_interleaved_keys_on_batch_rows_and_lone_paths_match_the_per_row_rule(
        u, v, t, n_slices, n_paths, jitter, seed, keys, calls):
    rows = pe.sample_paths(u, v, t, n_slices, n_paths, jitter, seed)
    lone = [pe.PathSample(p.positions, t) for p in rows]
    for key, pick, alone in calls:
        potential, mass = keys[key]
        path = (lone if alone else rows)[pick % n_paths]
        want = reference_action(np.array(path.positions), t, potential, mass)
        assert pe.discrete_action(path, potential, mass) == want


def counting_builds(monkeypatch):
    """Record the rows of every action table built from here on."""
    built = []
    real = pe._action_table

    def counting(x, t_total, potential, mass):
        built.append(((potential, mass), x.shape[0]))
        return real(x, t_total, potential, mass)

    monkeypatch.setattr(pe, "_action_table", counting)
    return built


def test_a_batch_builds_one_table_per_key(monkeypatch):
    built = counting_builds(monkeypatch)
    paths = pe.sample_paths(0.0, 1.0, 1.0, 8, 1000, 0.5, seed=3)
    rent = 1000 * 9 // (9 + pe._CALL_POSITIONS)
    assert rent == 17
    h = pe.harmonic(2.0)
    actions = [pe.discrete_action(p, h, 1.5) for p in paths]
    # the first calls serve their own rows, then one table serves the rest
    assert built == [((h, 1.5), 1)] * rent + [((h, 1.5), 1000)]
    del built[:]
    assert [pe.discrete_action(p, pe.harmonic(2.0), 1.5) for p in paths] == actions
    assert built == []  # an equal key is the same key
    pe.discrete_action(paths[0], h, 2.5)
    for p in paths[:rent + 1]:
        pe.discrete_action(p, pe.FREE, 2.5)
    assert built == [((h, 2.5), 1)] + [((pe.FREE, 2.5), 1)] * rent + [((pe.FREE, 2.5), 1000)]
    del built[:]
    assert pe.discrete_action(paths[7], h, 1.5) == actions[7]  # only the last table is kept
    assert built == [((h, 1.5), 1)]


def test_a_lone_path_builds_its_one_row_table_at_once(monkeypatch):
    built = counting_builds(monkeypatch)
    path = pe.PathSample(np.linspace(0.0, 1.0, 1001), 1.0)
    h = pe.harmonic(2.0)
    assert [pe.discrete_action(path, h) for _ in range(5)] == [pe.discrete_action(path, h)] * 5
    assert built == [((h, 1.0), 1)]


@pytest.mark.parametrize("n_slices", [8, 1000])
@pytest.mark.parametrize("period", [1, 2, 5, 16, 17, 18, 60, 400])
def test_switching_keys_costs_at_most_a_lone_row_and_one_call_per_call(
        monkeypatch, n_slices, period):
    built = counting_builds(monkeypatch)
    n_paths = 400
    paths = pe.sample_paths(0.0, 1.0, 1.0, n_slices, n_paths, 0.5, seed=3)
    keys = [(pe.FREE, 1.5), (pe.harmonic(2.0), 1.5)]
    calls = 0
    for _ in range(3):
        for i, p in enumerate(paths):
            potential, mass = keys[i // period % 2]
            x = np.array(p.positions)
            assert pe.discrete_action(p, potential, mass) == reference_action(
                x, 1.0, potential, mass)
            calls += 1
    positions = sum(rows for _, rows in built) * (n_slices + 1)
    assert positions < calls * (2 * (n_slices + 1) + pe._CALL_POSITIONS)


@pytest.mark.filterwarnings("error")
def test_equal_masses_and_omegas_of_other_types_keep_their_own_rounding():
    paths = pe.sample_paths(0.0, 1.0, 1.0, 8, 4, 0.5, seed=3)
    keys = [(pe.harmonic(1.1), 1.0), (pe.harmonic(1.1), np.float32(1.0)),
            (pe.harmonic(1.0), 1.1), (pe.harmonic(np.float32(1.0)), 1.1)]
    want = {i: [reference_action(np.array(p.positions), 1.0, *key) for p in paths]
            for i, key in enumerate(keys)}
    assert want[0] != want[1] and want[2] != want[3]  # the types do round differently
    for order in (range(4), range(3, -1, -1)):
        for i in order:  # each key twice: a row of its own, then the whole table
            assert [pe.discrete_action(p, *keys[i]) for p in paths] == want[i]
            assert [pe.discrete_action(p, *keys[i]) for p in paths] == want[i]


def test_threads_alternating_keys_on_one_batch_get_their_own_actions():
    paths = pe.sample_paths(0.0, 1.0, 1.0, 64, 200, 0.5, seed=5)
    keys = [(pe.FREE, 1.0), (pe.harmonic(3.0), 2.0)]
    want = [[reference_action(np.array(p.positions), 1.0, *key) for p in paths] for key in keys]
    wrong = []

    def worker(k):
        for _ in range(20):
            got = [pe.discrete_action(p, *keys[k]) for p in paths]
            if got != want[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    for k in (1, 0, 1):  # whatever the threads left in the slot pairs a key with its own table
        assert [pe.discrete_action(p, *keys[k]) for p in paths] == want[k]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, -2.0, 0.0, math.inf])
def test_discrete_action_needs_a_finite_positive_mass(bad):
    lone = pe.PathSample([0.0, 1.0], 1.0)
    row = pe.sample_paths(0.0, 1.0, 1.0, 4, 3, 0.5, seed=2)[1]
    for path in (lone, row):
        good = pe.discrete_action(path, pe.harmonic(1.0), 1.0)
        for potential in (pe.FREE, pe.harmonic(1.0)):
            with pytest.raises(ValueError, match=r"^mass must be finite and positive"):
                pe.discrete_action(path, potential, bad)
        assert pe.discrete_action(path, pe.harmonic(1.0), 1.0) == good


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_harmonic_needs_a_finite_positive_omega(bad):
    with pytest.raises(ValueError, match=r"^harmonic potential needs a finite omega > 0"):
        pe.harmonic(bad)


@pytest.mark.filterwarnings("error")
def test_path_samples_compare_and_hash_by_value():
    rows = pe.sample_paths(0.0, 1.0, 1.0, 4, 3, 0.5, seed=2)
    lone = pe.PathSample(np.array(rows[1].positions), 1)
    assert lone == rows[1] and hash(lone) == hash(rows[1])
    assert lone != rows[0]
    assert lone != pe.PathSample(rows[1].positions, 2.0)
    assert lone != pe.PathSample(rows[1].positions[:-1], 1.0)
    assert pe.PathSample([0.0, 1.0], 1.0) != (0.0, 1.0)
    signed = pe.PathSample([-0.0, 1.0], 1.0)
    assert signed == pe.PathSample([0.0, 1.0], 1.0)
    assert hash(signed) == hash(pe.PathSample([0.0, 1.0], 1.0))
    assert len({*rows, lone, *pe.sample_paths(0.0, 1.0, 1.0, 4, 3, 0.5, seed=2)}) == 3


def test_a_pickled_row_leaves_its_batch_behind():
    row = pe.sample_paths(0.0, 1.0, 1.0, 4, 500, 0.5, seed=2)[7]
    copy = pickle.loads(pickle.dumps(row))
    assert copy == row and not copy.positions.flags.writeable
    assert pe.discrete_action(copy, pe.harmonic(1.0)) == pe.discrete_action(row, pe.harmonic(1.0))
    assert len(pickle.dumps(row)) < 1000


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [(1e308, -1e308, 1.0, 4, 2, 0.5, 1),
                                  (0.0, 1.0, 10.0, 4, 2, 1e308, 1)])
def test_sample_paths_overflow_ends_at_the_finiteness_check(args):
    with pytest.raises(ValueError, match=r"^path positions must be finite$"):
        pe.sample_paths(*args)


@pytest.mark.parametrize("potential", [pe.FREE, pe.harmonic(1.0)])
def test_an_overflowing_row_warns_for_itself_alone(potential):
    paths = pe.sample_paths(0.0, 1.0, 1.0, 4, 20, 1e154, seed=1)
    overflowing = 0
    for path in paths:
        x = np.array(path.positions)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            want = reference_action(x, 1.0, potential, 1.0)
        if caught:
            overflowing += 1
            with pytest.warns(RuntimeWarning, match=r"^discrete_action is not finite"):
                got = pe.discrete_action(path, potential)
            assert got == want or (math.isnan(got) and math.isnan(want))
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert pe.discrete_action(path, potential) == want
    assert 0 < overflowing < len(paths)
