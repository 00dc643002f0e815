import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpath import path_engine as pe

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
