import math
import pickle
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
# heavy damping: every composed state underflows to 0, in the dense product too
@example(pe.PropagatorSpec(mass=4.0, potential=pe.harmonic(3.0), u=0.0, v=0.0, t=1.0,
                           n_slices=15, grid=(-3.0, 13.0, 16), hbar=0.375, damping=12.0))
def test_fft_joints_match_the_dense_kernel(spec):
    scale = math.sqrt(spec.mass / (2.0 * math.pi * spec.hbar * spec.t))
    try:
        got = pe.sliced_propagator(spec)
    except ValueError as refusal:  # a value that underflowed to 0 prints no value
        assert " rounds to 0 for " in str(refusal)
        assert abs(dense_propagator(spec)) <= 1e-10 * scale
        return
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


@pytest.mark.filterwarnings("error")
def test_spec_validation():
    with pytest.raises(ValueError):
        pe.PropagatorSpec(1.0, pe.FREE, 0.0, 30.0, 1.0, 8, (-20, 20, 2048))
    with pytest.raises(ValueError):
        pe.PropagatorSpec(1.0, pe.FREE, 0.0, 1.0, 1.0, 0, (-20, 20, 2048))
    with pytest.raises(ValueError):
        pe.PropagatorSpec(1.0, pe.FREE, 0.0, 1.0, 1.0, 8, (-20, 20, 8))
    good = {"mass": 1.0, "potential": pe.FREE, "u": 0.0, "v": 1.0, "t": 1.0, "n_slices": 8,
            "grid": (-20, 20, 2048), "hbar": 1.0, "damping": 8.0}
    for name in ("mass", "hbar", "t", "damping"):
        for bad in (-1.0, 0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=rf"^{name} must be finite and positive"):
                pe.PropagatorSpec(**{**good, name: bad})
    for grid in ((-math.inf, math.inf, 64), (math.nan, 20, 64), (-20, math.inf, 64)):
        with pytest.raises(ValueError, match=r"^grid bounds must be finite"):
            pe.PropagatorSpec(**{**good, "grid": grid})
    # finite bounds whose anti-alias damping eta overflows, or a slice too short for it: the
    # spec holds them, and sliced_propagator refuses them at the slice count it runs
    for bad in ({"grid": (-1e300, 1e300, 64)}, {"grid": (-1e200, 1e200, 64), "n_slices": 2},
                {"t": 5e-324}):
        spec = pe.PropagatorSpec(**{**good, **bad})
        with pytest.raises(ValueError, match=rf"^grid spacing .* is too wide: .* eta at "
                                             rf"{spec.n_slices} slices is not finite$"):
            pe.sliced_propagator(spec)
    # one slice uses no grid, so any finite grid around the endpoints is accepted
    one = pe.PropagatorSpec(**{**good, "grid": (-1e300, 1e300, 64), "n_slices": 1})
    assert pe.sliced_propagator(one).eta == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("potential, bad", [
    *((potential, bad) for potential in (pe.FREE, pe.harmonic(1.0))
      for bad in ({"hbar": 1e308}, {"hbar": 1e308, "n_slices": 1},
                  {"grid": (-1e155, 1e155, 64)}, {"grid": (-1e155, 1e155, 64), "n_slices": 2})),
    # the end-slice kernels stay finite at 1e307; a joint's exp(coef*s*s) overflows
    (pe.harmonic(1.0), {"t": 1e307}), (pe.harmonic(1.0), {"t": 1e308})])
def test_a_propagator_whose_arithmetic_overflows_is_refused(potential, bad):
    spec = pe.PropagatorSpec(**{"mass": 1.0, "potential": potential, "u": 0.0, "v": 1.0,
                                "t": 1.0, "n_slices": 8, "grid": (-20, 20, 256), **bad})
    with pytest.raises(ValueError, match=r"^the (free|harmonic \(omega 1\)) propagator at "
                                         r"\d+ slices is not finite for mass 1, hbar "):
        pe.sliced_propagator(spec)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad, fault", [
    ({"hbar": 1e307, "t": 10.0}, "rounds to 0"),  # 2*pi*i*hbar*t overflows
    ({"mass": 1e-300, "hbar": 1e300}, "rounds to 0"),  # m/(2*pi*i*hbar*t) underflows
    ({"hbar": 1e-320, "t": 1e-10}, "is not finite"),  # hbar*t underflows to 0
])
def test_a_one_slice_kernel_that_cannot_be_represented_is_refused(bad, fault):
    spec = pe.PropagatorSpec(**{"mass": 1.0, "potential": pe.FREE, "u": 0.0, "v": 1.0,
                                "t": 1.0, "n_slices": 1, "grid": (-20, 20, 256), **bad})
    with pytest.raises(ValueError, match=rf"^the free propagator at 1 slices {fault} for mass "):
        pe.sliced_propagator(spec)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("potential, hbar, t, n_slices", [
    # every grid value of a composed state rounds to 0; the true modulus is about 4.0e-155
    (pe.FREE, 1e307, 10.0, 2), (pe.FREE, 1e307, 10.0, 8),
    # the one joint leaves a state that is not 0 everywhere, and the last slice's sum over
    # it still rounds to 0: 0,0,0,0 was printed
    (pe.FREE, 1e300, 1.0, 3), (pe.harmonic(1.0), 1e250, 10.0, 3),
])
def test_a_composed_state_that_underflows_to_0_is_refused(potential, hbar, t, n_slices):
    spec = pe.PropagatorSpec(mass=1.0, potential=potential, u=0.0, v=1.0, t=t, hbar=hbar,
                             n_slices=n_slices, grid=(-20, 20, 1024))
    with pytest.raises(ValueError) as info:
        pe.sliced_propagator(spec)
    assert str(info.value) == (f"the {pe._kind_text(potential)} propagator at {n_slices} slices "
                               f"rounds to 0 for mass 1, hbar {hbar:.3g}, t {t:.3g} and "
                               f"grid -20, 20")


@pytest.mark.filterwarnings("error")
def test_a_harmonic_omega_t_that_overflows_is_refused():
    with pytest.raises(ValueError) as info:
        pe.analytic_propagator(pe.harmonic(1e150), 1.0, 1.0, 0.0, 1.0, 1e300)
    assert str(info.value) == "harmonic omega*t is not finite for omega 1e+150 and t 1e+300"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, err", [
    ((pe.FREE, 1.0, 1e307, 0.0, 1.0, 10.0),
     "the free closed-form propagator rounds to 0 for mass 1, hbar 1e+307, u 0, v 1 and t 10"),
    ((pe.FREE, 1.0, 1.0, 0.0, 1.5e154, 1.0),
     "the free closed-form propagator is not finite for mass 1, hbar 1, u 0, v 1.5e+154 and t 1"),
    ((pe.FREE, 1.0, 1e-320, 0.0, 1.0, 1e-10),
     "the free closed-form propagator is not finite for mass 1, hbar 1e-320, u 0, v 1 and "
     "t 1e-10"),
    ((pe.harmonic(1.0), 1.0, 1.0, 0.0, 1.5e154, 1.0),
     "the harmonic (omega 1) closed-form propagator is not finite for mass 1, hbar 1, u 0, "
     "v 1.5e+154 and t 1"),
])
def test_a_closed_form_that_cannot_be_represented_is_refused(args, err):
    with pytest.raises(ValueError) as info:
        pe.analytic_propagator(*args)
    assert str(info.value) == err


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


# -- batch sampling and the two-sums action against per-row references ---------------


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
    """The per-step np.diff/np.sum midpoint rule of earlier versions: the accuracy oracle."""
    dt = t_total / (x.size - 1)
    dx = np.diff(x)
    mid = 0.5 * (x[:-1] + x[1:])
    kinetic = 0.5 * mass * (dx / dt) ** 2
    return float(np.sum((kinetic - potential.energy(mid, mass)) * dt))


def two_sums_action(x, t_total, potential, mass):
    """The two-sums rule on one row, written plainly; discrete_action equals it bit for bit."""
    dt = t_total / (x.size - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        steps = float(np.sum(np.diff(x) ** 2))
        mids = float(np.sum((0.5 * (x[:-1] + x[1:])) ** 2))
    action = float(mass) / (2.0 * dt) * steps
    if potential.kind == "free":  # 0*mids could be 0*inf
        return action
    return action - float(potential.energy(1.0, mass)) * dt * mids


def gamma(k: int) -> float:
    """Higham's gamma_k = k*u / (1 - k*u), u the unit roundoff 2**-53."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def assert_near_the_per_step_rule(action, x, t_total, potential, mass):
    """The two rules differ by no more than their roundings allow.

    Both start from the same steps d, midpoints p and dt.  Against the exact
    sum S of m*d^2/(2*dt) - c*p^2*dt over the n steps, each rule rounds every
    part of a term at most n + 6 times: the n - 1 additions of any summation
    order (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 4.2), omega**2 as two (pow is within one ulp), and the rest one
    each.  So each rule lies within gamma(n + 6) * T of S, T being the sum of
    the terms' magnitudes, and scale (T in floating point) is within
    gamma(n + 6) * T of T.  A product or quotient whose result is subnormal
    also adds up to half the smallest subnormal (Higham, section 2.1), which a
    later product by m/(2*dt), c*dt, m*dt/2 or dt can magnify: at most
    n * tiny * (m/dt + m*dt + c*dt + dt + 2) over both rules.
    """
    n = x.size - 1
    dt = t_total / n
    c = float(potential.energy(1.0, mass))
    kinetic = 0.5 * mass * (np.diff(x) / dt) ** 2
    potential_terms = np.abs(potential.energy(0.5 * (x[:-1] + x[1:]), mass))
    scale = float(np.sum((kinetic + potential_terms) * dt))
    tiny = float(np.finfo(float).smallest_subnormal)
    bound = (2 * gamma(n + 6) * scale / (1 - gamma(n + 6))
             + n * tiny * (mass / dt + mass * dt + c * dt + dt + 2))
    want = reference_action(x, t_total, potential, mass)
    assert abs(action - want) <= bound


@settings(max_examples=200, deadline=None)
@example(u=0.0, v=5.015281120554068e-161, t=0.0625, n_slices=1, n_paths=1, jitter=0.0,
         seed=0, potential=pe.FREE, mass=1.0)  # a subnormal step square
@example(u=0.0, v=-1.9969949100674511, t=9.830883489201588, n_slices=47, n_paths=1,
         jitter=0.0, seed=0, potential=pe.FREE, mass=1.9715410734321503)  # 5.63 ulps
@example(u=0.0, v=0.0, t=1.0, n_slices=2, n_paths=1, jitter=2.2e-162, seed=1,
         potential=pe.FREE, mass=3.0)  # subnormal steps from the jitter alone
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
        assert not path.positions.flags.writeable
        assert np.array_equal(path.positions, ref)
        action = pe.discrete_action(path, potential, mass)
        assert action == two_sums_action(ref, t, potential, mass)
        assert_near_the_per_step_rule(action, ref, t, potential, mass)


def assert_rows_match_the_per_row_rule(u, v, t, n_slices, n_paths, jitter, seed):
    paths = pe.sample_paths(u, v, t, n_slices, n_paths, jitter, seed)
    want = reference_paths(u, v, t, n_slices, n_paths, jitter, seed)
    assert len(paths) == n_paths
    assert all(np.array_equal(path.positions, ref) for path, ref in zip(paths, want))
    switch = (pe.harmonic(5.0), 2.0)
    for potential, mass in ((pe.FREE, 1.3), (pe.harmonic(0.7), 0.9)):
        actions = [two_sums_action(ref, t, potential, mass) for ref in want]
        # keys that switch on every call
        switching = []
        for path in paths:
            switching.append(pe.discrete_action(path, potential, mass))
            pe.discrete_action(path, *switch)
        assert switching == actions
        # a fresh batch with one key, read twice
        paths = pe.sample_paths(u, v, t, n_slices, n_paths, jitter, seed)
        for _ in range(2):
            assert [pe.discrete_action(path, potential, mass) for path in paths] == actions


@pytest.mark.parametrize("n_slices", [15, 16])
def test_rows_across_block_boundaries_match_the_per_row_rule(n_slices):
    rows = pe._BLOCK_POSITIONS // n_slices
    for n_paths in (rows - 1, rows, rows + 1, 2 * rows + 1):
        assert_rows_match_the_per_row_rule(0.3, -1.1, 1.7, n_slices, n_paths, 0.9, 2**64 - 5)


def test_rows_longer_than_a_block_match_the_per_row_rule():
    assert_rows_match_the_per_row_rule(-0.4, 0.8, 2.5, pe._BLOCK_POSITIONS + 3, 3, 1.2, 11)


@pytest.mark.filterwarnings("error")
def test_an_overflow_in_a_later_block_ends_at_the_finiteness_check():
    rows = pe._BLOCK_POSITIONS // 16
    n_paths = 3 * rows
    # from u = v = 0 with unit jitter, a path's positions are its bridge
    excursion = np.abs([p.positions for p in pe.sample_paths(0.0, 0.0, 1.0, 16, n_paths, 1.0, 1)])
    first, rest = excursion[:rows].max(), excursion[rows:].max()
    assert first < rest
    jitter = sys.float_info.max / math.sqrt(first * rest)
    assert len(pe.sample_paths(0.0, 0.0, 1.0, 16, rows, jitter, 1)) == rows
    with pytest.raises(ValueError, match=r"^path positions must be finite$"):
        pe.sample_paths(0.0, 0.0, 1.0, 16, n_paths, jitter, 1)


def test_a_batch_holds_little_beyond_its_matrix():
    # a path is its batch and row: about 90 bytes with its list slot and row number, and
    # its two sums 16 more; sampling allocates a few blocks beyond what it keeps, and
    # action loops keep nothing once their results are gone
    h = pe.harmonic(1.0)
    for path in pe.sample_paths(0, 1, 1, 16, 2, 0.5, 1):  # first-call allocations
        pe.discrete_action(path, h)
        pe.discrete_action(path, pe.FREE)
    blocks = 8 * pe._BLOCK_POSITIONS * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        paths = pe.sample_paths(0, 1, 1, 16, 20000, 0.5, 1)
        after, peak = tracemalloc.get_traced_memory()
        held, sampling = after - before, peak - after
        sampled = after
        tracemalloc.reset_peak()
        actions = [pe.discrete_action(path, h) for path in paths]
        after, peak = tracemalloc.get_traced_memory()
        acting = peak - after
        del actions
        tracemalloc.reset_peak()
        actions = [(pe.discrete_action(path, pe.FREE), pe.discrete_action(path, h))
                   for path in paths]
        after, peak = tracemalloc.get_traced_memory()
        switching = peak - after
        del actions
        left = tracemalloc.get_traced_memory()[0] - sampled
        actions = [pe.discrete_action(paths[0], pe.harmonic(1.0 + k / 1000), 1.0)
                   for k in range(1000)]
        del actions
        keys_left = tracemalloc.get_traced_memory()[0] - sampled - left
    finally:
        tracemalloc.stop()
    assert len(paths) == 20000
    assert (held - 20000 * 17 * 8) / 20000 <= 120
    assert sampling <= blocks
    assert acting <= blocks
    assert switching <= blocks
    # actions keep nothing; these are the bounds of the per-key tables and markers of
    # earlier versions (two keys' tables, 1000 keys' markers)
    assert left <= 2 * 20000 * 40
    assert keys_left < 500_000


def test_paths_compare_by_identity_and_do_not_pickle():
    rows = pe.sample_paths(0.0, 1.0, 1.0, 4, 3, 0.5, seed=2)
    lone = pe.PathSample(np.array(rows[1].positions), 1.0)
    assert rows[1] == rows[1] and lone != rows[1]
    assert len({*rows, lone}) == 4
    with pytest.raises(TypeError):
        pickle.dumps(rows[1])


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


# -- any key, any order: two sums per path --------------------------------------------


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
        want = two_sums_action(np.array(path.positions), t, potential, mass)
        assert pe.discrete_action(path, potential, mass) == want


@pytest.mark.parametrize("n_slices", [16, pe._BLOCK_POSITIONS + 3])
@pytest.mark.parametrize("period", [1, 2, 5, 16, 17, 18, 60, 400])
def test_sums_are_filled_once_per_block_and_lone_path_and_never_by_an_action(
        monkeypatch, n_slices, period):
    fills = []
    real = pe._fill_sums

    def counting(x, scratch, steps, mids):
        fills.append(len(x))
        real(x, scratch, steps, mids)

    monkeypatch.setattr(pe, "_fill_sums", counting)
    rows = max(1, pe._BLOCK_POSITIONS // n_slices)
    n_paths = 2 * rows + 5 if rows > 1 else 3  # a row longer than a block is a block
    paths = pe.sample_paths(0.3, -0.2, 1.0, n_slices, n_paths, 0.8, seed=9)
    blocks = [min(rows, n_paths - start) for start in range(0, n_paths, rows)]
    assert fills == blocks
    lone = pe.PathSample(np.linspace(0.0, 1.0, 1001), 1.0)
    assert fills == blocks + [1]
    del fills[:]
    keys = [(pe.FREE, 1.5), (pe.harmonic(2.0), 1.5), (pe.harmonic(2.0), np.float32(1.5))]
    for _ in range(2):
        for i, p in enumerate([*paths, lone]):
            key = keys[i // period % len(keys)]
            assert pe.discrete_action(p, *key) == two_sums_action(
                np.array(p.positions), 1.0, *key)
    for k in range(100):
        pe.discrete_action(lone, pe.harmonic(1.0 + k / 100), 1.0)
    assert fills == []  # no call sequence costs more than its two lookups


@pytest.mark.filterwarnings("error")
def test_equal_masses_and_omegas_of_other_types_keep_their_own_rounding():
    paths = pe.sample_paths(0.0, 1.0, 1.0, 8, 4, 0.5, seed=3)
    keys = [(pe.harmonic(1.1), 1.0), (pe.harmonic(1.1), np.float32(1.0)),
            (pe.harmonic(1.0), 1.1), (pe.harmonic(np.float32(1.0)), 1.1)]
    want = {i: [two_sums_action(np.array(p.positions), 1.0, *key) for p in paths]
            for i, key in enumerate(keys)}
    assert want[0] != want[1] and want[2] != want[3]  # the types do round differently
    for order in (range(4), range(3, -1, -1)):
        for i in order:
            assert [pe.discrete_action(p, *keys[i]) for p in paths] == want[i]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mass", [1.3, np.float64(1.3), np.float32(1.3)])
@pytest.mark.parametrize("omega", [0.7, np.float64(0.7), np.float32(0.7)])
def test_the_potential_coefficient_is_the_energy_at_one(mass, omega):
    # a path resting at x = 1 for unit time has steps 0 and mids 1, so its action is -c
    rest = pe.PathSample([1.0, 1.0], 1.0)
    for potential in (pe.harmonic(omega), pe.Potential("free", omega)):
        c = -pe.discrete_action(rest, potential, mass)
        assert type(c) is float
        assert c == float(potential.energy(1.0, mass))


def test_threads_alternating_keys_on_one_batch_get_their_own_actions():
    paths = pe.sample_paths(0.0, 1.0, 1.0, 64, 200, 0.5, seed=5)
    keys = [(pe.FREE, 1.0), (pe.harmonic(3.0), 2.0)]
    want = [[two_sums_action(np.array(p.positions), 1.0, *key) for p in paths] for key in keys]
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
    for k in (1, 0, 1):
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
        want = two_sums_action(np.array(path.positions), 1.0, potential, 1.0)
        if not math.isfinite(want):
            overflowing += 1
            with pytest.warns(RuntimeWarning, match=r"^discrete_action is not finite"):
                got = pe.discrete_action(path, potential)
            assert got == want or (math.isnan(got) and math.isnan(want))
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert pe.discrete_action(path, potential) == want
    assert 0 < overflowing < len(paths)
