import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpath import config, rng
from bellpath.hv_models import (
    ALIGNED,
    ALL_INSTRUCTION_SETS,
    ANTI_ALIGNED,
    BOUNDARY_SNAP,
    ClockModel,
    InstructionSet,
    LhvModel,
    MerminModel,
    Setting,
    TWO_PI,
    _scalar_sign,
    threshold_sign,
)

# ---------------------------------------------------------------------------
# independent oracle for the clock model's sawtooth correlation
#
# E_aligned(delta) = 1 - 2*dc/pi with dc the circular distance between the
# two setting angles.  Verified here by brute force with numpy's own RNG
# before being used against the package's quadrature.


def sawtooth_E(delta: float) -> float:
    dc = min(delta % TWO_PI, TWO_PI - delta % TWO_PI)
    return 1.0 - 2.0 * dc / math.pi


def brute_force_E(delta: float, n: int = 2_000_000) -> float:
    g = np.random.default_rng(123)
    theta0 = g.uniform(0.0, TWO_PI, n)
    a = np.where((theta0 % TWO_PI) < np.pi, 1, -1)
    b = np.where(((theta0 + delta) % TWO_PI) < np.pi, 1, -1)
    return float(np.mean(a * b))


def test_sawtooth_closed_form_against_brute_force():
    for delta in (0.3, TWO_PI / 3, 2.5, math.pi):
        assert abs(brute_force_E(delta) - sawtooth_E(delta)) < 4e-3


# -- Setting ---------------------------------------------------------------


def test_setting_angle_normalizes():
    s = Setting.angle(-math.pi / 4)
    assert 0.0 <= s.value < TWO_PI
    assert abs(s.value - 7 * math.pi / 4) < 1e-12


def test_setting_index_maps_to_angles():
    assert Setting.index(0).radians == 0.0
    assert abs(Setting.index(1).radians - TWO_PI / 3) < 1e-15
    assert abs(Setting.index(2).radians - 2 * TWO_PI / 3) < 1e-15


def test_setting_rejects_bad_values():
    with pytest.raises(ValueError):
        Setting.index(3)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Setting.angle(x)
    with pytest.raises(ValueError):
        Setting("weird", 0)


def test_setting_text_round_trip():
    for s in (Setting.index(2), Setting.angle(1.234567890123), Setting.angle(0.0)):
        assert Setting.from_text(s.text) == s


# -- threshold rule -----------------------------------------------------------


def test_threshold_examples():
    assert threshold_sign(math.pi / 2) == 1
    assert threshold_sign(7 * math.pi / 6) == -1
    # half-open boundary convention: 0 -> +1, pi -> -1
    assert threshold_sign(0.0) == 1
    assert threshold_sign(math.pi) == -1
    # values a rounding error away from a boundary snap onto it
    assert threshold_sign(TWO_PI - 1e-15) == 1
    assert threshold_sign(math.pi - 1e-15) == -1


# angles anywhere, and in and around the snap bands at 0, pi and 2pi
_ANGLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda c, k: c + k * BOUNDARY_SNAP,
              st.sampled_from([0.0, math.pi, TWO_PI, -math.pi, 4 * math.pi]),
              st.floats(min_value=-3.0, max_value=3.0)),
    st.builds(lambda c, n: c + n * 2.0 ** -50,
              st.sampled_from([0.0, math.pi, TWO_PI]), st.integers(-64, 64)),
    st.sampled_from([-0.0, -1e-300, 1e-300, -5e-324, 1e300, -1e300, 1.7e308]),
)


@settings(max_examples=2000, deadline=None)
@given(_ANGLES)
def test_scalar_threshold_equals_array_rule(theta):
    got = _scalar_sign(theta)
    assert type(got) is int
    assert got == threshold_sign(np.array([theta]))[0]


def _mod_rule_sign(theta):
    """The np.mod and three-``where`` form of the threshold rule, kept as a reference."""
    w = np.mod(np.asarray(theta, dtype=np.float64), TWO_PI)
    w = np.where(np.abs(w - TWO_PI) < BOUNDARY_SNAP, 0.0, w)
    w = np.where(np.abs(w - np.pi) < BOUNDARY_SNAP, np.pi, w)
    out = np.where(w < np.pi, np.int8(1), np.int8(-1))
    return out if out.ndim else np.int8(out)


_EDGE_ANGLES = [
    0.0, -0.0, math.pi + 1e-13, math.pi - 1e-13, np.nextafter(TWO_PI, 0.0), TWO_PI,
    3 * math.pi + 5e-13, 3 * math.pi - 5e-13, np.nextafter(2 * TWO_PI, 0.0), 2 * TWO_PI,
    -1e-300, -1e-13, -math.pi, -TWO_PI, -7.5, math.nan, math.inf, -math.inf,
]
_UNIFORM_DRAWS = np.random.default_rng(21)


# np.mod warns on +/-inf, in the reference and in threshold_sign alike
@pytest.mark.filterwarnings("ignore:invalid value encountered in remainder:RuntimeWarning")
@pytest.mark.parametrize("theta", [
    *[np.array([x]) for x in _EDGE_ANGLES],
    np.array(_EDGE_ANGLES),
    np.array([0.5, TWO_PI + 1.0, 2 * TWO_PI]),  # one value past [0, 4pi) sends all to np.mod
    np.array([], dtype=np.float64),
    np.float64(3 * math.pi + 5e-13),
    np.array(-0.0),
    _UNIFORM_DRAWS.uniform(-50.0, 50.0, 100_000),
    _UNIFORM_DRAWS.uniform(0.0, 2 * TWO_PI, 100_000),
], ids=lambda t: repr(float(t.flat[0])) if np.size(t) == 1 else f"shape{np.shape(t)}")
def test_threshold_sign_matches_the_mod_rule(theta):
    got, want = threshold_sign(theta), _mod_rule_sign(theta)
    assert type(got) is type(want) and got.dtype == want.dtype == np.int8
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@pytest.mark.filterwarnings("ignore:invalid value encountered in remainder:RuntimeWarning")
@pytest.mark.parametrize("theta", [
    np.array(_EDGE_ANGLES),
    np.array([0.5, TWO_PI + 1.0, 2 * TWO_PI]),
    np.array([], dtype=np.float64),
    np.array(-0.0),
    _UNIFORM_DRAWS.uniform(0.0, 2 * TWO_PI, 10_000),
], ids=lambda t: f"shape{np.shape(t)}")
def test_threshold_sign_writes_into_out(theta):
    out, scratch = np.empty(theta.shape, dtype=np.int8), np.empty(theta.shape)
    got = threshold_sign(theta, out=out, scratch=scratch)
    if out.ndim:
        assert got is out
    assert np.array_equal(got, threshold_sign(theta))


def _band_walk():
    """Every double within 64 ulps of each snap-band edge and boundary in [0, 4pi]."""
    centers = [math.pi, TWO_PI, 3 * math.pi, 2 * TWO_PI]
    edges = [c + d for c in centers for d in (-BOUNDARY_SNAP, 0.0, BOUNDARY_SNAP)] + [0.0]
    walk = []
    for e in edges:
        x = e
        for _ in range(64):
            x = np.nextafter(x, -math.inf)
        for _ in range(129):
            walk.append(x)
            x = np.nextafter(x, math.inf)
    return np.array(walk)


@pytest.mark.filterwarnings("ignore:invalid value encountered in remainder:RuntimeWarning")
def test_threshold_sign_matches_the_mod_rule_across_every_band_edge():
    walk = _band_walk()
    assert np.array_equal(threshold_sign(walk), _mod_rule_sign(walk))
    # the same values through np.mod: one negative value sends the whole array there
    assert np.array_equal(threshold_sign(np.append(walk, -1.0))[:-1], _mod_rule_sign(walk))


# -- the numpy-free scalar routes against numpy -----------------------------------


def test_two_pi_is_numpys_double():
    assert TWO_PI == 2.0 * np.pi


def _np_wrap(x: float) -> float:
    """Reference: np.mod into [0, 2pi), a result of 2pi itself taken to 0."""
    w = np.mod(np.float64(x), 2.0 * np.pi)
    return float(w - 2.0 * np.pi if w >= 2.0 * np.pi else w)


@settings(max_examples=2000, deadline=None)
@given(st.one_of(_ANGLES, st.integers(-10**6, 10**6).map(lambda k: k * (2.0 * np.pi))))
def test_setting_angle_wraps_like_np_mod(x):
    assert Setting.angle(x).value.hex() == _np_wrap(x).hex()


# -- instruction sets -----------------------------------------------------------


def test_instruction_set_catalog():
    assert len(ALL_INSTRUCTION_SETS) == 8
    assert ALL_INSTRUCTION_SETS[0].text == "RRR"
    assert ALL_INSTRUCTION_SETS[-1].text == "GGG"
    rrg = MerminModel.point_mass("RRG")
    lam = rrg.lambda_from_text("RRG")
    assert [rrg.outcome_a(lam, Setting.index(j)) for j in range(3)] == [1, 1, -1]
    assert rrg.outcomes_a(np.full(3, lam), np.arange(3)).tolist() == [1, 1, -1]
    with pytest.raises(ValueError):
        InstructionSet(("R", "G"))
    with pytest.raises(ValueError):
        InstructionSet.from_text("RGB")


def test_mermin_agreement_enumeration():
    # independent enumeration: a non-constant triple agrees on exactly 5 of
    # the 9 setting pairs, a constant one on all 9
    for iset in ALL_INSTRUCTION_SETS:
        same = sum(
            1 for i in range(3) for j in range(3) if iset.colors[i] == iset.colors[j]
        )
        if len(set(iset.colors)) == 1:
            assert same == 9
        else:
            assert same == 5


# -- sampling ----------------------------------------------------------------------


def test_point_mass_sampling_is_constant():
    model = MerminModel.point_mass("RRG")
    for seed in (0, 1, 999):
        assert model.lambda_text(model.sample_lambdas(seed, 1)[0]) == "RRG"


def test_clock_sample_in_range():
    model = ClockModel()
    theta = model.sample_lambdas(42, 1)[0]
    assert 0.0 <= theta < TWO_PI


@pytest.mark.parametrize("probs", [
    [0.125] * 8,
    [0.0, 0.3, 0.0, 0.0, 0.2, 0.5, 0.0, 0.0],  # repeated table entries
    [0.0] * 7 + [1.0],
    list(np.random.default_rng(22).dirichlet(np.ones(8))),
])
def test_mermin_sampler_is_searchsorted_right(probs):
    model = MerminModel(np.asarray(probs) / np.sum(probs))
    lams = model.sample_lambdas(2**64 - 9, 50_000)
    u = rng.uniforms_for_seeds(rng.trial_seeds(2**64 - 9, 50_000), 1)[:, 0]
    want = np.minimum(np.searchsorted(np.cumsum(model.probs), u, side="right"), 7)
    assert lams.dtype == np.int64 and np.array_equal(lams, want)


def test_uniform_frequencies():
    model = MerminModel.uniform()
    lams = model.sample_lambdas(7, 100_000)
    freq = np.bincount(lams, minlength=8) / 100_000
    assert np.all(np.abs(freq - 0.125) < 0.005)


def test_mermin_sampling_chi_squared():
    # 24.322 is the 99.9% point of chi2(7)
    model = MerminModel.uniform()
    counts = np.bincount(model.sample_lambdas(31, 100_000), minlength=8)
    expected = 100_000 / 8
    stat = ((counts - expected) ** 2 / expected).sum()
    assert stat < 24.322


def test_clock_sampling_chi_squared():
    model = ClockModel()
    theta = model.sample_lambdas(33, 100_000)
    counts = np.bincount((theta / TWO_PI * 16).astype(int), minlength=16)
    expected = 100_000 / 16
    stat = ((counts - expected) ** 2 / expected).sum()
    assert stat < 37.697


def test_nonuniform_table_sampling_matches_probs():
    probs = np.array([0.5, 0.25, 0.125, 0.125, 0, 0, 0, 0])
    model = MerminModel(probs)
    freq = np.bincount(model.sample_lambdas(3, 200_000), minlength=8) / 200_000
    assert np.all(np.abs(freq - probs) < 0.006)


def test_bad_probability_table_rejected():
    with pytest.raises(ValueError):
        MerminModel(np.full(8, 0.2))
    with pytest.raises(ValueError):
        MerminModel(np.array([1.5, -0.5, 0, 0, 0, 0, 0, 0]))


# -- outcomes ------------------------------------------------------------------------


def test_clock_outcome_examples():
    model = ClockModel()
    assert model.outcome_a(math.pi / 2, Setting.index(0)) == 1
    assert model.outcome_a(math.pi / 2, Setting.index(1)) == -1


def test_mermin_outcome_examples():
    model = MerminModel.uniform()
    lam = model.lambda_from_text("RRG")
    assert model.outcome_a(lam, Setting.index(2)) == -1  # G -> -1
    assert model.outcome_b(lam, Setting.index(0)) == 1  # R -> +1, aligned default


def test_b_convention():
    anti = ClockModel(b_convention=ANTI_ALIGNED)
    aligned = ClockModel(b_convention=ALIGNED)
    assert anti.outcome_b(math.pi / 2, Setting.index(0)) == -1
    assert aligned.outcome_b(math.pi / 2, Setting.index(0)) == 1


_MODELS = (ClockModel(), ClockModel(ALIGNED), MerminModel.uniform(),
           MerminModel.uniform(ANTI_ALIGNED))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_MODELS), st.integers(0, 1 << 40), st.integers(0, 2), _ANGLES)
def test_scalar_outcomes_equal_array_outcomes(model, seed, index, angle):
    settings_ = [Setting.index(index)]
    lams = list(model.sample_lambdas(seed, 3))
    if model.lambda_kind == "circle":
        settings_.append(Setting.angle(angle % TWO_PI))
        lams.append(angle)  # phases outside [0, 2pi) and at the band edges too
    for setting in settings_:
        want_a = model.outcomes_a(np.asarray(lams), setting)
        want_b = model.outcomes_b(np.asarray(lams), setting)
        for k, lam in enumerate(lams):
            got_a, got_b = model.outcome_a(lam, setting), model.outcome_b(lam, setting)
            assert type(got_a) is int and type(got_b) is int
            assert (got_a, got_b) == (want_a[k], want_b[k])


def test_setting_kind_mismatch_is_an_error():
    model = MerminModel.uniform()
    with pytest.raises(ValueError):
        model.outcome_a(0, Setting.angle(0.3))


def test_clock_accepts_angle_settings():
    model = ClockModel()
    assert model.outcome_a(0.1, Setting.angle(0.2)) == 1


# -- locality and determinism -----------------------------------------------------


def test_outcome_a_ignores_whatever_b_does():
    model = ClockModel()
    lam = model.sample_lambdas(5, 1)[0]
    a = Setting.index(1)
    before = model.outcome_a(lam, a)
    for b in (Setting.index(0), Setting.index(2), Setting.angle(2.2)):
        model.outcome_b(lam, b)
        assert model.outcome_a(lam, a) == before


def test_outcome_signatures_admit_no_remote_setting():
    for cls in (LhvModel, ClockModel, MerminModel):
        for fn in (cls.outcomes_a, cls.outcomes_b):
            # beyond the one setting, only keyword-only output buffers
            params = inspect.signature(fn).parameters
            assert list(params) == ["self", "lams", "setting", "out", "scratch"]
            assert {params[p].kind for p in ("out", "scratch")} == {inspect.Parameter.KEYWORD_ONLY}
        for fn in (cls.outcome_a, cls.outcome_b):
            assert list(inspect.signature(fn).parameters) == ["self", "lam", "setting"]
    # side B's rule is written once, in the base class
    for cls in (ClockModel, MerminModel):
        assert cls.outcomes_b is LhvModel.outcomes_b and cls.outcome_b is LhvModel.outcome_b


def test_both_models_refuse_an_unknown_convention_alike():
    messages = set()
    for build in (lambda: ClockModel("x"), lambda: MerminModel.uniform("x")):
        with pytest.raises(ValueError) as info:
            build()
        messages.add(str(info.value))
    assert messages == {"b_convention must be 'aligned' or 'anti_aligned', got 'x'"}


def test_outcomes_deterministic_across_calls():
    model = ClockModel()
    lams = model.sample_lambdas(11, 1000)
    a = Setting.index(2)
    assert np.array_equal(model.outcomes_a(lams, a), model.outcomes_a(lams, a))


# -- enumeration ------------------------------------------------------------------


def test_enumerate_mermin_uniform():
    lams, probs = MerminModel.uniform().enumerate_lambda()
    assert len(lams) == 8
    assert np.allclose(probs, 0.125)


def test_enumerate_point_mass_returns_single_atom():
    lams, probs = MerminModel.point_mass("GRG").enumerate_lambda()
    assert len(lams) == 1
    assert probs[0] == 1.0


def circle_grid(n_grid: int) -> np.ndarray:
    """The uniform n_grid-point circle grid of clock phases, weight 1/n_grid
    each: the left-point quadrature oracle of the clock model's closed form."""
    return TWO_PI * np.arange(n_grid, dtype=np.float64) / n_grid


def test_circle_grid():
    assert np.allclose(circle_grid(4), [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])


# -- sawtooth vs quadrature ---------------------------------------------------------
# Grid sizes divisible by 6 put every breakpoint of the discrete-setting
# integrand on a grid point, so the quadrature is exact there; other sizes
# obey the documented 6/N bound.


def quadrature_E_aligned(da: float, db: float, n_grid: int) -> float:
    model = ClockModel(b_convention=ALIGNED)
    thetas = circle_grid(n_grid)
    prod = model.outcomes_a(thetas, da) * model.outcomes_b(thetas, db)
    return int(prod.astype(np.int64).sum()) / n_grid


def test_quadrature_matches_sawtooth_exactly_on_aligned_grid():
    for i in range(3):
        for j in range(3):
            da, db = Setting.index(i).radians, Setting.index(j).radians
            assert abs(quadrature_E_aligned(da, db, 10_002) - sawtooth_E(da - db)) < 1e-10


def test_quadrature_error_bound_random_settings():
    g = np.random.default_rng(5)
    for _ in range(25):
        da, db = g.uniform(0, TWO_PI, 2)
        err = abs(quadrature_E_aligned(da, db, 10_000) - sawtooth_E(da - db))
        assert err <= 6.0 / 10_000


# -- closed form vs the quadrature oracle ---------------------------------------------
# Each of the four jumps of the integrand A*B shifts a left-point sum on N
# points by less than 2/N, and the two rising jumps shift it against the two
# falling ones, so the sum lies within 4/N of the closed form (README: 6/N).

angles = st.floats(0.0, TWO_PI, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(a=angles, b=angles, convention=st.sampled_from((ALIGNED, ANTI_ALIGNED)),
       n_grid=st.integers(1, 2000).map(lambda k: 6 * k))
def test_closed_form_lies_within_6_over_n_of_quadrature(a, b, convention, n_grid):
    model = ClockModel(b_convention=convention)
    thetas = circle_grid(n_grid)
    prod = model.outcomes_a(thetas, a) * model.outcomes_b(thetas, b)
    quadrature = int(prod.astype(np.int64).sum()) / n_grid
    closed = model.exact_correlation(Setting.angle(a), Setting.angle(b))
    assert abs(closed - quadrature) <= 6.0 / n_grid
    flip = 1.0 if convention == ALIGNED else -1.0
    assert model.exact_correlation(a, a) == flip
    opposite = a + math.pi if a < math.pi else a - math.pi
    assert model.exact_correlation(a, opposite) == -flip


def test_closed_form_is_elementwise():
    model = ClockModel()
    a = np.array([0.0, 1.0, 2.0, 6.0])
    b = np.array([[3.0], [0.5]])
    table = model.exact_correlation(a, b)
    assert table.shape == (2, 4)
    for i in range(2):
        for j in range(4):
            assert table[i, j] == model.exact_correlation(Setting.angle(a[j]),
                                                          Setting.angle(b[i, 0]))


# -- config files ----------------------------------------------------------------------


def test_parse_mermin_config(tmp_path):
    text = "\n".join(
        ["# demo", "model=mermin", "b_convention=aligned"]
        + [f"p[{s.text}]=0.125" for s in ALL_INSTRUCTION_SETS]
    )
    path = tmp_path / "m.cfg"
    path.write_text(text)
    model = config.model_from_file(path)
    assert isinstance(model, MerminModel)
    assert np.allclose(model.probs, 0.125)


def test_parse_clock_config_defaults_anti_aligned(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("model=clock\n")
    model = config.model_from_file(path)
    assert isinstance(model, ClockModel)
    assert model.b_convention == ANTI_ALIGNED


def test_mermin_config_defaults_aligned():
    model = config.model_from_mapping({"model": "mermin", "p[RRR]": "1.0"})
    assert model.b_convention == ALIGNED


def test_config_rejects_bad_sum():
    mapping = {"model": "mermin", "p[RRR]": "0.5", "p[GGG]": "0.4"}
    with pytest.raises(config.ConfigError):
        config.model_from_mapping(mapping)


def test_config_sum_within_tolerance_is_renormalized():
    mapping = {"model": "mermin", "p[RRR]": "0.5", "p[GGG]": str(0.5 + 4e-10)}
    model = config.model_from_mapping(mapping)
    assert abs(model.probs.sum() - 1.0) <= 1e-12


def test_config_rejects_unknown_and_duplicate_keys():
    with pytest.raises(config.ConfigError):
        config.model_from_mapping({"model": "clock", "frequency": "3"})
    with pytest.raises(config.ConfigError):
        config.parse_kv_text("a=1\na=2\n")
    with pytest.raises(config.ConfigError):
        config.parse_kv_text("just some text\n")
