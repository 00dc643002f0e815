import math

import numpy as np
import pytest

from bellpath import bell_stats as bs
from bellpath import oracle, rng
from bellpath.hv_models import ALIGNED, ANTI_ALIGNED, ClockModel, MerminModel, Setting, TWO_PI

I0, I1, I2 = Setting.index(0), Setting.index(1), Setting.index(2)


def sawtooth_E_aligned(da: float, db: float) -> float:
    d = (da - db) % TWO_PI
    dc = min(d, TWO_PI - d)
    return 1.0 - 2.0 * dc / math.pi


# -- estimate_E ------------------------------------------------------------------


def test_anti_aligned_equal_settings_forces_minus_one():
    model = ClockModel()
    for n in (1, 2, 50):
        est = bs.estimate_E(model, I0, I0, n, seed=4)
        assert est.mean == -1.0
        assert est.stderr in (None, 0.0)


def test_point_mass_equal_settings():
    model = MerminModel.point_mass("RRG")
    est = bs.estimate_E(model, I0, I0, 100, seed=0)
    assert est.mean == 1.0


def test_clock_aligned_mc_matches_sawtooth():
    model = ClockModel(b_convention=ALIGNED)
    est = bs.estimate_E(model, I0, I1, 200_000, seed=7)
    assert abs(est.mean - (-1.0 / 3.0)) < 4 * est.stderr
    assert est.stderr < 0.003


def test_estimate_rejects_zero_trials():
    with pytest.raises(ValueError):
        bs.estimate_E(ClockModel(), I0, I0, 0, seed=1)


def test_estimate_is_reproducible_and_seed_sensitive():
    model = ClockModel()
    a = bs.estimate_E(model, I0, I1, 5000, seed=3)
    b = bs.estimate_E(model, I0, I1, 5000, seed=3)
    # nearby base seeds share trials by design (per-trial schedule seed+i),
    # so distinctness is only expected for well-separated bases
    c = bs.estimate_E(model, I0, I1, 5000, seed=777_000)
    assert a == b
    assert a.mean != c.mean


# -- exact_E ----------------------------------------------------------------------


def test_exact_mermin_equal_settings():
    est = bs.exact_E(MerminModel.uniform(), I1, I1)
    assert est.mean == 1.0
    assert est.exact and est.stderr == 0.0


def test_exact_clock_discrete_values():
    # closed form; the grid size is only the reported n
    model = ClockModel(b_convention=ALIGNED)
    est = bs.exact_E(model, I0, I1)
    assert abs(est.mean - (-1.0 / 3.0)) <= 2 * math.ulp(1.0 / 3.0)
    assert est.n_trials == 10_000 and bs.exact_E(model, I0, I1, 600).n_trials == 600
    est_pi = bs.exact_E(model, Setting.angle(0.0), Setting.angle(math.pi))
    assert est_pi.mean == -1.0


def test_mc_vs_exact_cross_check():
    # 100 random (model, settings, seed) triples; at most one 4-sigma failure
    g = np.random.default_rng(11)
    failures = 0
    for k in range(100):
        if k % 2:
            model = ClockModel(b_convention=ALIGNED if k % 4 == 1 else ANTI_ALIGNED)
            a, b = Setting.angle(g.uniform(0, TWO_PI)), Setting.angle(g.uniform(0, TWO_PI))
        else:
            probs = g.dirichlet(np.ones(8))
            model = MerminModel(probs / probs.sum())
            a, b = Setting.index(int(g.integers(3))), Setting.index(int(g.integers(3)))
        n = 4000
        mc = bs.estimate_E(model, a, b, n, seed=int(g.integers(1 << 32)))
        exact = bs.exact_E(model, a, b)
        if mc.stderr and abs(mc.mean - exact.mean) > 4 * mc.stderr:
            failures += 1
        elif mc.stderr == 0.0 or mc.stderr is None:
            failures += 0 if mc.mean == exact.mean or abs(mc.mean - exact.mean) < 2e-3 else 1
    assert failures <= 1


# -- merging ------------------------------------------------------------------------


def test_shard_merge_is_bit_identical():
    model = ClockModel()
    full = bs.estimate_E(model, I0, I1, 9000, seed=21)
    shards = [
        bs.estimate_E(model, I0, I1, 3000, seed=21),
        bs.estimate_E(model, I0, I1, 4000, seed=21 + 3000),
        bs.estimate_E(model, I0, I1, 2000, seed=21 + 7000),
    ]
    merged = bs.merge_estimates(shards)
    assert merged.mean == full.mean
    assert merged.stderr == full.stderr
    assert merged.n_trials == full.n_trials
    # a different partition of the same range merges identically
    halves = [
        bs.estimate_E(model, I0, I1, 4500, seed=21),
        bs.estimate_E(model, I0, I1, 4500, seed=21 + 4500),
    ]
    assert bs.merge_estimates(halves).mean == full.mean


# -- CHSH -----------------------------------------------------------------------------


def test_chsh_terms_invariant():
    model = ClockModel()
    res = bs.chsh(model, I0, I1, I2, I0, n=2000, seed=5)
    t = res.terms
    assert res.s_value == t[0].mean + t[1].mean + t[2].mean - t[3].mean


def test_chsh_degenerate_settings_saturate():
    res = bs.chsh(MerminModel.uniform(), I0, I0, I0, I0, exact=True)
    assert res.s_value == 2.0


def test_chsh_seed_schedule():
    model = ClockModel()
    res = bs.chsh(model, I0, I1, I2, I0, n=1000, seed=40)
    pairs = ((I0, I2), (I1, I2), (I1, I0), (I0, I0))
    for k, (sa, sb) in enumerate(pairs):
        assert res.terms[k].mean == bs.estimate_E(model, sa, sb, 1000, 40 + k).mean


def test_chsh_exact_discrete_scan_small():
    for model in (ClockModel(), MerminModel.uniform()):
        worst = 0.0
        for quad in ((I0, I1, I2, I0), (I1, I2, I0, I1), (I2, I0, I1, I2)):
            s = bs.chsh(model, *quad, exact=True)
            worst = max(worst, abs(s.s_value))
        assert worst <= 2.0 + 1e-9


# -- Bell check ------------------------------------------------------------------------


def exact_estimate(value: float) -> bs.CorrelationEstimate:
    return bs.CorrelationEstimate(value, 0.0, 1, exact=True)


def test_bell_check_trivially_satisfied():
    zero = exact_estimate(0.0)
    check = bs.bell_check(zero, zero, zero, zero)
    assert check.satisfied
    assert check.rhs_plus == 2.0 and check.rhs_minus == 2.0


def test_bell_check_quantum_violation():
    # hand evaluations of -cos at a=0, a'=pi/2, b=pi/4, b'=3pi/4:
    # E(a,b) = E(a',b) = E(a',b') = -sqrt(2)/2, E(a,b') = +sqrt(2)/2
    s = 0.7071067811865476
    check = bs.bell_check(
        exact_estimate(-s), exact_estimate(+s), exact_estimate(-s), exact_estimate(-s)
    )
    assert abs(check.lhs - math.sqrt(2)) < 1e-12
    assert abs(check.rhs_plus - (2 - math.sqrt(2))) < 1e-12
    assert abs(check.rhs_minus - (2 + math.sqrt(2))) < 1e-12
    assert not check.satisfied


def test_bell_check_from_model_satisfied():
    model = ClockModel()
    check = bs.bell_check_from_model(model, I0, I1, I2, I0, exact=True)
    assert check.satisfied


def test_bell_check_mc_tolerance_uses_stderr():
    model = ClockModel()
    check = bs.bell_check_from_model(model, I0, I1, I2, I0, exact=False, n=2000, seed=8)
    assert check.tolerance > bs.EXACT_TOLERANCE
    assert check.satisfied
    es = [bs.estimate_E(model, sa, sb, 2000, 8 + k)
          for k, (sa, sb) in enumerate(((I0, I2), (I0, I0), (I1, I0), (I1, I2)))]
    assert check.tolerance == bs.verdict_tolerance(es) == 3.0 * math.sqrt(
        sum(e.stderr ** 2 for e in es))
    # an undefined stderr (one trial) counts as 0; exact inputs get EXACT_TOLERANCE
    one = bs.estimate_E(model, I0, I1, 1, 8)
    assert bs.verdict_tolerance([one, one]) == 0.0
    assert bs.verdict_tolerance([bs.exact_E(model, I0, I1)] * 4) == bs.EXACT_TOLERANCE


# -- agreement ---------------------------------------------------------------------------


def test_clock_agreement_exact_values():
    anti = ClockModel(b_convention=ANTI_ALIGNED)
    aligned = ClockModel(b_convention=ALIGNED)
    p_anti = bs.exact_agreement_prob(anti, I0, I1, n_grid=10_002)
    p_aligned = bs.exact_agreement_prob(aligned, I0, I1, n_grid=10_002)
    assert abs(p_anti.value - 2.0 / 3.0) < 1e-10
    assert abs(p_aligned.value - 1.0 / 3.0) < 1e-10
    assert abs(p_anti.complement() - 1.0 / 3.0) < 1e-10


def test_agreement_comes_from_the_product_tally():
    # +/-1 outcomes: agreements = (n + sum of products) / 2, exactly
    for model in (ClockModel(), ClockModel(ALIGNED), MerminModel.uniform()):
        for n in (1, 2, 999):
            e = bs.estimate_E(model, I0, I1, n, seed=5)
            assert 2 * bs.agreement_prob(model, I0, I1, n, seed=5).count == n + e.sum_products
    for model in (ClockModel(), ClockModel(ALIGNED)):
        for a, b in ((I0, I1), (I2, I2), (Setting.angle(0.4), Setting.angle(5.9))):
            e = bs.exact_E(model, a, b).mean
            assert bs.exact_agreement_prob(model, a, b).value == (1.0 + e) / 2.0


def test_clock_agreement_mc():
    est = bs.agreement_prob(ClockModel(), I0, I2, 100_000, seed=13)
    assert abs(est.value - 2.0 / 3.0) < 4 * est.stderr


def test_mermin_nonconstant_mixture_overall_agreement():
    # uniform over the six non-constant sets: exactly 5/9 overall
    probs = np.array([0.0, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 0.0])
    model = MerminModel(probs)
    assert abs(bs.exact_overall_agreement(model) - 5.0 / 9.0) < 1e-12


def test_overall_agreement_mc_matches_exact():
    model = MerminModel.uniform()
    est = bs.overall_agreement(model, 100_000, seed=2)
    assert abs(est.value - bs.exact_overall_agreement(model)) < 4 * est.stderr


def test_overall_agreement_clock_runs():
    model = ClockModel()
    est = bs.overall_agreement(model, 50_000, seed=3)
    exact = bs.exact_overall_agreement(model)
    assert abs(est.value - exact) < 5 * est.stderr



# -- blocks -------------------------------------------------------------------------------

_RANDOM_PROBS = np.random.default_rng(15).dirichlet(np.ones(8))
_BLOCK_CASES = {
    "clock-aligned-index": (ClockModel(ALIGNED), I0, I2),
    "clock-aligned-angle": (ClockModel(ALIGNED), Setting.angle(3.0), Setting.angle(1e-3)),
    "clock-anti-index": (ClockModel(ANTI_ALIGNED), I1, I0),
    "clock-anti-angle": (ClockModel(ANTI_ALIGNED), Setting.angle(0.4), Setting.angle(5.9)),
    "mermin-random": (MerminModel(_RANDOM_PROBS / _RANDOM_PROBS.sum()), I1, I2),
}
_BLOCK_NS = (1, bs.BLOCK - 1, bs.BLOCK, bs.BLOCK + 1, 3 * bs.BLOCK + 7)
# 2**64 - 3 wraps the seed schedule inside the first block
_BLOCK_SEEDS = (0, 2**64 - 3, int(np.random.default_rng(16).integers(1 << 62)))


def _whole_array_tally(model, n, seed, a, b) -> int:
    lams = model.sample_lambdas(seed, n)
    return int((model.outcomes_a(lams, a) * model.outcomes_b(lams, b)).sum(dtype=np.int64))


def _whole_array_random_settings(model, n, seed):
    """The per-trial settings of ``overall_agreement``, drawn for all n trials at once."""
    seeds = rng.trial_seeds(seed, n)
    sa, sb = (np.minimum((rng.uniforms_for_seeds(seeds ^ np.uint64(tag), 1)[:, 0] * 3)
                         .astype(np.int64), 2) for tag in (0xA11CE, 0xB0B0B0))
    if model.lambda_kind == "circle":
        angles = np.asarray([Setting.index(k).radians for k in range(3)])
        return angles[sa], angles[sb]
    return sa, sb


@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
@pytest.mark.parametrize("n", _BLOCK_NS)
@pytest.mark.parametrize("seed", _BLOCK_SEEDS)
def test_block_tallies_equal_whole_array_tallies(case, n, seed):
    model, a, b = _BLOCK_CASES[case]
    total = _whole_array_tally(model, n, seed, a, b)
    assert bs.estimate_E(model, a, b, n, seed).sum_products == total
    assert bs.agreement_prob(model, a, b, n, seed).count == (n + total) // 2
    sa, sb = _whole_array_random_settings(model, n, seed)
    overall = _whole_array_tally(model, n, seed, sa, sb)
    assert bs.overall_agreement(model, n, seed).count == (n + overall) // 2


@pytest.mark.parametrize("seed", _BLOCK_SEEDS)
def test_shard_split_inside_a_block_merges_exactly(seed):
    model, a, b = _BLOCK_CASES["clock-anti-angle"]
    n, split = 3 * bs.BLOCK + 7, bs.BLOCK + 5
    shards = [bs.estimate_E(model, a, b, split, seed),
              bs.estimate_E(model, a, b, n - split, seed + split)]
    assert bs.merge_estimates(shards) == bs.estimate_E(model, a, b, n, seed)


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("estimator", [
    lambda model, n: bs.estimate_E(model, I0, I1, n, 1),
    lambda model, n: bs.agreement_prob(model, I0, I1, n, 1),
    lambda model, n: bs.overall_agreement(model, n, 1),
], ids=["estimate_E", "agreement_prob", "overall_agreement"])
def test_estimators_refuse_fewer_than_one_trial(estimator, n):
    for model in (ClockModel(), MerminModel.uniform()):
        with pytest.raises(ValueError, match="n must be >= 1"):
            estimator(model, n)


#: Peak traced allocation allowed to one 2 000 000-trial estimate.  Whole
#: arrays of that length take 16 MB each; blocks of BLOCK trials need well
#: under 1 MB.
_MC_PEAK_BYTES = 4 * 2**20


def test_monte_carlo_memory_is_bounded_by_the_block():
    import tracemalloc

    model = ClockModel()
    a, b = Setting.angle(0.4), Setting.angle(5.9)
    bs.estimate_E(model, a, b, 10, 3)  # first-call imports and caches
    for run in (lambda: bs.estimate_E(model, a, b, 2_000_000, 3),
                lambda: bs.overall_agreement(model, 2_000_000, 3)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _MC_PEAK_BYTES
