import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpath import bell_stats as bs
from bellpath import oracle, rng
from bellpath.hv_models import ALIGNED, ANTI_ALIGNED, ClockModel, MerminModel, Setting, TWO_PI

I0, I1, I2 = Setting.index(0), Setting.index(1), Setting.index(2)
_RANDOM_PROBS = np.random.default_rng(15).dirichlet(np.ones(8))


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


def test_merge_refuses_a_part_without_a_tally():
    shard = bs.estimate_E(ClockModel(), I0, I1, 100, seed=21)
    exact = bs.exact_E(ClockModel(), I0, I1)
    for parts, bad in (([shard, exact], 1), ([exact], 0)):
        with pytest.raises(ValueError, match=rf"^part {bad} carries no tally to merge"):
            bs.merge_estimates(parts)


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
    # every term evaluates the trials of seeds 40 .. 40 + n - 1
    model = ClockModel()
    res = bs.chsh(model, I0, I1, I2, I0, n=1000, seed=40)
    pairs = ((I0, I2), (I1, I2), (I1, I0), (I0, I0))
    for k, (sa, sb) in enumerate(pairs):
        assert res.terms[k] == bs.estimate_E(model, sa, sb, 1000, 40)


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
    check = bs.bell_check([zero] * 4)
    assert check.satisfied
    assert check.rhs_plus == 2.0 and check.rhs_minus == 2.0


def test_bell_check_quantum_violation():
    # hand evaluations of -cos at a=0, a'=pi/2, b=pi/4, b'=3pi/4, in CHSH order:
    # E(a,b) = E(a',b) = E(a',b') = -sqrt(2)/2, E(a,b') = +sqrt(2)/2
    s = 0.7071067811865476
    check = bs.bell_check(
        [exact_estimate(-s), exact_estimate(-s), exact_estimate(-s), exact_estimate(+s)]
    )
    assert abs(check.lhs - math.sqrt(2)) < 1e-12
    assert abs(check.rhs_plus - (2 - math.sqrt(2))) < 1e-12
    assert abs(check.rhs_minus - (2 + math.sqrt(2))) < 1e-12
    assert not check.satisfied


def test_bell_check_of_exact_chsh_terms_satisfied():
    model = ClockModel()
    check = bs.bell_check(bs.chsh(model, I0, I1, I2, I0, exact=True).terms)
    assert check.satisfied


def test_bell_check_mc_tolerance_is_the_exact_tolerance():
    model = ClockModel()
    pairs = ((I0, I2), (I1, I2), (I1, I0), (I0, I0))  # (a,b), (a',b), (a',b'), (a,b')
    for n in (1, 2, 2000):  # an undefined, a zero and a positive stderr
        check = bs.bell_check(bs.chsh(model, I0, I1, I2, I0, n=n, seed=8).terms)
        assert check.tolerance == bs.EXACT_TOLERANCE
        assert check.satisfied
        # chsh's terms are estimate_E's over the one trial range 8 .. 8 + n - 1
        es = [bs.estimate_E(model, sa, sb, n, 8) for sa, sb in pairs]
        assert check == bs.bell_check(es)
    assert bs.bell_check([bs.exact_E(model, I0, I1)] * 4).tolerance == bs.EXACT_TOLERANCE
    # terms drawn on different trials get no sampling slack: seeds 0..3, one
    # trial each, give the local model a violation, which is why chsh shares them
    split = [bs.estimate_E(model, sa, sb, 1, k) for k, (sa, sb) in enumerate(pairs)]
    assert abs(bs.chsh_s([e.mean for e in split])) == 4.0
    check = bs.bell_check(split)
    assert not check.satisfied and check.tolerance == bs.EXACT_TOLERANCE


# -- shared hidden variables ------------------------------------------------------------


def _s_per_trial(model, quad, n, seed):
    """S(lambda) of each of trials seed .. seed + n - 1, from the outcome functions."""
    lams = model.sample_lambdas(seed, n)
    products = [model.outcomes_a(lams, sa).astype(np.int64) * model.outcomes_b(lams, sb)
                for sa, sb in bs.chsh_pairs(*quad)]
    return bs.chsh_s(products)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from((ALIGNED, ANTI_ALIGNED, "mermin-aligned", "mermin-anti")),
       indices=st.lists(st.integers(0, 2), min_size=4, max_size=4),
       angles=st.none() | st.lists(st.floats(0.0, TWO_PI, exclude_max=True),
                                   min_size=4, max_size=4),
       weights=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
       n=st.integers(1, 1000), seed=st.integers(0, 2**64 - 1))
def test_shared_trials_keep_every_local_S_at_two(kind, indices, angles, weights, n, seed):
    if kind.startswith("mermin"):
        convention = ALIGNED if kind == "mermin-aligned" else ANTI_ALIGNED
        model = MerminModel(np.asarray(weights) / sum(weights), convention)
        angles = None  # instruction sets take discrete settings only
    else:
        model = ClockModel(kind)
    quad = ([Setting.angle(x) for x in angles] if angles
            else [Setting.index(i) for i in indices])
    s_trials = _s_per_trial(model, quad, n, seed)
    assert set(np.abs(s_trials).tolist()) == {2}
    res = bs.chsh(model, *quad, n=n, seed=seed)
    t0, t1, t2, t3 = (t.sum_products for t in res.terms)
    total = t0 + t1 + t2 - t3
    assert total == int(s_trials.sum())
    assert abs(total) <= 2 * n and (total - 2 * n) % 4 == 0
    assert abs(res.s_value) <= 2.0 + bs.EXACT_TOLERANCE
    assert bs.bell_check(res.terms).satisfied


#: Monte Carlo CHSH runs that printed |S| = 4, 4 and 2.00002 while their terms
#: were drawn on trials offset by one to three seeds: (quadruple, n, seed).
_SPLIT_TRIAL_CASES = [
    ((I0, I1, I2, I0), 1, 0),
    ((I0, I2, I1, I0), 2, 8),
    (tuple(Setting.angle(x) for x in (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)),
     100_000, 2000),
]


@pytest.mark.parametrize("quad, n, seed", _SPLIT_TRIAL_CASES)
def test_clock_chsh_reproductions_stay_within_two(quad, n, seed):
    res = bs.chsh(ClockModel(), *quad, n=n, seed=seed)
    assert abs(res.s_value) <= 2.0
    assert bs.bell_check(res.terms).satisfied


@pytest.mark.parametrize("n", [bs.BLOCK - 1, bs.BLOCK, bs.BLOCK + 1])
@pytest.mark.parametrize("model", [ClockModel(), MerminModel(_RANDOM_PROBS / _RANDOM_PROBS.sum())],
                         ids=["clock", "mermin"])
def test_chsh_terms_equal_estimate_E_across_a_block_boundary(model, n, monkeypatch):
    quad = (I0, I2, I1, I0)
    calls = {"A": 0, "B": 0}
    in_b = []  # outcomes_b evaluates through outcomes_a; count that as side B's one call
    outcomes_a, outcomes_b = model.outcomes_a, model.outcomes_b

    def counted_a(lams, setting):
        calls["A"] += not in_b
        return outcomes_a(lams, setting)

    def counted_b(lams, setting):
        calls["B"] += 1
        in_b.append(True)
        try:
            return outcomes_b(lams, setting)
        finally:
            in_b.pop()

    monkeypatch.setattr(model, "outcomes_a", counted_a)
    monkeypatch.setattr(model, "outcomes_b", counted_b)
    res = bs.chsh(model, *quad, n=n, seed=2**64 - 5)
    # each one-sided setting is evaluated once per block: four columns, not eight
    blocks = -(-n // bs.BLOCK)
    assert calls["A"] <= 2 * blocks and calls["B"] <= 2 * blocks
    monkeypatch.undo()
    for term, (sa, sb) in zip(res.terms, bs.chsh_pairs(*quad)):
        assert term == bs.estimate_E(model, sa, sb, n, 2**64 - 5)
        assert term.sum_products == _whole_array_tally(model, n, 2**64 - 5, sa, sb)


# -- agreement ---------------------------------------------------------------------------


def test_clock_agreement_exact_values():
    anti = ClockModel(b_convention=ANTI_ALIGNED)
    aligned = ClockModel(b_convention=ALIGNED)
    p_anti = bs.exact_E(anti, I0, I1, n_grid=10_002).p_agree
    p_aligned = bs.exact_E(aligned, I0, I1, n_grid=10_002).p_agree
    assert abs(p_anti - 2.0 / 3.0) < 1e-10
    assert abs(p_aligned - 1.0 / 3.0) < 1e-10
    assert abs((1.0 - p_anti) - 1.0 / 3.0) < 1e-10


def _whole_array_agreements(model, n, seed, a, b) -> int:
    lams = model.sample_lambdas(seed, n)
    return int(np.count_nonzero(model.outcomes_a(lams, a) == model.outcomes_b(lams, b)))


def test_agreement_comes_from_the_product_tally():
    # +/-1 outcomes: agreements = (n + sum of products) / 2, exactly
    for model in (ClockModel(), ClockModel(ALIGNED), MerminModel.uniform()):
        for n in (1, 2, 999):
            e = bs.estimate_E(model, I0, I1, n, seed=5)
            agreements = _whole_array_agreements(model, n, 5, I0, I1)
            assert 2 * agreements == n + e.sum_products and e.p_agree == agreements / n
    for model in (ClockModel(), ClockModel(ALIGNED)):
        for a, b in ((I0, I1), (I2, I2), (Setting.angle(0.4), Setting.angle(5.9))):
            e = bs.exact_E(model, a, b).mean
            assert bs.exact_E(model, a, b).p_agree == (1.0 + e) / 2.0


#: A dot product of 8 probabilities summing to 1 is within 8 eps of its exact value.
_DOT_TOLERANCE = 8 * np.finfo(np.float64).eps


@settings(max_examples=60, deadline=None)
@given(weights=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8).filter(lambda w: sum(w) > 0.1),
       convention=st.sampled_from((ALIGNED, ANTI_ALIGNED)),
       indices=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       angles=st.tuples(st.floats(0.0, TWO_PI), st.floats(0.0, TWO_PI)),
       n=st.integers(1, 3000), seed=st.integers(0, 2**64 - 1))
def test_p_agree_is_read_off_the_correlation(weights, convention, indices, angles, n, seed):
    probs = np.asarray(weights) / sum(weights)
    mermin = MerminModel(probs, b_convention=convention)
    a, b = (Setting.index(i) for i in indices)
    lams, atom_probs = mermin.enumerate_lambda()
    agree = mermin.outcomes_a(lams, a) == mermin.outcomes_b(lams, b)
    assert abs(bs.exact_E(mermin, a, b).p_agree - float(np.dot(atom_probs, agree))) \
        <= _DOT_TOLERANCE
    for model, sa, sb in ((mermin, a, b),
                          (ClockModel(convention), *(Setting.angle(x) for x in angles))):
        e = bs.exact_E(model, sa, sb)
        assert e.p_agree == (1.0 + e.mean) / 2.0
        mc = bs.estimate_E(model, sa, sb, n, seed)
        assert mc.p_agree == (n + mc.sum_products) // 2 / n
        assert mc.p_agree == _whole_array_agreements(model, n, seed, sa, sb) / n


def test_p_agree_stderr_is_the_binomial_stderr():
    for n in (1, 2, 3, 1000):
        for total in range(-n, n + 1, 2 if n < 10 else 250):
            est = bs._estimate_from_tally(total, n)
            p = (n + total) // 2 / n
            want = None if n < 2 else math.sqrt(max(0.0, p * (1.0 - p) * n / (n - 1)) / n)
            assert est.p_agree == p and est.p_agree_stderr == want
    assert bs.exact_E(ClockModel(), I0, I1).p_agree_stderr == 0.0


def test_clock_agreement_mc():
    est = bs.estimate_E(ClockModel(), I0, I2, 100_000, seed=13)
    assert abs(est.p_agree - 2.0 / 3.0) < 4 * est.p_agree_stderr


def _exact_overall_agreement(model) -> float:
    """P(A = B) with both settings uniform on {0, 1, 2}, as ``bellpath mermin`` reports it."""
    return sum(bs.exact_E(model, a, b).p_agree for a in (I0, I1, I2) for b in (I0, I1, I2)) / 9.0


def test_mermin_nonconstant_mixture_overall_agreement():
    # uniform over the six non-constant sets: exactly 5/9 overall
    probs = np.array([0.0, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 0.0])
    model = MerminModel(probs)
    assert abs(_exact_overall_agreement(model) - 5.0 / 9.0) < 1e-12


def test_overall_agreement_mc_matches_exact():
    model = MerminModel.uniform()
    est = bs.overall_agreement(model, 100_000, seed=2)
    assert abs(est.p_agree - _exact_overall_agreement(model)) < 4 * est.p_agree_stderr


def test_overall_agreement_clock_runs():
    model = ClockModel()
    est = bs.overall_agreement(model, 50_000, seed=3)
    exact = _exact_overall_agreement(model)
    assert abs(est.p_agree - exact) < 5 * est.p_agree_stderr



# -- blocks -------------------------------------------------------------------------------

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
    sa, sb = _whole_array_random_settings(model, n, seed)
    overall = _whole_array_tally(model, n, seed, sa, sb)
    assert bs.overall_agreement(model, n, seed).sum_products == overall


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
    lambda model, n: bs.chsh(model, I0, I1, I1, I2, n=n, seed=1),
    lambda model, n: bs.overall_agreement(model, n, 1),
], ids=["estimate_E", "chsh", "overall_agreement"])
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
