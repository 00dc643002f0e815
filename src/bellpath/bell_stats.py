"""Correlation estimators, CHSH, and the two-setting Bell inequality.

The correlation E(a, b) is the mean of the product of the two sides'
outcomes over the hidden-variable distribution.  It is computed two ways:

* ``estimate_E`` -- Monte Carlo over n independent hidden-variable draws,
  trial i using the stream of seed + i (shard-stable; see ``rng``);
* ``exact_E`` -- enumeration over the atoms of a finite model, or the
  closed form E = +/-(1 - 2d/pi) of the clock model, d being the circular
  distance between the settings (``ClockModel.exact_correlation``).

Monte Carlo outcomes are +/-1, so estimates carry exact integer tallies.
Means, standard errors, and merged shard results are reconstructed from the
tallies, which makes every statistic bit-reproducible and independent of how
trials were partitioned.  For +/-1 outcomes the agreement count is
(n + product tally)/2, so agreement probabilities come from the same tally,
and the exact agreement of the clock model is (1 + E)/2.

The circle models' exact results report ``n_grid`` as their n; it reaches
no value.  ``enumerate_lambda(n_grid)`` keeps the circle grid as a
quadrature oracle for tests.

The CHSH quantity is assembled as S = E(a,b) + E(a',b) + E(a',b') - E(a,b'),
the combination bounded by 2 for any local hidden-variable model, while the
quantum singlet reaches |S| = 2*sqrt(2) at (0, pi/2, pi/4, 3pi/4).  The
two-setting Bell check evaluates |E(a,b) - E(a,b')| against both branches of
2 +/- [E(a',b') + E(a',b)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .hv_models import DEFAULT_QUADRATURE_N, LhvModel, Setting

#: Human-readable labels of the four CHSH terms, in storage order.
#: s_value = terms[0] + terms[1] + terms[2] - terms[3].
CHSH_TERM_LABELS = ("E(a,b)", "E(a',b)", "E(a',b')", "E(a,b')")

#: Trials the Monte Carlo estimators evaluate at once.  Trial i draws from
#: seed + i alone, so the block size changes no value; it bounds memory at
#: O(BLOCK) and keeps a block's arrays in cache.
BLOCK = 1 << 14

#: Tolerance separating numerical noise from a genuine violation when all
#: inputs are exact; Monte Carlo inputs use 3x the combined standard error.
EXACT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CorrelationEstimate:
    """A correlation mean with its sampling uncertainty.

    ``stderr`` is None when it is undefined (a single Monte Carlo trial);
    exact results have stderr 0 by definition.  ``sum_products`` keeps the
    integer tally of +/-1 products for Monte Carlo results so that shards
    merge exactly.
    """

    mean: float
    stderr: float | None
    n_trials: int
    exact: bool
    sum_products: int | None = None

    def __post_init__(self):
        if abs(self.mean) > 1.0 + 1e-9:
            raise ValueError(f"|mean| = {abs(self.mean)} exceeds 1")
        if self.exact and self.stderr != 0.0:
            raise ValueError("exact results must have stderr 0")
        if self.stderr is not None and self.stderr < 0.0:
            raise ValueError("stderr must be >= 0")
        if self.n_trials < 1:
            raise ValueError("n_trials must be positive")


@dataclass(frozen=True)
class ProbabilityEstimate:
    """An agreement probability P(A = B); complement() gives P(A != B)."""

    value: float
    stderr: float | None
    n_trials: int
    exact: bool
    count: int | None = None

    def __post_init__(self):
        if not -1e-9 <= self.value <= 1.0 + 1e-9:
            raise ValueError(f"probability {self.value} outside [0, 1]")
        if self.n_trials < 1:
            raise ValueError("n_trials must be positive")

    def complement(self) -> float:
        return 1.0 - self.value


@dataclass(frozen=True)
class ChshResult:
    """Four correlations and their signed sum.

    ``terms`` holds (E(a,b), E(a',b), E(a',b'), E(a,b')) and s_value is
    terms[0] + terms[1] + terms[2] - terms[3].
    """

    s_value: float
    terms: tuple[CorrelationEstimate, CorrelationEstimate, CorrelationEstimate, CorrelationEstimate]
    settings: tuple[Setting, Setting, Setting, Setting]  # (a, a', b, b')

    def __post_init__(self):
        t = self.terms
        assembled = t[0].mean + t[1].mean + t[2].mean - t[3].mean
        if abs(assembled - self.s_value) > 1e-12:
            raise ValueError("s_value does not equal the signed sum of its terms")


@dataclass(frozen=True)
class BellCheck:
    """One evaluation of |E(a,b) - E(a,b')| <= 2 +/- [E(a',b') + E(a',b)].

    Both branches are reported; ``satisfied`` uses the binding (smaller)
    one, with a tolerance of 1e-9 for exact inputs and 3x the combined
    standard error for Monte Carlo inputs.
    """

    lhs: float
    rhs_plus: float
    rhs_minus: float
    satisfied: bool
    tolerance: float


def _tally(model: LhvModel, n: int, seed: int, settings) -> int:
    """Sum of the +/-1 products A*B over trials seed .. seed + n - 1.

    Trials are evaluated BLOCK at a time.  ``settings(block_seed, k)``
    gives a block's (a, b), Settings or per-trial arrays.  Trial i draws
    from seed + i alone, so the tally equals the whole-array one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    for start in range(0, n, BLOCK):
        k = min(BLOCK, n - start)
        lams = model.sample_lambdas(seed + start, k)
        a, b = settings(seed + start, k)
        total += int((model.outcomes_a(lams, a) * model.outcomes_b(lams, b)).sum(dtype=np.int64))
    return total


def _estimate_from_tally(total: int, n: int) -> CorrelationEstimate:
    mean = total / n
    if n < 2:
        stderr = None
    else:
        # unbiased sample variance of +/-1 data, from the tally alone
        var = max(0.0, (1.0 - mean * mean) * n / (n - 1))
        stderr = math.sqrt(var / n)
    return CorrelationEstimate(mean, stderr, n, exact=False, sum_products=total)


def estimate_E(model: LhvModel, a: Setting, b: Setting, n: int, seed: int) -> CorrelationEstimate:
    """Monte Carlo correlation over n hidden-variable draws."""
    return _estimate_from_tally(_tally(model, n, seed, lambda s, k: (a, b)), n)


def exact_E(model: LhvModel, a: Setting, b: Setting, n_grid: int = DEFAULT_QUADRATURE_N) -> CorrelationEstimate:
    """Exact correlation: the closed form of a circle model, reported with
    n = n_grid, or the dot product over the atoms of a finite one."""
    if model.lambda_kind == "circle":
        return CorrelationEstimate(float(model.exact_correlation(a, b)), 0.0, n_grid, exact=True)
    lams, probs = model.enumerate_lambda()
    prod = model.outcomes_a(lams, a) * model.outcomes_b(lams, b)
    return CorrelationEstimate(float(np.dot(probs, prod.astype(np.float64))), 0.0, len(probs),
                               exact=True)


def merge_estimates(parts: list[CorrelationEstimate]) -> CorrelationEstimate:
    """Merge shard results; exact for Monte Carlo shards carrying tallies.

    With the per-trial seed schedule, any contiguous partition of a trial
    range merges to the same result as the unsharded run, bit for bit.
    """
    if not parts:
        raise ValueError("nothing to merge")
    if all(p.sum_products is not None for p in parts):
        total = sum(p.sum_products for p in parts)
        n = sum(p.n_trials for p in parts)
        return _estimate_from_tally(total, n)
    n = sum(p.n_trials for p in parts)
    mean = sum(p.mean * p.n_trials for p in parts) / n
    return CorrelationEstimate(mean, None, n, exact=False)


def chsh(
    model: LhvModel,
    a: Setting,
    a_prime: Setting,
    b: Setting,
    b_prime: Setting,
    n: int | None = None,
    seed: int | None = None,
    exact: bool = False,
    n_grid: int = DEFAULT_QUADRATURE_N,
) -> ChshResult:
    """CHSH quantity for an LHV model.

    Monte Carlo terms use seeds seed, seed+1, seed+2, seed+3 in the storage
    order of ``CHSH_TERM_LABELS``, so results are bit-reproducible.  Exact
    terms of a circle model report n_grid as their n.
    """
    pairs = ((a, b), (a_prime, b), (a_prime, b_prime), (a, b_prime))
    if exact:
        terms = tuple(exact_E(model, sa, sb, n_grid) for sa, sb in pairs)
    else:
        if n is None or seed is None:
            raise ValueError("Monte Carlo CHSH needs n and seed")
        terms = tuple(
            estimate_E(model, sa, sb, n, seed + k) for k, (sa, sb) in enumerate(pairs)
        )
    s = terms[0].mean + terms[1].mean + terms[2].mean - terms[3].mean
    return ChshResult(s, terms, (a, a_prime, b, b_prime))


def verdict_tolerance(estimates) -> float:
    """The slack of the Bell check and every CHSH verdict: EXACT_TOLERANCE for
    exact inputs, else 3x the combined stderr (an undefined one counts as 0)."""
    if all(e.exact for e in estimates):
        return EXACT_TOLERANCE
    return 3.0 * math.sqrt(sum((e.stderr or 0.0) ** 2 for e in estimates))


def bell_check(
    e_ab: CorrelationEstimate,
    e_ab_prime: CorrelationEstimate,
    e_aprime_bprime: CorrelationEstimate,
    e_aprime_b: CorrelationEstimate,
    tolerance: float | None = None,
) -> BellCheck:
    """Evaluate the two-setting Bell inequality on four correlations."""
    lhs = abs(e_ab.mean - e_ab_prime.mean)
    tail = e_aprime_bprime.mean + e_aprime_b.mean
    rhs_plus = 2.0 + tail
    rhs_minus = 2.0 - tail
    if tolerance is None:
        tolerance = verdict_tolerance((e_ab, e_ab_prime, e_aprime_bprime, e_aprime_b))
    satisfied = lhs <= min(rhs_plus, rhs_minus) + tolerance
    return BellCheck(lhs, rhs_plus, rhs_minus, satisfied, tolerance)


def bell_check_from_model(
    model: LhvModel,
    a: Setting,
    a_prime: Setting,
    b: Setting,
    b_prime: Setting,
    exact: bool = True,
    n: int | None = None,
    seed: int | None = None,
) -> BellCheck:
    if exact:
        es = [exact_E(model, sa, sb) for sa, sb in
              ((a, b), (a, b_prime), (a_prime, b_prime), (a_prime, b))]
    else:
        if n is None or seed is None:
            raise ValueError("Monte Carlo Bell check needs n and seed")
        es = [estimate_E(model, sa, sb, n, seed + k) for k, (sa, sb) in
              enumerate(((a, b), (a, b_prime), (a_prime, b_prime), (a_prime, b)))]
    return bell_check(*es)


# -- agreement ---------------------------------------------------------------

def _prob_from_count(count: int, n: int) -> ProbabilityEstimate:
    p = count / n
    if n < 2:
        stderr = None
    else:
        var = max(0.0, p * (1.0 - p) * n / (n - 1))
        stderr = math.sqrt(var / n)
    return ProbabilityEstimate(p, stderr, n, exact=False, count=count)


def agreement_prob(model: LhvModel, a: Setting, b: Setting, n: int, seed: int) -> ProbabilityEstimate:
    """Monte Carlo P(A = B) at one setting pair."""
    return _prob_from_count((n + _tally(model, n, seed, lambda s, k: (a, b))) // 2, n)


def exact_agreement_prob(model: LhvModel, a: Setting, b: Setting, n_grid: int = DEFAULT_QUADRATURE_N) -> ProbabilityEstimate:
    """Exact P(A = B): (1 + E)/2 in closed form for a circle model, reported
    with n = n_grid, or the dot product over the atoms of a finite one."""
    if model.lambda_kind == "circle":
        p = (1.0 + float(model.exact_correlation(a, b))) / 2.0
        return ProbabilityEstimate(p, 0.0, n_grid, exact=True)
    lams, probs = model.enumerate_lambda()
    agree = model.outcomes_a(lams, a) == model.outcomes_b(lams, b)
    return ProbabilityEstimate(float(np.dot(probs, agree.astype(np.float64))), 0.0, len(probs),
                               exact=True)


def exact_overall_agreement(model: LhvModel) -> float:
    """P(A = B) with both discrete settings drawn uniformly from {0, 1, 2}."""
    total = 0.0
    for i in range(3):
        for j in range(3):
            total += exact_agreement_prob(model, Setting.index(i), Setting.index(j)).value
    return total / 9.0


def overall_agreement(model: LhvModel, n: int, seed: int) -> ProbabilityEstimate:
    """Monte Carlo P(A = B) with per-trial uniform random discrete settings.

    Trial i draws its hidden variable from seed + i and the two settings
    from dedicated streams tagged off the base seed, so the run is
    reproducible and shard-stable.
    """
    angles = np.asarray([Setting.index(k).radians for k in range(3)])

    def settings(block_seed: int, k: int):
        seeds = rng.trial_seeds(block_seed, k)
        ua = rng.uniforms_for_seeds(seeds ^ np.uint64(0xA11CE), 1)[:, 0]
        ub = rng.uniforms_for_seeds(seeds ^ np.uint64(0xB0B0B0), 1)[:, 0]
        sa = np.minimum((ua * 3).astype(np.int64), 2)
        sb = np.minimum((ub * 3).astype(np.int64), 2)
        if model.lambda_kind == "circle":
            return angles[sa], angles[sb]
        return sa, sb

    return _prob_from_count((n + _tally(model, n, seed, settings)) // 2, n)

