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
trials were partitioned.  For +/-1 outcomes agreement is not a second
statistic: P(A = B) = (1 + E)/2, and the agreement count is
(n + product tally)/2.  Every P(A = B), of every model, is
``CorrelationEstimate.p_agree``.

The circle models' exact results report ``n_grid`` as their n; it reaches
no value.

The CHSH quantity is assembled as S = E(a,b) + E(a',b) + E(a',b') - E(a,b')
(``chsh_pairs``, ``chsh_s``), the combination bounded by 2 for any local
hidden-variable model, while the quantum singlet reaches |S| = 2*sqrt(2) at
(0, pi/2, pi/4, 3pi/4).  Monte Carlo terms share their trials, so each trial
adds S(lambda) = +/-2 and |S| <= 2 holds up to rounding, as for exact terms.
The two-setting Bell check takes the same four terms and evaluates
|E(a,b) - E(a,b')| against both branches of 2 +/- [E(a',b') + E(a',b)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .hv_models import DEFAULT_QUADRATURE_N, LhvModel, Setting

#: Human-readable labels of the four CHSH terms, in storage order.
CHSH_TERM_LABELS = ("E(a,b)", "E(a',b)", "E(a',b')", "E(a,b')")

#: Trials the Monte Carlo estimators evaluate at once.  Trial i draws from
#: seed + i alone, so the block size changes no value; it bounds memory at
#: O(BLOCK).  With 1 << 14, glibc trimmed the heap top and faulted a block's
#: 128 KiB temporaries in again on every block in some heap layouts, which
#: made a `statistics` benchmark pass a third slower; 1 << 13 showed it in
#: none of the layouts measured.
BLOCK = 1 << 13

#: The slack of every CHSH and Bell verdict: exact terms and Monte Carlo terms
#: on shared trials meet the bound up to floating-point rounding.
EXACT_TOLERANCE = 1e-9


def chsh_pairs(a, a_prime, b, b_prime):
    """The four setting pairs of S in the storage order of ``CHSH_TERM_LABELS``."""
    return ((a, b), (a_prime, b), (a_prime, b_prime), (a, b_prime))


def chsh_s(terms):
    """S = terms[0] + terms[1] + terms[2] - terms[3], of scalars or arrays."""
    t0, t1, t2, t3 = terms
    return t0 + t1 + t2 - t3


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

    @property
    def p_agree(self) -> float:
        """P(A = B) of the +/-1 outcomes: the agreement count (n + sum_products)/2
        over n for a Monte Carlo result, (1 + mean)/2 for an exact one."""
        if self.sum_products is None:
            return (1.0 + self.mean) / 2.0
        return (self.n_trials + self.sum_products) // 2 / self.n_trials

    @property
    def p_agree_stderr(self) -> float | None:
        """The binomial standard error of ``p_agree``, None where ``stderr`` is."""
        if self.stderr is None or self.exact:
            return self.stderr
        p, n = self.p_agree, self.n_trials
        return math.sqrt(max(0.0, p * (1.0 - p) * n / (n - 1)) / n)


@dataclass(frozen=True)
class ChshResult:
    """Four correlations and their signed sum.

    ``terms`` holds (E(a,b), E(a',b), E(a',b'), E(a,b')) and s_value is
    their ``chsh_s``.
    """

    s_value: float
    terms: tuple[CorrelationEstimate, CorrelationEstimate, CorrelationEstimate, CorrelationEstimate]
    settings: tuple[Setting, Setting, Setting, Setting]  # (a, a', b, b')

    def __post_init__(self):
        if abs(chsh_s([t.mean for t in self.terms]) - self.s_value) > 1e-12:
            raise ValueError("s_value does not equal the signed sum of its terms")


@dataclass(frozen=True)
class BellCheck:
    """One evaluation of |E(a,b) - E(a,b')| <= 2 +/- [E(a',b') + E(a',b)].

    Both branches are reported; ``satisfied`` uses the binding (smaller)
    one, with ``tolerance`` = ``EXACT_TOLERANCE`` for every input.
    """

    lhs: float
    rhs_plus: float
    rhs_minus: float
    satisfied: bool
    tolerance: float


def _tally(model: LhvModel, n: int, seed: int, sides) -> list[list[int]]:
    """T[i][j], the sum of the +/-1 products A(a_i)*B(b_j) over trials seed .. seed + n - 1.

    Trials are evaluated BLOCK at a time on one draw of hidden variables per
    block.  ``sides(block_seed, k)`` gives a block's side-A settings a_i and
    side-B settings b_j, Settings or per-trial arrays, and each is evaluated
    once per block.  Trial i draws from seed + i alone, so each tally equals
    the whole-array one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    blocks = []
    for start in range(0, n, BLOCK):
        k = min(BLOCK, n - start)
        lams = model.sample_lambdas(seed + start, k)
        settings_a, settings_b = sides(seed + start, k)
        outs_b = [model.outcomes_b(lams, b) for b in settings_b]
        blocks.append([[int((out_a * out_b).sum(dtype=np.int64)) for out_b in outs_b]
                       for out_a in (model.outcomes_a(lams, a) for a in settings_a)])
    return [[sum(cell) for cell in zip(*row)] for row in zip(*blocks)]


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
    return _estimate_from_tally(_tally(model, n, seed, lambda s, k: ((a,), (b,)))[0][0], n)


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
    """Merge Monte Carlo shard results by their integer tallies.

    With the per-trial seed schedule, any contiguous partition of a trial
    range merges to the same result as the unsharded run, bit for bit.  A
    part without a tally (an exact result) is refused with ValueError.
    """
    if not parts:
        raise ValueError("nothing to merge")
    for i, p in enumerate(parts):
        if p.sum_products is None:
            raise ValueError(f"part {i} carries no tally to merge: {p}")
    return _estimate_from_tally(sum(p.sum_products for p in parts),
                                sum(p.n_trials for p in parts))


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

    All four Monte Carlo terms evaluate trials seed .. seed + n - 1, each
    equal to ``estimate_E`` at ``seed`` bit for bit, so every trial adds
    S(lambda) = +/-2.  Exact terms of a circle model report n_grid as their n.
    """
    pairs = chsh_pairs(a, a_prime, b, b_prime)
    if exact:
        terms = tuple(exact_E(model, sa, sb, n_grid) for sa, sb in pairs)
    else:
        if n is None or seed is None:
            raise ValueError("Monte Carlo CHSH needs n and seed")
        tally = _tally(model, n, seed, lambda s, k: ((a, a_prime), (b, b_prime)))
        terms = tuple(_estimate_from_tally(tally[i][j], n) for i, j in chsh_pairs(0, 1, 0, 1))
    return ChshResult(chsh_s([t.mean for t in terms]), terms, (a, a_prime, b, b_prime))


def bell_check(terms) -> BellCheck:
    """Evaluate the two-setting Bell inequality on the four CHSH terms
    (E(a,b), E(a',b), E(a',b'), E(a,b')) of ``ChshResult.terms``.  Monte Carlo
    terms must share their hidden variables, as ``chsh``'s do: ``EXACT_TOLERANCE``
    absorbs rounding, not sampling error."""
    t0, t1, t2, t3 = terms
    lhs = abs(t0.mean - t3.mean)
    tail = t2.mean + t1.mean
    rhs_plus = 2.0 + tail
    rhs_minus = 2.0 - tail
    satisfied = lhs <= min(rhs_plus, rhs_minus) + EXACT_TOLERANCE
    return BellCheck(lhs, rhs_plus, rhs_minus, satisfied, EXACT_TOLERANCE)


# -- agreement ---------------------------------------------------------------

def overall_agreement(model: LhvModel, n: int, seed: int) -> CorrelationEstimate:
    """Monte Carlo correlation, and so P(A = B), with per-trial uniform random
    discrete settings.

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
            return (angles[sa],), (angles[sb],)
        return (sa,), (sb,)

    return _estimate_from_tally(_tally(model, n, seed, settings)[0][0], n)

