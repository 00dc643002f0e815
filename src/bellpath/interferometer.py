"""Two-sided interferometer with a shared source draw and local path sums.

Each trial draws one source fluctuation, a transverse offset dx0, that both
daughter particles carry away.  Each side then builds its own ensemble of
path phases from its own configuration and its own phase shifter only,
sums the unit phasors, and applies the half-circle threshold rule to the
resultant's angle.  An opaque barrier is the physical picture: all
interference is local to a side, and the only thing the sides share is the
source draw.

Locality is structural.  ``_phasor_parts``, the one place a side's path
sum is computed, consumes that side's config, the shared source draw, and
a side-tagged random stream; ``_side_outcomes`` turns its parts into the
side's outcomes at one shifter phase.  Neither sees the remote side's
configuration or setting, so changing side B's configuration or phase
cannot change side A's outcome for a fixed seed, bit for bit.

Phases:  phi = k_wave * (L + geometry_sign*dx0 + jitter) + delta,
with delta (the phase shifter, the side's setting) applied to the
configured shifted arm only and jitter drawn per arm replica with scale
sigma_path.  The shifter phases are the scan grid; no config stores one.

With no jitter, a side's resultant is exp(i*k*geometry_sign*dx0) times a
sum that no trial changes, so the model reduces exactly to the
synchronized-clock hidden-variable model at the setting delta + arg of that
sum; when both sides couple to dx0 with the same |k*geometry_sign|,
``degenerate_exact_scan`` gives that model's closed-form table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .bell_stats import CorrelationEstimate, _estimate_from_tally
from .hv_models import (
    ALIGNED,
    ANTI_ALIGNED,
    DEFAULT_QUADRATURE_N,
    TWO_PI,
    ClockModel,
    threshold_sign,
    wrap_angle,
)
from .oracle import rt_coincidence_prob
from .path_engine import DEGENERATE_R

#: Outcome value standing for "the resultant angle is undefined".
UNDETERMINED = 0

_SIDE_TAG = {"A": np.uint64(0xA11CE) << np.uint64(40), "B": np.uint64(0xB0B00) << np.uint64(40)}
_LAMBDA_TAG = np.uint64(0x5EED0) << np.uint64(40)


@dataclass(frozen=True)
class SideConfig:
    """Geometry of one side.

    ``arm_lengths`` are the nominal optical path lengths (one entry is the
    degenerate single-path case), ``n_ensemble`` replicates each arm into a
    small path ensemble, and ``sigma_path`` jitters every replica's length.
    The phase shifter sits on arm ``shifted_arm``.  ``geometry_sign`` is the
    signed coefficient through which the shared transverse offset enters
    this side's path lengths.
    """

    arm_lengths: tuple[float, ...]
    k_wave: float
    n_ensemble: int = 1
    sigma_path: float = 0.0
    geometry_sign: float = 1.0
    shifted_arm: int = 0

    def __post_init__(self):
        if len(self.arm_lengths) < 1:
            raise ValueError("need at least one arm")
        # each range test is written so that NaN fails it too
        if not all(0 < length < math.inf for length in self.arm_lengths):
            raise ValueError(f"arm_lengths must be finite and positive, got {self.arm_lengths!r}")
        if not 0 < self.k_wave < math.inf:
            raise ValueError(f"k_wave must be finite and positive, got {self.k_wave!r}")
        if self.n_ensemble < 1:
            raise ValueError("n_ensemble must be >= 1")
        if not 0 <= self.sigma_path < math.inf:
            raise ValueError(f"sigma_path must be finite and nonnegative, got {self.sigma_path!r}")
        if not math.isfinite(self.geometry_sign):
            raise ValueError(f"geometry_sign must be finite, got {self.geometry_sign!r}")
        if not 0 <= self.shifted_arm < len(self.arm_lengths):
            raise ValueError("shifted_arm out of range")
        object.__setattr__(self, "arm_lengths", tuple(float(x) for x in self.arm_lengths))

    @property
    def n_paths(self) -> int:
        return len(self.arm_lengths) * self.n_ensemble


def _jitters(cfg: SideConfig, side: str, seed: int, n: int) -> np.ndarray:
    """Per-trial length jitter matrix (n, n_paths); side-local stream."""
    if not cfg.sigma_path:  # every draw would be scaled to zero
        return np.zeros((n, cfg.n_paths))
    seeds = rng.trial_seeds(seed, n) ^ _SIDE_TAG[side]
    return cfg.sigma_path * rng.normals_for_seeds(seeds, cfg.n_paths)


def _phasor_parts(cfg: SideConfig, side: str, dx0: np.ndarray, seed: int, n: int):
    """Split each trial's phasor sum into (plain, shifted-arm) parts.

    The full resultant is plain + exp(i*delta) * shifted, which lets scans
    vary the phase shifter without re-drawing anything.
    """
    jitter = _jitters(cfg, side, seed, n)
    lengths = np.repeat(np.asarray(cfg.arm_lengths), cfg.n_ensemble)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        base = cfg.k_wave * (lengths[None, :] + cfg.geometry_sign * dx0[:, None] + jitter)
    if not np.isfinite(base).all():
        raise ValueError(f"path phases must be finite, but k_wave * (L + geometry_sign*dx0 "
                         f"+ jitter) overflowed on side {side}")
    phasors = np.exp(1j * base)
    lo = cfg.shifted_arm * cfg.n_ensemble
    hi = lo + cfg.n_ensemble
    shifted = phasors[:, lo:hi].sum(axis=1)
    plain = phasors.sum(axis=1) - shifted
    return plain, shifted


def _side_outcomes(plain: np.ndarray, shifted: np.ndarray, delta: float):
    """One side's (outcome, r, theta) per trial with its shifter at phase delta."""
    total = plain + np.exp(1j * delta) * shifted
    r = np.abs(total)
    theta = np.mod(np.angle(total), TWO_PI)
    det = threshold_sign(theta).astype(np.int8)
    out = np.where(r < DEGENERATE_R, np.int8(UNDETERMINED), det)
    return out, r, theta


def _run_batch(cfg_a: SideConfig, cfg_b: SideConfig, spread_dx: float, n: int, seed: int):
    """dx0 and both sides' (plain, shifted) parts of n trials, trial i drawn from seed + i."""
    lam_seeds = rng.trial_seeds(seed, n) ^ _LAMBDA_TAG
    # second of two normals, as when the first drew an emission time: rt output stays bit-identical
    dx0 = spread_dx * rng.normals_for_seeds(lam_seeds, 2)[:, 1]
    return dx0, _phasor_parts(cfg_a, "A", dx0, seed, n), _phasor_parts(cfg_b, "B", dx0, seed, n)


@dataclass(frozen=True)
class ScanRow:
    delta_a: float
    delta_b: float
    e_value: float | None
    stderr: float | None
    p_agree: float | None
    p_undetermined: float
    quantum_fringe: float
    n_trials: int


def _wrapped_grid(phase_grid) -> list[float]:
    grid = [float(d) for d in phase_grid]
    if not all(math.isfinite(d) for d in grid):
        raise ValueError(f"phase_grid must be finite, got {grid!r}")
    return [float(wrap_angle(d)) for d in grid]


def correlation_scan(
    cfg_a: SideConfig,
    cfg_b: SideConfig,
    phase_grid,
    n_per_point: int,
    seed: int,
    spread_dx: float = 1.0,
) -> list[ScanRow]:
    """Sweep both phase shifters over ``phase_grid`` (len(grid)^2 rows).

    ``spread_dx`` is the Gaussian spread of the shared transverse offset.
    One trial ensemble (common random numbers) is reused for every setting
    cell, and each side's outcome column is computed once per phase of its
    own shifter: the table itself exhibits no-signaling.  The quantum fringe
    column is the closed-form coincidence prediction, reported for
    comparison; no claim is made that the empirical surface matches it.
    """
    # written so that NaN fails the test too
    if not 0 <= spread_dx < math.inf:
        raise ValueError(f"sigma_dx must be finite and nonnegative, got {spread_dx!r}")
    grid = _wrapped_grid(phase_grid)
    if not grid:
        raise ValueError("phase_grid must be non-empty")
    if n_per_point < 1:
        raise ValueError("n_per_point must be >= 1")
    _, parts_a, parts_b = _run_batch(cfg_a, cfg_b, spread_dx, n_per_point, seed)
    columns_b = [_side_outcomes(*parts_b, db)[0] for db in grid]
    rows = []
    for da in grid:
        out_a = _side_outcomes(*parts_a, da)[0].astype(np.int64)
        rows.extend(_scan_row(da, db, out_a, out_b) for db, out_b in zip(grid, columns_b))
    return rows


def _scan_row(da: float, db: float, out_a: np.ndarray, out_b: np.ndarray) -> ScanRow:
    """One cell from the product tally; an undetermined outcome (0) adds no product."""
    n = out_a.size
    prod = out_a * out_b
    n_det = int(np.count_nonzero(prod))
    p_undet = 1.0 - n_det / n
    if n_det == 0:
        return ScanRow(da, db, None, None, None, p_undet, rt_coincidence_prob(da, db), n)
    total = int(prod.sum())
    est = _estimate_from_tally(total, n_det)
    return ScanRow(da, db, est.mean, est.stderr, est.p_agree, p_undet,
                   rt_coincidence_prob(da, db), n)


# -- jitter-free configurations: the clock model's closed form --------------

def degenerate_exact_scan(
    cfg_a: SideConfig,
    cfg_b: SideConfig,
    phase_grid,
    n_grid: int = DEFAULT_QUADRATURE_N,
) -> list[ScanRow]:
    """Exact setting-pair table for jitter-free sides; rows report n = n_grid.

    With no jitter the only randomness is the shared transverse offset, and
    side s's resultant is exp(i*(k_s*g_s*dx0 + delta_s)) * C_s(delta_s), with
    C_s its path sum at dx0 = 0.  Side A's phase is delta_A + arg C_A + phi,
    phi = k_A*g_A*dx0 taken uniform on the circle (the large-spread limit of
    the Gaussian source).  When k_B*g_B = s*k_A*g_A with s = +/-1, this is the
    synchronized-clock model at settings delta_A + arg C_A and
    s*(delta_B + arg C_B), aligned for s = +1 and anti-aligned for s = -1; a
    cell where |C_A| or |C_B| is below DEGENERATE_R is undetermined on every
    trial.  Other couplings raise ValueError.
    """
    if cfg_a.sigma_path or cfg_b.sigma_path:
        raise ValueError("exact scan requires jitter-free sides")
    if n_grid < 1:
        raise ValueError("n_grid must be >= 1")
    coupling_a = cfg_a.k_wave * cfg_a.geometry_sign
    coupling_b = cfg_b.k_wave * cfg_b.geometry_sign
    # written so that a NaN or overflowed coupling fails the test too
    if not (0.0 < abs(coupling_a) < math.inf
            and abs(abs(coupling_a) - abs(coupling_b)) <= 1e-12 * abs(coupling_a)):
        raise ValueError(f"exact scan requires |k*geom_sign| equal and nonzero on both sides, "
                         f"got {abs(coupling_a)!r} and {abs(coupling_b)!r}")
    s = 1.0 if coupling_a * coupling_b > 0.0 else -1.0
    clock = ClockModel(ALIGNED if s > 0.0 else ANTI_ALIGNED)
    grid = _wrapped_grid(phase_grid)
    da, db = (x.ravel() for x in np.meshgrid(grid, grid, indexing="ij"))
    dx0 = np.zeros(1)  # C(delta) = shifted + exp(-i*delta)*plain, the path sum at dx0 = 0
    parts = _phasor_parts(cfg_a, "A", dx0, 0, 1), _phasor_parts(cfg_b, "B", dx0, 0, 1)
    c_a, c_b = (shifted + np.exp(-1j * d) * plain for d, (plain, shifted) in zip((da, db), parts))
    # only the settings' difference matters, so both path terms go to A's side
    e = clock.exact_correlation(da + (np.angle(c_a) - s * np.angle(c_b)), s * db)
    live = (np.abs(c_a) >= DEGENERATE_R) & (np.abs(c_b) >= DEGENERATE_R)
    cells = (CorrelationEstimate(float(ei), 0.0, n_grid, exact=True) for ei in e)
    return [ScanRow(a, b, est.mean, 0.0, est.p_agree, 0.0, rt_coincidence_prob(a, b), n_grid) if ok
            else ScanRow(a, b, None, None, None, 1.0, rt_coincidence_prob(a, b), n_grid)
            for a, b, est, ok in zip(da.tolist(), db.tolist(), cells, live)]
