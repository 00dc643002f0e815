"""Two-sided interferometer with a shared source draw and local path sums.

Each trial draws one source fluctuation (an emission-time offset dt0 and a
transverse offset dx0) that both daughter particles carry away.  Each side
then builds its own ensemble of path phases from its own configuration
only, sums the unit phasors, and applies the half-circle threshold rule to
the resultant's angle.  An opaque barrier is the physical picture: all
interference is local to a side, and the only thing the sides share is the
source draw.

Locality is structural.  ``_phasor_parts``, the one place a side's path
sum is computed, consumes that side's config, the shared source draw, and
a side-tagged random stream; it never sees the remote side's configuration
or setting.  ``_run_batch``, and through it ``correlation_scan``, builds
every trial from it, so changing side B's phase shifter cannot change side
A's outcome for a fixed seed, bit for bit.

Phases:  phi = k_wave * (L + geometry_sign*dx0 + jitter) + delta,
with delta (the externally set phase shifter) applied to the configured
shifted arm only and jitter drawn per arm replica with scale sigma_path.
The emission-time offset dt0 is drawn and recorded with every trial but
does not enter this reduced phase model; only the transverse offset feeds
the path lengths.

With one arm per side, one replica, and no jitter, a side's resultant is a
single phasor and the model reduces exactly to the synchronized-clock
hidden-variable model with theta0 = k*(L + geometry_sign*dx0); when both
sides couple to dx0 with the same |k*geometry_sign|, ``degenerate_exact_scan``
gives that model's closed-form table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
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
class SourceSpreads:
    """Gaussian spreads of the source fluctuation (both may be zero)."""

    sigma_dt: float = 0.0
    sigma_dx: float = 0.0

    def __post_init__(self):
        # written so that NaN fails the test too
        for name, value in (("sigma_dt", self.sigma_dt), ("sigma_dx", self.sigma_dx)):
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


@dataclass(frozen=True)
class SideConfig:
    """Geometry and phase configuration of one side.

    ``arm_lengths`` are the nominal optical path lengths (one entry is the
    degenerate single-path case), ``n_ensemble`` replicates each arm into a
    small path ensemble, ``sigma_path`` jitters every replica's length, and
    ``phase_shifter`` adds delta to the shifted arm only.  ``geometry_sign``
    is the signed coefficient through which the shared transverse offset
    enters this side's path lengths.
    """

    arm_lengths: tuple[float, ...]
    k_wave: float
    n_ensemble: int = 1
    sigma_path: float = 0.0
    phase_shifter: float = 0.0
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
        for name, value in (("phase_shifter", self.phase_shifter),
                            ("geometry_sign", self.geometry_sign)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0 <= self.shifted_arm < len(self.arm_lengths):
            raise ValueError("shifted_arm out of range")
        object.__setattr__(self, "arm_lengths", tuple(float(x) for x in self.arm_lengths))
        object.__setattr__(self, "phase_shifter", float(wrap_angle(self.phase_shifter)))

    @property
    def n_paths(self) -> int:
        return len(self.arm_lengths) * self.n_ensemble

    def replace_shifter(self, delta: float) -> "SideConfig":
        return SideConfig(
            self.arm_lengths, self.k_wave, self.n_ensemble, self.sigma_path,
            delta, self.geometry_sign, self.shifted_arm,
        )


def _jitters(cfg: SideConfig, side: str, seed: int, n: int) -> np.ndarray:
    """Per-trial length jitter matrix (n, n_paths); side-local stream."""
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


def _outcomes_from_sum(total: np.ndarray):
    r = np.abs(total)
    theta = np.mod(np.angle(total), TWO_PI)
    det = threshold_sign(theta).astype(np.int8)
    out = np.where(r < DEGENERATE_R, np.int8(UNDETERMINED), det)
    return out, r, theta


def _run_batch(cfg_a: SideConfig, cfg_b: SideConfig, spreads: SourceSpreads, n: int, seed: int):
    """n two-sided trials; trial i is a pure function of (configs, spreads, seed + i)."""
    lam_seeds = rng.trial_seeds(seed, n) ^ _LAMBDA_TAG
    z = rng.normals_for_seeds(lam_seeds, 2)
    dt0 = spreads.sigma_dt * z[:, 0]
    dx0 = spreads.sigma_dx * z[:, 1]
    plain_a, shift_a = _phasor_parts(cfg_a, "A", dx0, seed, n)
    plain_b, shift_b = _phasor_parts(cfg_b, "B", dx0, seed, n)
    total_a = plain_a + np.exp(1j * cfg_a.phase_shifter) * shift_a
    total_b = plain_b + np.exp(1j * cfg_b.phase_shifter) * shift_b
    out_a, r_a, th_a = _outcomes_from_sum(total_a)
    out_b, r_b, th_b = _outcomes_from_sum(total_b)
    return {
        "dt0": dt0, "dx0": dx0,
        "outcome_a": out_a, "outcome_b": out_b,
        "r_a": r_a, "theta_a": th_a, "r_b": r_b, "theta_b": th_b,
        "plain_a": plain_a, "shift_a": shift_a,
        "plain_b": plain_b, "shift_b": shift_b,
    }


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
    spreads: SourceSpreads = SourceSpreads(0.0, 1.0),
) -> list[ScanRow]:
    """Sweep both phase shifters over ``phase_grid`` (len(grid)^2 rows).

    One trial ensemble (common random numbers) is reused for every setting
    cell, so a side's outcome column depends only on its own shifter: the
    table itself exhibits no-signaling.  The quantum fringe column is the
    closed-form coincidence prediction, reported for comparison; no claim
    is made that the empirical surface matches it.
    """
    grid = _wrapped_grid(phase_grid)
    if not grid:
        raise ValueError("phase_grid must be non-empty")
    if n_per_point < 1:
        raise ValueError("n_per_point must be >= 1")
    batch = _run_batch(cfg_a, cfg_b, spreads, n_per_point, seed)
    rows = []
    for da in grid:
        total_a = batch["plain_a"] + np.exp(1j * da) * batch["shift_a"]
        out_a, _, _ = _outcomes_from_sum(total_a)
        for db in grid:
            total_b = batch["plain_b"] + np.exp(1j * db) * batch["shift_b"]
            out_b, _, _ = _outcomes_from_sum(total_b)
            rows.append(_scan_row(da, db, out_a, out_b))
    return rows


def _scan_row(da: float, db: float, out_a: np.ndarray, out_b: np.ndarray) -> ScanRow:
    n = out_a.size
    determined = (out_a != UNDETERMINED) & (out_b != UNDETERMINED)
    n_det = int(determined.sum())
    p_undet = 1.0 - n_det / n
    if n_det == 0:
        return ScanRow(da, db, None, None, None, p_undet, rt_coincidence_prob(da, db), n)
    prod = (out_a[determined].astype(np.int64) * out_b[determined]).sum()
    mean = prod / n_det
    stderr = None
    if n_det > 1:
        var = max(0.0, (1.0 - mean * mean) * n_det / (n_det - 1))
        stderr = math.sqrt(var / n_det)
    agree = int((out_a[determined] == out_b[determined]).sum()) / n_det
    return ScanRow(da, db, float(mean), stderr, agree, p_undet, rt_coincidence_prob(da, db), n)


# -- degenerate single-path configuration ------------------------------------

def is_degenerate(cfg: SideConfig) -> bool:
    return len(cfg.arm_lengths) == 1 and cfg.n_ensemble == 1 and cfg.sigma_path == 0.0


def degenerate_exact_scan(
    cfg_a: SideConfig,
    cfg_b: SideConfig,
    phase_grid,
    n_grid: int = DEFAULT_QUADRATURE_N,
) -> list[ScanRow]:
    """Exact setting-pair table for single-path sides; rows report n = n_grid.

    With one jitter-free path per side the only randomness is the shared
    transverse offset.  Side A's phase is delta_A + k_A*L_A + phi with
    phi = k_A*g_A*dx0, taken uniform on the circle (the rotation-invariant
    large-spread limit of the Gaussian source).  When k_B*g_B = s*k_A*g_A
    with s = +/-1, side B's phase is delta_B + k_B*L_B + s*phi, which is the
    synchronized-clock model with settings delta_A + k_A*L_A and
    s*(delta_B + k_B*L_B), aligned for s = +1 and anti-aligned for s = -1;
    the table is its closed form.  Any other ratio of the two couplings
    does not reduce to the clock model and raises ValueError.
    """
    if not (is_degenerate(cfg_a) and is_degenerate(cfg_b)):
        raise ValueError("exact scan requires single-path, jitter-free sides")
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
    # only the settings' difference matters, so both path terms go to A's side
    offset = cfg_a.k_wave * cfg_a.arm_lengths[0] - s * cfg_b.k_wave * cfg_b.arm_lengths[0]
    if not math.isfinite(offset):
        raise ValueError(f"path phases must be finite, got k_A*L_A - s*k_B*L_B = {offset!r}")
    grid = _wrapped_grid(phase_grid)
    da, db = (x.ravel() for x in np.meshgrid(grid, grid, indexing="ij"))
    e = clock.exact_correlation(da + offset, s * db)
    return [ScanRow(a, b, float(ei), 0.0, (1.0 + float(ei)) / 2.0, 0.0,
                    rt_coincidence_prob(a, b), n_grid)
            for a, b, ei in zip(da.tolist(), db.tolist(), e)]
