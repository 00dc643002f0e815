"""Local hidden-variable models of the "genetic program" kind.

A model consists of a hidden variable drawn once at the source with a fixed
distribution, plus two outcome functions A(setting_a, lam) and
B(setting_b, lam) that see only their own side's setting.  Locality is
structural: neither outcome function has the remote setting in its signature.

Two concrete models are provided:

* ``MerminModel`` -- the red/green instruction-set model.  The hidden
  variable is a triple of colors, one per discrete setting; a detector at
  setting j flashes the j-th color.  Colors map to signs as R -> +1,
  G -> -1 (an arbitrary but fixed choice; all statistics are invariant
  under the global flip).

* ``ClockModel`` -- the synchronized-clock model.  The hidden variable is a
  phase theta0 uniform on [0, 2pi); a measurement at setting delta advances
  the clock to theta0 + delta, and the detector signs +1 for angles in
  [0, pi) and -1 for [pi, 2pi).

Side B's detector convention is a model parameter: ``aligned`` applies the
same rule as side A, ``anti_aligned`` negates it (singlet-like).  The clock
model defaults to anti_aligned, which makes the probability of agreement at
differing settings 2/3; the instruction-set model defaults to aligned so
that identical settings always agree (same color on both sides).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng

TWO_PI = 2.0 * np.pi

RED = "R"
GREEN = "G"
COLOR_SIGN = {RED: +1, GREEN: -1}

ALIGNED = "aligned"
ANTI_ALIGNED = "anti_aligned"

#: Angles of the three discrete settings (index 0, 1, 2).
SETTING_ANGLES = (0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0)

#: Default size of the circle grid of ``enumerate_lambda``.  The exact clock
#: statistics are closed forms; there this number is only the reported n.
DEFAULT_QUADRATURE_N = 10_000

# Angles within this distance of the 0/pi detector boundaries are snapped
# onto the boundary before the half-open threshold rule is applied.  This
# keeps outcomes deterministic when a boundary angle is reached through
# different floating-point routes; the band has measure ~1e-12 and is
# irrelevant to any statistic.
BOUNDARY_SNAP = 1e-12


def wrap_angle(theta):
    """Normalize an angle (or array) into [0, 2pi)."""
    w = np.mod(theta, TWO_PI)
    # mod can return 2pi itself when theta is a tiny negative number
    return np.where(w >= TWO_PI, w - TWO_PI, w) if isinstance(w, np.ndarray) else (
        w - TWO_PI if w >= TWO_PI else w
    )


def _scalar_sign(theta: float) -> int:
    """``threshold_sign`` of one Python float, in plain float arithmetic.

    Python's ``%`` on floats is the same IEEE operation as ``np.mod`` (fmod,
    then a shift by the divisor when the signs differ), so with the same
    snap band this gives the array rule's sign bit for bit.
    """
    w = theta % TWO_PI
    if abs(w - TWO_PI) < BOUNDARY_SNAP:
        w = 0.0
    elif abs(w - math.pi) < BOUNDARY_SNAP:
        w = math.pi
    return 1 if w < math.pi else -1


def threshold_sign(theta):
    """Detector rule: +1 for clock angles in [0, pi), -1 for [pi, 2pi).

    Angles exactly 0 or pi map to +1 and -1 respectively (half-open
    intervals, fixed for determinism).  Works elementwise on arrays.
    """
    w = np.mod(np.asarray(theta, dtype=np.float64), TWO_PI)
    w = np.where(np.abs(w - TWO_PI) < BOUNDARY_SNAP, 0.0, w)
    w = np.where(np.abs(w - np.pi) < BOUNDARY_SNAP, np.pi, w)
    out = np.where(w < np.pi, np.int8(1), np.int8(-1))
    return out if out.ndim else np.int8(out)


@dataclass(frozen=True)
class Setting:
    """A measurement-device configuration.

    Either a discrete index in {0, 1, 2} (mapped to the angles 0, 2pi/3,
    4pi/3) or a free angle in radians, normalized into [0, 2pi).
    """

    kind: str  # "index" or "angle"
    value: float

    def __post_init__(self):
        if self.kind == "index":
            if self.value not in (0, 1, 2):
                raise ValueError(f"discrete setting index must be 0, 1 or 2, got {self.value}")
            object.__setattr__(self, "value", int(self.value))
        elif self.kind == "angle":
            v = float(self.value)
            if not np.isfinite(v):
                raise ValueError("setting angle must be finite")
            object.__setattr__(self, "value", float(wrap_angle(v)))
        else:
            raise ValueError(f"unknown setting kind {self.kind!r}")

    @staticmethod
    def index(i: int) -> "Setting":
        return Setting("index", i)

    @staticmethod
    def angle(radians: float) -> "Setting":
        return Setting("angle", radians)

    @property
    def radians(self) -> float:
        if self.kind == "index":
            return SETTING_ANGLES[int(self.value)]
        return self.value

    @property
    def text(self) -> str:
        """Compact round-trippable serialization ("i0" or "a<float>")."""
        if self.kind == "index":
            return f"i{int(self.value)}"
        return "a" + format(self.value, ".17g")

    @staticmethod
    def from_text(text: str) -> "Setting":
        if text.startswith("i"):
            return Setting.index(int(text[1:]))
        if text.startswith("a"):
            return Setting.angle(float(text[1:]))
        raise ValueError(f"cannot parse setting {text!r}")


@dataclass(frozen=True)
class InstructionSet:
    """A triple of colors, one per discrete setting."""

    colors: tuple[str, str, str]

    def __post_init__(self):
        if len(self.colors) != 3 or any(c not in (RED, GREEN) for c in self.colors):
            raise ValueError(f"instruction set must be a triple over {{R, G}}, got {self.colors}")

    @staticmethod
    def from_text(text: str) -> "InstructionSet":
        return InstructionSet(tuple(text))

    @property
    def text(self) -> str:
        return "".join(self.colors)

    @property
    def signs(self) -> np.ndarray:
        return np.array([COLOR_SIGN[c] for c in self.colors], dtype=np.int8)


#: All 8 instruction sets in canonical order (RRR, RRG, ..., GGG).
ALL_INSTRUCTION_SETS = tuple(
    InstructionSet(c) for c in itertools.product((RED, GREEN), repeat=3)
)

# sign table: row k = signs of ALL_INSTRUCTION_SETS[k]; the tuple form serves
# one-trial lookups without numpy
_SIGN_TABLE = np.stack([s.signs for s in ALL_INSTRUCTION_SETS])
_SIGN_ROWS = tuple(tuple(int(x) for x in row) for row in _SIGN_TABLE)


def _check_convention(b_convention: str) -> str:
    if b_convention not in (ALIGNED, ANTI_ALIGNED):
        raise ValueError(f"b_convention must be {ALIGNED!r} or {ANTI_ALIGNED!r}, got {b_convention!r}")
    return b_convention


class LhvModel:
    """Base class for local hidden-variable models.

    Subclasses implement sampling, enumeration and the two one-sided outcome
    functions.  Models are immutable after construction and safe to share
    across workers; sampling is a pure function of (model, seed).
    """

    name: str = "lhv"
    b_convention: str = ALIGNED
    lambda_kind: str = "finite"  # "finite" or "circle"

    # -- hidden variable -------------------------------------------------
    def sample_lambdas(self, seed: int, n: int) -> np.ndarray:
        """Vectorized draw; trial i uses the stream of seed + i."""
        raise NotImplementedError

    def enumerate_lambda(self, n_grid: int = DEFAULT_QUADRATURE_N):
        """All atoms with exact probabilities (finite case) or an n_grid
        point uniform circle grid with weight 1/n_grid each."""
        raise NotImplementedError

    # -- outcomes ---------------------------------------------------------
    # The signatures admit no remote setting; that is the locality claim.
    def outcomes_a(self, lams: np.ndarray, setting) -> np.ndarray:
        raise NotImplementedError

    def outcomes_b(self, lams: np.ndarray, setting) -> np.ndarray:
        raise NotImplementedError

    def outcome_a(self, lam, setting: Setting) -> int:
        """One trial of ``outcomes_a``, as a Python int."""
        raise NotImplementedError

    def outcome_b(self, lam, setting: Setting) -> int:
        """One trial of ``outcomes_b``, as a Python int."""
        raise NotImplementedError

    # -- wire serialization ----------------------------------------------
    def lambda_text(self, lam) -> str:
        raise NotImplementedError

    def lambda_from_text(self, text: str):
        raise NotImplementedError


class MerminModel(LhvModel):
    """Instruction-set model over the 8 red/green triples.

    ``probs[k]`` is the probability of ``ALL_INSTRUCTION_SETS[k]``.  The
    hidden variable is represented internally as the atom index 0..7.
    """

    lambda_kind = "finite"

    def __init__(self, probs, b_convention: str = ALIGNED, name: str = "mermin"):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (8,):
            raise ValueError("mermin model needs 8 probabilities")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probability table sums to {probs.sum()!r}, not 1")
        self.probs = probs
        self.probs.flags.writeable = False
        self.name = name
        self.b_convention = _check_convention(b_convention)
        self._cum = np.cumsum(probs)
        self._b_flip = -1 if self.b_convention == ANTI_ALIGNED else 1

    @staticmethod
    def uniform(b_convention: str = ALIGNED) -> "MerminModel":
        return MerminModel(np.full(8, 0.125), b_convention, name="mermin-uniform")

    @staticmethod
    def point_mass(colors: str, b_convention: str = ALIGNED) -> "MerminModel":
        k = ALL_INSTRUCTION_SETS.index(InstructionSet.from_text(colors))
        p = np.zeros(8)
        p[k] = 1.0
        return MerminModel(p, b_convention, name=f"mermin-{colors}")

    # hidden variable ------------------------------------------------------
    def sample_lambdas(self, seed: int, n: int) -> np.ndarray:
        u = rng.uniforms_for_seeds(rng.trial_seeds(seed, n), 1)[:, 0]
        idx = np.searchsorted(self._cum, u, side="right")
        return np.minimum(idx, 7).astype(np.int64)  # guard cum-sum rounding

    def enumerate_lambda(self, n_grid: int = DEFAULT_QUADRATURE_N):
        support = self.probs > 0.0
        return np.arange(8, dtype=np.int64)[support], self.probs[support].copy()

    # outcomes --------------------------------------------------------------
    def _setting_indices(self, setting) -> np.ndarray:
        if isinstance(setting, Setting):
            if setting.kind != "index":
                raise ValueError("the instruction-set model takes discrete settings only")
            return np.asarray(int(setting.value))
        idx = np.asarray(setting, dtype=np.int64)
        if np.any((idx < 0) | (idx > 2)):
            raise ValueError("setting index out of range")
        return idx

    def outcomes_a(self, lams, setting) -> np.ndarray:
        j = self._setting_indices(setting)
        return _SIGN_TABLE[np.asarray(lams, dtype=np.int64), j]

    def outcomes_b(self, lams, setting) -> np.ndarray:
        j = self._setting_indices(setting)
        return _SIGN_TABLE[np.asarray(lams, dtype=np.int64), j] * self._b_flip

    def _scalar_outcome(self, lam, setting) -> int:
        return _SIGN_ROWS[int(lam)][int(self._setting_indices(setting))]

    def outcome_a(self, lam, setting: Setting) -> int:
        return self._scalar_outcome(lam, setting)

    def outcome_b(self, lam, setting: Setting) -> int:
        return self._scalar_outcome(lam, setting) * self._b_flip

    # wire -------------------------------------------------------------------
    def lambda_text(self, lam) -> str:
        return ALL_INSTRUCTION_SETS[int(lam)].text

    def lambda_from_text(self, text: str):
        return ALL_INSTRUCTION_SETS.index(InstructionSet.from_text(text))


class ClockModel(LhvModel):
    """Synchronized-clock model with a uniform phase on the circle.

    The source distribution is not otherwise constrained, so the unique
    rotation-invariant choice (uniform on [0, 2pi)) is used.
    """

    lambda_kind = "circle"

    def __init__(self, b_convention: str = ANTI_ALIGNED, name: str = "clock"):
        self.name = name
        self.b_convention = _check_convention(b_convention)
        self._b_flip = -1 if self.b_convention == ANTI_ALIGNED else 1

    def sample_lambdas(self, seed: int, n: int) -> np.ndarray:
        u = rng.uniforms_for_seeds(rng.trial_seeds(seed, n), 1)[:, 0]
        return TWO_PI * u

    def exact_correlation(self, a, b) -> np.ndarray:
        """E(a, b) in closed form, elementwise over settings or arrays of angles.

        With d the circular distance between the two settings, the phases
        where the outcomes agree have measure 1 - d/pi, so E = 1 - 2d/pi for
        the aligned convention and its negative for the anti-aligned one.
        Settings within BOUNDARY_SNAP of equal or opposite count as such, as
        the threshold rule does for angles, so they give exactly +/-1.
        """
        w = np.mod(np.abs(self._setting_angles(a) - self._setting_angles(b)), TWO_PI)
        d = np.minimum(w, TWO_PI - w)
        d = np.where(d < BOUNDARY_SNAP, 0.0, np.where(np.pi - d < BOUNDARY_SNAP, np.pi, d))
        return self._b_flip * (1.0 - 2.0 * d / np.pi)

    def enumerate_lambda(self, n_grid: int = DEFAULT_QUADRATURE_N):
        if n_grid < 1:
            raise ValueError("n_grid must be >= 1")
        thetas = TWO_PI * np.arange(n_grid, dtype=np.float64) / n_grid
        return thetas, np.full(n_grid, 1.0 / n_grid)

    def _setting_angles(self, setting) -> np.ndarray:
        if isinstance(setting, Setting):
            return np.asarray(setting.radians)
        return np.asarray(setting, dtype=np.float64)

    def outcomes_a(self, lams, setting) -> np.ndarray:
        delta = self._setting_angles(setting)
        return threshold_sign(np.asarray(lams, dtype=np.float64) + delta)

    def outcomes_b(self, lams, setting) -> np.ndarray:
        delta = self._setting_angles(setting)
        return threshold_sign(np.asarray(lams, dtype=np.float64) + delta) * self._b_flip

    def _scalar_outcome(self, lam, setting: Setting) -> int:
        return _scalar_sign(float(lam) + setting.radians)

    def outcome_a(self, lam, setting: Setting) -> int:
        return self._scalar_outcome(lam, setting)

    def outcome_b(self, lam, setting: Setting) -> int:
        return self._scalar_outcome(lam, setting) * self._b_flip

    # wire -------------------------------------------------------------------
    def lambda_text(self, lam) -> str:
        return format(float(lam), ".17g")

    def lambda_from_text(self, text: str):
        lam = float(text)
        if not math.isfinite(lam):
            raise ValueError(f"hidden variable {text!r} is not a finite angle")
        return lam

