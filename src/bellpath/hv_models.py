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

The scalar parts (``Setting``, one-trial outcomes, wire text) run in plain
Python.  Only the array methods and ``MerminModel``'s constructor import
numpy, so a clock-model wire wing never loads it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import rng

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi

RED = "R"
GREEN = "G"
COLOR_SIGN = {RED: +1, GREEN: -1}

ALIGNED = "aligned"
ANTI_ALIGNED = "anti_aligned"

#: Angles of the three discrete settings (index 0, 1, 2).
SETTING_ANGLES = (0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0)

#: The n that exact clock-model results report.  Their statistics are closed
#: forms, so this number reaches no value.
DEFAULT_QUADRATURE_N = 10_000

# Angles within this distance of the 0/pi detector boundaries are snapped
# onto the boundary before the half-open threshold rule is applied.  This
# keeps outcomes deterministic when a boundary angle is reached through
# different floating-point routes; the band has measure ~1e-12 and is
# irrelevant to any statistic.
BOUNDARY_SNAP = 1e-12


def wrap_angle(theta: float) -> float:
    """Normalize an angle into [0, 2pi) with Python's ``%``, the IEEE
    operation of ``np.mod`` (see ``_scalar_sign``)."""
    w = theta % TWO_PI
    # mod can return 2pi itself when theta is a tiny negative number
    return w - TWO_PI if w >= TWO_PI else w


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


def threshold_sign(theta, *, out=None, scratch=None):
    """Detector rule: +1 for clock angles in [0, pi), -1 for [pi, 2pi).

    Angles exactly 0 or pi map to +1 and -1 respectively (half-open
    intervals, fixed for determinism).  Works elementwise on arrays.  The
    signs are written into ``out`` (int8, theta's shape) and the reduced
    angle into ``scratch`` (float64, theta's shape, not theta itself); each
    is allocated when None.

    An input whose values all lie in [0, 4pi) -- every Monte Carlo call,
    a phase in [0, 2pi) plus a setting angle in [0, 2pi) -- is reduced
    as w = x - 2pi*(x >= 2pi).  That is exact (x - 2pi by Sterbenz's
    lemma on [2pi, 4pi)), as fmod is, so w equals ``np.mod(x, 2pi)`` bit
    for bit (up to the sign of a zero, which signs +1 either way).  Any
    other input -- negative, 4pi or more, NaN or infinite, or empty --
    is reduced by ``np.mod``.

    The snapped rule (near 2pi counts as 0, so +1; near pi as pi, so -1)
    is then plus = (w - pi <= -SNAP) | (w - 2pi > -SNAP).  Sterbenz's
    lemma makes w - pi exact for w >= pi/2, and so (w - pi) - pi, the
    form computed, equals w - 2pi for w >= pi, where w - 2pi is exact too.
    Below those values both differences lie far outside the snap band, so
    rounding cannot move a sign; a NaN fails both tests and signs -1.
    """
    import numpy as np

    x = np.asarray(theta, dtype=np.float64)
    w = np.empty(x.shape) if scratch is None else scratch
    signs = np.empty(x.shape, dtype=np.int8) if out is None else out
    plus = signs.view(np.bool_)
    if x.size and 0.0 <= x.min() and x.max() < 2.0 * TWO_PI:
        np.greater_equal(x, TWO_PI, out=plus)
        np.copyto(w, plus)
        w *= TWO_PI
        np.subtract(x, w, out=w)
    else:
        np.mod(x, TWO_PI, out=w)
    w -= np.pi
    np.less_equal(w, -BOUNDARY_SNAP, out=plus)
    w -= np.pi
    plus |= np.greater(w, -BOUNDARY_SNAP)  # the one temporary: len(theta) bytes
    # +1/-1 from the bool in place; np.where with int8 scalars is many times slower
    signs *= 2
    signs -= 1
    return signs if signs.ndim else np.int8(signs)


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
            if not math.isfinite(v):
                raise ValueError("setting angle must be finite")
            object.__setattr__(self, "value", wrap_angle(v))
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


#: All 8 instruction sets in canonical order (RRR, RRG, ..., GGG).
ALL_INSTRUCTION_SETS = tuple(
    InstructionSet(c) for c in itertools.product((RED, GREEN), repeat=3)
)

# sign table: row k = signs of ALL_INSTRUCTION_SETS[k]; the tuples serve
# one-trial lookups, the int8 array of ``_sign_table`` the array methods
_SIGN_ROWS = tuple(tuple(COLOR_SIGN[c] for c in s.colors) for s in ALL_INSTRUCTION_SETS)


@functools.cache
def _sign_table() -> np.ndarray:
    import numpy as np

    table = np.array(_SIGN_ROWS, dtype=np.int8)
    table.flags.writeable = False
    return table


class LhvModel:
    """Base class for local hidden-variable models.

    Subclasses implement sampling and side A's outcome rule; side B's rule
    is side A's, negated for the anti-aligned convention.  Models are
    immutable after construction and safe to share across workers; sampling
    is a pure function of (model, seed).
    """

    lambda_kind: str = "finite"  # "finite" or "circle"

    def __init__(self, b_convention: str, name: str):
        if b_convention not in (ALIGNED, ANTI_ALIGNED):
            raise ValueError(f"b_convention must be {ALIGNED!r} or {ANTI_ALIGNED!r}, got {b_convention!r}")
        self.name = name
        self.b_convention = b_convention
        self._b_flip = -1 if b_convention == ANTI_ALIGNED else 1

    # -- hidden variable -------------------------------------------------
    # The array methods write into ``out`` when given, with ``scratch`` as
    # their temporaries, and allocate both when None: a caller that works
    # block after block keeps its buffers, and both routes run one code.
    def sample_lambdas(self, seed: int, n: int, *, out=None, scratch=None) -> np.ndarray:
        """Vectorized draw; trial i uses the stream of seed + i.  ``scratch``
        is a uint64 array of shape (2, n)."""
        raise NotImplementedError

    # -- outcomes ---------------------------------------------------------
    # The signatures admit no remote setting; that is the locality claim.
    def outcomes_a(self, lams: np.ndarray, setting, *, out=None, scratch=None) -> np.ndarray:
        """The +/-1 int8 outcomes at ``setting``; ``scratch`` is an array
        like lams, of shape (2, len(lams))."""
        raise NotImplementedError

    def outcomes_b(self, lams: np.ndarray, setting, *, out=None, scratch=None) -> np.ndarray:
        signs = self.outcomes_a(lams, setting, out=out, scratch=scratch)
        if self._b_flip < 0:
            signs *= -1
        return signs

    def outcome_a(self, lam, setting: Setting) -> int:
        """One trial of ``outcomes_a``, as a Python int."""
        raise NotImplementedError

    def outcome_b(self, lam, setting: Setting) -> int:
        """One trial of ``outcomes_b``, as a Python int."""
        return self.outcome_a(lam, setting) * self._b_flip

    def check_setting(self, setting: Setting) -> None:
        """Raise ValueError unless the outcome rules take ``setting``; every
        setting by default."""

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

    def __init__(self, probs, b_convention: str = ALIGNED, name: str = "mermin"):
        super().__init__(b_convention, name)
        import numpy as np

        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (8,):
            raise ValueError("mermin model needs 8 probabilities")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probability table sums to {probs.sum()!r}, not 1")
        self.probs = probs
        self.probs.flags.writeable = False
        self._cum = np.cumsum(probs)

    @staticmethod
    def uniform(b_convention: str = ALIGNED) -> "MerminModel":
        return MerminModel([0.125] * 8, b_convention, name="mermin-uniform")

    @staticmethod
    def point_mass(colors: str, b_convention: str = ALIGNED) -> "MerminModel":
        k = ALL_INSTRUCTION_SETS.index(InstructionSet.from_text(colors))
        p = [0.0] * 8
        p[k] = 1.0
        return MerminModel(p, b_convention, name=f"mermin-{colors}")

    # hidden variable ------------------------------------------------------
    def sample_lambdas(self, seed: int, n: int, *, out=None, scratch=None) -> np.ndarray:
        import numpy as np

        lams = np.empty(n, dtype=np.int64) if out is None else out
        streams = np.empty((2, n), dtype=np.uint64) if scratch is None else scratch
        # the uniforms are drawn into lams' own bytes, then counted over
        # the spent seed and stream rows
        u = lams.view(np.float64)
        rng.uniforms_for_seeds(rng.trial_seeds(seed, n, out=streams[0]), 1,
                               out=u[:, None], scratch=streams[1, :, None])
        # the count of table entries <= u: searchsorted(side="right") on
        # the non-decreasing table, without its per-element binary search
        above, count = streams[0].view(np.bool_)[:n], streams[1].view(np.uint8)[:n]
        count[:] = 0
        for c in self._cum:
            np.greater_equal(u, c, out=above)
            count += above.view(np.uint8)
        np.minimum(count, 7, out=count)  # guard cum-sum rounding
        np.copyto(lams, count)
        return lams

    def enumerate_lambda(self):
        """The atoms of positive probability and their probabilities."""
        import numpy as np

        support = self.probs > 0.0
        return np.arange(8, dtype=np.int64)[support], self.probs[support].copy()

    # outcomes --------------------------------------------------------------
    def _setting_indices(self, setting):
        """A Setting's index as an int, or an array of indices as int64."""
        if isinstance(setting, Setting):
            if setting.kind != "index":
                raise ValueError("the instruction-set model takes discrete settings only")
            return int(setting.value)
        import numpy as np

        idx = np.asarray(setting, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() > 2):
            raise ValueError("setting index out of range")
        return idx

    def outcomes_a(self, lams, setting, *, out=None, scratch=None) -> np.ndarray:
        import numpy as np

        j = self._setting_indices(setting)
        lams = np.asarray(lams, dtype=np.int64)
        # table[lam, j] is entry 3*lam + j of the flat table, read in one gather
        flat = np.multiply(lams, 3, out=None if scratch is None else scratch[0])
        flat += j
        return np.take(_sign_table().ravel(), flat, out=out)

    def outcome_a(self, lam, setting: Setting) -> int:
        return _SIGN_ROWS[int(lam)][int(self._setting_indices(setting))]

    def check_setting(self, setting: Setting) -> None:
        self._setting_indices(setting)

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
        super().__init__(b_convention, name)

    def sample_lambdas(self, seed: int, n: int, *, out=None, scratch=None) -> np.ndarray:
        import numpy as np

        lams = np.empty(n) if out is None else out
        streams = np.empty((2, n), dtype=np.uint64) if scratch is None else scratch
        rng.uniforms_for_seeds(rng.trial_seeds(seed, n, out=streams[0]), 1,
                               out=lams[:, None], scratch=streams[1, :, None])
        lams *= TWO_PI
        return lams

    def exact_correlation(self, a, b) -> np.ndarray:
        """E(a, b) in closed form, elementwise over settings or arrays of angles.

        With d the circular distance between the two settings, the phases
        where the outcomes agree have measure 1 - d/pi, so E = 1 - 2d/pi for
        the aligned convention and its negative for the anti-aligned one.
        Settings within BOUNDARY_SNAP of equal or opposite count as such, as
        the threshold rule does for angles, so they give exactly +/-1.
        """
        import numpy as np

        w = np.mod(np.abs(self._setting_angles(a) - self._setting_angles(b)), TWO_PI)
        d = np.minimum(w, TWO_PI - w)
        d = np.where(d < BOUNDARY_SNAP, 0.0, np.where(np.pi - d < BOUNDARY_SNAP, np.pi, d))
        return self._b_flip * (1.0 - 2.0 * d / np.pi)

    def _setting_angles(self, setting) -> np.ndarray:
        import numpy as np

        if isinstance(setting, Setting):
            return np.asarray(setting.radians)
        return np.asarray(setting, dtype=np.float64)

    def outcomes_a(self, lams, setting, *, out=None, scratch=None) -> np.ndarray:
        import numpy as np

        theta, w = (None, None) if scratch is None else scratch
        theta = np.add(np.asarray(lams, dtype=np.float64), self._setting_angles(setting), out=theta)
        return threshold_sign(theta, out=out, scratch=w)

    def outcome_a(self, lam, setting: Setting) -> int:
        return _scalar_sign(float(lam) + setting.radians)

    # wire -------------------------------------------------------------------
    def lambda_text(self, lam) -> str:
        return format(float(lam), ".17g")

    def lambda_from_text(self, text: str):
        lam = float(text)
        if not math.isfinite(lam):
            raise ValueError(f"hidden variable {text!r} is not a finite angle")
        return lam

