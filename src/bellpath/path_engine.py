"""Discrete actions, time-sliced propagators, and phasor resultants.

The propagator from u to v in time t is computed by composing short-time
kernels on a spatial grid: each slice contributes
k * exp(i*S_slice/hbar) with S_slice the midpoint-rule action of one step,
and adjacent slices are joined by trapezoid integration over the grid.

A bare sampled kernel of this kind cannot be composed naively: its chirp
exp(i*m*(x'-x)^2 / (2*hbar*dt)) oscillates faster than the grid can resolve
once |x'-x| exceeds pi*hbar*dt/(m*dx), and the aliased components make the
composition inaccurate or outright divergent.  We therefore evaluate every
slice at the complex time tau = dt*(1 - i*eta), with eta chosen so the
kernel has decayed by exp(-damping) at the grid's resolution limit:

    eta = 2*damping*m*dx^2 / (pi^2*hbar*dt).

Each slice is then the exact analytic-continuation kernel, the Gaussian
envelope suppresses both aliasing and domain-edge truncation, and eta
vanishes as dx^2 under grid refinement, so the continuum limit is
unchanged.  The known cost is a small bias of order eta (about eta/2 in
phase from the sqrt(1/tau) normalization); with the default damping of 8
it sits at the 1e-3 level for desk-scale grids.  Results report eta, and
above ETA_WARNING_LEVEL the bias is no longer small.  Only this bias
vanishes under refinement: the finite domain truncates the kernel, and
that error sets a floor (flagged by the support warning).

Every slice kernel is diagonal x (Toeplitz or Hankel) x diagonal, so each
joint is one zero-padded FFT convolution: O(N log N) time and O(N) memory
per joint, with no N x N matrix.  Its round-off is absolute, about
eps * |psi| over the whole state rather than relative per entry, so in a
state damped by tens of orders of magnitude it can fill the edge cells and
raise the support warning.

Endpoints are handled exactly: the first slice is the kernel evaluated at
u, the last at v, so a single slice involves no grid at all and reproduces
the analytic free propagator to machine precision.

Monte Carlo path sums work on a batch: sample_paths fills one
(n_paths, N + 1) position matrix one block of rows at a time, and with it two
sums per row, steps = sum of (b - a)^2 and mids = sum of ((a + b)/2)^2 over
adjacent positions a, b.  Every potential here is c*x^2, so discrete_action
reads any (potential, mass) key's action off those two sums.  A block holds at
most _BLOCK_POSITIONS values (at least one row), so the temporaries stay that
small whatever n_paths is; every row is a pure function of its own seed, and
numpy sums each contiguous row as it sums a lone one, so the block size
changes no value.
"""

from __future__ import annotations

import cmath
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng

TWO_PI = 2.0 * np.pi

#: Default damping exponent at the grid's chirp resolution limit.
DEFAULT_DAMPING = 8.0

#: A resultant with |sum| below this is reported as degenerate: its angle
#: carries no information at cancellation.
DEGENERATE_R = 1e-12

#: Fraction of |psi| mass in the outer 1% of grid cells (each side) above
#: which a propagator result carries a support warning.
SUPPORT_WARNING_LEVEL = 1e-3

#: Damping eta above which a propagator result is reported as unresolved:
#: its O(eta) bias is then no longer small (the CLI warns on stderr).
ETA_WARNING_LEVEL = 0.05


@dataclass(frozen=True)
class Potential:
    """Free or harmonic potential; energy(x, m) = 0 or m*omega^2*x^2/2."""

    kind: str
    omega: float = 0.0

    def __post_init__(self):
        if self.kind not in ("free", "harmonic"):
            raise ValueError(f"unknown potential {self.kind!r}")
        if self.kind == "harmonic":
            # energy() squares omega in its own type; NaN fails omega > 0
            with np.errstate(over="ignore"):
                square = self.omega * self.omega
            if not (self.omega > 0 and math.isfinite(square)):
                raise ValueError(f"harmonic potential needs a finite omega > 0 "
                                 f"with a finite square, got {self.omega}")

    def energy(self, x, mass: float):
        if self.kind == "free":
            return np.zeros_like(np.asarray(x, dtype=np.float64))
        return 0.5 * mass * self.omega**2 * np.asarray(x, dtype=np.float64) ** 2


FREE = Potential("free")


def harmonic(omega: float) -> Potential:
    return Potential("harmonic", omega)


#: Values per block of a path batch: a block is _BLOCK_POSITIONS // N rows of
#: N increments, at least one row.  Larger blocks no longer reuse the
#: allocator's freed memory and page-fault on every block; smaller ones pay
#: numpy's per-call cost more often.
_BLOCK_POSITIONS = 1 << 14


class _PathBatch:
    """A checked, read-only (n_paths, N + 1) position matrix and two sums per row.

    steps[row] is the sum of (b - a)^2 and mids[row] the sum of
    ((a + b)/2)^2 over the row's adjacent positions a, b, each summed
    pairwise by numpy (see _fill_sums); both are memoryviews, so an index
    gives a Python float.  Nothing changes after construction, and no key
    leaves anything behind.
    """

    __slots__ = ("positions", "dt", "steps", "mids")

    def __init__(self, positions: np.ndarray, t_total: float, steps: np.ndarray,
                 mids: np.ndarray):
        self.positions = positions
        self.dt = t_total / (positions.shape[1] - 1)
        self.steps = memoryview(steps)
        self.mids = memoryview(mids)


def _fill_sums(x: np.ndarray, scratch: np.ndarray, steps: np.ndarray, mids: np.ndarray) -> None:
    """Write the two sums of each row of the (rows, N + 1) matrix x into steps and mids.

    scratch is a spent (rows, N) buffer.  The arithmetic runs element by
    element as on a single row, and numpy sums each contiguous row as it sums
    a lone one, so every entry equals its row's sums taken alone.  Callers
    hold an errstate: one row's overflow must not warn for the others.
    """
    a, b = x[:, :-1], x[:, 1:]
    np.subtract(b, a, out=scratch)
    scratch *= scratch
    scratch.sum(axis=1, out=steps)
    np.add(a, b, out=scratch)
    scratch *= 0.5
    scratch *= scratch
    scratch.sum(axis=1, out=mids)


class PathSample:
    """A discrete path: N+1 positions over total duration t_total.

    A path is a row of a _PathBatch and holds only the batch and its row;
    positions is a read-only view of that row, made on access.  The
    constructor checks its input and keeps a private read-only copy of the
    positions, so later writes to the caller's array (or to the array a view
    of it shares memory with) never reach the path; such a path is a one-row
    batch of its own, whose two sums the constructor fills.  sample_paths
    hands out the rows of one matrix that it has checked and summed as a
    whole, all sharing that batch.  Paths compare and hash by identity, and
    a path does not pickle (its batch holds memoryviews).
    """

    __slots__ = ("_batch", "_row")

    def __init__(self, positions, t_total: float):
        pos = np.array(positions, dtype=np.float64)
        if pos.ndim != 1 or pos.size < 2:
            raise ValueError("a path needs at least two positions")
        if not np.all(np.isfinite(pos)):
            raise ValueError("path positions must be finite")
        _require_positive("t_total", t_total)
        pos.flags.writeable = False
        x, steps, mids = pos[None, :], np.empty(1), np.empty(1)
        with np.errstate(all="ignore"):
            _fill_sums(x, np.empty((1, pos.size - 1)), steps, mids)
        self._batch = _PathBatch(x, t_total, steps, mids)
        self._row = 0

    @classmethod
    def _rows(cls, batch: _PathBatch) -> list["PathSample"]:
        """One path per row of a batch whose matrix and duration are already checked."""
        new, paths = object.__new__, []
        for row in range(len(batch.positions)):
            path = new(cls)
            path._batch = batch
            path._row = row
            paths.append(path)
        return paths

    @property
    def positions(self) -> np.ndarray:
        return self._batch.positions[self._row]


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class Resultant:
    """Polar form r*e^{i*theta} of a sum of unit phasors."""

    r: float
    theta: float
    degenerate: bool = False


@dataclass(frozen=True)
class PropagatorSpec:
    mass: float
    potential: Potential
    u: float
    v: float
    t: float
    n_slices: int
    grid: tuple[float, float, int]  # (x_min, x_max, n_points)
    hbar: float = 1.0
    damping: float = DEFAULT_DAMPING

    def __post_init__(self):
        x_min, x_max, n_points = self.grid
        for name in ("mass", "hbar", "t", "damping"):
            _require_positive(name, getattr(self, name))
        if not (math.isfinite(x_min) and math.isfinite(x_max)):
            raise ValueError(f"grid bounds must be finite, got {x_min}, {x_max}")
        if self.n_slices < 1:
            raise ValueError("n_slices must be >= 1")
        if n_points < 16:
            raise ValueError("grid needs at least 16 points")
        if not (x_min < self.u < x_max and x_min < self.v < x_max):
            raise ValueError("endpoints must lie strictly inside the grid")


@dataclass(frozen=True)
class PropagatorResult:
    value: complex
    support_warning: bool
    #: anti-alias damping of every slice; 0.0 for one slice (no grid)
    eta: float = 0.0
    #: largest edge mass fraction of an intermediate state (support_warning's input)
    edge_fraction: float = 0.0

    @property
    def modulus(self) -> float:
        return abs(self.value)

    @property
    def phase(self) -> float:
        return float(np.angle(self.value) % TWO_PI)


def discrete_action(path: PathSample, potential: Potential = FREE, mass: float = 1.0) -> float:
    """Midpoint-rule action: sum of [m/2 * v_k^2 - V(midpoint_k)] * dt.

    V is c*x^2 for every Potential (c = V(1), as _slice_operator uses it), so
    the action is m/(2*dt) * steps - c*dt * mids, read off the two sums that
    the path's batch holds (see _PathBatch): O(1) per call for any key, and
    bit-identical to the same rule applied to the path alone.  It and the
    per-step sum of the terms each round every part of a term at most N + 6
    times, so they differ by at most 2*gamma_{N+6} * T (T the sum of the
    terms' magnitudes, gamma_k = k*u/(1 - k*u), u = 2**-53; Higham, Accuracy
    and Stability of Numerical Algorithms, section 4.2), plus
    N * 2**-1074 * (m/dt + m*dt + c*dt + dt + 2) where a product is
    subnormal.  mass must be finite and positive (ValueError otherwise).  An
    action that overflows is returned as the rule gives it (inf or nan) with
    a RuntimeWarning for that path alone.
    """
    if not 0.0 < mass < math.inf:  # _require_positive's test, inline: a call costs 50 ns here
        _require_positive("mass", mass)
    batch, row = path._batch, path._row
    dt = batch.dt
    action = float(mass) / (2.0 * dt) * batch.steps[row]
    if potential.kind == "harmonic":  # a free path subtracts nothing (0*mids could be 0*inf)
        # c in the types of mass and omega, rounded as Potential.energy(1.0, mass) rounds it
        c = float(0.5 * mass * potential.omega**2)
        action -= c * dt * batch.mids[row]
    if not math.isfinite(action):
        warnings.warn(f"discrete_action is not finite: {action}", RuntimeWarning, stacklevel=2)
    return action


def _slice_kernel(spec: PropagatorSpec, tau: complex, xp, xq):
    """Kernel of one slice of (possibly complex) duration tau."""
    m, hbar = spec.mass, spec.hbar
    pref = np.sqrt(m / (2j * np.pi * hbar * tau))  # principal branch
    mid = 0.5 * (np.asarray(xp) + np.asarray(xq))
    action = m * (np.asarray(xp) - np.asarray(xq)) ** 2 / (2.0 * tau) \
        - spec.potential.energy(mid, m) * tau
    return pref * np.exp(1j * action / hbar)


def _slice_operator(spec: PropagatorSpec, tau: complex, x: np.ndarray):
    """The map psi -> K @ psi for the slice kernel K on the uniform grid x.

    For V(x) = c*x^2 (c = m*omega^2/2, or 0 when free), a = i*m/(2*hbar*tau)
    and b = -i*tau*c/(4*hbar), the kernel is
    pref*exp(a*(x-x')^2 + b*(x+x')^2) = D(x) * M * D(x'), where M is either
    Toeplitz in x-x' (coefficient a-b, D = exp(2b*x^2)) or Hankel in x+x'
    (coefficient b-a, D = exp(2a*x^2)).  The split whose M decays is taken;
    the Toeplitz one grows once omega*dt > 2/sqrt(1 + eta^2).  Either M
    applied to a vector is one linear convolution of its 2N-1 coefficients,
    the Hankel one of the reversed vector, done by zero-padded FFT in
    O(N log N).
    """
    m, hbar, n = spec.mass, spec.hbar, x.size
    a = 1j * m / (2.0 * hbar * tau)
    b = -1j * tau * float(spec.potential.energy(1.0, m)) / (4.0 * hbar)
    pref = np.sqrt(m / (2j * np.pi * hbar * tau))  # principal branch
    steps = np.arange(2 * n - 1) * (x[1] - x[0])
    hankel = (a - b).real > 0
    if hankel:
        diag, coef, s = np.exp(2.0 * a * x * x), b - a, steps + 2.0 * x[0]
    else:
        diag, coef, s = np.exp(2.0 * b * x * x), a - b, steps - steps[n - 1]
    size = 1 << (2 * n - 2).bit_length()  # circular wrap-around misses rows n-1..2n-2
    spectrum = pref * np.fft.fft(np.exp(coef * s * s), size)

    def apply(psi: np.ndarray) -> np.ndarray:
        w = diag * psi
        conv = np.fft.ifft(spectrum * np.fft.fft(w[::-1] if hankel else w, size))
        return diag * conv[n - 1:2 * n - 1]

    return apply


def sliced_propagator(spec: PropagatorSpec) -> PropagatorResult:
    """Propagator <v|u> by composing n_slices short-time kernels.

    The first and last slices are evaluated at the exact endpoints u and v;
    intermediate joints are trapezoid integrals over the grid, each one FFT
    convolution (see _slice_operator).  The result reports the damping eta
    and the largest fraction of any intermediate state's |psi| mass in the
    outer 1% of cells on either side; above SUPPORT_WARNING_LEVEL it carries
    a support warning, a sign that the grid truncates the kernel materially.

    The arithmetic runs with numpy's floating-point warnings off.  A grid
    too wide for a finite eta at n_slices raises ValueError before any slice
    is composed.  Inputs that PropagatorSpec accepts can still overflow the
    arithmetic (a slice phase or prefactor past the float range, an exponent
    that exp cannot take, a one-slice hbar*t that underflows to 0) or
    underflow it to 0; a value that is not finite or is 0 raises ValueError
    naming the inputs (see _unrepresented).
    """
    with np.errstate(all="ignore"):
        try:
            result = _compose_slices(spec)
        except ZeroDivisionError:  # a one-slice hbar*t that underflowed to 0
            result = PropagatorResult(complex(math.inf), False)
    fault = _unrepresented(result.value)
    if fault:
        x_min, x_max, _ = spec.grid
        raise ValueError(f"the {_kind_text(spec.potential)} propagator at {spec.n_slices} "
                         f"slices {fault} for mass {spec.mass:.3g}, hbar {spec.hbar:.3g}, "
                         f"t {spec.t:.3g} and grid {x_min:.3g}, {x_max:.3g}")
    return result


def _kind_text(potential: Potential) -> str:
    return "free" if potential.kind == "free" else f"harmonic (omega {potential.omega:.3g})"


def _unrepresented(value: complex) -> str | None:
    """Why ``value`` cannot stand for a propagator, or None: it is not finite,
    or it rounded to 0, which a propagator's modulus never is."""
    if not cmath.isfinite(value):
        return "is not finite"
    return "rounds to 0" if value == 0 else None


def _compose_slices(spec: PropagatorSpec) -> PropagatorResult:
    dt = spec.t / spec.n_slices
    if spec.n_slices == 1:
        # no quadrature happens, so no anti-alias damping is applied
        return PropagatorResult(complex(_slice_kernel(spec, dt, spec.v, spec.u)), False)

    x_min, x_max, n_points = spec.grid
    x = np.linspace(x_min, x_max, n_points)
    dx = x[1] - x[0]
    eta = 2.0 * spec.damping * spec.mass * dx * dx / (np.pi**2 * spec.hbar * dt)
    if not math.isfinite(eta):  # named by its nominal spacing: x[0] is nan once that overflows
        raise ValueError(f"grid spacing {(x_max - x_min) / (n_points - 1):.3g} is too wide: the "
                         f"anti-alias damping eta at {spec.n_slices} slices is not finite")
    tau = dt * (1.0 - 1j * eta)

    weights = np.full(n_points, dx)
    weights[0] *= 0.5
    weights[-1] *= 0.5

    psi = _slice_kernel(spec, tau, x, spec.u)
    n_edge = max(1, n_points // 100)
    edge = _edge_fraction(psi, weights, n_edge)

    if spec.n_slices > 2:
        joint = _slice_operator(spec, tau, x)
        for _ in range(spec.n_slices - 2):
            psi = joint(weights * psi)
            edge = max(edge, _edge_fraction(psi, weights, n_edge))

    value = complex(np.sum(weights * _slice_kernel(spec, tau, spec.v, x) * psi))
    return PropagatorResult(value, edge > SUPPORT_WARNING_LEVEL, float(eta), edge)


def _edge_fraction(psi: np.ndarray, weights: np.ndarray, n_edge: int) -> float:
    mass = np.abs(psi) * weights
    total = mass.sum()
    if total == 0.0:
        return 0.0
    return float((mass[:n_edge].sum() + mass[-n_edge:].sum()) / total)


def analytic_propagator(
    potential: Potential, mass: float, hbar: float, u: float, v: float, t: float
) -> complex:
    """Closed-form propagator, the oracle for convergence tests.

    Free: sqrt(m/(2*pi*i*hbar*t)) * exp(i*m*(v-u)^2/(2*hbar*t)).
    Harmonic: sqrt(m*w/(2*pi*i*hbar*sin(wt)))
              * exp(i*m*w*((u^2+v^2)*cos(wt) - 2*u*v)/(2*hbar*sin(wt))),
    valid between caustics; sin(wt) = 0 raises.  sqrt(1/i) is taken on the
    principal branch, the exp(-i*pi/4) factor.

    The arithmetic runs with numpy's floating-point warnings off.  A value
    that is not finite, or that rounds to 0 (the modulus never is 0), raises
    ValueError naming the inputs; a caustic is refused before either.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    with np.errstate(all="ignore"):
        try:
            value = _closed_form(potential, mass, hbar, u, v, t)
        except (OverflowError, ZeroDivisionError):  # a float ** past the float range,
            value = complex(math.inf)  # or an hbar*t that underflowed to 0
    fault = _unrepresented(value)
    if fault:
        raise ValueError(f"the {_kind_text(potential)} closed-form propagator {fault} for "
                         f"mass {mass:.3g}, hbar {hbar:.3g}, u {u:.3g}, v {v:.3g} and t {t:.3g}")
    return value


def _caustic_sin(potential: Potential, t: float) -> float:
    """sin(omega*t) of a harmonic potential; at a caustic, sin(omega*t) = 0,
    the closed form is undefined and ValueError is raised, as it is for an
    omega*t that overflows."""
    w = potential.omega
    if not math.isfinite(w * t):
        raise ValueError(f"harmonic omega*t is not finite for omega {w:.3g} and t {t:.3g}")
    s = math.sin(w * t)
    if abs(s) < 1e-12:
        raise ValueError(f"caustic: sin(omega*t) = 0 at omega*t = {w * t}")
    return s


def _closed_form(potential: Potential, mass: float, hbar: float, u: float, v: float,
                 t: float) -> complex:
    if potential.kind == "free":
        pref = np.sqrt(mass / (2j * np.pi * hbar * t))
        return complex(pref * np.exp(1j * mass * (v - u) ** 2 / (2.0 * hbar * t)))
    w, s = potential.omega, _caustic_sin(potential, t)
    pref = np.sqrt(mass * w / (2j * np.pi * hbar * s))
    phase = mass * w * ((u * u + v * v) * math.cos(w * t) - 2.0 * u * v) / (2.0 * hbar * s)
    return complex(pref * np.exp(1j * phase))


def resultant(phases) -> Resultant:
    """Polar form of the sum of unit phasors exp(i*phi) over a phase list.

    At cancellation (r < 1e-12) the angle is undefined; theta is reported
    as 0 with the degenerate flag set.
    """
    phases = np.asarray(phases, dtype=np.float64)
    if phases.size == 0:
        raise ValueError("resultant of an empty phase list")
    total = np.sum(np.exp(1j * phases))
    r = float(np.abs(total))
    if r < DEGENERATE_R:
        return Resultant(r, 0.0, True)
    return Resultant(r, float(np.angle(total) % TWO_PI), False)


def sample_paths(
    u: float,
    v: float,
    t: float,
    n_slices: int,
    n_paths: int,
    jitter_scale: float,
    seed: int,
) -> list[PathSample]:
    """Brownian-bridge jitter around the straight line from u to v.

    Path i is a pure function of seed + i (an integer; TypeError otherwise).
    Increments have variance dt, the bridge is pinned to zero at both ends,
    and jitter_scale multiplies the whole bridge, so positions[0] == u and
    positions[-1] == v exactly.  The (n_paths, n_slices + 1) matrix is
    allocated once and filled one block of rows at a time: each block draws
    the normals of its own seeds, forms its bridges and writes its rows in
    place, so the temporaries hold at most _BLOCK_POSITIONS values.  The
    inputs are checked once and every block's finiteness as it is written;
    finite inputs whose arithmetic overflows end at that check with "path
    positions must be finite", not in a numpy warning.  Each block then
    fills its rows' two sums (see _PathBatch), with its spent bridge buffer
    as scratch.  The matrix is made read-only and each path is a view of one
    of its rows; the paths share one batch.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if n_slices < 1:
        raise ValueError("n_slices must be >= 1")
    _require_positive("t", t)
    for name, value in (("u", u), ("v", v), ("jitter_scale", jitter_scale)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    seed = operator.index(seed)  # seed + start must not overflow a numpy integer
    scale = math.sqrt(t / n_slices)
    frac = np.arange(1, n_slices + 1) / n_slices
    paths = np.empty((n_paths, n_slices + 1))
    steps, mids = np.empty(n_paths), np.empty(n_paths)
    rows = max(1, _BLOCK_POSITIONS // n_slices)
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.linspace(u, v, n_slices + 1)
        for start in range(0, n_paths, rows):
            block = paths[start:start + rows]
            z = rng.normals_for_seeds(rng.trial_seeds(seed + start, len(block)), n_slices)
            z *= scale
            bridge = np.cumsum(z, axis=1, out=z)
            bridge -= frac * bridge[:, -1:]
            bridge *= jitter_scale
            block[:, 0] = base[0]
            np.add(base[1:], bridge, out=block[:, 1:])
            block[:, -1] = v  # bridge end is 0 by construction; pin exactly anyway
            if not np.isfinite(block).all():
                raise ValueError("path positions must be finite")
            _fill_sums(block, z, steps[start:start + rows], mids[start:start + rows])
    paths.flags.writeable = False
    return PathSample._rows(_PathBatch(paths, t, steps, mids))
