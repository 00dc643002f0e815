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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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


#: numpy's fixed cost of one _action_table call, in positions of table
#: arithmetic: a row of N + 1 positions computed alone costs about as much as
#: N + 1 + _CALL_POSITIONS positions of a whole-batch table (about 11 us
#: against 0.02 us a position on a 2-vCPU x86 VM, for N from 16 to 1000).
_CALL_POSITIONS = 512


class _PathBatch:
    """A checked, read-only (n_paths, N + 1) position matrix and its last action table.

    action(row, potential, mass) computes the row alone while a key is new,
    and builds the midpoint action of every row in one array pass once the
    same key has served as many consecutive calls alone as the table costs
    (rent, from _CALL_POSITIONS).  Rows served alone are paid for at most
    once more by the table, so over any sequence of calls and keys a call
    costs at most about twice a lone row, and a loop over the rows with one
    key pays for one table and its rent.  The batch keeps one (key, served,
    table) slot, at most one list of n_paths floats; the slot is read once and
    replaced in one assignment, so threads sharing a batch never pair one
    key with another key's table.
    """

    __slots__ = ("positions", "t_total", "_rent", "_cache")

    def __init__(self, positions: np.ndarray, t_total: float):
        n_paths, n_positions = positions.shape
        self.positions = positions
        self.t_total = t_total
        self._rent = n_paths * n_positions // (n_positions + _CALL_POSITIONS)
        self._cache = (None, 0, None)

    def action(self, row: int, potential: Potential, mass: float) -> float:
        # the types are in the key: equal values of other types (a float32 mass
        # or omega) round the coefficients differently
        key = (potential, type(potential.omega), mass, type(mass))
        cached_key, served, table = self._cache
        if key != cached_key:
            served, table = 0, None
        if table is None:
            # a key that fails the mass check raises here and is never cached
            if served < self._rent:
                action = _action_table(self.positions[row:row + 1], self.t_total,
                                       potential, mass)[0]
                self._cache = (key, served + 1, None)
                return action
            table = _action_table(self.positions, self.t_total, potential, mass)
            self._cache = (key, served, table)
        return table[row]


@dataclass(frozen=True, slots=True)
class PathSample:
    """A discrete path: N+1 positions over total duration t_total.

    The constructor checks its input and keeps a private read-only copy of
    the positions, so later writes to the caller's array (or to the array a
    view of it shares memory with) never reach the path; such a path is a
    one-row batch of its own.  sample_paths hands out read-only row views of
    one matrix that it has checked as a whole, all sharing that batch, so
    discrete_action can serve every row from one action table.  Two paths are
    equal when their t_total and positions are equal, whatever batch they
    come from.
    """

    positions: np.ndarray
    t_total: float
    _batch: _PathBatch = field(init=False, repr=False, compare=False)
    _row: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = np.array(self.positions, dtype=np.float64)
        if pos.ndim != 1 or pos.size < 2:
            raise ValueError("a path needs at least two positions")
        if not np.all(np.isfinite(pos)):
            raise ValueError("path positions must be finite")
        _require_positive("t_total", self.t_total)
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "_batch", _PathBatch(pos[None, :], self.t_total))
        object.__setattr__(self, "_row", 0)

    @classmethod
    def _rows(cls, batch: _PathBatch) -> list["PathSample"]:
        """One path per row of a batch whose matrix and t_total are already checked.

        The fields are set through their slot descriptors, which skip the
        frozen __setattr__ as object.__setattr__ does, at half its cost.
        """
        set_pos, set_t, set_batch, set_row = (
            vars(cls)[name].__set__ for name in ("positions", "t_total", "_batch", "_row"))
        new, t_total, paths = object.__new__, batch.t_total, []
        for row, pos in enumerate(batch.positions):
            path = new(cls)
            set_pos(path, pos)
            set_t(path, t_total)
            set_batch(path, batch)
            set_row(path, row)
            paths.append(path)
        return paths

    def __eq__(self, other):
        if not isinstance(other, PathSample):
            return NotImplemented
        return self.t_total == other.t_total and np.array_equal(self.positions, other.positions)

    def __hash__(self):
        # tolist(): -0.0 and 0.0 compare equal, so they must hash equal too
        return hash((self.t_total, tuple(self.positions.tolist())))

    def __reduce__(self):
        # a pickled path carries its own positions, not the batch it came from
        return PathSample, (self.positions, self.t_total)


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
        if self.mass <= 0 or self.hbar <= 0 or self.t <= 0:
            raise ValueError("mass, hbar and t must be positive")
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
    spec: PropagatorSpec = field(repr=False, default=None)
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

    Rows of one sample_paths batch share an action table (see _action_table
    and _PathBatch): a (potential, mass) key computes each row alone until it
    has served consecutive calls worth one table, then builds the table for
    every row, and later calls with that key look their row up.  Only the last
    key is kept.  Every value is bit-identical to the same rule applied to the
    path alone.  mass must be finite and positive (ValueError otherwise).  An
    action that overflows is returned as the rule gives it (inf or nan) with a
    RuntimeWarning for that path alone, as when each path was computed on its
    own.
    """
    action = path._batch.action(path._row, potential, mass)
    if not math.isfinite(action):
        warnings.warn(f"discrete_action is not finite: {action}", RuntimeWarning, stacklevel=2)
    return action


def _action_table(x: np.ndarray, t_total: float, potential: Potential, mass: float) -> list[float]:
    """Midpoint actions of every row of the (n_paths, N + 1) matrix x.

    Each term is (0.5*m)*((b - a)/dt)^2 - c*(0.5*(a + b))^2, times dt, over
    adjacent positions a, b, and each row is summed pairwise by numpy; c = V(1)
    is taken once from Potential.energy (V is c*x^2, as _slice_operator uses
    it).  The arithmetic runs in place on whole-matrix arrays, element by
    element in the same order as on a single row, and numpy sums each
    contiguous row as it sums a lone one, so every entry equals the rule
    applied to that row alone.
    """
    _require_positive("mass", mass)
    dt = t_total / (x.shape[1] - 1)
    c = float(potential.energy(1.0, mass))
    a, b = x[:, :-1], x[:, 1:]
    # one row's overflow must not warn for the others: discrete_action warns per path
    with np.errstate(all="ignore"):
        terms = b - a
        terms /= dt
        terms *= terms
        terms *= 0.5 * mass
        if c:  # a free path subtracts nothing (c*mid^2 could be 0*inf)
            mid = a + b
            mid *= 0.5
            mid *= mid
            mid *= c
            terms -= mid
        terms *= dt
        return terms.sum(axis=1).tolist()


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
    """
    dt = spec.t / spec.n_slices
    if spec.n_slices == 1:
        # no quadrature happens, so no anti-alias damping is applied
        value = complex(_slice_kernel(spec, dt, spec.v, spec.u))
        return PropagatorResult(value, False, spec)

    x_min, x_max, n_points = spec.grid
    x = np.linspace(x_min, x_max, n_points)
    dx = x[1] - x[0]
    eta = 2.0 * spec.damping * spec.mass * dx * dx / (np.pi**2 * spec.hbar * dt)
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
    return PropagatorResult(value, edge > SUPPORT_WARNING_LEVEL, spec, float(eta), edge)


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
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if potential.kind == "free":
        pref = np.sqrt(mass / (2j * np.pi * hbar * t))
        return complex(pref * np.exp(1j * mass * (v - u) ** 2 / (2.0 * hbar * t)))
    w = potential.omega
    s = math.sin(w * t)
    if abs(s) < 1e-12:
        raise ValueError(f"caustic: sin(omega*t) = 0 at omega*t = {w * t}")
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

    Path i is a pure function of seed + i.  Increments have variance dt,
    the bridge is pinned to zero at both ends, and jitter_scale multiplies
    the whole bridge, so positions[0] == u and positions[-1] == v exactly.
    The inputs and the finiteness of the whole (n_paths, n_slices + 1)
    matrix are checked once; finite inputs whose arithmetic overflows end
    at that check with "path positions must be finite", not in a numpy
    warning.  The matrix is then made read-only and each path is a view of
    one of its rows; the paths share one batch, so discrete_action computes
    the actions of all of them in one array pass per (potential, mass).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if n_slices < 1:
        raise ValueError("n_slices must be >= 1")
    _require_positive("t", t)
    for name, value in (("u", u), ("v", v), ("jitter_scale", jitter_scale)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    dt = t / n_slices
    z = rng.normals_for_seeds(rng.trial_seeds(seed, n_paths), n_slices)
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.linspace(u, v, n_slices + 1)
        z *= math.sqrt(dt)
        bridge = np.cumsum(z, axis=1, out=z)
        frac = np.arange(1, n_slices + 1) / n_slices
        bridge -= frac[None, :] * bridge[:, -1:]
        bridge *= jitter_scale
        paths = np.repeat(base[None, :], n_paths, axis=0)
        paths[:, 1:] += bridge
        paths[:, -1] = v  # bridge end is 0 by construction; pin exactly anyway
    if not np.isfinite(paths).all():
        raise ValueError("path positions must be finite")
    paths.flags.writeable = False
    return PathSample._rows(_PathBatch(paths, t))
