"""Reference computations for the benchmark's output checks.

Everything here is written from the published definitions in plain Python
(integers, ``math`` and ``cmath``), without importing bellpath or numpy, so a
check compares the program against an independent computation rather than
against itself.
"""

from __future__ import annotations

import cmath
import itertools
import math

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_A = 0xBF58476D1CE4E5B9
MIX_B = 0x94D049BB133111EB

#: First output of SplitMix64 started from state 0 (Steele, Lea and Flood,
#: "Fast splittable pseudorandom number generators", 2014; also the value
#: listed beside Vigna's reference implementation).
SPLITMIX64_SEED0_FIRST = 0xE220A8397B1DCDAF

TWO_PI = 2.0 * math.pi
BOUNDARY_SNAP = 1e-12


# -- SplitMix64 seed schedule --------------------------------------------------

def splitmix64_outputs(state: int, n: int) -> list[int]:
    """The first n outputs of SplitMix64 started from ``state``."""
    out = []
    for _ in range(n):
        state = (state + GOLDEN) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * MIX_A) & MASK64
        z = ((z ^ (z >> 27)) * MIX_B) & MASK64
        out.append(z ^ (z >> 31))
    return out


def trial_u64(seed: int, n: int) -> list[int]:
    """Raw outputs of the per-trial stream of ``seed``.

    The trial stream is SplitMix64 started from the first SplitMix64 output
    of the trial seed (taken mod 2**64).
    """
    state0 = splitmix64_outputs(seed & MASK64, 1)[0]
    return splitmix64_outputs(state0, n)


def uniforms(seed: int, n: int) -> list[float]:
    """n doubles in [0, 1) from the top 53 bits of each stream output."""
    return [(x >> 11) * 2.0 ** -53 for x in trial_u64(seed, n)]


def uniform(seed: int) -> float:
    return uniforms(seed, 1)[0]


def random_choice_index(seed: int, n_choices: int) -> int:
    """Index picked by a per-trial uniform draw from ``n_choices`` options."""
    return min(int(uniform(seed) * n_choices), n_choices - 1)


# -- clock model -------------------------------------------------------------------

def threshold_sign(theta: float) -> int:
    """Half-circle detector: +1 on [0, pi), -1 on [pi, 2pi), boundary-snapped."""
    w = theta % TWO_PI
    if abs(w - TWO_PI) < BOUNDARY_SNAP:
        w = 0.0
    if abs(w - math.pi) < BOUNDARY_SNAP:
        w = math.pi
    return 1 if w < math.pi else -1


def circular_distance(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def clock_E(a: float, b: float, anti_aligned: bool = True) -> float:
    """Closed-form clock-model correlation: -/+(1 - 2d/pi)."""
    e = 1.0 - 2.0 * circular_distance(a, b) / math.pi
    return -e if anti_aligned else e


def clock_chsh(a: float, ap: float, b: float, bp: float, anti_aligned: bool = True) -> float:
    return (clock_E(a, b, anti_aligned) + clock_E(ap, b, anti_aligned)
            + clock_E(ap, bp, anti_aligned) - clock_E(a, bp, anti_aligned))


#: Angles of the three discrete settings.
DISCRETE_ANGLES = (0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0)


# -- instruction sets ---------------------------------------------------------------

#: All eight red/green instruction sets in canonical order (RRR, RRG, ..., GGG).
INSTRUCTION_SETS = tuple("".join(c) for c in itertools.product("RG", repeat=3))


def _sign(color: str) -> int:
    return 1 if color == "R" else -1


def mermin_tables(probs, anti_aligned: bool = False):
    """Exact E(i, j), P_agree(i, j) and overall agreement of a mixture.

    ``probs[k]`` weighs ``INSTRUCTION_SETS[k]``; settings i, j index the
    colour a detector flashes.
    """
    flip = -1 if anti_aligned else 1
    e = [[0.0] * 3 for _ in range(3)]
    agree = [[0.0] * 3 for _ in range(3)]
    for p, colors in zip(probs, INSTRUCTION_SETS):
        for i in range(3):
            for j in range(3):
                sa, sb = _sign(colors[i]), flip * _sign(colors[j])
                e[i][j] += p * sa * sb
                agree[i][j] += p * (sa == sb)
    overall = sum(agree[i][j] for i in range(3) for j in range(3)) / 9.0
    return e, agree, overall


# -- propagators and actions ------------------------------------------------------------

def free_propagator(mass: float, hbar: float, u: float, v: float, t) -> complex:
    """sqrt(m/(2 pi i hbar t)) exp(i m (v-u)^2 / (2 hbar t)); t may be complex."""
    pref = cmath.sqrt(mass / (2j * math.pi * hbar * t))
    return pref * cmath.exp(1j * mass * (v - u) ** 2 / (2.0 * hbar * t))


def harmonic_propagator(mass: float, omega: float, hbar: float, u: float, v: float, t: float) -> complex:
    """Mehler kernel between caustics, principal branch of the square root."""
    s = math.sin(omega * t)
    pref = cmath.sqrt(mass * omega / (2j * math.pi * hbar * s))
    phase = mass * omega * ((u * u + v * v) * math.cos(omega * t) - 2.0 * u * v) / (2.0 * hbar * s)
    return pref * cmath.exp(1j * phase)


def harmonic_energy(x: float, mass: float, omega: float) -> float:
    return 0.5 * mass * omega * omega * x * x


def midpoint_slice_kernel(mass: float, omega: float, hbar: float, u: float, v: float, t: float) -> complex:
    """One short-time kernel whose potential is sampled at the midpoint."""
    action = mass * (v - u) ** 2 / (2.0 * t) - harmonic_energy(0.5 * (u + v), mass, omega) * t
    return cmath.sqrt(mass / (2j * math.pi * hbar * t)) * cmath.exp(1j * action / hbar)


def midpoint_action(positions, t_total: float, mass: float, omega: float) -> tuple[float, float]:
    """Midpoint-rule action and the sum of its terms' magnitudes.

    S = sum_k [m/2 ((x_{k+1}-x_k)/dt)^2 - V((x_k+x_{k+1})/2)] dt.  The
    magnitude sum is the scale against which a relative tolerance is set.
    """
    n = len(positions) - 1
    dt = t_total / n
    terms = []
    for k in range(n):
        x0, x1 = positions[k], positions[k + 1]
        kinetic = 0.5 * mass * ((x1 - x0) / dt) ** 2
        terms.append((kinetic - harmonic_energy(0.5 * (x0 + x1), mass, omega)) * dt)
    return math.fsum(terms), math.fsum(abs(x) for x in terms)


def phasor_sum(phases) -> complex:
    """Sum of exp(i*phi), accumulated with exact float summation."""
    return complex(math.fsum(math.cos(p) for p in phases),
                   math.fsum(math.sin(p) for p in phases))


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list (q in (0, 1])."""
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]
