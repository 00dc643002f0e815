"""Seed-indexed random streams.

Every stochastic operation in this package takes an explicit 64-bit seed and
is a pure function of it.  Trial i of a run with base seed s always uses the
sub-stream derived from s + i, so Monte Carlo runs can be sharded over any
partition of the trial range without changing the merged result, and a
distributed run reproduces an in-process run bit for bit.

Streams are generated with SplitMix64: the per-trial seed is passed through
the SplitMix64 finalizer once, and successive outputs are finalizer values of
states stepped by the golden-ratio increment.  Everything is integer mixing
plus IEEE-754 double arithmetic, so results are identical across platforms.
Seed 0 is valid.

``uniform`` is the scalar form of the stream: the first draw of one seed,
computed in plain Python integers masked to 64 bits.  It gives the same bits
as ``uniforms(seed, 1)[0]`` and costs a few operations instead of a numpy
round-trip, which matters on the per-trial path of a wire run.
"""

from __future__ import annotations

import operator

import numpy as np

# SplitMix64 constants: Python ints for the scalar path, uint64 for arrays
_GOLDEN_I, _MIX_A_I, _MIX_B_I = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_GOLDEN, _MIX_A, _MIX_B = np.uint64(_GOLDEN_I), np.uint64(_MIX_A_I), np.uint64(_MIX_B_I)
_MASK64 = (1 << 64) - 1

# 2**-53: maps the top 53 bits of a u64 to [0, 1)
_INV53 = float(np.ldexp(1.0, -53))


def _finalize(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX_A
    z = (z ^ (z >> np.uint64(27))) * _MIX_B
    return z ^ (z >> np.uint64(31))


def _as_u64(seed) -> np.ndarray:
    # Accept python ints (possibly negative or > 2**64) and arrays alike.
    arr = np.asarray(seed)
    if arr.dtype.kind in "iu":
        return arr.astype(np.uint64, copy=False)
    raise TypeError(f"seed must be an integer, got {arr.dtype}")


def mix64(seed) -> np.ndarray:
    """SplitMix64 finalizer of ``seed`` (elementwise for arrays)."""
    with np.errstate(over="ignore"):
        return _finalize(_as_u64(seed) + _GOLDEN)


def u64_stream(seed: int, n: int) -> np.ndarray:
    """First ``n`` raw 64-bit outputs of the stream for one seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    with np.errstate(over="ignore"):
        state0 = mix64(np.uint64(seed % (1 << 64)))
        steps = (np.arange(1, n + 1, dtype=np.uint64)) * _GOLDEN
        return _finalize(state0 + steps)


def uniforms(seed: int, n: int) -> np.ndarray:
    """n uniform doubles in [0, 1) from the stream of ``seed``."""
    return (u64_stream(seed, n) >> np.uint64(11)).astype(np.float64) * _INV53


def _finalize_int(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_A_I) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B_I) & _MASK64
    return z ^ (z >> 31)


def uniform(seed: int) -> float:
    """The first uniform of the stream of ``seed``; equals ``uniforms(seed, 1)[0]``."""
    state0 = _finalize_int((operator.index(seed) + _GOLDEN_I) & _MASK64)
    return (_finalize_int((state0 + _GOLDEN_I) & _MASK64) >> 11) * _INV53


def uniforms_for_seeds(seeds, n: int) -> np.ndarray:
    """Matrix of uniforms, row k holding the first n draws of seeds[k]."""
    with np.errstate(over="ignore"):
        s0 = mix64(_as_u64(seeds)).reshape(-1, 1)
        steps = (np.arange(1, n + 1, dtype=np.uint64)) * _GOLDEN
        u = _finalize(s0 + steps.reshape(1, -1))
    return (u >> np.uint64(11)).astype(np.float64) * _INV53


def normals_for_seeds(seeds, n: int) -> np.ndarray:
    """Standard normals, row k holding the first n draws of seeds[k].

    Box-Muller on consecutive uniform pairs; u1 is kept away from 0 so the
    log never overflows.
    """
    m = (n + 1) // 2
    u = uniforms_for_seeds(seeds, 2 * m)
    u1 = np.maximum(u[:, 0::2], _INV53)
    u2 = u[:, 1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty((u.shape[0], 2 * m))
    z[:, 0::2] = r * np.cos(2.0 * np.pi * u2)
    z[:, 1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:, :n]


def trial_seeds(base_seed: int, n: int, offset: int = 0) -> np.ndarray:
    """Per-trial seeds base+offset .. base+offset+n-1 (mod 2**64).

    This is the one seed schedule used everywhere: trial i of a run is a pure
    function of base_seed + i regardless of how trials are sharded.
    """
    with np.errstate(over="ignore"):
        base = np.uint64((base_seed + offset) % (1 << 64))
        return base + np.arange(n, dtype=np.uint64)
