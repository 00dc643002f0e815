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
Seed 0 is valid.  The array finalizer works in place: it updates the fresh
state array it is given, with one scratch buffer, instead of allocating a
temporary per step.

``uniform`` is the scalar form of the stream: the first draw of one seed,
computed in plain Python integers masked to 64 bits.  It gives the same bits
as the first column of ``uniforms_for_seeds`` and costs a few operations
instead of a numpy round-trip, which matters on the per-trial path of a wire
run.  The module imports numpy only inside the array functions, so a process
that draws scalars alone (a wire wing) never loads it.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# SplitMix64 constants as Python ints; the array functions wrap them in uint64
_GOLDEN_I, _MIX_A_I, _MIX_B_I = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

# 2**-53: maps the top 53 bits of a u64 to [0, 1)
_INV53 = 2.0 ** -53


def _finalize(z) -> np.ndarray:
    """SplitMix64 finalizer of a fresh uint64 array, updated in place.

    A 0-d input (a numpy scalar) is finalized in a 0-d copy and comes
    back as a numpy scalar.
    """
    import numpy as np

    z = np.asarray(z)
    t = np.empty_like(z)
    for shift, mul in ((30, _MIX_A_I), (27, _MIX_B_I)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mul)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z if z.ndim else z[()]


def _as_u64(seed) -> np.ndarray:
    import numpy as np

    # Accept python ints (possibly negative or > 2**64) and arrays alike.
    arr = np.asarray(seed)
    if arr.dtype.kind in "iu":
        return arr.astype(np.uint64, copy=False)
    raise TypeError(f"seed must be an integer, got {arr.dtype}")


def mix64(seed) -> np.ndarray:
    """SplitMix64 finalizer of ``seed`` (elementwise for arrays)."""
    import numpy as np

    with np.errstate(over="ignore"):
        return _finalize(_as_u64(seed) + np.uint64(_GOLDEN_I))


def u64_stream(seed: int, n: int) -> np.ndarray:
    """First ``n`` raw 64-bit outputs of the stream for one seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    import numpy as np

    with np.errstate(over="ignore"):
        state0 = mix64(np.uint64(seed % (1 << 64)))
        steps = (np.arange(1, n + 1, dtype=np.uint64)) * np.uint64(_GOLDEN_I)
        return _finalize(state0 + steps)


def _to_unit(u: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of a fresh uint64 array.

    The shift is done in place, and the multiply converts each value to
    double inside the ufunc: the same IEEE result as ``astype`` then
    multiply, without the extra copy.
    """
    import numpy as np

    u >>= np.uint64(11)
    return np.multiply(u, _INV53)


def _finalize_int(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_A_I) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B_I) & _MASK64
    return z ^ (z >> 31)


def uniform(seed: int) -> float:
    """The first uniform of the stream of ``seed`` (mod 2**64); equals
    ``uniforms_for_seeds([seed % 2**64], 1)[0, 0]``."""
    state0 = _finalize_int((operator.index(seed) + _GOLDEN_I) & _MASK64)
    return (_finalize_int((state0 + _GOLDEN_I) & _MASK64) >> 11) * _INV53


def uniforms_for_seeds(seeds, n: int) -> np.ndarray:
    """Matrix of uniforms, row k holding the first n draws of seeds[k]."""
    import numpy as np

    with np.errstate(over="ignore"):
        s0 = mix64(_as_u64(seeds)).reshape(-1, 1)
        steps = (np.arange(1, n + 1, dtype=np.uint64)) * np.uint64(_GOLDEN_I)
        u = _finalize(s0 + steps.reshape(1, -1))
    return _to_unit(u)


def normals_for_seeds(seeds, n: int) -> np.ndarray:
    """Standard normals, row k holding the first n draws of seeds[k].

    Box-Muller on consecutive uniform pairs; u1 is kept away from 0 so the
    log never overflows.
    """
    import numpy as np

    m = (n + 1) // 2
    u = uniforms_for_seeds(seeds, 2 * m)
    u1 = np.maximum(u[:, 0::2], _INV53)
    u2 = u[:, 1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty((u.shape[0], 2 * m))
    z[:, 0::2] = r * np.cos(2.0 * np.pi * u2)
    z[:, 1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:, :n]


def trial_seeds(base_seed: int, n: int) -> np.ndarray:
    """Per-trial seeds base .. base+n-1 (mod 2**64).

    This is the one seed schedule used everywhere: trial i of a run is a pure
    function of base_seed + i regardless of how trials are sharded.
    """
    import numpy as np

    with np.errstate(over="ignore"):
        base = np.uint64(base_seed % (1 << 64))
        return base + np.arange(n, dtype=np.uint64)
