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
Seed 0 is valid.  The array finalizer works in place: it updates the state
array it is given, with one scratch buffer, instead of allocating a
temporary per step.  The array functions take keyword-only ``out`` (and
``scratch``) arrays, so a caller that draws block after block can keep
its buffers; without them each call allocates its own.

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


def _finalize(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer of the uint64 array z, in place, with t (z's
    shape) as its scratch."""
    import numpy as np

    for shift, mul in ((30, _MIX_A_I), (27, _MIX_B_I)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mul)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _as_u64(seed) -> np.ndarray:
    import numpy as np

    # Accept python ints (possibly negative or > 2**64) and arrays alike.
    arr = np.asarray(seed)
    if arr.dtype.kind in "iu":
        return arr.astype(np.uint64, copy=False)
    raise TypeError(f"seed must be an integer, got {arr.dtype}")


def _raw_streams(seeds, n: int, state=None, scratch=None) -> np.ndarray:
    """Raw 64-bit outputs, row k holding the first n of the stream of the
    k-th seed: the finalized seed plus golden-ratio steps, finalized.

    They are written into ``state`` (uint64, shape (len(seeds), n)) with
    ``scratch`` (the same) as the finalizer's temporary; each is allocated
    when None.
    """
    import numpy as np

    seeds = _as_u64(seeds).reshape(-1, 1)
    if state is None:
        state = np.empty((len(seeds), n), dtype=np.uint64)
    if scratch is None:
        scratch = np.empty_like(state)
    if n:
        with np.errstate(over="ignore"):
            first = state[:, :1]
            np.add(seeds, np.uint64(_GOLDEN_I), out=first)
            _finalize(first, scratch[:, :1])
            steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN_I)
            _finalize(np.add(first, steps, out=state), scratch)
    return state


def u64_stream(seed: int, n: int) -> np.ndarray:
    """First ``n`` raw 64-bit outputs of the stream for one seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _raw_streams(operator.index(seed) % (1 << 64), n)[0]


def _finalize_int(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_A_I) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B_I) & _MASK64
    return z ^ (z >> 31)


def uniform(seed: int) -> float:
    """The first uniform of the stream of ``seed`` (mod 2**64); equals
    ``uniforms_for_seeds([seed % 2**64], 1)[0, 0]``."""
    state0 = _finalize_int((operator.index(seed) + _GOLDEN_I) & _MASK64)
    return (_finalize_int((state0 + _GOLDEN_I) & _MASK64) >> 11) * _INV53


def uniforms_for_seeds(seeds, n: int, *, out=None, scratch=None) -> np.ndarray:
    """Matrix of uniforms, row k holding the first n draws of seeds[k].

    It is written into ``out`` (float64, shape (len(seeds), n)), with
    ``scratch`` (uint64, the same shape) as the stream's temporary; each is
    allocated when None.  The stream state is kept in ``out``'s own bytes,
    and its top 53 bits go through ``scratch`` into ``out`` as doubles: the
    conversion is exact, and so is the multiply by 2**-53.
    """
    import numpy as np

    if out is None:
        out = np.empty((np.size(seeds), n))
    if scratch is None:
        scratch = np.empty(out.shape, dtype=np.uint64)
    state = _raw_streams(seeds, n, out.view(np.uint64), scratch)
    np.right_shift(state, np.uint64(11), out=scratch)
    np.copyto(out, scratch)
    out *= _INV53
    return out


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


def trial_seeds(base_seed: int, n: int, *, out=None) -> np.ndarray:
    """Per-trial seeds base .. base+n-1 (mod 2**64), written into ``out``
    (uint64, shape (n,)) when given.

    This is the one seed schedule used everywhere: trial i of a run is a pure
    function of base_seed + i regardless of how trials are sharded.
    """
    import numpy as np

    with np.errstate(over="ignore"):
        base = np.uint64(operator.index(base_seed) % (1 << 64))
        return np.add(np.arange(n, dtype=np.uint64), base, out=out)
