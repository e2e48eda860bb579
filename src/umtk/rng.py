"""Counter-based pseudo-random stream (SplitMix-style, 64 bit).

Every value in the stream is a pure function of (seed, position), so any
slice of the stream can be generated independently of any other slice.
That is what makes sampled triplet scans reproducible regardless of how
the work is split into windows, and it keeps generated matrices
bit-identical across platforms.
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E3779B97F4B7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

# 2**-53 is exactly representable, so the float mapping is exact.
_U01_SCALE = 2.0 ** -53


def mix64(z: int) -> int:
    """Scalar finalizer: one 64-bit state value to one output value."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MULT1) & _MASK
    z = ((z ^ (z >> 27)) * _MULT2) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 of each entry of the uint64 array z, in place (array products wrap silently)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MULT1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MULT2)
    z ^= z >> np.uint64(31)
    return z


def stream(seed: int, start: int, count: int) -> np.ndarray:
    """Values at positions [start, start+count) of the stream for `seed`.

    Returns a uint64 array. stream(s, a, n)[i] == stream(s, a+i, 1)[0].
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    states = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    states *= np.uint64(_GAMMA)
    states += np.uint64(seed & _MASK)
    return _mix64_array(states)


def value_at(seed: int, position: int) -> int:
    """Scalar counterpart of stream() for spot checks."""
    return mix64((seed + (position + 1) * _GAMMA) & _MASK)


def uniform01(values: np.ndarray) -> np.ndarray:
    """Floats in [0, 1) from the top 53 bits of uint64 stream values, shifted in place."""
    return np.right_shift(values, np.uint64(11), out=values) * _U01_SCALE
