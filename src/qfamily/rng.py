"""Portable seeded randomness: splitmix64 + Marsaglia polar Gaussians.

The generator is pinned so that seeded runs produce identical streams on
any platform: splitmix64 (Steele/Lea/Flood) drives 64-bit states, uniforms
take the top 53 bits, and normal deviates come from the polar method.
Everything downstream (random states, circuit inputs) is deterministic
given the seed.

splitmix64 is counter-based (draw k after state s is mix(s + k*gamma)), so
`SplitMix64.normals` draws a block of deviates with wrapping uint64 numpy
operations.  It reproduces the scalar polar method, one uniform pair at a
time, bit for bit: the same values, and the same `state` and pending spare
afterwards (the tests hold that scalar stream as the reference).  Each
accepted pair's logarithm still comes from `math.log`, because numpy's
vectorised `log` is not guaranteed to round like it; the rest of the polar
factor is IEEE arithmetic and `sqrt`, which numpy rounds as `math` does.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_UNIT = 1.0 / (1 << 53)
# the same constants as uint64 scalars, for the block draws
_U11, _U27, _U30, _U31 = (np.uint64(bits) for bits in (11, 27, 30, 31))
_U_GAMMA, _U_MIX1, _U_MIX2 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's output function, in place on an array of uint64 states."""
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    return z


class SplitMix64:
    """64-bit splitmix64 stream."""

    def __init__(self, seed: int = 0):
        self.state = seed & _MASK
        self._spare: float | None = None

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] (inclusive, modulo-reduced)."""
        return low + self.next_u64() % (high - low + 1)

    def normals(self, count: int) -> np.ndarray:
        """`count` standard normal deviates by the polar method: each pair
        of uniforms (u, v) in [-1, 1) with 0 < s = u^2 + v^2 < 1 gives
        u*f and v*f, f = sqrt(-2 ln s / s); an odd count leaves the second
        as a spare for the next call."""
        out = np.empty(count)
        filled = 0
        if count and self._spare is not None:
            out[0], self._spare = self._spare, None
            filled = 1
        while filled < count:
            pairs = (count - filled + 1) // 2
            batch = pairs + pairs // 3 + 4  # a pair is accepted with probability pi/4
            steps = np.arange(1, 2 * batch + 1, dtype=np.uint64)
            steps *= _U_GAMMA
            steps += np.uint64(self.state)
            # 2 * uniform - 1; the top 53 bits times 2^-52 is 2 * uniform exactly
            uniforms = (_mix(steps) >> _U11) * (2.0 * _UNIT)
            uniforms -= 1.0
            u, v = uniforms[0::2], uniforms[1::2]
            s = u * u
            s += v * v
            accepted = np.flatnonzero((0.0 < s) & (s < 1.0))[:pairs]
            used = int(accepted[-1]) + 1 if accepted.size == pairs else batch
            self.state = (self.state + 2 * used * _GAMMA) & _MASK
            s_accepted = s[accepted]
            factors = np.array(list(map(math.log, s_accepted.tolist())))  # ln s, made f in place
            factors *= -2.0
            factors /= s_accepted
            np.sqrt(factors, out=factors)
            deviates = np.empty(2 * accepted.size)
            np.multiply(u[accepted], factors, out=deviates[0::2])
            np.multiply(v[accepted], factors, out=deviates[1::2])
            take = min(deviates.size, count - filled)
            out[filled:filled + take] = deviates[:take]
            filled += take
            if take < deviates.size:
                self._spare = float(deviates[take])
        return out

    def complex_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Row-major complex Gaussians from `normals`, the real part of
        each entry drawn first."""
        return self.normals(2 * rows * cols).view(complex).reshape(rows, cols)
