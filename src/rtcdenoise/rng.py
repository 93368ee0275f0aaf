"""Deterministic, portable random number generation for the channel simulator.

Every stochastic component in the simulator (noise injectors, loss models)
draws from :class:`NoiseRng`, a counter-based SplitMix64 generator.  The
output for draw index ``i`` of a stream seeded with ``s`` is::

    mix64(s + (i + 1) * 0x9E3779B97F4A7C15)    (all arithmetic mod 2**64)

where ``mix64`` is the standard SplitMix64 finalizer.  Uniform doubles take
the top 53 bits of the mixed word; normal variates are produced from pairs
of uniforms with the Box-Muller transform.  Nothing here depends on numpy's
own RNG, so the byte-identical stream can be reproduced in any language.
"""

from __future__ import annotations

import numpy as np

from .frame import Range

# the seeds a setting may name: those NoiseRng keeps as given, not mod 2**64
SEED_RANGE = Range(0, 2**64 - 1)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53_SCALE = float(2.0**-53)


def mix64(z: np.ndarray | int) -> np.ndarray | np.uint64:
    """SplitMix64 finalizer on uint64 values (scalar or array).

    Arithmetic runs on 1-d arrays: numpy wraps unsigned array overflow
    silently, while the scalar path would raise RuntimeWarnings.
    """
    scalar = np.ndim(z) == 0
    out = _mix64_in_place(np.atleast_1d(np.asarray(z, dtype=np.uint64)).copy())
    return np.uint64(out[0]) if scalar else out


def _mix64_in_place(z: np.ndarray) -> np.ndarray:
    """mix64 of a uint64 array, computed in the array itself (and returned)."""
    shifted = z >> np.uint64(30)
    z ^= shifted
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=shifted)
    z ^= shifted
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


class NoiseRng:
    """Counter-based SplitMix64 stream.

    The stream position is an explicit counter, so generator state is just
    ``(seed, counter)`` and can be copied, compared, or serialized freely.
    Two streams are equal when both agree; a stream does not hash, since its
    counter advances. A seed is kept mod 2**64.
    """

    __hash__ = None

    def __init__(self, seed: int, counter: int = 0):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = int(counter)

    def derive(self, tag: int) -> "NoiseRng":
        """Independent child stream; same (seed, tag) always gives the same child."""
        mask = 0xFFFFFFFFFFFFFFFF
        z = (int(self.seed) + (tag & mask) * int(_GOLDEN)) & mask
        return NoiseRng(int(mix64(z)) ^ int(_GOLDEN))

    def raw(self, n: int) -> np.ndarray:
        """Next n raw uint64 words."""
        words = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        words *= _GOLDEN
        words += self.seed
        return _mix64_in_place(words)

    def uniforms(self, n: int) -> np.ndarray:
        """Next n float64 uniforms in [0, 1)."""
        words = self.raw(n)
        words >>= np.uint64(11)
        out = words.view(np.float64)
        np.multiply(words, _U53_SCALE, out=out)
        return out

    def normals(self, n: int) -> np.ndarray:
        """Next n standard-normal float64 draws (Box-Muller, cosine branch).

        Consumes 2n uniforms: u1 block then u2 block.  Only the cosine output
        of each pair is used, which keeps the draw count a simple function
        of n at the cost of half the entropy.
        """
        normals = self.normal_run(n, 0, n)
        self.counter += 2 * n
        return normals

    def normal_run(self, n: int, c0: int, c1: int) -> np.ndarray:
        """Draws [c0, c1) of the next normals(n), without advancing the stream.

        Draw i pairs uniform i of the u1 block with uniform i of the u2
        block, so consecutive runs give normals(n) piece by piece, bit for bit.
        """
        u1 = NoiseRng(int(self.seed), self.counter + c0).uniforms(c1 - c0)
        u2 = NoiseRng(int(self.seed), self.counter + n + c0).uniforms(c1 - c0)
        # sqrt(-2 log1p(-u1)) * cos(2 pi u2), in place
        np.negative(u1, out=u1)
        np.log1p(u1, out=u1)
        u1 *= -2.0
        np.sqrt(u1, out=u1)
        u2 *= 2.0 * np.pi
        np.cos(u2, out=u2)
        u1 *= u2
        return u1

    def __eq__(self, other):
        if not isinstance(other, NoiseRng):
            return NotImplemented
        return (self.seed, self.counter) == (other.seed, other.counter)

    def __repr__(self) -> str:
        return f"NoiseRng(seed={int(self.seed):#x}, counter={self.counter})"
