"""Pairwise distances and seeded randomness used by every other module.

All reductions run in 64-bit floating point even when weights elsewhere are
stored in 32-bit.

Randomness comes from :class:`Rng`, a from-scratch xoshiro256** generator
(Blackman & Vigna) seeded through SplitMix64.  The integer/uniform stream is
bit-exact for a given seed on every platform and build, which is why we do
not use ``numpy.random`` here: numpy does not promise stream stability
across versions.  Gaussian draws are produced from the stream via Box-Muller
(two uniforms per normal, no cached spare); they are deterministic per
platform but may differ in the last ulp across libm implementations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation

_SPAN64 = 1 << 64
_MASK64 = _SPAN64 - 1


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def pairwise_sq_euclidean(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """All-pairs squared Euclidean distances between rows of x and y.

    Computed from explicit differences (not the dot-product expansion) so
    entries are exact non-negative float64 values.
    """
    x = np.asarray(x, dtype=np.float64)
    y = x if y is None else np.asarray(y, dtype=np.float64)
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def gram_sq_euclidean(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fast all-pairs squared distances and a per-row bound on their error.

    ``d[i, j] = max(0, s_i + s_j - 2 x_i.x_j)`` with ``s = |x|^2`` and one
    matrix product.  ``bound[i]`` bounds ``|d[i, j] - pairwise_sq_euclidean(x)[i, j]|``
    for every j, whatever order either form sums in:

    - rounding: the two forms differ by at most ``(5D + 7) u (s_i + s_j)`` to
      first order (u = 2^-53), computed ``s`` included; the bound uses
      ``8 (D + 2) u (s_i + max s)``;
    - overflow: the factor 8 is applied first, so the bound is inf whenever an
      intermediate of either form could overflow;
    - underflow: each of the 4D products may lose up to 2^-1022 (gradual
      underflow or flush to zero), covered by ``D 2^-1018``.

    A NaN or infinite input makes its bound NaN or inf.
    """
    x = np.asarray(x, dtype=np.float64)
    dim = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", x, x)
        d = sq[:, None] + sq
        d -= 2.0 * (x @ x.T)
        np.maximum(d, 0.0, out=d)
        bound = (dim + 2) * 2.0**-53 * (8.0 * (sq + sq.max())) + dim * 2.0**-1018
    return d, bound


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------

def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64, state


class Rng:
    """xoshiro256** pseudo-random generator with a fixed 64-bit seed.

    Single-owner mutable state: do not share one instance across threads.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, int) or not (0 <= seed <= _MASK64):
            raise ContractViolation("seed must be an integer in [0, 2^64)")
        self.seed = seed
        s = []
        state = seed
        for _ in range(4):
            word, state = _splitmix64(state)
            s.append(word)
        if not any(s):  # xoshiro state must be nonzero
            s[0] = 1
        self._s = s

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._s
        x = (s1 * 5) & _MASK64
        result = (((x << 7) | (x >> 57)) * 9) & _MASK64   # rotl(s1 * 5, 7) * 9 mod 2^64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self._s = [s0, s1, s2, ((s3 << 45) | (s3 >> 19)) & _MASK64]   # s3 = rotl(s3, 45)
        return result

    def random(self) -> float:
        """Uniform float64 in [0, 1) from the top 53 bits of the stream."""
        return (self.next_uint64() >> 11) * (2.0 ** -53)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) via unbiased rejection sampling."""
        if n < 1:
            raise ContractViolation("randint requires n >= 1")
        if n == 1:
            return 0
        v = self.next_uint64()
        limit = _SPAN64 - _SPAN64 % n
        while v >= limit:
            v = self.next_uint64()
        return v % n

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), via partial Fisher-Yates."""
        if k < 0 or k > n:
            raise ContractViolation(f"cannot sample {k} distinct items from {n}")
        idx = list(range(n))
        for i in range(k):
            j = i + self.randint(n - i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k]

    def normal(self) -> float:
        """Standard normal via Box-Muller; no cached spare."""
        u1 = self.random()
        while u1 == 0.0:  # avoid log(0); probability 2^-53 per draw
            u1 = self.random()
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, count: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(count)], dtype=np.float64)

    def uniforms(self, count: int) -> np.ndarray:
        return np.array([self.random() for _ in range(count)], dtype=np.float64)


def derive_subseed(seed: int, label: str) -> int:
    """Labeled sub-seed so that stages draw from independent streams.

    FNV-1a folds the label into 64 bits, SplitMix64 then mixes it with the
    run seed; changing either the label or the seed changes the result.
    """
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    mixed, _ = _splitmix64((seed ^ h) & _MASK64)
    return mixed
