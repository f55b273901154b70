"""Deterministic vector math and seeded randomness used by every other module.

Vectors are 1-d float64 numpy arrays; all reductions run in 64-bit floating
point even when weights elsewhere are stored in 32-bit.

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

from .errors import ContractViolation, DegenerateInput

_SPAN64 = 1 << 64
_MASK64 = _SPAN64 - 1


# ---------------------------------------------------------------------------
# vector ops
# ---------------------------------------------------------------------------

def as_vector(values) -> np.ndarray:
    """Coerce to a finite 1-d float64 array, validating the vector contract."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ContractViolation(f"expected a 1-d vector, got shape {v.shape}")
    if v.size == 0:
        raise ContractViolation("vector dimension must be positive")
    if not np.all(np.isfinite(v)):
        raise ContractViolation("vector entries must be finite")
    return v


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise ContractViolation(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}"
        )


def sq_euclidean(a, b) -> float:
    """Squared Euclidean distance sum_i (a_i - b_i)^2."""
    a = as_vector(a)
    b = as_vector(b)
    _check_same_dim(a, b)
    d = a - b
    return float(np.dot(d, d))


def cosine_distance(a, b) -> float:
    """1 - cos(a, b), in [0, 2]. Raises DegenerateInput on zero-norm input."""
    a = as_vector(a)
    b = as_vector(b)
    _check_same_dim(a, b)
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInput("cosine distance undefined for zero-norm vectors")
    return 1.0 - float(np.dot(a, b)) / (na * nb)


def l2_normalize(a) -> np.ndarray:
    """a / ||a||; raises DegenerateInput when ||a|| = 0."""
    a = as_vector(a)
    n = math.sqrt(float(np.dot(a, a)))
    if n == 0.0:
        raise DegenerateInput("cannot normalize a zero-norm vector")
    return a / n


def pairwise_sq_euclidean(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """All-pairs squared Euclidean distances between rows of x and y.

    Computed from explicit differences (not the dot-product expansion) so
    entries are exact non-negative float64 values.
    """
    x = np.asarray(x, dtype=np.float64)
    y = x if y is None else np.asarray(y, dtype=np.float64)
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


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

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        if n < 1:
            raise ContractViolation("permutation requires n >= 1")
        out = list(range(n))
        self.shuffle(out)
        return out

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
