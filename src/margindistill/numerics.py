"""Pairwise distances, seeded randomness and the BLAS thread limit used by every other
module.

All reductions run in 64-bit floating point even when weights elsewhere are
stored in 32-bit.

Randomness comes from :class:`Rng`, a from-scratch xoshiro256** generator
(Blackman & Vigna) seeded through SplitMix64.  The integer/uniform stream is
bit-exact for a given seed on every platform and build, which is why we do
not use ``numpy.random`` here: numpy does not promise stream stability
across versions.  Gaussian draws are produced from the stream via Box-Muller
(two words per normal, no cached spare); they are deterministic per
platform but may differ in the last ulp across libm implementations.  Every
draw takes a fixed number of words: one per uniform, two per normal, n per
``uint64s(n)``; callers decode a loop's words as arrays (``partial_shuffles``).

Bulk draws (``uint64s``, ``normals``, ``uniforms``) step many copies of the
generator at once, each started at a jump-ahead offset of the stream, and
yield exactly the words, floats and final state of ``next_uint64`` calls.
Box-Muller's ``log`` and ``cos`` stay libm's (``math``), applied per value;
the other array operations are exact.  The jump tables are powers of the
GF(2) step matrix, built on first use and never at import.

``one_blas_thread`` runs a block's BLAS products on the calling thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import numbers
import operator
import threading

import numpy as np

from .errors import ContractViolation

_MASK64 = (1 << 64) - 1
_DIFF_ELEMENTS = 1 << 15     # differences held at once by pairwise_sq_euclidean: 256 KiB


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def pairwise_sq_euclidean(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """All-pairs squared Euclidean distances between rows of x and y.

    Computed from explicit differences (not the dot-product expansion) so
    entries are exact non-negative float64 values.  The differences are taken
    for a block of rows of x at a time, at most ``_DIFF_ELEMENTS`` of them (or
    one row), so the memory beyond the result stays bounded; each entry is
    reduced as in one (n, m, d) difference tensor, with the same bits.
    """
    x = np.asarray(x, dtype=np.float64)
    y = x if y is None else np.asarray(y, dtype=np.float64)
    out = np.empty((x.shape[0], y.shape[0]))
    step = max(1, _DIFF_ELEMENTS // max(1, y.size))
    for start in range(0, x.shape[0], step):
        diff = x[start:start + step, None, :] - y[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[start:start + step])
    return out


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
# BLAS threads
# ---------------------------------------------------------------------------

@functools.cache
def _blas_thread_setter():
    """OpenBLAS's ``openblas_set_num_threads_local(n)``, which returns the count it
    replaces, looked up through numpy's own extension module, whose symbol search
    covers the BLAS it links.  None where it is absent: another BLAS, OpenBLAS before
    0.3.27, or a platform whose search does not reach it (Windows)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                                 # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        setter = ctypes.CDLL(umath.__file__).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


_blas_lock = threading.Lock()
_blas_users = 0              # blocks inside one_blas_thread, over all threads
_blas_first = 0              # the count the first of them replaced


@contextlib.contextmanager
def one_blas_thread():
    """Run the block's BLAS products on the calling thread: OpenBLAS's thread count
    is 1 inside and the old count again after, also after an exception.  Without the
    setter it does nothing.  The bits do not depend on the count.

    OpenBLAS's pthreads build (numpy's wheels) applies the setter to the whole
    process, so the blocks inside are counted over all threads: the last one out
    restores the count the first one in replaced, and one that leaves earlier the
    count it replaced (its own, where the setter is thread-local; on the whole
    process, which can end the others' limit early but never leaves one behind).
    """
    global _blas_users, _blas_first
    setter = _blas_thread_setter()
    if setter is None:
        yield
        return
    with _blas_lock:
        replaced = setter(1)
        if _blas_users == 0:
            _blas_first = replaced
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            setter(replaced if _blas_users else _blas_first)


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------

def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64, state


def check_seed(seed) -> int:
    """The one seed rule: an integral value, not a bool, in [0, 2^64), as an int."""
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or not 0 <= seed <= _MASK64):
        raise ContractViolation(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


class Rng:
    """xoshiro256** pseudo-random generator with a fixed 64-bit seed.

    Single-owner mutable state: do not share one instance across threads.
    """

    def __init__(self, seed: int):
        s = []
        state = check_seed(seed)
        for _ in range(4):
            word, state = _splitmix64(state)
            s.append(word)
        # never all zero: four distinct states, and SplitMix64's output mix is a bijection
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

    def uint64s(self, n: int) -> np.ndarray:
        """The next n words of next_uint64 as a uint64 array.

        Leaves the generator in the state n next_uint64 calls would.  Runs of
        up to 2^17 words are drawn by parallel lanes at jump-ahead offsets;
        fewer than ``_STEPPED_WORDS`` are stepped one at a time, which is faster.
        """
        n = operator.index(n)
        if n < 0:
            raise ContractViolation("uint64s requires n >= 0")
        if n < _STEPPED_WORDS:
            return np.array([self.next_uint64() for _ in range(n)], dtype=np.uint64)
        out = np.empty(n, dtype=np.uint64)
        for start in range(0, n, _RUN_WORDS):
            out[start:start + _RUN_WORDS] = self._lane_words(min(n - start, _RUN_WORDS))
        return out

    def _lane_words(self, n: int) -> np.ndarray:
        # Lane j starts at A^(j * stride) s and emits words j*stride .. j*stride + stride - 1.
        stride = 1 << max(0, (n.bit_length() - 1) // 2)     # about sqrt(n)
        lanes = -(-n // stride)
        starts = np.array([self._s], dtype=np.uint64)
        power = stride.bit_length() - 1
        while starts.shape[0] < lanes:                      # double: lanes j and j + 2^i
            starts = np.concatenate((starts, _gf2_apply(_step_power(power), starts)))
            power += 1
        s = np.ascontiguousarray(starts[:lanes].T)
        last = n - (lanes - 1) * stride                     # steps of the final lane
        s1_seen = np.empty((lanes, stride), dtype=np.uint64)
        for i in range(stride):
            s1_seen[:, i] = s[1]
            _step_lanes(s)
            if i + 1 == last:
                self._s = [int(v) for v in s[:, -1]]
        x = s1_seen.reshape(-1)[:n]                         # rotl(s1 * 5, 7) * 9, in place
        x *= 5
        high = x >> 57
        x <<= 7
        x |= high
        x *= 9
        return x

    def normals(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller from two words each, u1 then u2, as ``uniforms``
        reads them, except that a u1 of 0 reads as 2^-53: no word is ever skipped."""
        if count < 0:
            raise ContractViolation("normals requires count >= 0")
        out = np.empty(count)
        for start in range(0, count, _RUN_WORDS // 2):
            top = self.uint64s(2 * min(count - start, _RUN_WORDS // 2))
            top >>= 11
            u1 = np.maximum(top[0::2], 1) * (2.0 ** -53)
            u2 = top[1::2] * (2.0 ** -53)
            log_u1 = np.fromiter(map(math.log, u1.tolist()), np.float64, u1.size)
            cos_u2 = np.fromiter(map(math.cos, ((2.0 * math.pi) * u2).tolist()), np.float64,
                                 u2.size)
            out[start:start + u1.size] = np.sqrt(-2.0 * log_u1) * cos_u2
        return out

    def uniforms(self, count: int) -> np.ndarray:
        """count uniforms in [0, 1), each one word's top 53 bits times 2^-53."""
        top = self.uint64s(count)
        top >>= 11
        return top * (2.0 ** -53)


def partial_shuffle(words: np.ndarray, n: int) -> list[int]:
    """The distinct indices from range(n) that partial Fisher-Yates picks, one per word:
    pick i swaps position i with position i + w mod (n - i).  Only the swaps are kept,
    as the values displaced from their positions, so a call costs O(k) whatever n is."""
    moved: dict[int, int] = {}
    out = []
    for i, word in enumerate(words.tolist()):
        j = i + word % (n - i)
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return out


def partial_shuffles(words: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Row r: ``partial_shuffle(words[r], n)``, where bounds (broadcast against words)
    holds n, n - 1, ..., n - k + 1.

    The swap targets j = i + w mod (n - i) depend on the words alone.  As in
    ``partial_shuffle`` only displaced values are tracked: step i takes the
    value at position j and moves the value at position i there, and a
    position holds what the last earlier step moved to it, or itself.
    """
    n_rows, k = words.shape
    steps = np.arange(k, dtype=np.uint64)
    targets = (words % bounds + steps).astype(np.int64).T    # (k, rows)
    taken = np.empty((k, n_rows), dtype=np.int64)
    moved = np.empty((k, n_rows), dtype=np.int64)           # moved[t]: put at targets[t]
    for i, target in enumerate(targets):
        take, move = target, np.full(n_rows, i)
        for t in range(i):                                  # later moves win
            take = np.where(targets[t] == target, moved[t], take)
            move = np.where(targets[t] == i, moved[t], move)
        taken[i], moved[i] = take, move
    return taken.T


# ---------------------------------------------------------------------------
# bulk draws: xoshiro256** lanes
# ---------------------------------------------------------------------------
#
# The state update is linear over GF(2): one step is a 256x256 bit matrix A.
# A linear map is a (64, 16, 4) uint64 nibble table: [k, v] is the image of the state
# whose set bits are v's at bits 4k .. 4k + 3 (bit i: bit i % 64 of word i // 64).  An
# image is the XOR of its state's 64 nibbles' entries: no BLAS, which stalled 8-16 ms.

_RUN_WORDS = 1 << 17       # words per lane run; bounds the temporaries at 1 MiB each
_STEPPED_WORDS = 320       # fewer are stepped: 250-380 broke even on a 2-vCPU Xeon


def _step_lanes(s: np.ndarray) -> None:
    """One xoshiro256** step, in place, of the states in the columns of s (4, L)."""
    s0, s1, s2, s3 = s
    t = s1 << 17
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3[:] = (s3 << 45) | (s3 >> 19)


def _gf2_apply(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The linear map given by its nibble table applied to each row of states (B, 4)."""
    octets = np.ascontiguousarray(states, dtype="<u8").view(np.uint8)
    nibbles = np.stack((octets & 15, octets >> 4), axis=2).reshape(len(octets), 64)
    return np.bitwise_xor.reduce(table[np.arange(64), nibbles], axis=1)


@functools.cache
def _step_power(m: int) -> np.ndarray:
    """The nibble table of A^(2^m): A by stepping every unit state once, then squarings.
    These are constants of the generator, built on first use and shared."""
    if m > 0:
        half = _step_power(m - 1)
        images = _gf2_apply(half, half[:, 1 << np.arange(4)].reshape(256, 4))
    else:
        units = np.kron(np.eye(4, dtype=np.uint64), 1 << np.arange(64, dtype=np.uint64))
        _step_lanes(units)                              # column i: unit state i, stepped
        images = units.T
    table = np.zeros((64, 16, 4), dtype=np.uint64)        # entry [k, v]: XOR of v's bits
    for b, unit in enumerate(images.reshape(64, 4, 4).transpose(1, 0, 2)):
        table[:, 1 << b:2 << b] = table[:, :1 << b] ^ unit[:, None]
    table.flags.writeable = False
    return table


def derive_subseed(seed: int, label: str) -> int:
    """Labeled sub-seed so that stages draw from independent streams.

    FNV-1a folds the label into 64 bits, SplitMix64 then mixes it with the
    run seed; changing either the label or the seed changes the result.
    """
    seed = check_seed(seed)
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    mixed, _ = _splitmix64((seed ^ h) & _MASK64)
    return mixed
