import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from scipy.stats import chi2

from margindistill.data import HierarchySpec, IdentityDataset
from margindistill.errors import ContractViolation, DegenerateInput
from margindistill.evaluation import PairSet, _pair_cosine_distances, verify
from margindistill.mlp import MlpModel, forward_batch
from margindistill import numerics
from margindistill.numerics import (
    Rng,
    derive_subseed,
    gram_sq_euclidean,
    pairwise_sq_euclidean,
    partial_shuffle,
)

from oracles import (
    list_sample_indices,
    one_shot_sq_euclidean,
    randint,
    scalar_normals,
    scalar_uniforms,
    scalar_words,
    sq_euclidean,
    unit_vector,
)

_MASK64 = (1 << 64) - 1


def _identity_model(dim, normalize):
    """A one-layer model whose output is its input, optionally L2-normalized."""
    return MlpModel(layer_dims=(dim, dim), weights=[np.eye(dim)], biases=[np.zeros(dim)],
                    normalize_output=normalize)


def _cosine(a, b):
    """evaluate's pair cosine distance between two raw vectors."""
    ds = IdentityDataset([0, 1], [0, 1], np.array([a, b], dtype=np.float64))
    model = _identity_model(len(a), normalize=False)
    return float(_pair_cosine_distances(model, ds, np.array([0]), np.array([1]))[0])


def test_sq_euclidean_examples():
    mat = pairwise_sq_euclidean(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.3, 0.4]]))
    assert mat[0, 0] == 0.0
    assert mat[1, 2] == 2.0
    assert mat[3, 0] == pytest.approx(0.25, abs=1e-15)
    assert pairwise_sq_euclidean(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0], [4.0, 6.0]])
                                 ).tolist() == [[0.0, 25.0]]


def test_cosine_distance_examples():
    assert _cosine([1, 0], [2, 0]) == 0.0
    assert _cosine([1, 0], [0, 1]) == 1.0
    assert _cosine([1, 0], [-1, 0]) == 2.0


def test_cosine_distance_zero_norm():
    # an unnormalized model whose output is zero for every input
    ds = IdentityDataset([0, 1, 2, 3], [0, 0, 1, 1], np.eye(4))
    model = MlpModel(layer_dims=(4, 2), weights=[np.zeros((4, 2))], biases=[np.zeros(2)],
                     normalize_output=False)
    pairs = PairSet(a_ids=[0, 0], b_ids=[1, 2], same=[True, False])
    with pytest.raises(DegenerateInput, match="zero-norm"):
        verify(model, ds, pairs)


def test_l2_normalize_examples():
    model = _identity_model(2, normalize=True)
    emb, _ = forward_batch(model, np.array([[3.0, 4.0], [-2.0, 0.0], [0.0, 5.0]]))
    np.testing.assert_allclose(emb[0], [0.6, 0.8], atol=1e-15)
    np.testing.assert_array_equal(emb[1:], [[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DegenerateInput):
        forward_batch(model, np.zeros((1, 2)))


def test_unit_sphere_identity_sq_equals_twice_cosine():
    rng = Rng(7)
    for _ in range(50):
        a = unit_vector(rng, 6)
        b = unit_vector(rng, 6)
        sq = pairwise_sq_euclidean(a[None], b[None])[0, 0]
        assert sq == pytest.approx(2.0 * _cosine(a, b), abs=1e-9)


def test_distance_symmetry_and_zero_on_equal():
    rng = Rng(11)
    x = np.stack([rng.normals(5) for _ in range(20)])
    mat = pairwise_sq_euclidean(x)
    assert np.array_equal(mat, mat.T)
    assert not np.diag(mat).any()
    assert pairwise_sq_euclidean(x[1:2], x[:1])[0, 0] == mat[1, 0]


def test_relaxed_triangle_inequality():
    rng = Rng(13)
    for _ in range(50):
        mat = pairwise_sq_euclidean(np.stack([rng.normals(4) for _ in range(3)]))
        assert mat[0, 1] <= 2.0 * (mat[0, 2] + mat[2, 1]) + 1e-12


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 64), n=st.integers(1, 20), exponent=st.floats(-170, 150),
       seed=st.integers(0, 2**32 - 1))
def test_gram_distances_lie_within_their_bound(dim, n, exponent, seed):
    x = np.random.default_rng(seed).standard_normal((n, dim)) * 10.0 ** exponent
    d, bound = gram_sq_euclidean(x)
    assert np.all(np.isfinite(bound)) and np.all(d >= 0.0)
    assert np.all(np.abs(d - pairwise_sq_euclidean(x)) <= bound[:, None])


def test_gram_bound_is_not_finite_where_a_form_could_overflow():
    with np.errstate(over="ignore"):
        assert np.all(np.isinf(gram_sq_euclidean(np.full((2, 64), 1e153))[1]))
    assert np.isfinite(gram_sq_euclidean(np.full((2, 64), 1e150))[1]).all()
    assert np.all(np.isnan(gram_sq_euclidean(np.array([[np.nan], [1.0]]))[1]))


def test_pairwise_matches_pointwise():
    rng = Rng(17)
    x = np.stack([rng.normals(3) for _ in range(6)])
    mat = pairwise_sq_euclidean(x)
    for i in range(6):
        for j in range(6):
            assert mat[i, j] == pytest.approx(sq_euclidean(x[i], x[j]), abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(m=st.integers(1, 600), dim=st.integers(1, 80), blocks=st.integers(1, 3),
       last=st.one_of(st.just(1), st.floats(0.0, 1.0)), exponent=st.integers(-3, 3),
       seed=st.integers(0, 2**32))
def test_pairwise_row_blocks_give_the_one_shot_bits(m, dim, blocks, last, exponent, seed):
    step = max(1, numerics._DIFF_ELEMENTS // (m * dim))          # rows of x per block
    tail = 1 if last == 1 else 1 + int(last * (step - 1))        # 1 row, or ragged
    event(f"last block {'1 row' if tail == 1 else 'full' if tail == step else 'ragged'}")
    n = (blocks - 1) * step + tail
    draws = Rng(seed).normals((n + m) * dim) * 10.0**exponent
    x, y = draws[:n * dim].reshape(n, dim), draws[n * dim:].reshape(m, dim)
    got = pairwise_sq_euclidean(x, y)
    assert got.shape == (n, m) and got.tobytes() == one_shot_sq_euclidean(x, y).tobytes()
    if n <= 200:
        assert pairwise_sq_euclidean(x).tobytes() == one_shot_sq_euclidean(x).tobytes()


@pytest.mark.parametrize("shape", [(128, 128, 32), (64, 64, 16),
                                   (7, 300, 5), (1, 1, 1), (0, 3, 2), (3, 0, 2)])
def test_pairwise_blocks_match_one_shot_on_fixed_shapes(shape):
    n, m, dim = shape
    draws = Rng(n * m + dim).normals((n + m) * dim)
    x, y = draws[:n * dim].reshape(n, dim), draws[n * dim:].reshape(m, dim)
    assert pairwise_sq_euclidean(x, y).tobytes() == one_shot_sq_euclidean(x, y).tobytes()


def test_pairwise_holds_one_block_of_differences():
    x = Rng(3).normals(1500 * 32).reshape(1500, 32)
    tracemalloc.start()
    try:
        d = pairwise_sq_euclidean(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the one-shot form holds 1500 x 1500 x 32 float64 differences (576 MB); the
    # blocks hold the 18 MB result and one block of at most _DIFF_ELEMENTS differences
    assert d.shape == (1500, 1500)
    assert peak < d.nbytes + 2 * 8 * numerics._DIFF_ELEMENTS + (1 << 20), peak


# ---------------------------------------------------------------------------
# Rng
# ---------------------------------------------------------------------------

def _reference_stream(seed, count):
    # independent straight-line SplitMix64 + xoshiro256** per the published
    # reference algorithms
    state = seed
    s = []
    for _ in range(4):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        s.append((z ^ (z >> 31)) & _MASK64)

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & _MASK64

    out = []
    for _ in range(count):
        out.append((rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64)
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
    return out


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1])
def test_rng_matches_reference_implementation(seed):
    rng = Rng(seed)
    assert [rng.next_uint64() for _ in range(500)] == _reference_stream(seed, 500)


def test_randint_single_outcome():
    # a draw in [0, 1) takes its word too, as the array decodes read it
    rng, ref = Rng(3), Rng(3)
    assert all(randint(rng, 1) == 0 for _ in range(10))
    words = ref.uint64s(10)                      # each draw took its word
    assert rng._s == ref._s
    assert (words % np.uint64(1)).tolist() == [0] * 10


def _state_before(word):
    """A generator state whose next word is ``word``: the output is rotl(s1 * 5, 7) * 9."""
    x = word * pow(9, -1, 2**64) & _MASK64
    s1 = ((x >> 7) | (x << 57)) & _MASK64
    return [1, s1 * pow(5, -1, 2**64) & _MASK64, 2, 3]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 10, 2**32 + 1, 2**63 + 1, 2**64 - 1])
@pytest.mark.parametrize("word", [None, 0, 2**64 - 1])
def test_randint_is_one_word_mod_n(n, word):
    """A draw in [0, n) is one word mod n, n = 1 and 2^64 - 1 included: the oracles'
    randint, a uint64 array's ``%`` and a one-pick partial_shuffle agree, and
    uint64s leaves the state of one word per draw."""
    rng, ref = Rng(n % 1000), Rng(n % 1000)
    if word is not None:
        rng._s, ref._s = _state_before(word), _state_before(word)
    words = rng.uint64s(5)
    drawn = []
    for i in range(5):
        drawn.append(randint(ref, n))
        assert partial_shuffle(words[i:i + 1], n) == [drawn[-1]]
    assert rng._s == ref._s
    assert (words % np.uint64(n)).tolist() == drawn
    assert word in (None, int(words[0]))


def test_same_seed_same_permutation():
    perm = partial_shuffle(Rng(123).uint64s(40), 40)
    assert sorted(perm) == list(range(40))
    assert perm == partial_shuffle(Rng(123).uint64s(40), 40)
    assert perm != partial_shuffle(Rng(124).uint64s(40), 40)


def test_randint_chi_square_uniformity():
    # direct-counting oracle: 1e5 one-word draws over 10 buckets, alpha = 0.001
    n, buckets = 100_000, 10
    counts = np.bincount(Rng(2024).uint64s(n) % np.uint64(buckets), minlength=buckets)
    expected = n / buckets
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert stat < chi2.ppf(0.999, buckets - 1)


def test_shuffle_chi_square_uniformity():
    # every ordering of partial_shuffle(words, 3) on 3 words, the full Fisher-Yates
    rng = Rng(99)
    from itertools import permutations

    perms = {p: 0 for p in permutations(range(3))}
    n = 6000
    for _ in range(n):
        perms[tuple(partial_shuffle(rng.uint64s(3), 3))] += 1
    expected = n / 6
    stat = sum((c - expected) ** 2 / expected for c in perms.values())
    assert stat < chi2.ppf(0.999, 5)


def test_sample_indices_distinct_and_in_range():
    rng = Rng(5)
    for _ in range(50):
        out = partial_shuffle(rng.uint64s(7), 20)
        assert len(set(out)) == 7
        assert all(0 <= v < 20 for v in out)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, _MASK64), n=st.integers(0, 300), data=st.data())
def test_sample_indices_equals_full_list_shuffle(seed, n, data):
    k = data.draw(st.integers(0, n))
    fast, ref = Rng(seed), Rng(seed)
    assert partial_shuffle(fast.uint64s(k), n) == list_sample_indices(ref, n, k)
    assert fast._s == ref._s


def test_sample_indices_cost_does_not_grow_with_n():
    out = partial_shuffle(Rng(3).uint64s(4), 2**62)   # a list of 2^62 entries would not fit
    assert len(set(out)) == 4 and all(0 <= v < 2**62 for v in out)


@st.composite
def _shuffle_rows(draw):
    """(n per row, k, words): each row's k words, any of 2^64 at step i whose swap
    target is i + w mod (n - i), and those targets often repeat (i, i + 1 or i + 2, or the last
    position), so values move along chains of swaps."""
    ns = draw(st.lists(st.one_of(st.integers(1, 12), st.integers(1, 2**32)),
                       min_size=1, max_size=5), label="n per row")
    most = min(min(ns), 12)
    k = draw(st.one_of(st.just(1), st.just(most), st.integers(1, most)), label="k")
    words = []
    for n in ns:
        row = []
        for i in range(k):
            bound = n - i
            target = draw(st.one_of(st.integers(0, min(2, bound - 1)), st.just(bound - 1),
                                    st.integers(0, bound - 1)))
            lap = draw(st.integers(0, (_MASK64 - target) // bound))
            row.append(target + lap * bound)
        words.append(row)
    event(f"k {'= 1' if k == 1 else '= n' if k in ns else '< n'}")
    return ns, k, words


@settings(max_examples=300, deadline=None)
@given(rows=_shuffle_rows())
def test_partial_shuffles_equals_sample_indices_row_by_row(rows):
    ns, k, words = rows
    bounds = np.array(ns, dtype=np.uint64)[:, None] - np.arange(k, dtype=np.uint64)
    got = numerics.partial_shuffles(np.array(words, dtype=np.uint64), bounds)
    assert got.dtype == np.int64 and got.shape == (len(ns), k)
    for n, row, picked in zip(ns, words, got.tolist()):
        assert picked == numerics.partial_shuffle(np.array(row, dtype=np.uint64), n)


def test_normals_are_deterministic_and_sane():
    a = Rng(8).normals(4000)
    b = Rng(8).normals(4000)
    np.testing.assert_array_equal(a, b)
    assert abs(a.mean()) < 0.06
    assert abs(a.std() - 1.0) < 0.05


# ---------------------------------------------------------------------------
# bulk draws against the one-at-a-time stream
# ---------------------------------------------------------------------------

def _lane_boundaries(limit):
    """Every n <= limit whose last lane ends exactly at a stride, and n +- 1.

    The stride is the lane layout's 2^floor(log2(n) / 2)."""
    out = set()
    for n in range(1, limit + 1):
        if n % (1 << ((n.bit_length() - 1) // 2)) == 0:
            out.update((n - 1, n, n + 1))
    return sorted(v for v in out if v <= limit)


LANE_BOUNDARIES = _lane_boundaries(5000)


def _scalar_states(seed, n):
    """The state after each of n next_uint64 calls, and the words."""
    rng = Rng(seed)
    states, words = [list(rng._s)], []
    for _ in range(n):
        words.append(rng.next_uint64())
        states.append(list(rng._s))
    return states, np.array(words, dtype=np.uint64)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, _MASK64), st.one_of(st.integers(0, 5000), st.sampled_from(LANE_BOUNDARIES)))
def test_uint64s_equal_scalar_words_and_state(seed, n):
    rng, ref = Rng(seed), Rng(seed)
    assert rng.uint64s(n).tobytes() == scalar_words(ref.next_uint64, n).tobytes()
    assert rng._s == ref._s


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_uint64s_every_lane_boundary(seed):
    # the lanes directly too (n >= 1): uint64s steps fewer than _STEPPED_WORDS words
    states, words = _scalar_states(seed, LANE_BOUNDARIES[-1])
    for n in LANE_BOUNDARIES:
        for draw in (Rng.uint64s, Rng._lane_words) if n else (Rng.uint64s,):
            rng = Rng(seed)
            assert draw(rng, n).tobytes() == words[:n].tobytes(), (draw, n)
            assert rng._s == states[n], (draw, n)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_uint64s_either_side_of_the_stepped_break_even(seed):
    """Stepped below _STEPPED_WORDS, lanes from it on: the same words and state."""
    cut = numerics._STEPPED_WORDS
    states, words = _scalar_states(seed, cut + 1)
    for n in (0, 1, cut - 1, cut, cut + 1):
        rng = Rng(seed)
        got = rng.uint64s(n)
        assert got.dtype == np.uint64 and got.tobytes() == words[:n].tobytes(), n
        assert rng._s == states[n], n


def test_uint64s_across_runs_and_in_pieces():
    # a run holds 2^17 words; longer requests start each run where the last ended
    n = (1 << 17) + 3
    ref = Rng(9)
    want = scalar_words(ref.next_uint64, 2 * n)
    rng = Rng(9)
    got = np.concatenate([rng.uint64s(n), rng.uint64s(0), rng.uint64s(n)])
    assert got.tobytes() == want.tobytes()
    assert rng._s == ref._s


def test_uint64s_validates():
    with pytest.raises(ContractViolation):
        Rng(0).uint64s(-1)
    assert Rng(0).uint64s(np.int64(3)).tolist() == Rng(0).uint64s(3).tolist()


@pytest.mark.parametrize("m", range(12))
def test_jump_table_advances_2_to_the_m_steps(m):
    # 33 states in one apply, the last with all 256 bits set: its product entries
    # count the most ones
    rngs = [Rng(64 * m + i) for i in range(33)]
    rngs[-1]._s = [_MASK64] * 4
    states = np.array([rng._s for rng in rngs], dtype=np.uint64)
    for rng in rngs:
        for _ in range(1 << m):
            rng.next_uint64()
    jumped = numerics._gf2_apply(numerics._step_power(m), states)
    assert [[int(v) for v in row] for row in jumped] == [rng._s for rng in rngs]


def test_jump_tables_are_not_built_at_import():
    code = ("import margindistill, margindistill.numerics as n; "
            "assert n._step_power.cache_info().currsize == 0; "
            "n.Rng(0).uint64s(4096); assert n._step_power.cache_info().currsize > 0")
    subprocess.run([sys.executable, "-c", code], check=True)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, _MASK64), st.integers(0, 3000))
def test_normals_and_uniforms_equal_scalar_bytes(seed, count):
    rng, ref = Rng(seed), Rng(seed)
    assert rng.normals(count).tobytes() == scalar_normals(ref.next_uint64, count).tobytes()
    assert rng.uniforms(count).tobytes() == scalar_uniforms(ref.next_uint64, count).tobytes()
    assert rng._s == ref._s


class _CraftedWords:
    """A word stream read from a list, served one word or many at a time; reading
    past its end raises IndexError."""

    def __init__(self, words):
        self.words, self.pos = list(words), 0

    def next_uint64(self):
        return int(self.uint64s(1)[0])

    def uint64s(self, n):
        self.pos += n
        if self.pos > len(self.words):
            raise IndexError("read past the end of the crafted stream")
        return np.array(self.words[self.pos - n:self.pos], dtype=np.uint64)


HALF_RUN = (1 << 17) // 2      # normals per Box-Muller run


@pytest.mark.parametrize("count, zero_words", [
    (1, [0]),                              # the first pair
    (9, [8]),                              # a middle pair
    (9, [16]),                             # the last pair
    (9, [0, 1, 2, 10, 15]),                # zeros in a row; zero u2s (words 1, 15) read as 0
    (600, [0, 601, 1198]),                 # lane-drawn words
    (HALF_RUN + 2, [2 * HALF_RUN - 2]),    # the last pair of a run
    (HALF_RUN + 2, [2 * HALF_RUN]),        # the first u1 of the next run
])
def test_normals_read_a_zero_u1_as_the_smallest_u1(count, zero_words):
    words = scalar_words(Rng(count).next_uint64, 2 * count).tolist()
    for i, pos in enumerate(zero_words):
        words[pos] = i % 2 * 2047          # 0 or 2047: both have top 53 bits 0
    bulk, scalar = _CraftedWords(words), _CraftedWords(words)
    rng = Rng(0)
    rng.uint64s = bulk.uint64s            # instance attribute shadows the method
    got = rng.normals(count)
    assert got.tobytes() == scalar_normals(scalar.next_uint64, count).tobytes()
    assert bulk.pos == scalar.pos == 2 * count
    for pos in zero_words:
        if pos % 2 == 0:                   # a u1
            u2 = (words[pos + 1] >> 11) * 2.0**-53
            want = math.sqrt(-2.0 * math.log(2.0**-53)) * math.cos(2.0 * math.pi * u2)
            assert got[pos // 2] == want


_WIDTHS = {"next_uint64": lambda: 1, "normals": lambda count: 2 * count,
           "uniforms": lambda count: count, "uint64s": lambda n: n}
_DRAWS = st.one_of(
    st.tuples(st.just("next_uint64")),
    st.tuples(st.just("normals"), st.integers(0, 700)),
    st.tuples(st.just("uniforms"), st.integers(0, 700)),
    st.tuples(st.just("uint64s"), st.integers(0, 700)),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, _MASK64), st.lists(_DRAWS, max_size=6))
def test_every_draw_takes_a_fixed_number_of_words(seed, draws):
    rng = Rng(seed)
    for name, *args in draws:
        ref = Rng(0)
        ref._s = list(rng._s)
        getattr(rng, name)(*args)
        ref.uint64s(_WIDTHS[name](*args))
        assert rng._s == ref._s, name


@settings(max_examples=20, deadline=None)
@given(st.integers(0, _MASK64), st.integers(0, HALF_RUN + 3), st.integers(0, 700))
def test_normals_in_two_calls_equal_one_call(seed, a, b):
    rng = Rng(seed)
    split = np.concatenate((rng.normals(a), rng.normals(b)))
    assert split.tobytes() == Rng(seed).normals(a + b).tobytes()


def test_seed_validation():
    # one rule for Rng, derive_subseed and HierarchySpec: integral, not a bool, in [0, 2^64)
    for check in (Rng, lambda seed: derive_subseed(seed, "data"),
                  lambda seed: HierarchySpec(seed=seed)):
        for seed in (-1, 2**64, np.int64(-1), True, np.bool_(True), 1.0, "1", None):
            with pytest.raises(ContractViolation, match="^seed must be"):
                check(seed)


@pytest.mark.parametrize("seed", [np.uint64(5), np.int64(3), np.uint64(_MASK64)], ids=repr)
def test_one_seed_rule_takes_numpy_integers_as_ints(seed):
    assert Rng(seed)._s == Rng(int(seed))._s
    assert derive_subseed(seed, "data") == derive_subseed(int(seed), "data")
    spec = HierarchySpec(seed=seed)
    assert type(spec.seed) is int and spec == HierarchySpec(seed=int(seed))


def test_derive_subseed_label_and_seed_sensitivity():
    assert derive_subseed(0, "data") == derive_subseed(0, "data")
    assert derive_subseed(0, "data") != derive_subseed(0, "eval")
    assert derive_subseed(0, "data") != derive_subseed(1, "data")
    assert 0 <= derive_subseed(7, "x") <= _MASK64


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_derive_subseed_rejects_seeds_outside_64_bits(seed):
    # masking would alias them: -1 onto 2^64 - 1 and 2^64 onto 0
    with pytest.raises(ContractViolation):
        derive_subseed(seed, "data")
    assert 0 <= derive_subseed(2**64 - 1, "data") <= _MASK64


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
def test_normalize_gives_unit_norm(values):
    v = np.array([values])
    if not np.dot(v[0], v[0]) > 0.0:
        return
    emb, _ = forward_batch(_identity_model(v.shape[1], normalize=True), v)
    assert abs(float(np.linalg.norm(emb[0])) - 1.0) < 1e-6


@pytest.mark.parametrize("row", [
    [1.2584540058069288e-160],            # squares underflow to a subnormal
    [1e-300, -2e-300, 5e-324],           # squares underflow to zero
    [5e-324, 0.0, 0.0],
    [1e-160, 1e-170, -3e-155],
])
def test_normalize_tiny_rows_gives_unit_norm(row):
    emb, _ = forward_batch(_identity_model(len(row), normalize=True), np.array([row]))
    assert abs(float(np.linalg.norm(emb[0])) - 1.0) < 1e-15
    np.testing.assert_array_equal(np.sign(emb[0]), np.sign(row))


def test_normalize_rescale_leaves_other_rows_bitwise():
    rows = np.array([[3.0, 4.0, 0.0], [1e-160, 0.0, 0.0], [1e-120, 2e-130, 7.0], [0.1, -0.2, 0.3]])
    emb, cache = forward_batch(_identity_model(3, normalize=True), rows)
    keep = [0, 2, 3]
    norms = np.sqrt(np.einsum("ij,ij->i", rows[keep], rows[keep]))
    assert emb[keep].tobytes() == (rows[keep] / norms[:, None]).tobytes()
    assert cache.norms[keep].tobytes() == norms.tobytes()
    assert cache.norms[1] == 1e-160


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Rng(0).normals(-1), "normals requires count >= 0", id="normals-negative"),
])
def test_numerics_contract_errors(call, message):
    with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
        call()
