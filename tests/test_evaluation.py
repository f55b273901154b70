import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from margindistill.data import (HierarchySpec, IdentityDataset, generate_hierarchical,
                                load_dataset_jsonl)
from margindistill.errors import (
    CapacityError,
    ContractViolation,
    DegenerateInput,
    FormatError,
    InsufficientData,
    UnknownSampleError,
)
from margindistill.evaluation import (
    PairSet,
    _identity_means,
    build_pairs,
    centroid_distance_matrix,
    load_pairs_jsonl,
    spearman,
    structure_correlation,
    threshold_sweep,
    verify,
)
from margindistill.mlp import init_mlp
from margindistill.numerics import Rng
from margindistill.teacher import TeacherOracle

from oracles import (
    brute_force_sweep,
    exhaustive_sweep_best_accuracy,
    loop_build_pairs,
    per_identity_means,
    per_pair_centroid_matrix,
    per_record_load_pairs,
    randint,
    rows_of,
    save_pairs_jsonl,
    sq_euclidean,
    unit_vector,
)


def _table_ds(vectors, labels):
    """Dataset + table oracle sharing unit vectors as both features and embeddings."""
    vectors = np.asarray(vectors, dtype=np.float64)
    ids = list(range(len(labels)))
    ds = IdentityDataset(ids, labels, vectors)
    oracle = TeacherOracle.from_table(ids, labels, vectors)
    return ds, oracle


def test_build_pairs_forced_single_positive():
    ds, _ = _table_ds(np.eye(2), [0, 0])
    pairs = build_pairs(ds, 1, 0, Rng(0))
    assert len(pairs) == 1
    assert {int(pairs.a_ids[0]), int(pairs.b_ids[0])} == {0, 1}
    assert bool(pairs.same[0])


def test_build_pairs_empty_allowed_but_verify_rejects():
    ds, oracle = _table_ds(np.eye(3), [0, 1, 2])
    pairs = build_pairs(ds, 0, 0, Rng(0))
    assert len(pairs) == 0
    with pytest.raises(ContractViolation):
        verify(oracle, ds, pairs)


def test_build_pairs_counts_and_labels_recounted():
    ds = generate_hierarchical(HierarchySpec(seed=5))
    pairs = build_pairs(ds, 3000, 3000, Rng(1))
    assert len(pairs) == 6000
    n_pos = n_neg = 0
    seen = set()
    for a, b, s in zip(pairs.a_ids, pairs.b_ids, pairs.same):
        key = (min(int(a), int(b)), max(int(a), int(b)))
        assert key not in seen
        seen.add(key)
        same = ds.labels[ds.row(a)] == ds.labels[ds.row(b)]
        assert same == bool(s)
        n_pos += bool(s)
        n_neg += not s
    assert n_pos == 3000 and n_neg == 3000


def test_build_pairs_deterministic():
    ds = generate_hierarchical(HierarchySpec(seed=5))
    p1 = build_pairs(ds, 50, 50, Rng(7))
    p2 = build_pairs(ds, 50, 50, Rng(7))
    np.testing.assert_array_equal(p1.a_ids, p2.a_ids)
    np.testing.assert_array_equal(p1.b_ids, p2.b_ids)


def test_build_pairs_exhausts_all_available():
    # 1 identity with 4 samples: exactly 6 positive pairs, all of which
    # can be requested (rejection sampling finds them here; the fallback
    # is covered by test_build_pairs_fallback_picks_equal_double_loop)
    ds, _ = _table_ds([[1, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, 0, 0])
    pairs = build_pairs(ds, 6, 0, Rng(0))
    assert len(pairs) == 6
    with pytest.raises(CapacityError):
        build_pairs(ds, 7, 0, Rng(0))
    with pytest.raises(CapacityError):
        build_pairs(ds, 0, 1, Rng(0))


class _StuckRng(Rng):
    """An Rng whose words are all 0 once ``live`` words are drawn, one at a time or
    by ``uint64s``.  A word then decodes to 0 mod every n, so with identity_list[0]
    a singleton every later rejection-sampling attempt in build_pairs is refused
    (a singleton identity, or r1 == r2), and a request for more pairs than
    ``live`` words can collect must end in the enumeration fallback."""

    def __init__(self, seed, live):
        super().__init__(seed)
        self.live = live

    def next_uint64(self):
        if self.live == 0:
            return 0
        self.live -= 1
        return super().next_uint64()

    def uint64s(self, n):
        return np.array([self.next_uint64() for _ in range(n)], dtype=np.uint64)


@pytest.mark.parametrize("want_same", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_build_pairs_fallback_picks_equal_double_loop(seed, want_same):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(15, 50))
    labels = np.concatenate([[0], gen.integers(1, n // 3 + 2, n - 1)])  # identity 0: one sample
    ds = IdentityDataset(gen.permutation(n) + 1000, labels, gen.normal(size=(n, 2)))
    capacity = ds.pair_capacity()[0 if want_same else 1]
    want = capacity if seed % 2 else int(gen.integers(1, capacity + 1))
    live = int(gen.integers(0, want))          # fewer words than pairs wanted
    request = (want, 0) if want_same else (0, want)
    pairs = build_pairs(ds, *request, _StuckRng(seed, live))
    a_ids, b_ids, same = loop_build_pairs(ds, *request, _StuckRng(seed, live))
    assert len(pairs) == want
    np.testing.assert_array_equal(pairs.a_ids, a_ids)
    np.testing.assert_array_equal(pairs.b_ids, b_ids)
    np.testing.assert_array_equal(pairs.same, same)


def _assert_same_pairs_and_next_word(ds, n_pos, n_neg, rng, ref):
    """build_pairs on rng equals loop_build_pairs on ref, an equal Rng, in its pairs
    and in the next word each Rng draws."""
    pairs = build_pairs(ds, n_pos, n_neg, rng)
    a_ids, b_ids, same = loop_build_pairs(ds, n_pos, n_neg, ref)
    assert pairs.a_ids.tolist() == a_ids.tolist()
    assert pairs.b_ids.tolist() == b_ids.tolist()
    assert pairs.same.tolist() == same.tolist()
    assert rng.next_uint64() == ref.next_uint64()


_requests = st.one_of(st.just(0), st.just(1), st.just("all"), st.floats(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=6), shuffle=st.booleans(),
       pos=_requests, neg=_requests, live=st.none() | st.integers(0, 60),
       seed=st.integers(0, 2**64 - 1))
def test_build_pairs_equals_scalar_draws(sizes, shuffle, pos, neg, live, seed):
    """Uneven identities, one-sample ones included, rows shuffled or not; requests of
    0, 1, every available pair or any count between, and a word stream stuck at 0
    after ``live`` words, which exhausts the attempt budget."""
    labels = np.repeat(5 * np.arange(len(sizes)) - 3, sizes)
    gen = np.random.default_rng(seed % 2**32)
    if shuffle:
        labels = gen.permutation(labels)
    ds = IdentityDataset(gen.permutation(labels.size) + 100, labels,
                         gen.normal(size=(labels.size, 2)))

    def count(request, available):
        if request == "all":
            return available
        if isinstance(request, float):
            return int(request * available)
        return min(request, available)

    n_pos, n_neg = map(count, (pos, neg), ds.pair_capacity())
    if live is None:
        rng, ref = Rng(seed), Rng(seed)
    else:
        rng, ref = _StuckRng(seed, live), _StuckRng(seed, live)
    _assert_same_pairs_and_next_word(ds, n_pos, n_neg, rng, ref)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("sizes", [[1], [2], [1, 1], [1, 2], [2, 1], [2, 2], [2, 1, 2],
                                   [1, 4, 2, 1]])
def test_build_pairs_with_one_and_two_row_identities_equals_scalar_draws(sizes, seed):
    """A one-row identity's attempt takes its identity word and two row words and is
    refused; a two-row identity's second row draw is a word mod 1, which takes a word.
    Every pair of both kinds is requested, and half of them."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    ds = IdentityDataset(np.arange(labels.size) + 7, labels, np.ones((labels.size, 2)))
    pos, neg = ds.pair_capacity()
    for n_pos, n_neg in ((pos, neg), (pos // 2, neg // 2)):
        _assert_same_pairs_and_next_word(ds, n_pos, n_neg, Rng(seed), Rng(seed))


def test_verify_separable_example():
    # positive pair at cosine distance ~0, negative pair at ~2
    ds, oracle = _table_ds([[1, 0], [1, 0], [-1, 0]], [0, 0, 1])
    pairs = PairSet(a_ids=[0, 0], b_ids=[1, 2], same=[True, False])
    report = verify(oracle, ds, pairs)
    assert report.best_accuracy == 1.0
    assert 0.0 < report.best_threshold < 2.0


def test_verify_all_positive_threshold_above_max():
    ds, oracle = _table_ds([[1, 0], [0, 1], [np.sqrt(0.5), np.sqrt(0.5)]], [0, 0, 0])
    pairs = PairSet(a_ids=[0, 0], b_ids=[1, 2], same=[True, True])
    report = verify(oracle, ds, pairs)
    assert report.best_accuracy == 1.0
    distances = [1.0, 1.0 - np.sqrt(0.5)]
    assert report.best_threshold > max(distances)


def test_verify_label_consistency_checked():
    ds, oracle = _table_ds([[1, 0], [0, 1]], [0, 1])
    pairs = PairSet(a_ids=[0], b_ids=[1], same=[True])  # actually different
    with pytest.raises(ContractViolation):
        verify(oracle, ds, pairs)


def test_verify_rejects_unknown_ids_and_any_mismatched_pair():
    ids, labels, vectors = [10, 30, 20, 40], [0, 0, 1, 1], np.eye(2)[[0, 0, 1, 1]]
    ds = IdentityDataset(ids, labels, vectors)          # ids not in row order
    oracle = TeacherOracle.from_table(ids, labels, vectors)
    ok = PairSet(a_ids=[40, 10, 30], b_ids=[20, 30, 40], same=[True, True, False])
    assert verify(oracle, ds, ok).best_accuracy == 1.0
    with pytest.raises(UnknownSampleError):
        verify(oracle, ds, PairSet(a_ids=[10, 10], b_ids=[30, 25], same=[True, True]))
    with pytest.raises(UnknownSampleError):
        verify(oracle, ds, PairSet(a_ids=[99], b_ids=[10], same=[False]))
    # the third pair (30, 20) crosses identities but is labelled same
    pairs = PairSet(a_ids=[10, 20, 30], b_ids=[30, 40, 20], same=[True, True, True])
    with pytest.raises(ContractViolation, match=r"\(30, 20\)"):
        verify(oracle, ds, pairs)


def test_threshold_sweep_matches_exhaustive_oracle():
    rng = Rng(40)
    for trial in range(10):
        n = 40
        d = rng.uniforms(n) * 2.0
        if trial % 2:
            d = np.round(d, 1)  # force ties
        same = np.array([randint(rng, 2) == 1 for _ in range(n)])
        report = threshold_sweep(d, same)
        best, achieved = exhaustive_sweep_best_accuracy(d.tolist(), same.tolist())
        assert report.best_accuracy == pytest.approx(best, abs=1e-12)
        # the chosen threshold actually realizes the reported accuracy
        pred = d < report.best_threshold
        assert (pred == same).mean() == report.best_accuracy


def test_threshold_sweep_tie_breaks_toward_smaller():
    # both extremes achieve accuracy 1/2; the smaller threshold must win
    report = threshold_sweep(np.array([0.3, 0.7]), np.array([False, True]))
    assert report.best_threshold == 0.3


# distances from a coarse grid so that ties are common
_pairs = st.lists(
    st.tuples(st.integers(0, 6).map(lambda i: i / 4), st.booleans()), min_size=1, max_size=12
)


@settings(max_examples=200, deadline=None)
@given(_pairs)
def test_threshold_sweep_matches_brute_force_counts(pairs):
    d = [p[0] for p in pairs]
    same = [p[1] for p in pairs]
    report = threshold_sweep(np.array(d), np.array(same))
    thresholds, rows = brute_force_sweep(d, same)
    assert report.false_accept_rates.tolist() == [far for _, far, _ in rows]
    assert report.true_accept_rates.tolist() == [tar for _, _, tar in rows]
    accuracies = [acc for acc, _, _ in rows]
    assert report.best_accuracy == max(accuracies)
    assert report.best_threshold == thresholds[accuracies.index(max(accuracies))]


def test_threshold_sweep_rejects_non_finite_distances():
    with pytest.raises(DegenerateInput):
        threshold_sweep(np.array([0.1, np.nan]), np.array([True, False]))


def test_best_accuracy_invariant_under_monotone_transform():
    rng = Rng(41)
    d = rng.uniforms(60) * 1.5
    same = np.array([randint(rng, 2) == 1 for _ in range(60)])
    base = threshold_sweep(d, same).best_accuracy
    assert threshold_sweep(3.0 * d + 0.2, same).best_accuracy == base
    assert threshold_sweep(d**3, same).best_accuracy == base


def test_verify_invariant_under_orthogonal_rotation():
    rng = Rng(42)
    vecs = np.stack([unit_vector(rng, 6) for _ in range(12)])
    labels = [i // 3 for i in range(12)]
    ds, oracle = _table_ds(vecs, labels)
    pairs = build_pairs(ds, 10, 10, Rng(2))
    base = verify(oracle, ds, pairs)

    gauss = np.array([rng.normals(6) for _ in range(6)])
    q, _ = np.linalg.qr(gauss)
    rotated = vecs @ q
    rotated /= np.linalg.norm(rotated, axis=1, keepdims=True)
    ds2, oracle2 = _table_ds(rotated, labels)
    rotated_report = verify(oracle2, ds2, pairs)
    assert rotated_report.best_accuracy == base.best_accuracy
    assert rotated_report.best_threshold == pytest.approx(base.best_threshold, abs=1e-9)


def test_verify_roc_points_monotone_sane():
    ds = generate_hierarchical(HierarchySpec(seed=9))
    model = init_mlp((ds.input_dim, 8, 4), True, Rng(3))
    pairs = build_pairs(ds, 40, 40, Rng(4))
    report = verify(model, ds, pairs)
    fars = report.false_accept_rates.tolist()
    tars = report.true_accept_rates.tolist()
    assert fars == sorted(fars)
    assert tars == sorted(tars)
    assert fars[0] == 0.0 and tars[-1] == 1.0


# ---------------------------------------------------------------------------
# centroid matrix + structure correlation
# ---------------------------------------------------------------------------

def test_centroid_matrix_collapsed_is_zero():
    ds, oracle = _table_ds([[1, 0]] * 4, [0, 0, 1, 1])
    _, mat = centroid_distance_matrix(oracle, ds)
    assert not mat.any()


def test_centroid_matrix_orthogonal_identities():
    ds, oracle = _table_ds([[1, 0], [1, 0], [0, 1], [0, 1]], [0, 0, 1, 1])
    idents, mat = centroid_distance_matrix(oracle, ds)
    assert idents == [0, 1]
    assert mat[0, 1] == mat[1, 0] == pytest.approx(2.0, abs=1e-15)


def test_centroid_matrix_hands_out_a_copy_of_the_identities():
    ds, oracle = _table_ds([[1, 0], [1, 0], [0, 1], [0, 1]], [0, 0, 1, 1])
    idents, _ = centroid_distance_matrix(oracle, ds)
    idents.append(2)
    assert ds.identity_list == [0, 1] and ds.n_identities == 2


def test_centroid_matrix_matches_double_loop():
    rng = Rng(50)
    vecs = np.stack([unit_vector(rng, 5) for _ in range(15)])
    labels = [i % 5 for i in range(15)]
    ds, oracle = _table_ds(vecs, labels)
    idents, mat = centroid_distance_matrix(oracle, ds)
    assert mat.shape == (5, 5)
    np.testing.assert_array_equal(mat, mat.T)
    assert not np.diag(mat).any()
    for i, ident_i in enumerate(idents):
        ci = vecs[rows_of(ds, ident_i)].mean(axis=0)
        for j, ident_j in enumerate(idents):
            cj = vecs[rows_of(ds, ident_j)].mean(axis=0)
            if i != j:
                assert mat[i, j] == pytest.approx(sq_euclidean(ci, cj), abs=1e-12)


def test_structure_correlation_equals_per_pair_dot_centroids():
    """The one-call centroid matrix may differ from the per-pair np.dot loop in
    the last bits, but not in rank, so structure_correlation is the same float."""
    gen = np.random.default_rng(60)
    for _ in range(240):
        n_ident = int(gen.integers(3, 13))
        labels = np.concatenate([np.arange(n_ident),
                                 gen.integers(0, n_ident, int(gen.integers(0, 40)))])
        got, want = [], []
        for dim in gen.integers(1, 33, size=2):
            vectors = gen.normal(size=(labels.size, dim))
            ds, oracle = _table_ds(vectors / np.linalg.norm(vectors, axis=1, keepdims=True),
                                   labels)
            mat = centroid_distance_matrix(oracle, ds)[1]
            ref = per_pair_centroid_matrix(oracle.embed_rows(ds, np.arange(ds.n_samples)), ds)
            np.testing.assert_allclose(mat, ref, rtol=1e-12, atol=0)
            got.append(mat)
            want.append(ref)
        assert structure_correlation(*got) == structure_correlation(*want)


@settings(max_examples=200, deadline=None)
@given(n_ident=st.integers(1, 12), dim=st.sampled_from([1, 2, 3, 16, 32]),
       sizes=st.one_of(st.integers(1, 40), st.lists(st.integers(1, 20), min_size=12,
                                                    max_size=12)),
       shuffle=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_identity_means_equal_per_identity_means(n_ident, dim, sizes, shuffle, seed):
    """Bit for bit, for one size or several, labels sorted or not, dim 1 included."""
    gen = np.random.default_rng(seed)
    counts = [sizes] * n_ident if isinstance(sizes, int) else sizes[:n_ident]
    labels = np.repeat(3 * np.arange(n_ident) - 5, counts)
    if shuffle:
        labels = gen.permutation(labels)
    emb = gen.normal(size=(labels.size, dim)) * 10.0 ** gen.integers(-3, 4)
    ds = IdentityDataset(np.arange(labels.size), labels, emb)
    assert _identity_means(emb, ds).tobytes() == per_identity_means(emb, labels).tobytes()


def test_structure_correlation_identical_and_reversed():
    rng = Rng(51)
    n = 6
    mat = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    vals = rng.uniforms(iu[0].size)
    mat[iu] = vals
    mat += mat.T
    assert structure_correlation(mat, mat) == pytest.approx(1.0, abs=1e-12)
    reversed_mat = np.zeros_like(mat)
    reversed_mat[iu] = -vals
    reversed_mat += reversed_mat.T
    assert structure_correlation(mat, reversed_mat) == pytest.approx(-1.0, abs=1e-12)


def test_structure_correlation_matches_scipy():
    rng = Rng(52)
    for _ in range(10):
        n = 6
        a = np.zeros((n, n))
        b = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        a[iu] = rng.uniforms(iu[0].size)
        b[iu] = np.round(rng.uniforms(iu[0].size), 1)  # ties in b
        a += a.T
        b += b.T
        ours = structure_correlation(a, b)
        ref = spearmanr(a[iu], b[iu]).statistic
        assert ours == pytest.approx(ref, abs=1e-12)


def test_structure_correlation_affine_invariance_and_symmetry():
    rng = Rng(53)
    n = 5
    iu = np.triu_indices(n, 1)
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    a[iu] = rng.uniforms(iu[0].size)
    b[iu] = rng.uniforms(iu[0].size)
    a += a.T
    b += b.T
    base = structure_correlation(a, b)
    assert structure_correlation(b, a) == pytest.approx(base, abs=1e-12)
    assert structure_correlation(2.5 * a + 1.0, b) == pytest.approx(base, abs=1e-12)


def test_structure_correlation_needs_three_identities():
    with pytest.raises(InsufficientData):
        structure_correlation(np.zeros((2, 2)), np.zeros((2, 2)))


def test_spearman_tie_handling_matches_scipy():
    x = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0])
    y = np.array([0.5, 0.1, 0.9, 0.3, 0.7, 0.7, 0.2])
    assert spearman(x, y) == pytest.approx(spearmanr(x, y).statistic, abs=1e-12)


# ---------------------------------------------------------------------------
# pair files
# ---------------------------------------------------------------------------

def test_pairs_jsonl_roundtrip(tmp_path):
    pairs = PairSet(a_ids=[0, 1, 2], b_ids=[3, 4, 5], same=[True, False, True])
    path = tmp_path / "pairs.jsonl"
    save_pairs_jsonl(pairs, path)
    back = load_pairs_jsonl(path)
    np.testing.assert_array_equal(back.a_ids, pairs.a_ids)
    np.testing.assert_array_equal(back.same, pairs.same)
    (tmp_path / "bad.jsonl").write_text("{}\n")
    with pytest.raises(FormatError):
        load_pairs_jsonl(tmp_path / "bad.jsonl")


_IDS = st.one_of(st.integers(-5, 50), st.sampled_from([
    10**17, 10**18 - 1, 10**18, 2**63 - 1, 2**63, -2**63, -2**63 - 1, 10**30]))


def _canonical(a, b, same):
    return json.dumps({"a": a, "b": b, "same": same})


# a line shaped like json.dumps's, with an id that JSON reads (or refuses) in another way
# (19 digits or more, inside int64 or not), and ids of at most 18 digits for the others
_ODD_ID = st.sampled_from(["-0", "01", "00", "-01", "+1", "1.0", "1e3", "\u0661", "1\u0661",
                           "1_0", " 1", str(10**18), str(2**63 - 1), str(2**63), str(10**30)])
_SHORT_IDS = st.one_of(st.integers(-50, 50), st.sampled_from([10**18 - 1, 1 - 10**18]))
_SHAPED_LINE = st.builds(lambda a, b, same: f'{{"a": {a}, "b": {b}, "same": {same}}}',
                         _ODD_ID, _SHORT_IDS, st.sampled_from(["true", "false"]))


_PAIR_LINES = st.one_of(
    st.builds(_canonical, _IDS, _IDS, st.booleans()),
    st.builds(lambda a, b, s: f'{{"a":{a},"b":{b},"same":{s}}}', _IDS, _IDS,
              st.sampled_from(["true", "false"])),                      # no spaces
    st.builds(lambda line, pad: pad + line + pad,
              st.builds(_canonical, _IDS, _IDS, st.booleans()),
              st.sampled_from([" ", "  ", "\t"])),                        # extra spaces
    st.sampled_from([
        "", "   ",                                                      # blank lines
        '{"a": -0, "b": 1, "same": true}', '{"a": 1.0, "b": 2, "same": true}',
        '{"a": "1", "b": 2, "same": true}', '{"a": 1, "b": 2, "same": 1}',
        '{"a": true, "b": 2, "same": false}', '{"a": 01, "b": 2, "same": false}',
        '{"a": 1, "b": 2, "same": True}', '{"a": 1\u0661, "b": 2, "same": true}',
        '{"a": 1, "a": 7, "b": 2, "same": true}',                       # duplicate key
        '{"a": 1, "b": 2, "same": true, "z": 0}',                       # extra key
        '{"b": 2, "a": 1, "same": true}', '{"a": 1, "b": 2}',
        '[1, 2, true]', '5', 'null', '"x"', '{"a": 1, "b": 2, "same": true',
        '{"a": 1, "b": 2,', ' "same": true}',                           # a split record
        '{"a": 1, "b": 2, "same": true, "z": [1', '2]}',
        '{"a": 1, "b": 2, "same": true}{"a": 3, "b": 4, "same": false}',
    ]),
)


@st.composite
def _pair_files(draw):
    """A pair file's text: json.dumps's lines, each ending in a newline, perhaps with
    one odd line among them, or any of the lines above with one of the line ends
    str.splitlines knows."""
    if draw(st.booleans()):
        lines = draw(st.lists(st.builds(_canonical, _SHORT_IDS, _SHORT_IDS, st.booleans()),
                              max_size=8))
        odd = draw(st.lists(_SHAPED_LINE, max_size=1))
        at = draw(st.integers(0, len(lines)))
        return "".join(f"{line}\n" for line in lines[:at] + odd + lines[at:])
    ending = draw(st.sampled_from(["\n", "\r\n", "\r", "\u2028"]))
    text = ending.join(draw(st.lists(_PAIR_LINES, max_size=8)))
    return text + ending if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(text=_pair_files())
def test_pair_loader_equals_per_record_json(text):
    """The same PairSet, or a FormatError with the same text, as json.loads and
    json_field on every line (a file of json.dumps's lines is read as numbers)."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.jsonl"
        path.write_bytes(text.encode("utf-8"))
        for load in (load_pairs_jsonl, per_record_load_pairs):
            try:
                got = load(path)
                results.append((got.a_ids.dtype, got.a_ids.tobytes(), got.b_ids.tobytes(),
                                got.same.dtype, got.same.tobytes()))
            except FormatError as exc:
                results.append(str(exc))
    assert results[0] == results[1]


_DATASET_HEADER = '{"input_dim": 1, "n_samples": 1, "n_identities": 1, "seed": null}\n'


@pytest.mark.parametrize("pair_line, record_line", [
    ("not json", "not json"),
    ("[1, 2]", "[1, 2]"),
    ('{"a": true, "b": 2, "same": false}', '{"sample": true, "identity": 0, "x": [0.5]}'),
], ids=["not-json", "array", "id-true"])
def test_pair_and_dataset_records_follow_one_rule(tmp_path, pair_line, record_line):
    """A faulty JSON-lines record is refused with the same reason in a pair file
    and in a dataset file read from its text."""
    (tmp_path / "pairs.jsonl").write_text(pair_line + "\n")
    (tmp_path / "dataset.jsonl").write_text(_DATASET_HEADER + record_line + "\n")
    with pytest.raises(FormatError) as pair_error:
        load_pairs_jsonl(tmp_path / "pairs.jsonl")
    with pytest.raises(FormatError) as record_error:
        load_dataset_jsonl(tmp_path / "dataset.jsonl")
    pair_prefix = f"{tmp_path / 'pairs.jsonl'}: bad pair record: "
    record_prefix = f"{tmp_path / 'dataset.jsonl'}: bad record: "
    assert str(pair_error.value).startswith(pair_prefix)
    assert str(record_error.value).startswith(record_prefix)
    assert str(pair_error.value)[len(pair_prefix):] == str(record_error.value)[len(record_prefix):]


def _four_rows():
    return IdentityDataset([0, 1, 2, 3], [0, 0, 1, 1], np.eye(4))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: PairSet([0, 1], [2], [True, False]), ContractViolation,
                 "pair arrays must align", id="PairSet-misaligned"),
    pytest.param(lambda: verify(object(), _four_rows(), PairSet([0], [1], [True])),
                 ContractViolation, "cannot embed with a object", id="verify-no-embedder"),
    pytest.param(lambda: build_pairs(_four_rows(), 1, -1, Rng(0)), ContractViolation,
                 "pair counts must be >= 0", id="build_pairs-negative"),
    pytest.param(lambda: threshold_sweep([], []), ContractViolation,
                 "cannot sweep an empty pair set", id="threshold_sweep-empty"),
    pytest.param(lambda: spearman([1, 2, 3], [1, 2]), ContractViolation,
                 "rank correlation needs equal-length inputs", id="spearman-unequal"),
    pytest.param(lambda: spearman([1, 2], [2, 1]), InsufficientData,
                 "rank correlation needs >= 3 observations", id="spearman-short"),
    pytest.param(lambda: spearman([1, 1, 1], [1, 2, 3]), DegenerateInput,
                 "rank correlation undefined for constant ranks", id="spearman-constant"),
    pytest.param(lambda: structure_correlation(np.zeros((3, 4)), np.zeros((3, 4))),
                 ContractViolation, "matrices must be square and equally shaped",
                 id="structure_correlation-not-square"),
])
def test_evaluation_contract_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
