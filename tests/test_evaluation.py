import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from margindistill.data import HierarchySpec, IdentityDataset, generate_hierarchical
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
    build_pairs,
    centroid_distance_matrix,
    load_pairs_jsonl,
    save_pairs_jsonl,
    spearman,
    structure_correlation,
    threshold_sweep,
    verify,
)
from margindistill.mlp import init_mlp
from margindistill.numerics import Rng, sq_euclidean
from margindistill.teacher import TeacherOracle

from oracles import brute_force_sweep, exhaustive_sweep_best_accuracy, unit_vector


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
    # 1 identity with 4 samples: exactly 6 positive pairs, forces the
    # enumeration fallback path to produce all of them
    ds, _ = _table_ds([[1, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, 0, 0])
    pairs = build_pairs(ds, 6, 0, Rng(0))
    assert len(pairs) == 6
    with pytest.raises(CapacityError):
        build_pairs(ds, 7, 0, Rng(0))
    with pytest.raises(CapacityError):
        build_pairs(ds, 0, 1, Rng(0))


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
        same = np.array([rng.randint(2) == 1 for _ in range(n)])
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
    assert report.roc_points == [(far, tar) for _, far, tar in rows]
    accuracies = [acc for acc, _, _ in rows]
    assert report.best_accuracy == max(accuracies)
    assert report.best_threshold == thresholds[accuracies.index(max(accuracies))]


def test_threshold_sweep_rejects_non_finite_distances():
    with pytest.raises(DegenerateInput):
        threshold_sweep(np.array([0.1, np.nan]), np.array([True, False]))


def test_best_accuracy_invariant_under_monotone_transform():
    rng = Rng(41)
    d = rng.uniforms(60) * 1.5
    same = np.array([rng.randint(2) == 1 for _ in range(60)])
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
    fars = [p[0] for p in report.roc_points]
    tars = [p[1] for p in report.roc_points]
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
        ci = vecs[ds.rows_of(ident_i)].mean(axis=0)
        for j, ident_j in enumerate(idents):
            cj = vecs[ds.rows_of(ident_j)].mean(axis=0)
            if i != j:
                assert mat[i, j] == pytest.approx(sq_euclidean(ci, cj), abs=1e-12)


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
