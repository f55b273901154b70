import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margindistill.data import HierarchySpec, generate_hierarchical
from margindistill.errors import (
    CapacityError,
    ContractViolation,
    FormatError,
    UnknownSampleError,
)
from margindistill.mlp import forward_batch, init_mlp
from margindistill.numerics import Rng, pairwise_sq_euclidean, sq_euclidean
from margindistill.teacher import (
    CalibrationReport,
    TeacherOracle,
    calibrate_margins,
    load_embedding_table,
    load_embedding_table_jsonl,
    save_embedding_table,
    save_embedding_table_jsonl,
    tabulate,
    triplet_gaps,
)

from oracles import (
    pairwise_matrix_gaps,
    struct_embedding_table_bytes,
    straightline_mlp_forward,
    unit_vector,
)


def _table_oracle(entries):
    """entries: list of (sample_id, identity, unit vector)."""
    return TeacherOracle.from_table(
        sample_ids=[e[0] for e in entries],
        identities=[e[1] for e in entries],
        vectors=np.array([e[2] for e in entries], dtype=np.float64),
    )


def _tiny_dataset():
    return generate_hierarchical(HierarchySpec(
        n_superclusters=1, identities_per_supercluster=2, samples_per_identity=2,
        input_dim=3, supercluster_spread=1.0, identity_spread=0.2,
        sample_noise=0.05, seed=0,
    ))


def test_table_lookup_example():
    oracle = _table_oracle([(7, 1, [0.6, 0.8])])
    np.testing.assert_array_equal(oracle.embed(7), [0.6, 0.8])


def test_table_lookup_deterministic_bitwise():
    oracle = _table_oracle([(0, 0, [1.0, 0.0]), (1, 1, [0.0, 1.0])])
    a = oracle.embed(0)
    b = oracle.embed(0)
    assert a.tobytes() == b.tobytes()


def test_unknown_sample_id_raises():
    oracle = _table_oracle([(0, 0, [1.0, 0.0])])
    with pytest.raises(UnknownSampleError):
        oracle.embed(99)


def test_table_requires_unit_norm():
    with pytest.raises(ContractViolation):
        _table_oracle([(0, 0, [2.0, 0.0])])


def test_model_oracle_matches_straightline_forward():
    ds = _tiny_dataset()
    model = init_mlp((3, 8, 3), normalize_output=True, rng=Rng(0))
    oracle = tabulate(TeacherOracle.from_model(model), ds)
    for sid, x in zip(ds.sample_ids, ds.X):
        ref = straightline_mlp_forward(model.weights, model.biases, x, normalize=True)
        np.testing.assert_allclose(oracle.embed(sid), ref, rtol=1e-12, atol=1e-14)


def test_model_oracle_requires_normalization():
    model = init_mlp((4, 8, 3), normalize_output=False, rng=Rng(0))
    with pytest.raises(ContractViolation):
        TeacherOracle.from_model(model)


def _vector_at_sq_distance(sq):
    # on the unit circle: ||a-b||^2 = 2 - 2 cos(theta)
    cos_t = 1.0 - sq / 2.0
    return [cos_t, math.sqrt(1.0 - cos_t * cos_t)]


def test_teacher_gap_direct_example():
    # T(a,n) = 0.9, T(a,p) = 0.3 -> gap 0.6
    oracle = _table_oracle([
        (0, 0, [1.0, 0.0]),
        (1, 0, _vector_at_sq_distance(0.3)),
        (2, 1, _vector_at_sq_distance(0.9)),
    ])
    (gap,) = triplet_gaps(oracle.vectors, [(0, 1, 2)])
    assert gap == pytest.approx(0.6, abs=1e-12)


def test_teacher_gap_clamped_to_zero():
    # T(a,n) = 0.2 < T(a,p) = 0.5 -> clamp
    oracle = _table_oracle([
        (0, 0, [1.0, 0.0]),
        (1, 0, _vector_at_sq_distance(0.5)),
        (2, 1, _vector_at_sq_distance(0.2)),
    ])
    assert triplet_gaps(oracle.vectors, [(0, 1, 2)]).tolist() == [0.0]


def test_teacher_gap_matches_naive_recomputation():
    rng = Rng(15)
    entries = [(i, i % 5, unit_vector(rng, 6)) for i in range(20)]
    oracle = _table_oracle(entries)
    vecs = {sid: np.array(v) for sid, _, v in entries}
    idents = {sid: ident for sid, ident, _ in entries}

    def dist(u, v):  # one pairwise_sq_euclidean entry, computed for this pair alone
        return pairwise_sq_euclidean(u[None], v[None])[0, 0]

    for _ in range(20):
        a, p, n = rng.randint(20), rng.randint(20), rng.randint(20)
        if idents[p] != idents[a] or idents[n] == idents[a] or a == p:
            continue
        (got,) = triplet_gaps(oracle.vectors, [(a, p, n)])
        ref = max(dist(vecs[a], vecs[n]) - dist(vecs[a], vecs[p]), 0.0)
        assert got == ref
        assert got >= 0.0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 129), st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e3]),
       st.booleans(), st.integers(1, 100))
def test_triplet_gaps_match_pairwise_matrix_bitwise(dim, seed, scale, normalize, n_triplets):
    # 12 rows: up to 47 triplets take row-wise differences, 48 and more the matrix
    gen = np.random.default_rng(seed)
    vectors = gen.standard_normal((12, dim)) * scale
    if normalize:
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    triplets = gen.integers(0, 12, size=(n_triplets, 3))
    got = triplet_gaps(vectors, triplets)
    assert got.tobytes() == pairwise_matrix_gaps(vectors, triplets).tobytes()


def test_oracle_immutability_hash_stable():
    rng = Rng(33)
    entries = [(i, i % 3, unit_vector(rng, 4)) for i in range(9)]
    oracle = _table_oracle(entries)

    def digest():
        h = hashlib.sha256()
        for i in range(9):
            h.update(oracle.embed(i).tobytes())
        return h.hexdigest()

    first = digest()
    for _ in range(500):
        oracle.embed(rng.randint(9))
    assert digest() == first


def test_gaps_for_batch_matches_pointwise():
    spec = HierarchySpec(
        n_superclusters=2, identities_per_supercluster=2, samples_per_identity=3,
        input_dim=4, supercluster_spread=1.0, identity_spread=0.3,
        sample_noise=0.05, seed=1,
    )
    ds = generate_hierarchical(spec)
    model = init_mlp((4, 6, 3), True, Rng(2))
    oracle = tabulate(TeacherOracle.from_model(model), ds)
    batch_rows = np.arange(ds.n_samples)
    triplets = []
    for a in range(ds.n_samples):
        for p in range(ds.n_samples):
            if a != p and ds.labels[a] == ds.labels[p]:
                for n in range(ds.n_samples):
                    if ds.labels[n] != ds.labels[a]:
                        triplets.append((a, p, n))
    triplets = np.array(triplets[:50])
    got = triplet_gaps(oracle.embed_rows(ds, batch_rows), triplets)
    vec = oracle.vectors
    for (a, p, n), g in zip(triplets, got):
        ref = max(sq_euclidean(vec[a], vec[n]) - sq_euclidean(vec[a], vec[p]), 0.0)
        assert g == pytest.approx(ref, abs=1e-12)


def test_tabulate_matches_model_forward():
    ds = _tiny_dataset()
    model = init_mlp((3, 5, 2), True, Rng(4))
    model_oracle = TeacherOracle.from_model(model)
    with pytest.raises(ContractViolation):
        model_oracle.embed(int(ds.sample_ids[0]))   # a model answers only once tabulated
    table = tabulate(model_oracle, ds)
    assert table.model is model and tabulate(table, ds) is table
    want, _ = forward_batch(model, ds.X)
    for i in range(ds.n_samples):
        assert table.embed(int(ds.sample_ids[i])).tobytes() == want[i].tobytes()


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def _orthogonal_identities_dataset():
    # 3 identities, each with 2 coincident samples at mutually orthogonal
    # unit vectors: every teacher gap is identical
    vecs = np.eye(3)
    sample_ids = list(range(6))
    labels = [0, 0, 1, 1, 2, 2]
    feats = np.stack([vecs[l] for l in labels])
    from margindistill.data import IdentityDataset

    ds = IdentityDataset(sample_ids, labels, feats)
    oracle = TeacherOracle.from_table(sample_ids, labels, feats)
    return ds, oracle


def test_calibrate_symmetric_configuration_all_equal():
    ds, oracle = _orthogonal_identities_dataset()
    report = calibrate_margins(oracle, ds, 50, Rng(0))
    assert report.d_min_observed == report.d_max_observed == 2.0
    assert report.suggested_m_min == report.suggested_m_max == 2.0


def test_calibrate_singleton():
    ds, oracle = _orthogonal_identities_dataset()
    report = calibrate_margins(oracle, ds, 1, Rng(3))
    assert report.sample_count == 1
    assert len(report.d_values) == 1
    assert report.d_min_observed == report.d_max_observed


def test_calibrate_recomputation_oracle_seed0():
    spec = HierarchySpec(seed=0)
    ds = generate_hierarchical(spec)
    model = init_mlp((ds.input_dim, 16, 8), True, Rng(5))
    oracle = tabulate(TeacherOracle.from_model(model), ds)
    report = calibrate_margins(oracle, ds, 1000, Rng(0))
    assert report.sample_count == 1000
    # independent recomputation over the identical sampled triplets
    recomputed = []
    for a, p, n in report.triplets:
        # the label contract of a triplet: p shares a's identity, n does not
        la, lp, ln = (int(ds.labels[ds.row(s)]) for s in (a, p, n))
        assert a != p and lp == la and ln != la
        ea = oracle.embed(a)
        ep = oracle.embed(p)
        en = oracle.embed(n)
        recomputed.append(max(sq_euclidean(ea, en) - sq_euclidean(ea, ep), 0.0))
    assert min(recomputed) == report.d_min_observed
    assert max(recomputed) == report.d_max_observed
    assert recomputed == report.d_values
    assert report.suggested_m_min <= report.suggested_m_max


def test_calibrate_needs_valid_triplets():
    from margindistill.data import IdentityDataset

    ds = IdentityDataset([0, 1], [0, 0], np.array([[1.0, 0], [0, 1.0]]))
    oracle = TeacherOracle.from_table([0, 1], [0, 0], np.eye(2))
    with pytest.raises(CapacityError):
        calibrate_margins(oracle, ds, 5, Rng(0))


def test_calibration_report_json_roundtrip():
    report = CalibrationReport(
        sample_count=2, d_values=[0.25, 0.5], d_min_observed=0.25,
        d_max_observed=0.5, suggested_m_min=0.25, suggested_m_max=0.5,
        triplets=[(0, 1, 2), (3, 4, 5)],
    )
    back = CalibrationReport.from_json(report.to_json())
    assert back == report
    with pytest.raises(FormatError):
        CalibrationReport.from_json("{}")


# ---------------------------------------------------------------------------
# table files
# ---------------------------------------------------------------------------

def test_embedding_table_binary_roundtrip(tmp_path):
    rng = Rng(6)
    entries = [(i * 3, i % 2, unit_vector(rng, 5)) for i in range(8)]
    oracle = _table_oracle(entries)
    path = tmp_path / "emb.bin"
    save_embedding_table(oracle, path)
    save_embedding_table(oracle, tmp_path / "emb2.bin")
    assert path.read_bytes() == (tmp_path / "emb2.bin").read_bytes()
    back = load_embedding_table(path)
    assert back.dim == 5
    for sid, ident, vec in entries:
        np.testing.assert_allclose(
            back.embed(sid), np.asarray(vec, dtype=np.float32), rtol=0, atol=0
        )
        assert back.identities[back.sample_ids.tolist().index(sid)] == ident


def test_embedding_table_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXEMB1" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_embedding_table(path)


def test_embedding_table_jsonl_roundtrip(tmp_path):
    rng = Rng(61)
    entries = [(i, i % 3, unit_vector(rng, 4)) for i in range(6)]
    oracle = _table_oracle(entries)
    path = tmp_path / "emb.jsonl"
    save_embedding_table_jsonl(oracle, path)
    back = load_embedding_table_jsonl(path)
    for sid, _, vec in entries:
        np.testing.assert_allclose(back.embed(sid), vec, atol=1e-12)
    (tmp_path / "bad.jsonl").write_text("nope\n")
    with pytest.raises(FormatError):
        load_embedding_table_jsonl(tmp_path / "bad.jsonl")


def test_embedding_table_header_checked_before_allocation(tmp_path):
    path = tmp_path / "huge.emb"
    path.write_bytes(b"TFEMB1" + struct.pack("<II", 200_000, 100_000))   # 149 GiB of floats
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="header declares"):
            load_embedding_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_embedding_table_trailing_and_missing_bytes(tmp_path):
    oracle = _table_oracle([(0, 0, [1.0, 0.0]), (1, 1, [0.0, 1.0])])
    save_embedding_table(oracle, tmp_path / "t.emb")
    blob = (tmp_path / "t.emb").read_bytes()
    for name, data in (("long", blob + b"\x00"), ("short", blob[:-1]), ("header", blob[:10])):
        (tmp_path / name).write_bytes(data)
        with pytest.raises(FormatError):
            load_embedding_table(tmp_path / name)


def test_embedding_table_bytes_match_record_writer(tmp_path):
    ds = generate_hierarchical(HierarchySpec(seed=3))
    oracle = tabulate(TeacherOracle.from_model(init_mlp((ds.input_dim, 8, 5), True, Rng(1))), ds)
    perm = np.array(Rng(2).permutation(ds.n_samples))
    shuffled = TeacherOracle.from_table(
        oracle.sample_ids[perm], oracle.identities[perm], oracle.vectors[perm]
    )
    for table in (oracle, shuffled):
        save_embedding_table(table, tmp_path / "t.emb")
        want = struct_embedding_table_bytes(table.sample_ids, table.identities, table.vectors)
        assert (tmp_path / "t.emb").read_bytes() == want


def test_embedding_table_jsonl_ragged_vectors_rejected(tmp_path):
    path = tmp_path / "ragged.jsonl"
    path.write_text(
        '{"identity": 0, "sample": 0, "vector": [0.6, 0.8]}\n'
        '{"identity": 1, "sample": 1, "vector": [1.0]}\n'
    )
    with pytest.raises(FormatError):
        load_embedding_table_jsonl(path)
