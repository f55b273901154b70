import hashlib
import json
import math
import re
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from margindistill.data import (
    HierarchySpec,
    IdentityDataset,
    PkBatch,
    generate_hierarchical,
    mine_triplets,
)
from margindistill.errors import (
    CapacityError,
    ContractViolation,
    FormatError,
    UnknownSampleError,
)
from margindistill import numerics
from margindistill.mlp import EMBED_ROWS, forward_batch, init_mlp
from margindistill.numerics import Rng, pairwise_sq_euclidean
from margindistill.teacher import (
    CalibrationReport,
    TeacherOracle,
    calibrate_margins,
    load_embedding_table,
    save_embedding_table,
    tabulate,
    triplet_gaps,
)

from oracles import (
    list_sample_indices,
    pairwise_matrix_gaps,
    per_triplet_calibration,
    randint,
    sq_euclidean,
    straightline_mlp_forward,
    struct_embedding_table_bytes,
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
    for bad in ([2.0, 0.0], [np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ContractViolation, match="unit-norm"):
            _table_oracle([(0, 0, [1.0, 0.0]), (1, 0, bad)])


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
        a, p, n = randint(rng, 20), randint(rng, 20), randint(rng, 20)
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


@pytest.mark.parametrize("dim", [16, 32])
@pytest.mark.parametrize("strategy, count", [("semi_hard", 448), ("all", 25088)])
def test_triplet_gaps_match_pairwise_matrix_on_mined_pk_batches(strategy, count, dim):
    # the training loop's sizes: a semi-hard 8x8 batch's rows, and a dense one's matrix
    gen = np.random.default_rng(dim)
    vectors = gen.standard_normal((64, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    batch = PkBatch(p=8, k=8, entries=np.arange(64), labels=np.repeat(np.arange(8), 8))
    triplets = mine_triplets(batch, gen.standard_normal((64, dim)), strategy)
    assert triplets.shape == (count, 3)
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
        oracle.embed(randint(rng, 9))
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


def test_tabulate_holds_one_block_of_activations():
    n, width = 4 * EMBED_ROWS, 128
    ds = IdentityDataset(np.arange(n), np.arange(n) % 16, Rng(5).normals(32 * n).reshape(n, 32))
    oracle = TeacherOracle.from_model(init_mlp((32, width, width, width, 32), True, Rng(6)))
    tracemalloc.start()
    try:
        table = tabulate(oracle, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.vectors.shape == (n, 32)
    # one full-batch forward holds 4 layers x n x width float64 (16.8 MB here); blocks
    # hold the output, a block's input and output, and a few n-vectors for the table
    assert peak < 8 * (n * 32 + 2 * EMBED_ROWS * width + 8 * n)


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


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 7), min_size=2, max_size=11),
       st.one_of(st.integers(1, 60), st.integers(107, 400)))
def test_calibrate_matches_per_triplet_loop_bitwise(seed, sizes, n_triplets):
    # shuffled rows, scattered sample ids and identity labels, singleton identities;
    # from 107 triplets on, the 3 words per triplet are drawn by lanes, not stepped
    event(f"lane-drawn words: {3 * n_triplets >= numerics._STEPPED_WORDS}")
    gen = np.random.default_rng(seed)
    if max(sizes) < 2:
        sizes[0] = 2
    labels = np.repeat(gen.permutation(1000)[:len(sizes)], sizes)
    gen.shuffle(labels)
    ids = gen.permutation(10 * labels.size)[:labels.size]
    vectors = gen.standard_normal((labels.size, 6))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    ds = IdentityDataset(ids, labels, vectors)
    oracle = TeacherOracle.from_table(ids, labels, vectors)
    report = calibrate_margins(oracle, ds, n_triplets, Rng(seed))
    d_values, rows = per_triplet_calibration(oracle.vectors, ds, n_triplets, Rng(seed))
    assert np.array(report.d_values).tobytes() == np.array(d_values).tobytes()
    assert report.triplets == [tuple(int(ids[r]) for r in t) for t in rows]


def test_calibrate_needs_valid_triplets():
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
    assert report.to_json() == json.dumps(asdict(report))
    with pytest.raises(FormatError):
        CalibrationReport.from_json("{}")


@pytest.mark.parametrize("d_values, loads", [([0.0, 0.5], True), ([0.0, 0.0], True),
                                              ([-0.25, 0.5], False), ([0.5, -1e-300], False)])
def test_calibration_report_d_values_must_be_at_least_zero(d_values, loads):
    # a d-value is a gap clipped at 0: 0.0 is one, a negative finite value is not
    report = CalibrationReport(
        sample_count=2, d_values=d_values, d_min_observed=min(d_values),
        d_max_observed=max(d_values), suggested_m_min=0.0, suggested_m_max=0.5,
        triplets=[(0, 1, 2), (3, 4, 5)],
    )
    if loads:
        assert CalibrationReport.from_json(report.to_json()) == report
    else:
        with pytest.raises(FormatError, match="d_values must be finite and >= 0$"):
            CalibrationReport.from_json(report.to_json())


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


@pytest.mark.parametrize("sample_id, identity", [(2**32, 0), (0, 2**32), (2**40, 2**33)])
def test_embedding_table_ids_past_u32_are_refused(tmp_path, sample_id, identity):
    oracle = _table_oracle([(sample_id, identity, [1.0, 0.0]), (1, 1, [0.0, 1.0])])
    with pytest.raises(ContractViolation, match="table ids must fit in u32"):
        save_embedding_table(oracle, tmp_path / "t.emb")
    assert not (tmp_path / "t.emb").exists()


def test_embedding_table_bytes_match_record_writer(tmp_path):
    ds = generate_hierarchical(HierarchySpec(seed=3))
    oracle = tabulate(TeacherOracle.from_model(init_mlp((ds.input_dim, 8, 5), True, Rng(1))), ds)
    perm = np.array(list_sample_indices(Rng(2), ds.n_samples, ds.n_samples))
    shuffled = TeacherOracle.from_table(
        oracle.sample_ids[perm], oracle.identities[perm], oracle.vectors[perm]
    )
    for table in (oracle, shuffled):
        save_embedding_table(table, tmp_path / "t.emb")
        want = struct_embedding_table_bytes(table.sample_ids, table.identities, table.vectors)
        assert (tmp_path / "t.emb").read_bytes() == want


def test_embedding_table_jsonl_ragged_vectors_rejected(tmp_path):
    # TFEMB1 is the only table format: a JSON-lines table is refused by its magic
    path = tmp_path / "ragged.jsonl"
    path.write_text(
        '{"identity": 0, "sample": 0, "vector": [0.6, 0.8]}\n'
        '{"identity": 1, "sample": 1, "vector": [1.0]}\n'
    )
    with pytest.raises(FormatError, match="magic"):
        load_embedding_table(path)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: TeacherOracle(3, sample_ids=[0], identities=[0], vectors=np.eye(1, 2)),
                 "table vectors must be (n, dim)", id="oracle-dim"),
    pytest.param(lambda: TeacherOracle.from_table([0, 1], [0, 1], np.zeros(2)),
                 "table vectors must be (n, dim)", id="from_table-1d"),
    pytest.param(lambda: TeacherOracle.from_table(0, 0, np.float64(1.0)),
                 "table vectors must be (n, dim)", id="from_table-0d"),
    pytest.param(lambda: TeacherOracle.from_table([0, 1], [0], np.eye(2)),
                 "table arrays must align", id="from_table-misaligned"),
    pytest.param(lambda: calibrate_margins(
        TeacherOracle.from_table([0, 1, 2], [0, 0, 1], np.eye(3)),
        IdentityDataset([0, 1, 2], [0, 0, 1], np.eye(3)), 0, Rng(0)),
        "n_triplets must be >= 1", id="calibrate-zero"),
    pytest.param(lambda: save_embedding_table(
        TeacherOracle.from_model(init_mlp((3, 2), True, Rng(0))), "never-written.emb"),
        "only tabulated teachers can be saved", id="save-untabulated"),
])
def test_teacher_contract_errors(call, message):
    with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
        call()
