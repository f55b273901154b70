import json
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margindistill import data
from margindistill.data import (
    HierarchySpec,
    IdentityDataset,
    PkBatch,
    generate_hierarchical,
    load_dataset_jsonl,
    mine_triplets,
    mining_words,
    sample_pk_batch,
    save_dataset_companion,
    save_dataset_jsonl,
)
from margindistill.errors import (
    CapacityError,
    ContractViolation,
    FormatError,
    MarginDistillError,
    NoTripletsError,
    UnknownSampleError,
)
from margindistill.numerics import Rng, pairwise_sq_euclidean

from oracles import (
    brute_force_all_triplets,
    brute_force_semi_hard,
    certified_row_by_row,
    nested_loop_generate,
    per_anchor_mining,
    whole_text_load_dataset,
)


def small_spec(**kw):
    base = dict(
        n_superclusters=2,
        identities_per_supercluster=3,
        samples_per_identity=4,
        input_dim=5,
        supercluster_spread=1.0,
        identity_spread=0.3,
        sample_noise=0.05,
        seed=0,
    )
    base.update(kw)
    return HierarchySpec(**base)


def test_spec_validates_spread_ordering():
    with pytest.raises(ContractViolation):
        small_spec(identity_spread=2.0)  # identity > supercluster
    with pytest.raises(ContractViolation):
        small_spec(sample_noise=0.5)  # noise > identity
    with pytest.raises(ContractViolation):
        small_spec(samples_per_identity=0)


@pytest.mark.parametrize("spreads", [(1e308, 1e307, 0.06), (1e308, 1e307, 1e306),
                                     (1.7e308, 0.35, 0.06)])
def test_overflowing_spreads_are_one_contract_violation(spreads):
    spec = small_spec(supercluster_spread=spreads[0], identity_spread=spreads[1],
                      sample_noise=spreads[2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ContractViolation, match="^supercluster_spread, identity_spread "
                                                    "and sample_noise give features"):
            generate_hierarchical(spec)
    assert [str(w.message) for w in caught] == []


def test_spec_of_numpy_values_saves_like_its_python_twin(tmp_path):
    # the fields are stored as int and float, so the header's JSON takes them
    spec = small_spec(n_superclusters=np.int64(2), identities_per_supercluster=np.uint8(3),
                      input_dim=np.int32(5), supercluster_spread=np.float64(1.0),
                      sample_noise=np.float32(0.06), seed=np.uint64(7))
    twin = small_spec(sample_noise=float(np.float32(0.06)), seed=7)
    assert spec == twin
    assert [type(v) for v in vars(spec).values()] == [type(v) for v in vars(twin).values()]
    paths = [tmp_path / "numpy.jsonl", tmp_path / "python.jsonl"]
    for one, path in zip((spec, twin), paths):
        save_dataset_jsonl(generate_hierarchical(one), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert load_dataset_jsonl(paths[0]).spec == twin


def test_degenerate_hierarchy_samples_cluster_tightly():
    spec = small_spec(n_superclusters=1, identities_per_supercluster=1,
                      samples_per_identity=3, input_dim=8)
    ds = generate_hierarchical(spec)
    assert ds.n_samples == 3
    dists = np.sqrt(pairwise_sq_euclidean(ds.X))
    bound = 6.0 * spec.sample_noise * np.sqrt(spec.input_dim)
    assert dists.max() < bound


def test_generation_deterministic_per_seed():
    a = generate_hierarchical(small_spec())
    b = generate_hierarchical(small_spec())
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = generate_hierarchical(small_spec(seed=1))
    assert not np.array_equal(a.X, c.X)


@pytest.mark.parametrize("spec", [
    HierarchySpec(),
    HierarchySpec(seed=7),
    small_spec(),
    small_spec(input_dim=1, seed=3),
    small_spec(n_superclusters=1, identities_per_supercluster=1, samples_per_identity=1),
    small_spec(n_superclusters=5, identities_per_supercluster=1, samples_per_identity=1),
    small_spec(n_superclusters=3, identities_per_supercluster=5, samples_per_identity=7,
               input_dim=9, seed=2**63 + 5),
    HierarchySpec(n_superclusters=8, identities_per_supercluster=16, samples_per_identity=50,
                  input_dim=32, seed=11),
], ids=lambda spec: f"{spec.n_superclusters}x{spec.identities_per_supercluster}"
                    f"x{spec.samples_per_identity}x{spec.input_dim}-seed{spec.seed}")
def test_generator_bytes_equal_nested_loop_draws(spec):
    ds = generate_hierarchical(spec)
    ref, _, _ = nested_loop_generate(spec)
    for name in ("X", "labels", "sample_ids"):
        got, want = getattr(ds, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_hierarchy_intra_supercluster_identities_are_closer():
    spec = HierarchySpec(
        n_superclusters=4, identities_per_supercluster=5, samples_per_identity=2,
        input_dim=8, supercluster_spread=1.5, identity_spread=0.3,
        sample_noise=0.05, seed=3,
    )
    ds, centers, sc = nested_loop_generate(spec)
    assert ds.X.tobytes() == generate_hierarchical(spec).X.tobytes()
    dmat = pairwise_sq_euclidean(centers)
    iu = np.triu_indices(centers.shape[0], 1)
    same = sc[iu[0]] == sc[iu[1]]
    assert dmat[iu][same].mean() < dmat[iu][~same].mean()


_EXTREME_IDS = [-2**63, -2**63 + 1, -1, 0, 1, 2**62, 2**63 - 2, 2**63 - 1]


@settings(max_examples=200, deadline=None)
@given(start=st.one_of(st.integers(-50, 50), st.sampled_from(_EXTREME_IDS)),
       size=st.integers(1, 40), gap=st.booleans(), seed=st.integers(0, 2**32 - 1),
       extra=st.lists(st.one_of(st.integers(-60, 100), st.sampled_from(_EXTREME_IDS)),
                      max_size=5))
def test_id_index_finds_the_position_of_every_id(start, size, gap, seed, extra):
    """Ids filling a range (found by subtraction) or not (binary search), in any
    order: every known id maps to its position, and the first unknown one raises."""
    gen = np.random.default_rng(seed)
    start = min(start, 2**63 - size - 1)
    ids = np.arange(start, start + size + gap, dtype=np.int64)
    if gap:
        ids = np.delete(ids, int(gen.integers(1, size)) if size > 1 else 0)
    ids = gen.permutation(ids)
    index = data.IdIndex(ids, "the test")
    position = {int(i): p for p, i in enumerate(ids)}
    queries = np.array(list(gen.choice(ids, 8)) + extra, dtype=np.int64)
    unknown = [int(q) for q in queries if int(q) not in position]
    if unknown:
        with pytest.raises(UnknownSampleError, match=f"sample id {unknown[0]} not in"):
            index.positions(queries)
    else:
        assert index.positions(queries).tolist() == [position[int(q)] for q in queries]


def test_dataset_invariants_enforced():
    with pytest.raises(ContractViolation):
        IdentityDataset([0, 0], [1, 1], np.zeros((2, 3)))  # duplicate ids
    with pytest.raises(ContractViolation):
        IdentityDataset([0, 1], [1, 1], np.array([[np.inf, 0], [0, 0]]))


def test_dataset_grouping_is_read_only():
    # the PK schedule, build_pairs and identity means all read this one grouping
    ds = generate_hierarchical(small_spec())
    for array in (ds.identity_order, ds.identity_sizes, ds.identity_starts):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    ds.X[0, 0] = 1.0                             # the features stay writable


def test_pk_batch_minimal():
    ds = generate_hierarchical(small_spec())
    b = sample_pk_batch(ds, 1, 1, Rng(0))
    assert b.size == 1


def test_pk_batch_paper_shape_180_entries():
    spec = small_spec(
        n_superclusters=2, identities_per_supercluster=5,
        samples_per_identity=18, input_dim=3,
    )
    ds = generate_hierarchical(spec)
    b = sample_pk_batch(ds, 10, 18, Rng(1))
    assert b.size == 180
    assert len(set(b.labels.tolist())) == 10
    _, counts = np.unique(b.labels, return_counts=True)
    assert np.all(counts == 18)
    assert len(set(b.entries.tolist())) == 180


def test_pk_batch_deterministic():
    ds = generate_hierarchical(small_spec())
    b1 = sample_pk_batch(ds, 3, 2, Rng(9))
    b2 = sample_pk_batch(ds, 3, 2, Rng(9))
    np.testing.assert_array_equal(b1.entries, b2.entries)


def test_pk_batch_capacity_errors():
    ds = generate_hierarchical(small_spec())
    with pytest.raises(CapacityError):
        sample_pk_batch(ds, 7, 2, Rng(0))  # only 6 identities
    with pytest.raises(CapacityError):
        sample_pk_batch(ds, 2, 5, Rng(0))  # only 4 samples each


def test_pk_batch_invariant_validation():
    with pytest.raises(ContractViolation):
        PkBatch(p=2, k=2, entries=np.array([0, 1, 2, 2]), labels=np.array([5, 5, 6, 6]))
    # identity-major only: p blocks of k equal labels, each block a different identity
    for labels in ([5, 6, 6, 5], [5, 5, 5, 5], [5, 5, 6, 6, 5, 5]):
        with pytest.raises(ContractViolation):
            PkBatch(p=len(labels) // 2, k=2, entries=np.arange(len(labels)), labels=labels)


def _batch_and_embeddings(p=3, k=2, seed=0):
    spec = small_spec(n_superclusters=1, identities_per_supercluster=p,
                      samples_per_identity=k, input_dim=4)
    ds = generate_hierarchical(spec)
    batch = sample_pk_batch(ds, p, k, Rng(seed))
    emb = ds.X[batch.entries]  # raw features stand in for embeddings
    return batch, emb


def _words(batch, strategy, seed):
    """The words mine_triplets reads for batch under strategy, drawn by Rng(seed)."""
    return Rng(seed).uint64s(mining_words(strategy, batch.p, batch.k))


def test_mine_all_count_p2_k2():
    batch, emb = _batch_and_embeddings(p=2, k=2)
    tri = mine_triplets(batch, emb, "all")
    assert tri.shape == (8, 3)  # 4 anchors x 1 positive x 2 negatives


def test_mine_all_matches_brute_force():
    batch, emb = _batch_and_embeddings(p=3, k=2)
    tri = mine_triplets(batch, emb, "all")
    ref = brute_force_all_triplets(batch.labels.tolist())
    np.testing.assert_array_equal(tri, ref)
    p, k = 3, 2
    assert tri.shape[0] == p * k * (k - 1) * (p - 1) * k


def test_mine_semi_hard_prefers_violating_negative():
    labels = np.array([0, 0, 1, 1])
    batch = PkBatch(p=2, k=2, entries=np.array([0, 1, 2, 3]), labels=labels)
    # anchor 0: positive at distance 1; negatives at 0.25 (closer) and 4 (farther)
    emb = np.array([[0.0], [1.0], [0.5], [-2.0]])
    tri = mine_triplets(batch, emb, "semi_hard")
    row = tri[(tri[:, 0] == 0) & (tri[:, 1] == 1)]
    assert row[0, 2] == 3  # the farther, still-informative negative


def test_mine_semi_hard_matches_brute_force():
    rng = Rng(21)
    for seed in range(5):
        batch, _ = _batch_and_embeddings(p=4, k=3, seed=seed)
        emb = np.stack([rng.normals(6) for _ in range(batch.size)])
        tri = mine_triplets(batch, emb, "semi_hard")
        ref = brute_force_semi_hard(batch.labels.tolist(), pairwise_sq_euclidean(emb))
        np.testing.assert_array_equal(tri, ref)


def test_mine_random_per_anchor_valid_and_deterministic():
    batch, emb = _batch_and_embeddings(p=3, k=3)
    t1 = mine_triplets(batch, emb, "random_per_anchor", _words(batch, "random_per_anchor", 4))
    t2 = mine_triplets(batch, emb, "random_per_anchor", _words(batch, "random_per_anchor", 4))
    np.testing.assert_array_equal(t1, t2)
    assert t1.shape == (batch.size, 3)
    labels = batch.labels
    for a, p, n in t1:
        assert labels[a] == labels[p] != labels[n]
        assert a != p


def test_mine_triplet_label_validity_all_strategies():
    batch, emb = _batch_and_embeddings(p=3, k=2, seed=2)
    labels = batch.labels
    for strategy in ("all", "semi_hard", "random_per_anchor"):
        tri = mine_triplets(batch, emb, strategy, _words(batch, strategy, 0))
        for a, p, n in tri:
            assert labels[a] == labels[p] != labels[n]
            assert a != p


def test_mine_requires_two_identities():
    batch, emb = _batch_and_embeddings(p=1, k=3)
    with pytest.raises(NoTripletsError):
        mine_triplets(batch, emb, "all")


def test_mine_rejects_unknown_strategy():
    batch, emb = _batch_and_embeddings()
    with pytest.raises(ContractViolation):
        mine_triplets(batch, emb, "hardest")


@pytest.mark.parametrize("strategy", data.MINING_STRATEGIES)
def test_mine_rejects_embeddings_that_are_not_2d(strategy):
    batch, emb = _batch_and_embeddings()
    for bad in (emb[:, 0], emb[:, :, None]):       # one value per entry; a 3-D stack
        with pytest.raises(ContractViolation):
            mine_triplets(batch, bad, strategy, _words(batch, strategy, 0))


def test_semi_hard_picks_violators_at_inf():
    # (0, 1) and (1, 0) have one violator, at +inf; (2, 3) sees d_ap = inf and
    # no violator, so it takes the first of its two negatives at inf
    batch = PkBatch(p=2, k=2, entries=np.arange(4), labels=np.array([0, 0, 1, 1]))
    emb = np.array([[0.0], [3.0], [1e200], [1.0]])
    with np.errstate(over="ignore"):
        tri = mine_triplets(batch, emb, "semi_hard")
    np.testing.assert_array_equal(tri, [[0, 1, 2], [1, 0, 2], [2, 3, 0], [3, 2, 1]])


_EDGE_VALUES = [0.0, -0.0, 1.0, 1.0 + 2**-52, 2.0, 1e-300, 1e300, np.inf, -np.inf, np.nan]


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 6), width=st.integers(2, 8), sort=st.booleans(), data_=st.data())
def test_flat_certification_equals_the_row_wise_minimum(rows, width, sort, data_):
    """One flat comparison certifies exactly the batches the row-wise minimum
    does, on rows with NaN, +-inf and ties (values drawn from a short list)."""
    value = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(allow_nan=True))
    ranked = np.array(data_.draw(st.lists(value, min_size=rows * width,
                                          max_size=rows * width))).reshape(rows, width)
    bound = np.array(data_.draw(st.lists(st.one_of(st.sampled_from(_EDGE_VALUES[:6]), value),
                                         min_size=rows, max_size=rows)))
    if sort:
        ranked = np.sort(ranked, axis=1)
    with np.errstate(over="ignore"):                  # twice a bound past 9e307
        assert data._rows_certified(ranked, bound) == certified_row_by_row(ranked, bound)


@st.composite
def _pk_cases(draw):
    """An identity-major PK batch (k may be 1), embeddings of dim
    1-64 (random reals, or a small grid full of exact distance ties and signed
    zeros) at a scale from 1e-160 (products underflow) to 1e154 (sums
    overflow), perhaps with one row set to NaN or one coordinate to +-inf,
    and a seed."""
    p, k, dim = draw(st.integers(2, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    exponent = draw(st.one_of(st.sampled_from([-160, -155, 0, 152, 153, 154]),
                              st.floats(-160, 154)))
    gen = np.random.default_rng(seed)
    labels = np.repeat(np.arange(p) * 7 + 3, k)
    batch = PkBatch(p=p, k=k, entries=np.arange(p * k) + 100, labels=labels)
    if draw(st.booleans()):
        emb = gen.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(p * k, dim))
    else:
        emb = gen.standard_normal((p * k, dim))
    emb = emb * 10.0 ** exponent
    special = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    row, col = draw(st.integers(0, p * k - 1)), draw(st.integers(0, dim - 1))
    if special is not None:
        emb[row, slice(None) if np.isnan(special) else col] = special
    return batch, emb, seed


@settings(max_examples=200, deadline=None)
@given(_pk_cases())
def test_mining_matches_per_anchor_loop_bitwise(case):
    batch, emb, seed = case
    with np.errstate(over="ignore", invalid="ignore"):   # 1e154 overflows; inf - inf is NaN
        for strategy in ("semi_hard", "random_per_anchor"):
            # the words of one uint64s call, and as many as the loop's randint calls take
            rng, ref = Rng(seed), Rng(seed)
            got = mine_triplets(batch, emb, strategy,
                                rng.uint64s(mining_words(strategy, batch.p, batch.k)))
            want = per_anchor_mining(batch.labels, emb, strategy, ref)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            assert rng._s == ref._s
        # the rule scanned pair by pair: NaN never violates, and a pair with no
        # violator takes the first NaN or the first maximal negative
        rule = brute_force_semi_hard(batch.labels.tolist(), pairwise_sq_euclidean(emb))
        np.testing.assert_array_equal(mine_triplets(batch, emb), rule.reshape(-1, 3))
    got = mine_triplets(batch, emb, "all")
    want = brute_force_all_triplets(batch.labels.tolist()).reshape(-1, 3)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("exponent", [-160, 154])
def test_semi_hard_bitwise_where_products_underflow_or_sums_overflow(exponent):
    gen = np.random.default_rng(exponent + 1000)
    labels = np.repeat(np.arange(4), 4)
    batch = PkBatch(p=4, k=4, entries=np.arange(16), labels=labels)
    for dim in gen.integers(1, 65, size=100):
        emb = gen.standard_normal((16, dim)) * 10.0 ** exponent
        with np.errstate(over="ignore"):
            got = mine_triplets(batch, emb, "semi_hard")
            np.testing.assert_array_equal(got, per_anchor_mining(labels, emb, "semi_hard"))


def _exact_rows(batch, emb):
    """One semi-hard mining's triplets, checked against the per-anchor loop,
    and the number of rows it passed to pairwise_sq_euclidean."""
    with mock.patch.object(data, "pairwise_sq_euclidean", wraps=pairwise_sq_euclidean) as exact:
        tri = mine_triplets(batch, emb, "semi_hard")
    want = per_anchor_mining(batch.labels, emb, "semi_hard")
    assert tri.dtype == want.dtype
    np.testing.assert_array_equal(tri, want)
    return tri, sum(len(call.args[0]) for call in exact.call_args_list)


def _pk8x8():
    return PkBatch(p=8, k=8, entries=np.arange(64), labels=np.repeat(np.arange(8), 8))


def test_semi_hard_tie_grid_takes_exact_rows():
    gen = np.random.default_rng(5)
    emb = gen.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(64, 4))
    assert _exact_rows(_pk8x8(), emb)[1] == 64          # one whole-batch call


@settings(max_examples=150, deadline=None)
@given(p=st.integers(2, 8), k=st.integers(2, 6), dim=st.integers(1, 33),
       seed=st.integers(0, 2**32 - 1))
def test_semi_hard_sorted_rows_match_per_anchor_loop(p, k, dim, seed):
    # random real embeddings certify every row: the selection from sorted rows
    gen = np.random.default_rng(seed)
    labels = np.repeat(np.arange(p) * 5 + 2, k)
    batch = PkBatch(p=p, k=k, entries=np.arange(p * k), labels=labels)
    emb = gen.standard_normal((p * k, dim))
    got, exact_rows = _exact_rows(batch, emb)
    assert exact_rows == 0 and got.shape == (p * k * (k - 1), 3)


def test_identity_major_batches_take_the_cached_layout():
    # batches must not rebuild their label masks on every call
    batch, emb = _pk8x8(), np.random.default_rng(3).standard_normal((64, 16))
    layout = data._pk_layout(8, 8)
    assert not any(array.flags.writeable for array in layout)
    misses = data._pk_layout.cache_info().misses
    for strategy in ("semi_hard", "random_per_anchor"):
        got = mine_triplets(batch, emb, strategy, _words(batch, strategy, 4))
        np.testing.assert_array_equal(
            got, per_anchor_mining(batch.labels, emb, strategy, Rng(4)))
        assert got.flags.writeable
    got = mine_triplets(batch, emb, "all")
    np.testing.assert_array_equal(got, brute_force_all_triplets(batch.labels.tolist()))
    assert got.flags.writeable
    assert data._pk_layout.cache_info().misses == misses


@pytest.mark.parametrize("dim", [16, 32])
def test_semi_hard_unit_norm_batches_stay_on_gram_rows(dim):
    # the training loop's case: certification must hold, or the fast path is gone
    gen = np.random.default_rng(dim)
    for _ in range(20):
        emb = gen.standard_normal((64, dim))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        assert _exact_rows(_pk8x8(), emb)[1] == 0


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
       p=st.integers(1, 8), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_sampled_batches_pass_validation(sizes, p, k, seed):
    # identities of uneven size, ids and rows in shuffled order
    gen = np.random.default_rng(seed)
    labels = gen.permutation(np.repeat(np.arange(len(sizes)) * 3 + 1, sizes))
    ds = IdentityDataset(gen.permutation(labels.size) + 50, labels,
                         gen.standard_normal((labels.size, 2)))
    if sum(size >= k for size in sizes) < p:
        with pytest.raises(CapacityError):
            sample_pk_batch(ds, p, k, Rng(seed))
        return
    batch = sample_pk_batch(ds, p, k, Rng(seed))
    checked = PkBatch(p=p, k=k, entries=batch.entries, labels=batch.labels)
    assert batch.entries.dtype == batch.labels.dtype == np.int64
    np.testing.assert_array_equal(checked.entries, batch.entries)
    np.testing.assert_array_equal(ds.labels[batch.entries], batch.labels)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_dataset_jsonl_roundtrip_and_determinism(tmp_path):
    ds = generate_hierarchical(small_spec())
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    save_dataset_jsonl(ds, p1)
    save_dataset_jsonl(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = load_dataset_jsonl(p1)
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.spec == ds.spec


def _bits(ds):
    return (ds.sample_ids.tobytes(), ds.labels.tobytes(), ds.X.shape, ds.X.tobytes(),
            ds.spec, ds.seed)


def _refuse_records(*args):
    raise AssertionError("dataset records were parsed")


@pytest.mark.parametrize("shape", [
    dict(n_superclusters=8, identities_per_supercluster=16, samples_per_identity=50,
         input_dim=32),                                          # the CLI benchmark's set
    dict(n_superclusters=2, identities_per_supercluster=2, samples_per_identity=4,
         input_dim=3),                                           # the CLI tests' tiny set
], ids=["6400x32", "16x3"])
def test_companion_load_equals_text_load(tmp_path, monkeypatch, shape):
    ds = generate_hierarchical(HierarchySpec(**shape, seed=11))
    path = tmp_path / "ds.jsonl"
    save_dataset_jsonl(ds, path)
    text = load_dataset_jsonl(path)
    save_dataset_companion(ds, path, data.companion_path(path))
    monkeypatch.setattr(data, "_parse_records", _refuse_records)
    tracemalloc.start()
    try:
        fast = load_dataset_jsonl(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _bits(fast) == _bits(text) == _bits(ds)
    # the companion's arrays and one 1 MiB block of the hashed file, never the whole
    # file (4.2 MB for the 6400x32 set); 0.5 MiB for the dataset's indexes
    assert peak < 8 * ds.n_samples * (2 + ds.input_dim) + (3 << 19)
    assert fast.X.flags.writeable and fast.identity_list == text.identity_list


def test_text_load_holds_one_block_of_records(tmp_path):
    ds = generate_hierarchical(HierarchySpec(n_superclusters=8, identities_per_supercluster=16,
                                             samples_per_identity=50, input_dim=32, seed=11))
    path = tmp_path / "ds.jsonl"
    save_dataset_jsonl(ds, path)
    tracemalloc.start()
    try:
        text = load_dataset_jsonl(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _bits(text) == _bits(ds)
    # each block's arrays and their concatenation, plus about two blocks of text,
    # lines and records (the whole 4.2 MB file at once traced 14.0 MB)
    arrays = 8 * ds.n_samples * (2 + ds.input_dim)
    assert peak < 2 * arrays + (3 << 19)


_FAULTS = {
    "bad utf-8": b"\xff\xfe",
    "not json": b"{not json",
    "wide x": b'{"sample": 90, "identity": 0, "x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}',
    "scalar x": b'{"sample": 91, "identity": 0, "x": 1.5}',
    "huge id": b'{"sample": 99999999999999999999, "identity": 0, "x": [1, 2, 3, 4, 5]}',
    "bool id": b'{"sample": true, "identity": 0, "x": [1, 2, 3, 4, 5]}',
    "repeated id": b'{"sample": 0, "identity": 0, "x": [1, 2, 3, 4, 5]}',
    "inf x": b'{"sample": 92, "identity": 0, "x": [1e999, 2, 3, 4, 5]}',
    "split record": b'{"sample": 93, "identity": 0,\n "x": [1, 2, 3, 4, 5]}',
    "u2028 in record": '{"sample": 94, "identity": 0,\u2028"x": [1, 2, 3, 4, 5]}'.encode(),
    "blank": b"  \t",
    "bad header": b"[1, 2]",
}


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(sorted(_FAULTS)), st.integers(0, 30),
                                st.booleans()), max_size=3),
       ending=st.sampled_from([b"\n", b"\r\n", b"\r"]), block=st.integers(1, 400),
       drop=st.integers(0, 2))
def test_text_load_in_blocks_equals_one_parse_of_the_whole_file(edits, ending, block, drop):
    """Blocks give the arrays, or the error, of one parse of the whole text."""
    ds = generate_hierarchical(small_spec(samples_per_identity=5))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.jsonl"
        save_dataset_jsonl(ds, path)
        lines = path.read_bytes().splitlines()[:len(ds.sample_ids) + 1 - drop]
        for fault, at, replace in edits:              # replace line ``at``, or insert there
            at = min(at, len(lines) - replace)
            lines[at:at + replace] = [_FAULTS[fault]]
        path.write_bytes(b"".join(line + ending for line in lines))
        results = []
        with mock.patch.object(data, "TEXT_BLOCK", block), \
                mock.patch.object(data, "_load_dataset", wraps=data._load_dataset) as loads:
            for load in (load_dataset_jsonl, whole_text_load_dataset):
                try:
                    results.append(_bits(load(path)))
                except MarginDistillError as exc:
                    results.append((type(exc), str(exc)))
    assert results[0] == results[1]
    assert loads.call_count == (2 if results[0][0] is FormatError else 1)   # a retry only then


def test_stale_companion_falls_back_to_the_text(tmp_path):
    ds = generate_hierarchical(small_spec())
    path = tmp_path / "ds.jsonl"
    save_dataset_jsonl(ds, path)
    save_dataset_companion(ds, path, data.companion_path(path))
    lines = path.read_text().splitlines(keepends=True)
    at = lines[3].index(".", lines[3].index('"x"')) + 1          # first decimal of one value
    lines[3] = lines[3][:at] + str((int(lines[3][at]) + 1) % 10) + lines[3][at + 1:]
    path.write_text("".join(lines))
    stale = load_dataset_jsonl(path)
    data.companion_path(path).unlink()
    text = load_dataset_jsonl(path)
    assert _bits(stale) == _bits(text) != _bits(ds)
    assert stale.X[2, 0] != ds.X[2, 0]


def test_dataset_jsonl_header_mismatch_rejected(tmp_path):
    ds = generate_hierarchical(small_spec())
    path = tmp_path / "ds.jsonl"
    save_dataset_jsonl(ds, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop one record
    with pytest.raises(FormatError):
        load_dataset_jsonl(path)


@pytest.mark.parametrize("key", ["input_dim", "n_identities"])
@pytest.mark.parametrize("companion", [False, True])
def test_dataset_header_counts_that_disagree_with_the_records_are_refused(tmp_path, key,
                                                                          companion):
    # the records parse, one per declared sample, but hold another dim or identity count
    ds = generate_hierarchical(small_spec())
    path = tmp_path / "ds.jsonl"
    save_dataset_jsonl(ds, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header[key] += 1
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    if companion:               # the arrays from a companion that matches the file
        data.save_dataset_companion(ds, path, data.companion_path(path))
    with pytest.raises(FormatError) as caught:
        load_dataset_jsonl(path)
    assert str(caught.value) == f"{path}: header counts disagree with records"


def test_dataset_jsonl_garbage_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    for text in ("not json", "5", "null", '["input_dim", "n_samples", "n_identities"]'):
        path.write_text(text + "\n")
        with pytest.raises(FormatError):
            load_dataset_jsonl(path)


def test_json_field_rule():
    assert data.json_field(3, int) == 3 and data.json_field(-2, float) == -2.0
    assert type(data.json_field(1, float)) is float and data.json_field(False, bool) is False
    for value, kind in [(True, int), (False, float), (0.0, int), ("1", int), ("0.5", float),
                        (1, bool), ("true", bool), (None, float), ([1], int)]:
        with pytest.raises(TypeError):
            data.json_field(value, kind)


def test_mine_k1_batch_yields_no_triplets():
    # two identities with a single sample each: no positives exist
    spec = small_spec(n_superclusters=2, identities_per_supercluster=1,
                      samples_per_identity=1, input_dim=3)
    ds = generate_hierarchical(spec)
    batch = sample_pk_batch(ds, 2, 1, Rng(0))
    emb = ds.X[batch.entries]
    for strategy in ("all", "semi_hard", "random_per_anchor"):
        tri = mine_triplets(batch, emb, strategy, _words(batch, strategy, 1))
        assert tri.shape == (0, 3)


@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.0])
def test_dataset_header_spec_with_a_bad_seed_is_a_format_error(tmp_path, seed):
    path = tmp_path / "ds.jsonl"
    save_dataset_jsonl(generate_hierarchical(small_spec()), path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["spec"]["seed"] = seed
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: bad header spec: seed "):
        load_dataset_jsonl(path)


@pytest.mark.parametrize("edit", [
    lambda spec: spec.update(bogus=1),
    lambda spec: spec.pop("sample_noise"),
    lambda spec: spec.update(n_superclusters="four"),
    lambda spec: spec.update(input_dim=2.5),
    lambda spec: spec.update(identity_spread=5.0),
    lambda spec: spec.update(supercluster_spread=10**400),
])
def test_dataset_jsonl_bad_header_spec_rejected(tmp_path, edit):
    ds = generate_hierarchical(small_spec())
    path = tmp_path / "ds.jsonl"
    save_dataset_jsonl(ds, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    edit(header["spec"])
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(FormatError):
        load_dataset_jsonl(path)


def _four_rows():
    return IdentityDataset([0, 1, 2, 3], [0, 0, 1, 1], np.eye(4))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: data.IdIndex(np.array([], dtype=np.int64), "a table"),
                 ContractViolation, "no sample ids in a table", id="IdIndex-no-ids"),
    pytest.param(lambda: IdentityDataset([], [], np.zeros((0, 2))), ContractViolation,
                 "dataset must contain at least one sample", id="dataset-empty"),
    pytest.param(lambda: IdentityDataset([0, 1], [0], np.zeros((2, 2))), ContractViolation,
                 "sample_ids/labels must align with features", id="dataset-misaligned"),
    pytest.param(lambda: PkBatch(2, 2, [0, 1, 2], [0, 0, 1]), ContractViolation,
                 "batch arrays must have p*k entries", id="PkBatch-length"),
    pytest.param(lambda: PkBatch(2, 2, [0, 1, 2, 3], [0, 0, 0, 1]), ContractViolation,
                 "batch must hold exactly p identities, k samples each", id="PkBatch-counts"),
    pytest.param(lambda: PkBatch(2, 2, [0, 1, 2, 3], [0, 1, 0, 1]), ContractViolation,
                 "batch labels must be p blocks of k equal labels", id="PkBatch-interleaved"),
    pytest.param(lambda: sample_pk_batch(_four_rows(), 0, 2, Rng(0)), ContractViolation,
                 "p and k must be >= 1", id="sample_pk_batch-p0"),
    pytest.param(lambda: data.pk_batches(_four_rows(), 2, 0, np.zeros((1, 2), np.uint64)),
                 ContractViolation, "p and k must be >= 1", id="pk_batches-k0"),
    pytest.param(lambda: mine_triplets(PkBatch(2, 2, [0, 1, 2, 3], [0, 0, 1, 1]), np.eye(4),
                                       "random_per_anchor"),
                 ContractViolation, "random_per_anchor mining of a 2 x 2 batch reads 8 words, "
                 "got 0", id="random_per_anchor-no-words"),
    pytest.param(lambda: mine_triplets(PkBatch(2, 2, [0, 1, 2, 3], [0, 0, 1, 1]), np.eye(4),
                                       "random_per_anchor", np.zeros(9, dtype=np.uint64)),
                 ContractViolation, "random_per_anchor mining of a 2 x 2 batch reads 8 words, "
                 "got 9", id="random_per_anchor-extra-word"),
    pytest.param(lambda: mine_triplets(PkBatch(2, 2, [0, 1, 2, 3], [0, 0, 1, 1]), np.eye(4),
                                       "semi_hard", np.zeros(1, dtype=np.uint64)),
                 ContractViolation, "semi_hard mining of a 2 x 2 batch reads 0 words, got 1",
                 id="semi_hard-a-word"),
])
def test_data_contract_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
