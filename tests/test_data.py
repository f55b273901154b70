import json

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
    sample_pk_batch,
    save_dataset_companion,
    save_dataset_jsonl,
)
from margindistill.errors import (
    CapacityError,
    ContractViolation,
    FormatError,
    NoTripletsError,
)
from margindistill.numerics import Rng, pairwise_sq_euclidean

from oracles import (
    brute_force_all_triplets,
    brute_force_semi_hard,
    nested_loop_generate,
    per_anchor_mining,
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


def test_dataset_invariants_enforced():
    with pytest.raises(ContractViolation):
        IdentityDataset([0, 0], [1, 1], np.zeros((2, 3)))  # duplicate ids
    with pytest.raises(ContractViolation):
        IdentityDataset([0, 1], [1, 1], np.array([[np.inf, 0], [0, 0]]))


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


def _batch_and_embeddings(p=3, k=2, seed=0):
    spec = small_spec(n_superclusters=1, identities_per_supercluster=p,
                      samples_per_identity=k, input_dim=4)
    ds = generate_hierarchical(spec)
    batch = sample_pk_batch(ds, p, k, Rng(seed))
    emb = ds.X[batch.entries]  # raw features stand in for embeddings
    return batch, emb


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
    t1 = mine_triplets(batch, emb, "random_per_anchor", Rng(4))
    t2 = mine_triplets(batch, emb, "random_per_anchor", Rng(4))
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
        tri = mine_triplets(batch, emb, strategy, Rng(0))
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


@st.composite
def _pk_cases(draw):
    """A PK batch (identity-major or shuffled, k may be 1), embeddings of dim
    1-64 (random reals, or a small grid full of exact distance ties and signed
    zeros) at a scale from 1e-160 (products underflow) to 1e154 (sums
    overflow), and a seed."""
    p, k, dim = draw(st.integers(2, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    exponent = draw(st.one_of(st.sampled_from([-160, -155, 0, 152, 153, 154]),
                              st.floats(-160, 154)))
    gen = np.random.default_rng(seed)
    labels = np.repeat(np.arange(p) * 7 + 3, k)
    if draw(st.booleans()):
        labels = gen.permutation(labels)
    batch = PkBatch(p=p, k=k, entries=np.arange(p * k) + 100, labels=labels)
    if draw(st.booleans()):
        emb = gen.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(p * k, dim))
    else:
        emb = gen.standard_normal((p * k, dim))
    return batch, emb * 10.0 ** exponent, seed


@settings(max_examples=200, deadline=None)
@given(_pk_cases())
def test_mining_matches_per_anchor_loop_bitwise(case):
    batch, emb, seed = case
    for strategy in ("semi_hard", "random_per_anchor"):
        with np.errstate(over="ignore"):       # the exact distances overflow at 1e154
            got = mine_triplets(batch, emb, strategy, Rng(seed))
            want = per_anchor_mining(batch.labels, emb, strategy, Rng(seed))
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
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


def _exact_rows_of_semi_hard(monkeypatch, batch, emb):
    """Rows semi-hard mining recomputed with pairwise_sq_euclidean."""
    rows = []

    def exact(x, y=None):
        rows.append(len(x))
        return pairwise_sq_euclidean(x, y)

    monkeypatch.setattr(data, "pairwise_sq_euclidean", exact)
    tri = mine_triplets(batch, emb, "semi_hard")
    np.testing.assert_array_equal(tri, per_anchor_mining(batch.labels, emb, "semi_hard"))
    return sum(rows)


def _pk8x8():
    return PkBatch(p=8, k=8, entries=np.arange(64), labels=np.repeat(np.arange(8), 8))


def test_semi_hard_tie_grid_takes_exact_rows(monkeypatch):
    gen = np.random.default_rng(5)
    emb = gen.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(64, 4))
    assert _exact_rows_of_semi_hard(monkeypatch, _pk8x8(), emb) > 0


def test_identity_major_batches_take_the_cached_layout(monkeypatch):
    # the sampler's batches must not rebuild their label masks on every call
    batch, emb = _pk8x8(), np.random.default_rng(3).standard_normal((64, 16))
    layout = data._pk_layout(8, 8)
    assert not any(array.flags.writeable for array in layout)

    def rebuild(*args):
        raise AssertionError("label layout rebuilt for an identity-major batch")

    monkeypatch.setattr(data, "_label_layout", rebuild)
    for strategy in ("semi_hard", "random_per_anchor"):
        got = mine_triplets(batch, emb, strategy, Rng(4))
        np.testing.assert_array_equal(
            got, per_anchor_mining(batch.labels, emb, strategy, Rng(4)))
        assert got.flags.writeable
    got = mine_triplets(batch, emb, "all")
    np.testing.assert_array_equal(got, brute_force_all_triplets(batch.labels.tolist()))
    assert got.flags.writeable


@pytest.mark.parametrize("dim", [16, 32])
def test_semi_hard_unit_norm_batches_stay_on_gram_rows(monkeypatch, dim):
    # the training loop's case: certification must hold, or the fast path is gone
    gen = np.random.default_rng(dim)
    for _ in range(20):
        emb = gen.standard_normal((64, dim))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        assert _exact_rows_of_semi_hard(monkeypatch, _pk8x8(), emb) == 0


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
    save_dataset_companion(ds, path)
    monkeypatch.setattr(data, "_parse_records", _refuse_records)
    fast = load_dataset_jsonl(path)
    assert _bits(fast) == _bits(text) == _bits(ds)
    assert fast.X.flags.writeable and fast.identity_list == text.identity_list


def test_stale_companion_falls_back_to_the_text(tmp_path):
    ds = generate_hierarchical(small_spec())
    path = tmp_path / "ds.jsonl"
    save_dataset_jsonl(ds, path)
    save_dataset_companion(ds, path)
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
        tri = mine_triplets(batch, emb, strategy, Rng(1))
        assert tri.shape == (0, 3)


@pytest.mark.parametrize("edit", [
    lambda spec: spec.update(bogus=1),
    lambda spec: spec.pop("sample_noise"),
    lambda spec: spec.update(n_superclusters="four"),
    lambda spec: spec.update(input_dim=2.5),
    lambda spec: spec.update(identity_spread=5.0),
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
