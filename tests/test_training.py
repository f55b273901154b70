import hashlib
import json
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import margindistill.training as training
from margindistill import data
from margindistill.data import (
    HierarchySpec,
    IdentityDataset,
    PkBatch,
    generate_hierarchical,
    mine_triplets,
    sample_pk_batch,
    sample_pk_batches,
)
from margindistill.errors import CapacityError, ContractViolation
from margindistill.evaluation import build_pairs, verify
from margindistill.loss import MarginConfig, batch_loss
from margindistill.mlp import backward_batch, forward_batch, init_mlp
from margindistill.numerics import Rng, derive_subseed
from margindistill.teacher import TeacherOracle, tabulate, triplet_gaps
from margindistill.training import (
    DistillConfig,
    TeacherTrainConfig,
    TrainLog,
    distill,
    train_teacher,
)

from oracles import (
    add_at_batch_grad,
    central_diff_grad,
    list_sample_indices,
    pairwise_matrix_gaps,
    per_anchor_mining,
    per_iteration_triplet_loop,
)


def tiny_dataset(seed=0, **kw):
    base = dict(
        n_superclusters=2, identities_per_supercluster=3, samples_per_identity=6,
        input_dim=6, supercluster_spread=1.2, identity_spread=0.3,
        sample_noise=0.05, seed=seed,
    )
    base.update(kw)
    return generate_hierarchical(HierarchySpec(**base))


def _teacher_for(ds, seed=9):
    model = init_mlp((ds.input_dim, 12, 6), True, Rng(seed))
    return tabulate(TeacherOracle.from_model(model), ds)


@pytest.mark.parametrize("dims", [(6, 32, 32, 16), (6, 24, 24, 24, 12)])
def test_full_model_gradcheck_through_batch_loss(dims):
    """Backprop through normalization + layers vs finite differences of the
    真 training objective on a real mined batch."""
    ds = tiny_dataset()
    model = init_mlp(dims, True, Rng(3))
    batch = sample_pk_batch(ds, 3, 3, Rng(4))
    x = ds.X[batch.entries]
    cfg = MarginConfig.dynamic(0.2, 0.5)

    emb0, cache0 = forward_batch(model, x)
    triplets = mine_triplets(batch, emb0, "semi_hard")
    teacher = _teacher_for(ds)
    gaps = triplet_gaps(teacher.embed_rows(ds, batch.entries), triplets)

    result = batch_loss(emb0, triplets, gaps, cfg)
    grads = backward_batch(model, cache0, result.grad)

    for layer in [0, len(dims) - 2]:
        shape = model.weights[layer].shape

        def objective(flat):
            probe = model.copy()
            probe.weights[layer] = flat.reshape(shape)
            e, _ = forward_batch(probe, x)
            return batch_loss(e, triplets, gaps, cfg).loss

        fd = central_diff_grad(objective, model.weights[layer].ravel()).reshape(shape)
        denom = np.maximum(np.abs(fd), 1e-6)
        rel = np.abs(grads.weights[layer] - fd) / denom
        assert rel.max() <= 1e-4


def test_fast_steps_train_bitwise_like_per_anchor_add_at_and_matrix_gaps(monkeypatch):
    """300 dynamic and 300 fixed iterations give the same weight bytes and
    TrainLog when mining, the gradient scatter and the teacher gaps are
    swapped for the earlier per-anchor, np.add.at and distance-matrix code."""
    ds = generate_hierarchical(HierarchySpec(seed=11))
    teacher = tabulate(TeacherOracle.from_model(init_mlp((16, 24, 8), True, Rng(1))), ds)
    student = init_mlp((16, 32, 32, 16), True, Rng(2))
    configs = [DistillConfig(margin=MarginConfig.dynamic(0.6, 1.8), iterations=300, seed=3),
               DistillConfig(margin=MarginConfig.fixed(0.3), iterations=300, seed=3)]
    fast = [distill(ds, teacher, student, cfg) for cfg in configs]

    def add_at_loss(emb, triplets, gaps, margin):
        result = batch_loss(emb, triplets, gaps, margin)
        result.grad = add_at_batch_grad(emb, triplets, result.active)
        return result

    monkeypatch.setattr(training, "mine_triplets",
                        lambda batch, emb, strategy, rng: per_anchor_mining(
                            batch.labels, emb, strategy, rng))
    monkeypatch.setattr(training, "batch_loss", add_at_loss)
    monkeypatch.setattr(training, "triplet_gaps", pairwise_matrix_gaps)
    reference = [distill(ds, teacher, student, cfg) for cfg in configs]
    for (model, log), (ref_model, ref_log) in zip(fast, reference):
        assert len(log.loss) == 300
        for got, want in zip(model.weights + model.biases, ref_model.weights + ref_model.biases):
            assert got.tobytes() == want.tobytes()
        assert log == ref_log


def test_distill_zero_iterations_returns_student_unchanged():
    ds = tiny_dataset()
    teacher = _teacher_for(ds)
    student = init_mlp((6, 8, 4), True, Rng(1))
    cfg = DistillConfig(margin=MarginConfig.dynamic(0.2, 0.5), p=3, k=3, iterations=0, seed=0)
    trained, log = distill(ds, teacher, student, cfg)
    for w0, w1 in zip(student.weights, trained.weights):
        np.testing.assert_array_equal(w0, w1)
    assert log.iterations == []


def test_distill_does_not_mutate_input_student():
    ds = tiny_dataset()
    teacher = _teacher_for(ds)
    student = init_mlp((6, 8, 4), True, Rng(1))
    before = [w.copy() for w in student.weights]
    cfg = DistillConfig(margin=MarginConfig.fixed(0.3), p=3, k=3, iterations=20, seed=0)
    distill(ds, teacher, student, cfg)
    for w0, w1 in zip(before, student.weights):
        np.testing.assert_array_equal(w0, w1)


def test_fixed_margin_reduction_bitwise_trajectory():
    ds = tiny_dataset()
    teacher = _teacher_for(ds)
    student = init_mlp((6, 8, 4), True, Rng(2))
    m = 0.4
    base = dict(p=3, k=3, iterations=60, seed=0)
    t_dyn, log_dyn = distill(
        ds, teacher, student, DistillConfig(margin=MarginConfig.dynamic(m, m), **base)
    )
    t_fix, log_fix = distill(
        ds, teacher, student, DistillConfig(margin=MarginConfig.fixed(m), **base)
    )
    for wd, wf in zip(t_dyn.weights, t_fix.weights):
        assert wd.tobytes() == wf.tobytes()
    assert log_dyn.loss == log_fix.loss
    assert log_dyn.mean_margin == log_fix.mean_margin
    assert log_dyn.active_frac == log_fix.active_frac


def test_distill_descends_on_hierarchical_data():
    for seed in (0, 1):
        ds = tiny_dataset(seed=seed)
        teacher = _teacher_for(ds)
        student = init_mlp((6, 12, 6), True, Rng(seed + 10))
        cfg = DistillConfig(margin=MarginConfig.dynamic(0.2, 0.5), p=4, k=4, iterations=250,
                            seed=seed)
        _, log = distill(ds, teacher, student, cfg)
        first = np.mean(log.loss[:10])
        last = np.mean(log.loss[-10:])
        assert last < first


def test_distill_deterministic_runs():
    ds = tiny_dataset()
    teacher = _teacher_for(ds)
    student = init_mlp((6, 8, 4), True, Rng(5))
    cfg = DistillConfig(margin=MarginConfig.dynamic(0.2, 0.5), p=3, k=3, iterations=40, seed=3)
    t1, log1 = distill(ds, teacher, student, cfg)
    t2, log2 = distill(ds, teacher, student, cfg)
    for w1, w2 in zip(t1.weights, t2.weights):
        assert w1.tobytes() == w2.tobytes()
    assert log1.loss == log2.loss


def test_teacher_frozen_through_distill():
    ds = tiny_dataset()
    teacher = _teacher_for(ds)

    def digest():
        h = hashlib.sha256()
        h.update(teacher.vectors.tobytes())
        return h.hexdigest()

    before = digest()
    student = init_mlp((6, 8, 4), True, Rng(6))
    distill(ds, teacher, student,
            DistillConfig(margin=MarginConfig.dynamic(0.2, 0.5), p=3, k=3, iterations=30, seed=1))
    assert digest() == before


def test_distill_logged_margins_within_bounds():
    ds = tiny_dataset()
    teacher = _teacher_for(ds)
    student = init_mlp((6, 12, 6), True, Rng(7))
    m_min, m_max = 0.25, 0.55
    cfg = DistillConfig(margin=MarginConfig.dynamic(m_min, m_max), p=3, k=3, iterations=50, seed=2)
    _, log = distill(ds, teacher, student, cfg)
    assert all(m_min <= m <= m_max for m in log.mean_margin)


def test_distill_config_validation():
    with pytest.raises(ContractViolation):
        DistillConfig(margin=MarginConfig.fixed(0.3), p=1)
    with pytest.raises(ContractViolation):
        DistillConfig(margin=MarginConfig.fixed(0.3), iterations=-1)
    with pytest.raises(ContractViolation):
        DistillConfig(margin=MarginConfig.fixed(0.3), mining="bogus")


@pytest.mark.parametrize("field, value", [
    ("mining", "bogus"),
    ("p", 1),
    ("k", 1),
    ("iterations", -3),
    ("accuracy_floor", 7.0),
    ("accuracy_floor", -0.1),
    ("margin", -0.1),
    ("margin", float("inf")),
    ("embed_dim", 0),
    ("hidden_dims", (16, 0)),
])
def test_teacher_config_validation(field, value):
    with pytest.raises(ContractViolation):
        TeacherTrainConfig(**{field: value})


@pytest.mark.parametrize("iterations", [0, 10])
@pytest.mark.parametrize("settings", [
    {"learning_rate": -1.0, "momentum": 5.0},
    {"learning_rate": 0.0},
    {"learning_rate": float("nan")},
    {"learning_rate": float("inf")},
    {"momentum": -0.1},
    {"momentum": 1.0},
    {"momentum": float("nan")},
])
def test_optimizer_settings_are_checked_when_the_config_is_built(iterations, settings):
    # when the config is built, not later in the loop's init_sgd
    with pytest.raises(ContractViolation):
        DistillConfig(margin=MarginConfig.fixed(0.3), iterations=iterations, **settings)
    with pytest.raises(ContractViolation):
        TeacherTrainConfig(iterations=iterations, **settings)


@settings(max_examples=200, deadline=None)
@given(p=st.integers(2, 6), k=st.integers(2, 6), dim=st.integers(1, 8), shuffled=st.booleans(),
       special=st.sampled_from([0.0, 0.1, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_every_pk_batch_mines_a_fixed_triplet_count(p, k, dim, shuffled, special, seed):
    # the loop trains on every batch it draws: with p, k >= 2 no strategy mines
    # zero triplets, whatever the embeddings hold
    gen = np.random.default_rng(seed)
    labels = np.repeat(np.arange(p) * 3 + 1, k)
    if shuffled:
        labels = gen.permutation(labels)
    batch = PkBatch(p=p, k=k, entries=np.arange(p * k), labels=labels)
    emb = gen.standard_normal((p * k, dim))
    where = gen.random(emb.shape) < special          # this share of NaN and +-inf
    emb[where] = gen.choice([np.nan, np.inf, -np.inf], size=int(where.sum()))
    counts = {"semi_hard": p * k * (k - 1), "all": p * k * (k - 1) * (p - 1) * k,
              "random_per_anchor": p * k}
    with np.errstate(over="ignore", invalid="ignore"):
        for strategy, count in counts.items():
            assert mine_triplets(batch, emb, strategy, Rng(seed)).shape == (count, 3)


# ---------------------------------------------------------------------------
# PK batches drawn a chunk of iterations at a time
# ---------------------------------------------------------------------------

@st.composite
def _pk_datasets(draw):
    """(dataset, p, k, seed): identities of uneven size with rows and ids in
    shuffled order.  From p - 1 to p + 6 identities have more than k samples,
    and up to four have k or fewer, so some datasets hold identities of
    exactly k samples, exactly p eligible identities, or too few."""
    p, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(k + 1, k + 6), min_size=p - 1, max_size=p + 6))
    sizes += draw(st.lists(st.integers(1, k), min_size=0 if sizes else 1, max_size=4))
    seed = draw(st.integers(0, 2**64 - 1))
    gen = np.random.default_rng(seed % 2**32)
    labels = gen.permutation(np.repeat(np.arange(len(sizes)) * 3 + 1, sizes))
    ds = IdentityDataset(gen.permutation(labels.size) + 50, labels,
                         gen.standard_normal((labels.size, 2)))
    return ds, p, k, seed


def _assert_same_batches(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.p, g.k) == (w.p, w.k)
        assert g.entries.dtype == w.entries.dtype and g.labels.dtype == w.labels.dtype
        np.testing.assert_array_equal(g.entries, w.entries)
        np.testing.assert_array_equal(g.labels, w.labels)


def _per_batch_draws(ds, p, k, rng, count):
    """count sample_pk_batch calls, or None if the dataset cannot fill a batch."""
    try:
        return [sample_pk_batch(ds, p, k, rng) for _ in range(count)]
    except CapacityError:
        return None


def _refuse(*args):
    raise AssertionError("a PK batch was sampled one batch at a time")


@settings(max_examples=150, deadline=None)
@given(_pk_datasets(), st.integers(0, 9))
def test_pk_schedule_equals_per_batch_draws(case, count):
    """Every batch is decoded from the bulk words, also where an eligible identity has
    exactly k rows or exactly p identities are eligible: randint(1) takes a word."""
    ds, p, k, seed = case
    rng, ref = Rng(seed), Rng(seed)
    want = _per_batch_draws(ds, p, k, ref, count)
    sizes = ds.identity_sizes[ds.identity_sizes >= k]
    event("too few eligible" if want is None else "exactly p eligible" if sizes.size == p
          else "more than p eligible")
    event(f"an eligible identity of exactly k rows: {bool(np.any(sizes == k))}")
    with mock.patch.object(data, "sample_pk_batch", _refuse):
        if want is None:
            with pytest.raises(CapacityError):
                sample_pk_batches(ds, p, k, rng, count)
            return
        _assert_same_batches(sample_pk_batches(ds, p, k, rng, count), want)
    assert rng._s == ref._s


def test_pk_schedule_rejects_a_negative_count():
    ds = tiny_dataset()
    for p in (3, 6):                             # bulk draws, then per-batch draws
        with pytest.raises(ContractViolation):
            sample_pk_batches(ds, p, 3, Rng(0), -1)


@settings(max_examples=40, deadline=None)
@given(_pk_datasets(), st.sampled_from([1, 2, 1023, 1024, 1025]))
def test_loop_batches_equal_per_iteration_draws_across_chunks(case, iterations):
    ds, p, k, seed = case
    cfg = SimpleNamespace(p=p, k=k, iterations=iterations, mining="semi_hard")
    rng, ref = Rng(seed), Rng(seed)
    want = _per_batch_draws(ds, p, k, ref, iterations)
    if want is None:
        with pytest.raises(CapacityError):
            list(training._pk_batches(ds, cfg, rng))
        return
    _assert_same_batches(list(training._pk_batches(ds, cfg, rng)), want)
    assert rng._s == ref._s


def _counting_sampler(monkeypatch, module=training):
    calls = []

    def counted(*args):
        calls.append(1)
        return sample_pk_batch(*args)

    monkeypatch.setattr(module, "sample_pk_batch", counted)
    return calls


def test_rejected_first_word_gives_the_same_batches_and_state(monkeypatch):
    # 2^64 - 1, the one word a rejection rule for randint(6) would redraw, is kept
    ds = tiny_dataset()                          # 6 identities
    mask = 2**64 - 1
    out = mask * pow(9, -1, 2**64) & mask        # next word = rotl(s1 * 5, 7) * 9
    s1 = ((out >> 7) | (out << 57)) & mask
    state = [1, s1 * pow(5, -1, 2**64) & mask, 2, 3]
    rng, probe, ref = Rng(0), Rng(0), Rng(0)
    rng._s, probe._s, ref._s = list(state), list(state), list(state)
    assert probe.next_uint64() == mask
    want = _per_batch_draws(ds, 3, 3, ref, 4)
    calls = _counting_sampler(monkeypatch, data)
    _assert_same_batches(sample_pk_batches(ds, 3, 3, rng, 4), want)
    assert not calls and rng._s == ref._s


def test_random_per_anchor_batches_are_drawn_between_minings():
    ds = tiny_dataset()
    cfg = SimpleNamespace(p=3, k=3, iterations=5, mining="random_per_anchor")
    rng, ref = Rng(1), Rng(1)
    first = next(training._pk_batches(ds, cfg, rng))
    _assert_same_batches([first], [sample_pk_batch(ds, 3, 3, ref)])
    assert rng._s == ref._s                      # nothing drawn ahead of mining


@pytest.mark.filterwarnings("ignore:under-trained teacher")
@pytest.mark.parametrize("mining", ["semi_hard", "all", "random_per_anchor"])
def test_loop_trains_bitwise_like_per_iteration_sampling(monkeypatch, mining):
    """train_teacher and distill (fixed and dynamic) give the same weight bytes
    and TrainLogs as the loop that samples one batch per iteration with the
    list-form sample_indices; chunks of 16 put four chunk boundaries in a run."""
    ds = tiny_dataset(seed=5)
    tcfg = TeacherTrainConfig(hidden_dims=(12,), embed_dim=6, iterations=70, p=3, k=3,
                              mining=mining, floor_pairs=20)
    student = init_mlp((6, 10, 4), True, Rng(2))
    configs = [DistillConfig(margin=margin, p=3, k=3, iterations=70, mining=mining, seed=3)
               for margin in (MarginConfig.dynamic(0.2, 0.5), MarginConfig.fixed(0.3))]

    def run():
        teacher, teacher_log = train_teacher(ds, tcfg, seed=4)
        students = [distill(ds, teacher, student, cfg) for cfg in configs]
        return [(teacher.model, teacher_log), *students], teacher.vectors

    monkeypatch.setattr(training, "SCHEDULE_CHUNK", 16)
    calls = _counting_sampler(monkeypatch)
    fast, fast_vectors = run()
    assert len(calls) == (210 if mining == "random_per_anchor" else 0)
    monkeypatch.setattr(training, "_run_triplet_loop", per_iteration_triplet_loop)
    monkeypatch.setattr(Rng, "sample_indices", list_sample_indices)
    reference, reference_vectors = run()
    assert fast_vectors.tobytes() == reference_vectors.tobytes()
    for (model, log), (ref_model, ref_log) in zip(fast, reference):
        assert log.iterations == list(range(70)) and not log.skipped
        for got, want in zip(model.weights + model.biases, ref_model.weights + ref_model.biases):
            assert got.tobytes() == want.tobytes()
        assert log == ref_log


@pytest.mark.filterwarnings("ignore:under-trained teacher")
def test_semi_hard_training_at_default_spec_draws_the_schedule(monkeypatch):
    # the loop's case: if it fell back to per-iteration sampling, the speedup is gone
    monkeypatch.setattr(training, "sample_pk_batch", _refuse)
    ds = generate_hierarchical(HierarchySpec(seed=6))
    teacher, _ = train_teacher(ds, TeacherTrainConfig(iterations=30, floor_pairs=20), seed=1)
    student = init_mlp((16, 32, 32, 16), True, Rng(2))
    for margin in (MarginConfig.dynamic(0.6, 1.8), MarginConfig.fixed(0.3)):
        _, log = distill(ds, teacher, student, DistillConfig(margin=margin, iterations=50))
        assert log.iterations == list(range(50)) and not log.skipped


# ---------------------------------------------------------------------------
# train_teacher
# ---------------------------------------------------------------------------

def test_train_teacher_two_far_identities_reaches_perfect_accuracy():
    ds = generate_hierarchical(HierarchySpec(
        n_superclusters=2, identities_per_supercluster=1, samples_per_identity=10,
        input_dim=5, supercluster_spread=3.0, identity_spread=0.5,
        sample_noise=0.05, seed=4,
    ))
    cfg = TeacherTrainConfig(
        hidden_dims=(16,), embed_dim=8, iterations=200, p=2, k=4, floor_pairs=20,
    )
    oracle, log = train_teacher(ds, cfg, seed=0)
    assert oracle.warning is None
    pairs = build_pairs(ds, 20, 20, Rng(77))
    assert verify(oracle, ds, pairs).best_accuracy == 1.0


def test_train_teacher_deterministic():
    ds = tiny_dataset()
    cfg = TeacherTrainConfig(hidden_dims=(12,), embed_dim=6, iterations=50, p=3, k=3,
                             floor_pairs=20)
    o1, _ = train_teacher(ds, cfg, seed=5)
    o2, _ = train_teacher(ds, cfg, seed=5)
    assert o1.vectors.tobytes() == o2.vectors.tobytes()
    for w1, w2 in zip(o1.model.weights, o2.model.weights):
        assert w1.tobytes() == w2.tobytes()


def test_train_teacher_zero_iterations_warns():
    ds = tiny_dataset()
    cfg = TeacherTrainConfig(hidden_dims=(12,), embed_dim=6, iterations=0, p=3, k=3,
                             floor_pairs=20)
    with pytest.warns(UserWarning, match="under-trained"):
        oracle, log = train_teacher(ds, cfg, seed=0)
    assert oracle.warning is not None
    assert log.iterations == []
    # still a usable frozen oracle
    assert oracle.vectors.shape == (ds.n_samples, 6)


@pytest.mark.parametrize("iterations, floor", [(0, 0.0), (0, 1.0), (40, 0.0), (40, 1.0)])
def test_train_teacher_warning_claims_only_what_holds(iterations, floor):
    ds = tiny_dataset()
    cfg = TeacherTrainConfig(hidden_dims=(12,), embed_dim=6, iterations=iterations, p=3, k=3,
                             floor_pairs=20, accuracy_floor=floor)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        oracle, _ = train_teacher(ds, cfg, seed=0)
    pos, neg = ds.pair_capacity()
    pairs = build_pairs(ds, min(20, pos), min(20, neg), Rng(derive_subseed(0, "teacher-floor")))
    accuracy = verify(oracle, ds, pairs).best_accuracy
    message = oracle.warning or ""
    assert [str(w.message) for w in caught] == ([message] if message else [])
    assert ("0 iterations" in message) == (iterations == 0)
    below = f"verification accuracy {accuracy:.3f} below floor {floor:.3f}"
    assert (below in message) == (accuracy < floor)
    assert message.count("floor") == (accuracy < floor)


# ---------------------------------------------------------------------------
# train log file format
# ---------------------------------------------------------------------------

def test_train_log_jsonl_roundtrip(tmp_path):
    log = TrainLog()
    log.append(0, 0.5, 0.3, 0.9)
    log.append(1, 0.4, 0.31, 0.8)
    path = tmp_path / "log.jsonl"
    log.write_jsonl(path)
    records = [json.loads(ln) for ln in path.read_text().splitlines()]
    assert records == [
        {"iter": 0, "loss": 0.5, "mean_margin": 0.3, "active_frac": 0.9},
        {"iter": 1, "loss": 0.4, "mean_margin": 0.31, "active_frac": 0.8},
    ]
