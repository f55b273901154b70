import hashlib

import numpy as np
import pytest

import margindistill.training as training
from margindistill.data import HierarchySpec, generate_hierarchical, mine_triplets, sample_pk_batch
from margindistill.errors import ContractViolation, StagnationError
from margindistill.evaluation import build_pairs, verify
from margindistill.loss import MarginConfig, batch_loss
from margindistill.mlp import backward_batch, forward_batch, init_mlp
from margindistill.numerics import Rng
from margindistill.teacher import TeacherOracle, tabulate, triplet_gaps
from margindistill.training import (
    DistillConfig,
    TeacherTrainConfig,
    TrainLog,
    distill,
    train_teacher,
)

from oracles import add_at_batch_grad, central_diff_grad, pairwise_matrix_gaps, per_anchor_mining


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
        cfg = DistillConfig(margin=MarginConfig.dynamic(0.2, 0.5), p=4, k=4, iterations=250, seed=seed)
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
    distill(ds, teacher, student, DistillConfig(margin=MarginConfig.dynamic(0.2, 0.5), p=3, k=3, iterations=30, seed=1))
    assert digest() == before


def test_distill_logged_margins_within_bounds():
    ds = tiny_dataset()
    teacher = _teacher_for(ds)
    student = init_mlp((6, 12, 6), True, Rng(7))
    m_min, m_max = 0.25, 0.55
    cfg = DistillConfig(margin=MarginConfig.dynamic(m_min, m_max), p=3, k=3, iterations=50, seed=2)
    _, log = distill(ds, teacher, student, cfg)
    assert all(m_min <= m <= m_max for m in log.mean_margin)


def test_distill_eval_every_records_points():
    ds = tiny_dataset()
    teacher = _teacher_for(ds)
    student = init_mlp((6, 8, 4), True, Rng(8))
    cfg = DistillConfig(
        margin=MarginConfig.fixed(0.3), p=3, k=3, iterations=30, seed=0, eval_every=10
    )
    _, log = distill(ds, teacher, student, cfg)
    assert [it for it, _ in log.eval_points] == [9, 19, 29]
    assert all(0.0 <= acc <= 1.0 for _, acc in log.eval_points)


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


def test_stagnation_error_after_50_empty_batches(monkeypatch):
    ds = tiny_dataset()
    teacher = _teacher_for(ds)
    student = init_mlp((6, 8, 4), True, Rng(9))
    empty = np.zeros((0, 3), dtype=np.int64)
    monkeypatch.setattr(training, "mine_triplets", lambda *a, **k: empty)
    cfg = DistillConfig(margin=MarginConfig.fixed(0.3), p=3, k=3, iterations=200, seed=0)
    with pytest.raises(StagnationError):
        distill(ds, teacher, student, cfg)


def test_empty_batches_are_logged_and_skipped(monkeypatch):
    ds = tiny_dataset()
    teacher = _teacher_for(ds)
    student = init_mlp((6, 8, 4), True, Rng(9))
    real = training.mine_triplets
    empty = np.zeros((0, 3), dtype=np.int64)
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            return empty
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "mine_triplets", flaky)
    cfg = DistillConfig(margin=MarginConfig.fixed(0.3), p=3, k=3, iterations=30, seed=0)
    trained, log = distill(ds, teacher, student, cfg)
    assert len(log.skipped) == 10
    assert len(log.iterations) == 20


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


# ---------------------------------------------------------------------------
# train log file format
# ---------------------------------------------------------------------------

def test_train_log_jsonl_roundtrip(tmp_path):
    log = TrainLog()
    log.append(0, 0.5, 0.3, 0.9)
    log.skipped.append(1)
    log.append(2, 0.4, 0.31, 0.8)
    path = tmp_path / "log.jsonl"
    log.write_jsonl(path)
    back = TrainLog.read_jsonl(path)
    assert back.iterations == [0, 2]
    assert back.loss == [0.5, 0.4]
    assert back.skipped == [1]
    lines = path.read_text().splitlines()
    assert len(lines) == 3
