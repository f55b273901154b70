"""Teacher pre-training and the triplet-distillation fine-tuning loop.

Both phases share one engine: sample a PK batch, embed it with the student,
mine triplets, compute the batch loss (with per-triplet teacher gaps and the
batch-maximum gap in dynamic mode), backpropagate, and take an SGD step.
The loop and its matrix products run on the calling thread, runs are fully
determined by (dataset, config, seed), and the teacher oracle is read-only
throughout.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import evaluation
from .data import (
    IdentityDataset,
    MINING_STRATEGIES,
    mine_triplets,
    sample_pk_batch,
    sample_pk_batches,
)
from .errors import ContractViolation, DivergenceError
from .loss import MarginConfig, batch_loss
from .mlp import (MlpModel, backward_batch, check_sgd, forward_batch, init_mlp, init_sgd,
                  sgd_step)
# pairwise_sq_euclidean is unused here, but perfbench's tracer patches this name
from .numerics import Rng, derive_subseed, one_blas_thread, pairwise_sq_euclidean  # noqa: F401
from .teacher import TeacherOracle, tabulate, triplet_gaps

SCHEDULE_CHUNK = 1024        # iterations whose PK batches are drawn at once


def _check_loop(cfg) -> None:
    """Settings the training loop shares between teacher and distillation configs."""
    if cfg.p < 2 or cfg.k < 2:
        raise ContractViolation("training needs p >= 2 and k >= 2")
    if cfg.iterations < 0:
        raise ContractViolation("iterations must be >= 0")
    if cfg.mining not in MINING_STRATEGIES:
        raise ContractViolation(f"unknown mining strategy {cfg.mining!r}")
    check_sgd(cfg.learning_rate, cfg.momentum)


@dataclass(frozen=True)
class DistillConfig:
    margin: MarginConfig
    p: int = 8
    k: int = 8
    iterations: int = 2500
    learning_rate: float = 0.001
    momentum: float = 0.9
    mining: str = "semi_hard"
    seed: int = 0

    def __post_init__(self):
        _check_loop(self)


@dataclass(frozen=True)
class TeacherTrainConfig:
    hidden_dims: tuple[int, ...] = (128, 128, 128)
    embed_dim: int = 32
    margin: float = 0.3
    learning_rate: float = 0.01
    momentum: float = 0.9
    iterations: int = 1500
    p: int = 8
    k: int = 8
    mining: str = "semi_hard"
    accuracy_floor: float = 0.95
    floor_pairs: int = 200

    def __post_init__(self):
        _check_loop(self)
        MarginConfig.fixed(self.margin)           # finite and >= 0
        if not 0.0 <= self.accuracy_floor <= 1.0:
            raise ContractViolation("accuracy_floor must lie in [0, 1]")
        if self.embed_dim < 1 or any(h < 1 for h in self.hidden_dims):
            raise ContractViolation("teacher layer dims must be >= 1")


@dataclass
class TrainLog:
    iterations: list[int] = field(default_factory=list)
    loss: list[float] = field(default_factory=list)
    mean_margin: list[float] = field(default_factory=list)
    active_frac: list[float] = field(default_factory=list)
    # never filled by the loop (every PK batch mines triplets); perfbench reads its length
    skipped: list[int] = field(default_factory=list)

    def append(self, it: int, loss: float, mean_margin: float, active_frac: float) -> None:
        self.iterations.append(it)
        self.loss.append(loss)
        self.mean_margin.append(mean_margin)
        self.active_frac.append(active_frac)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for it, loss, margin, frac in zip(self.iterations, self.loss, self.mean_margin,
                                              self.active_frac):
                record = {"iter": it, "loss": loss, "mean_margin": margin, "active_frac": frac}
                fh.write(json.dumps(record) + "\n")


def _pk_batches(ds: IdentityDataset, cfg, rng: Rng):
    """The loop's batches: one ``sample_pk_batch`` draw per iteration, in order.
    Unless mining draws between batches, chunks of up to SCHEDULE_CHUNK iterations
    are drawn at once by ``sample_pk_batches``, with the same batches and state."""
    if cfg.mining == "random_per_anchor":
        for _ in range(cfg.iterations):
            yield sample_pk_batch(ds, cfg.p, cfg.k, rng)
        return
    for start in range(0, cfg.iterations, SCHEDULE_CHUNK):
        yield from sample_pk_batches(ds, cfg.p, cfg.k, rng,
                                     min(SCHEDULE_CHUNK, cfg.iterations - start))


def _run_triplet_loop(
    model: MlpModel,
    ds: IdentityDataset,
    cfg: TeacherTrainConfig | DistillConfig,
    margin: MarginConfig,
    rng: Rng,
    teacher_vectors: np.ndarray | None = None,
) -> TrainLog:
    """Shared training engine; mutates model in place.  cfg supplies p, k,
    iterations, learning_rate, momentum and mining."""
    log = TrainLog()
    sgd = init_sgd(model, cfg.learning_rate, cfg.momentum)
    with one_blas_thread():
        for it, batch in enumerate(_pk_batches(ds, cfg, rng)):
            # overflow or NaN in the embeddings reaches the loss, which is checked below
            with np.errstate(over="ignore", invalid="ignore"):
                emb, cache = forward_batch(model, ds.X[batch.entries])
                triplets = mine_triplets(batch, emb, cfg.mining, rng)
                gaps = None
                if margin.mode == "dynamic":
                    gaps = triplet_gaps(teacher_vectors[batch.entries], triplets)
                result = batch_loss(emb, triplets, gaps, margin)
            if not math.isfinite(result.loss):
                raise DivergenceError(
                    f"training diverged: loss {result.loss} at iteration {it} "
                    f"with learning_rate {cfg.learning_rate}"
                )
            grads = backward_batch(model, cache, result.grad)
            sgd_step(sgd, model, grads)
            margins, active = result.margins, result.active
            log.append(it, result.loss, float(margins.sum() / margins.size),
                       float(np.count_nonzero(active) / active.size))
    return log


def train_teacher(
    ds: IdentityDataset,
    cfg: TeacherTrainConfig = TeacherTrainConfig(),
    seed: int = 0,
) -> tuple[TeacherOracle, TrainLog]:
    """Train the larger MLP with a fixed margin, freeze it, and tabulate it.

    The returned oracle is table-backed (one embedding per dataset sample)
    and keeps a reference to the frozen model for checkpointing.  If it ran
    0 iterations or its training-set verification accuracy misses
    cfg.accuracy_floor, the oracle carries an under-trained warning naming
    the reason instead of failing.
    """
    rng = Rng(seed)
    model = init_mlp((ds.input_dim, *cfg.hidden_dims, cfg.embed_dim), True, rng)
    log = _run_triplet_loop(model, ds, cfg, MarginConfig.fixed(cfg.margin), rng)
    oracle = tabulate(TeacherOracle.from_model(model), ds)
    pos_available, neg_available = ds.pair_capacity()
    pairs = evaluation.build_pairs(
        ds, min(cfg.floor_pairs, pos_available), min(cfg.floor_pairs, neg_available),
        Rng(derive_subseed(seed, "teacher-floor")),
    )
    accuracy = evaluation.verify(oracle, ds, pairs).best_accuracy
    reasons = []
    if cfg.iterations == 0:
        reasons.append("0 iterations")
    if accuracy < cfg.accuracy_floor:
        reasons.append(
            f"verification accuracy {accuracy:.3f} below floor {cfg.accuracy_floor:.3f}"
        )
    if reasons:
        message = "under-trained teacher: " + "; ".join(reasons)
        warnings.warn(message)
        oracle.warning = message
    return oracle, log


def distill(
    ds: IdentityDataset,
    teacher: TeacherOracle,
    student: MlpModel,
    cfg: DistillConfig,
) -> tuple[MlpModel, TrainLog]:
    """Fine-tune a copy of the student against the frozen teacher's margins.

    In dynamic mode every mined triplet gets the margin F(gap) with the
    batch-maximum gap as d_max; fixed mode ignores the teacher entirely so a
    (m, m) dynamic run and a fixed-m run follow bitwise-identical
    trajectories.  The input student is left untouched.
    """
    if ds.input_dim != student.input_dim:
        raise ContractViolation("student input dim disagrees with the dataset")
    trained = student.copy()
    teacher_vectors = None
    if cfg.margin.mode == "dynamic":
        teacher_vectors = tabulate(teacher, ds).embed_rows(ds, np.arange(ds.n_samples))
    log = _run_triplet_loop(trained, ds, cfg, cfg.margin, Rng(cfg.seed), teacher_vectors)
    return trained, log
