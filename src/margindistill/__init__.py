"""Metric-learning toolkit: triplet training with teacher-distilled dynamic margins."""

from .data import (
    HierarchySpec,
    IdentityDataset,
    PkBatch,
    generate_hierarchical,
    load_dataset_jsonl,
    mine_triplets,
    sample_pk_batch,
    save_dataset_jsonl,
)
from .errors import (
    CapacityError,
    ContractViolation,
    DegenerateInput,
    DivergenceError,
    FormatError,
    InsufficientData,
    MarginDistillError,
    NoTripletsError,
    UnknownSampleError,
)
from .evaluation import (
    PairSet,
    VerificationReport,
    build_pairs,
    centroid_distance_matrix,
    spearman,
    structure_correlation,
    threshold_sweep,
    verify,
)
from .loss import BatchLossResult, MarginConfig, batch_loss
from .mlp import (
    MlpModel,
    SgdState,
    backward_batch,
    embed,
    forward_batch,
    init_mlp,
    init_sgd,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from .numerics import Rng, derive_subseed, pairwise_sq_euclidean
from .teacher import (
    CalibrationReport,
    TeacherOracle,
    calibrate_margins,
    load_embedding_table,
    save_embedding_table,
    tabulate,
    triplet_gaps,
)
from .training import DistillConfig, TeacherTrainConfig, TrainLog, distill, train_teacher

__version__ = "0.1.0"
