"""Frozen teacher oracle, teacher distance gaps, and margin calibration.

The teacher is frozen and is only asked for distances between training
samples, so a TeacherOracle is an embedding table keyed by sample id.  A
model recorded with ``from_model`` is forwarded once over the dataset by
``tabulate``; every query then reads the table.  The distance is fixed to
squared Euclidean on unit-norm outputs, the same convention the student
trains under, so teacher gaps and the student's hinge live on one scale.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .data import IdentityDataset, IdIndex, json_field
from .errors import (
    CapacityError,
    ContractViolation,
    FormatError,
)
from .mlp import MlpModel, embed
from .numerics import Rng, pairwise_sq_euclidean

TABLE_MAGIC = b"TFEMB1"
UNIT_NORM_TOL = 1e-6
_TABLE_HEADER = struct.Struct("<II")


def _table_record(dim: int) -> np.dtype:
    """One TFEMB1 record: u32 identity, u32 sample id, dim little-endian f32 values."""
    return np.dtype([("identity", "<u4"), ("sample", "<u4"), ("vector", "<f4", (dim,))])


class TeacherOracle:
    """Immutable embedding table; construct via from_table, or from_model + tabulate."""

    def __init__(self, dim: int, *, model=None, sample_ids=None, identities=None,
                 vectors=None, warning: str | None = None):
        self.dim = int(dim)
        self.model = model
        self.warning = warning
        self.sample_ids = self.identities = self.vectors = None
        if vectors is None:
            return
        self.sample_ids = np.asarray(sample_ids, dtype=np.int64)
        self.identities = np.asarray(identities, dtype=np.int64)
        self.vectors = np.asarray(vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.dim:
            raise ContractViolation("table vectors must be (n, dim)")
        n = self.vectors.shape[0]
        if self.sample_ids.shape != (n,) or self.identities.shape != (n,):
            raise ContractViolation("table arrays must align")
        norms = np.sqrt(np.einsum("ij,ij->i", self.vectors, self.vectors))
        if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL):      # NaN rows fail too
            raise ContractViolation("table vectors must be unit-norm")
        self._index = IdIndex(self.sample_ids, "embedding table")

    @classmethod
    def from_model(cls, model: MlpModel) -> "TeacherOracle":
        """Record a frozen model; ``tabulate`` turns it into a queryable table."""
        if not model.normalize_output:
            raise ContractViolation("teacher models must L2-normalize their output")
        return cls(dim=model.embed_dim, model=model)

    @classmethod
    def from_table(cls, sample_ids, identities, vectors,
                   model=None, warning: str | None = None) -> "TeacherOracle":
        vectors = np.asarray(vectors, dtype=np.float64)
        return cls(
            dim=vectors.shape[1], model=model, sample_ids=sample_ids,
            identities=identities, vectors=vectors, warning=warning,
        )

    # -- queries ------------------------------------------------------------

    def _lookup(self, sample_ids) -> np.ndarray:
        if self.vectors is None:
            raise ContractViolation("teacher model is not tabulated; call tabulate first")
        return self.vectors[self._index.positions(sample_ids)]

    def embed(self, sample_id: int) -> np.ndarray:
        """Unit-norm embedding of one sample id."""
        return self._lookup([sample_id])[0]

    def embed_rows(self, ds: IdentityDataset, rows: np.ndarray) -> np.ndarray:
        """Embeddings for dataset rows, one per row, as an (n, dim) matrix."""
        return self._lookup(ds.sample_ids[np.asarray(rows, dtype=np.int64)])


def triplet_gaps(vectors: np.ndarray, triplets: np.ndarray) -> np.ndarray:
    """max(T(a,n) - T(a,p), 0) per (a, p, n) row of triplets, T the squared Euclidean
    distance between rows of ``vectors``, reduced as ``pairwise_sq_euclidean`` does.
    Few triplets (semi-hard) take row-wise differences; many (dense mining) read the
    full matrix, which is then cheaper.  Both give the same bits."""
    tri = np.asarray(triplets, dtype=np.int64)
    if 3 * tri.shape[0] >= vectors.shape[0] ** 2:
        a, p, n = tri.T
        dmat = pairwise_sq_euclidean(vectors)
        return np.maximum(dmat[a, n] - dmat[a, p], 0.0)
    rows = vectors.take(tri.T, axis=0)               # (3, T, dim): anchors, positives, negatives
    dn = rows[0] - rows[2]
    dp = rows[0] - rows[1]
    return np.maximum(np.einsum("ij,ij->i", dn, dn) - np.einsum("ij,ij->i", dp, dp), 0.0)


def tabulate(oracle: TeacherOracle, ds: IdentityDataset) -> TeacherOracle:
    """Embed every dataset sample with the teacher model; the only place a
    teacher model runs.  A table passes through."""
    if oracle.vectors is not None:
        return oracle
    return TeacherOracle.from_table(ds.sample_ids, ds.labels, embed(oracle.model, ds.X),
                                    model=oracle.model, warning=oracle.warning)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

@dataclass
class CalibrationReport:
    """Empirical spread of teacher gaps over sampled triplets.

    ``triplets`` records the sampled (anchor, positive, negative) ids so the
    d values can be recomputed independently from raw embeddings.
    """

    sample_count: int
    d_values: list[float]
    d_min_observed: float
    d_max_observed: float
    suggested_m_min: float
    suggested_m_max: float
    triplets: list[tuple[int, int, int]] = field(default_factory=list)

    def to_json(self) -> str:
        # the fields as they are: asdict would deep-copy every d value and triplet
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def from_json(cls, text: str) -> "CalibrationReport":
        try:
            obj = json.loads(text)
            report = cls(
                sample_count=json_field(obj["sample_count"], int),
                d_values=[json_field(v, float) for v in obj["d_values"]],
                d_min_observed=json_field(obj["d_min_observed"], float),
                d_max_observed=json_field(obj["d_max_observed"], float),
                suggested_m_min=json_field(obj["suggested_m_min"], float),
                suggested_m_max=json_field(obj["suggested_m_max"], float),
                triplets=[tuple(json_field(v, int) for v in t) for t in obj.get("triplets", [])],
            )
        except (json.JSONDecodeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise FormatError(f"bad calibration report: {exc}") from exc
        d = report.d_values
        if not d or len(d) != report.sample_count or len(report.triplets) != len(d):
            problem = (f"sample_count {report.sample_count}, {len(d)} d_values and "
                       f"{len(report.triplets)} triplets must be equal and >= 1")
        elif any(len(t) != 3 for t in report.triplets):
            problem = "every triplet must hold three sample ids"
        elif not all(np.isfinite(v) and v >= 0.0 for v in d):
            problem = "d_values must be finite and >= 0"
        elif (report.d_min_observed, report.d_max_observed) != (min(d), max(d)):
            problem = "d_min_observed/d_max_observed must be the extremes of d_values"
        else:
            return report
        raise FormatError(f"bad calibration report: {problem}")


def calibrate_margins(
    oracle: TeacherOracle,
    ds: IdentityDataset,
    n_triplets: int,
    rng: Rng,
) -> CalibrationReport:
    """Sample random valid triplets and report the spread of teacher gaps.

    Anchors are drawn uniformly from samples whose identity has a second
    sample, positives uniformly from the anchor's other samples, negatives
    uniformly from all other-identity samples.  The suggested margin bounds
    are the observed extremes; callers may override both.
    """
    if n_triplets < 1:
        raise ContractViolation("n_triplets must be >= 1")
    eligible_rows = np.sort(ds.identity_order[np.repeat(ds.identity_sizes >= 2,
                                                        ds.identity_sizes)])
    if not eligible_rows.size or ds.n_identities < 2:
        raise CapacityError("calibration needs >= 2 identities, one with >= 2 samples")
    vectors = oracle.embed_rows(ds, np.arange(ds.n_samples))
    d_values = []
    triplets = []
    for _ in range(n_triplets):
        a_row = int(eligible_rows[rng.randint(eligible_rows.size)])
        same = ds.rows_of(int(ds.labels[a_row]))          # ascending rows
        j = rng.randint(same.size - 1)                     # j-th of the others
        p_row = int(same[j + (same[j] >= a_row)])
        i = rng.randint(ds.n_samples - same.size)          # i-th other-identity row
        n_row = i + int(np.searchsorted(same - np.arange(same.size), i, side="right"))
        # one np.dot per distance: the report must be recomputable bit for bit
        d_an = vectors[a_row] - vectors[n_row]
        d_ap = vectors[a_row] - vectors[p_row]
        d_values.append(max(float(np.dot(d_an, d_an)) - float(np.dot(d_ap, d_ap)), 0.0))
        triplets.append(tuple(int(ds.sample_ids[r]) for r in (a_row, p_row, n_row)))
    d_min, d_max = min(d_values), max(d_values)
    return CalibrationReport(
        sample_count=n_triplets, d_values=d_values, d_min_observed=d_min,
        d_max_observed=d_max, suggested_m_min=d_min, suggested_m_max=d_max,
        triplets=triplets,
    )


# ---------------------------------------------------------------------------
# embedding table file: binary "TFEMB1"
# ---------------------------------------------------------------------------

def _saved_order(oracle: TeacherOracle) -> np.ndarray:
    """Record order of a saved table: ascending sample id."""
    if oracle.vectors is None:
        raise ContractViolation("only tabulated teachers can be saved")
    return np.argsort(oracle.sample_ids, kind="stable")


def save_embedding_table(oracle: TeacherOracle, path) -> None:
    """Binary table: magic, u32 count, u32 dim, then per record
    u32 identity, u32 sample, dim little-endian f32 values."""
    order = _saved_order(oracle)
    ids = np.stack([oracle.identities[order], oracle.sample_ids[order]])
    if np.any((ids < 0) | (ids >= 2**32)):
        raise ContractViolation("table ids must fit in u32")
    records = np.empty(order.size, dtype=_table_record(oracle.dim))
    records["identity"], records["sample"] = ids
    records["vector"] = oracle.vectors[order]
    with open(path, "wb") as fh:
        fh.write(TABLE_MAGIC + _TABLE_HEADER.pack(order.size, oracle.dim))
        fh.write(records.tobytes())


def load_embedding_table(path) -> TeacherOracle:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(TABLE_MAGIC):
        raise FormatError(f"{path}: bad embedding-table magic (expected TFEMB1)")
    off = len(TABLE_MAGIC) + _TABLE_HEADER.size
    if len(blob) < off:
        raise FormatError(f"{path}: truncated embedding-table header")
    count, dim = _TABLE_HEADER.unpack_from(blob, len(TABLE_MAGIC))
    expected = off + count * (8 + 4 * dim)   # checked before the dtype or any array is built
    if len(blob) != expected:
        raise FormatError(
            f"{path}: header declares {count} x {dim} values in {expected} bytes, "
            f"file has {len(blob)}"
        )
    records = np.frombuffer(blob, dtype=_table_record(dim), count=count, offset=off)
    try:
        return TeacherOracle.from_table(records["sample"], records["identity"],
                                        records["vector"])
    except ContractViolation as exc:
        raise FormatError(f"{path}: {exc}") from exc
