"""Frozen teacher oracle, teacher distance gaps, and margin calibration.

The teacher is frozen and is only asked for distances between training
samples, so a TeacherOracle is an embedding table keyed by sample id.  A
model recorded with ``from_model`` is forwarded once, in one batch, by
``tabulate``; every query then reads the table.  The distance is fixed to
squared Euclidean on unit-norm outputs, the same convention the student
trains under, so teacher gaps and the student's hinge live on one scale.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import IdentityDataset, IdIndex
from .errors import (
    CapacityError,
    ContractViolation,
    FormatError,
)
from .mlp import MlpModel, forward_batch
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
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            raise ContractViolation("table vectors must be unit-norm")
        self._index = IdIndex(self.sample_ids, "embedding table")

    @classmethod
    def from_model(cls, model: MlpModel, warning: str | None = None) -> "TeacherOracle":
        """Record a frozen model; ``tabulate`` turns it into a queryable table."""
        if not model.normalize_output:
            raise ContractViolation("teacher models must L2-normalize their output")
        return cls(dim=model.embed_dim, model=model, warning=warning)

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
    a, p, n = tri.T
    if 3 * tri.shape[0] >= vectors.shape[0] ** 2:
        dmat = pairwise_sq_euclidean(vectors)
        return np.maximum(dmat[a, n] - dmat[a, p], 0.0)
    anchors = vectors[a]
    dn = anchors - vectors[n]
    dp = anchors - vectors[p]
    return np.maximum(np.einsum("ij,ij->i", dn, dn) - np.einsum("ij,ij->i", dp, dp), 0.0)


def tabulate(oracle: TeacherOracle, ds: IdentityDataset) -> TeacherOracle:
    """Forward the teacher model over every dataset sample in one batch; the
    only place a teacher model runs.  A table passes through."""
    if oracle.vectors is not None:
        return oracle
    vectors, _ = forward_batch(oracle.model, ds.X)
    return TeacherOracle.from_table(ds.sample_ids, ds.labels, vectors,
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
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "CalibrationReport":
        try:
            obj = json.loads(text)
            return cls(
                sample_count=int(obj["sample_count"]),
                d_values=[float(v) for v in obj["d_values"]],
                d_min_observed=float(obj["d_min_observed"]),
                d_max_observed=float(obj["d_max_observed"]),
                suggested_m_min=float(obj["suggested_m_min"]),
                suggested_m_max=float(obj["suggested_m_max"]),
                triplets=[tuple(int(v) for v in t) for t in obj.get("triplets", [])],
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad calibration report: {exc}") from exc


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
    eligible_rows = [
        r for r in range(ds.n_samples)
        if ds.rows_of(int(ds.labels[r])).size >= 2
    ]
    if not eligible_rows or ds.n_identities < 2:
        raise CapacityError("calibration needs >= 2 identities, one with >= 2 samples")
    vectors = oracle.embed_rows(ds, np.arange(ds.n_samples))
    d_values = []
    triplets = []
    for _ in range(n_triplets):
        a_row = eligible_rows[rng.randint(len(eligible_rows))]
        ident = int(ds.labels[a_row])
        same = [int(r) for r in ds.rows_of(ident) if r != a_row]
        p_row = same[rng.randint(len(same))]
        other = np.where(ds.labels != ident)[0]
        n_row = int(other[rng.randint(other.size)])
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
# embedding table files: binary "TFEMB1" or JSON lines
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
    return TeacherOracle.from_table(records["sample"], records["identity"], records["vector"])


def save_embedding_table_jsonl(oracle: TeacherOracle, path) -> None:
    order = _saved_order(oracle)
    with open(path, "w", encoding="utf-8") as fh:
        for i in order:
            rec = {
                "identity": int(oracle.identities[i]),
                "sample": int(oracle.sample_ids[i]),
                "vector": [float(v) for v in oracle.vectors[i]],
            }
            fh.write(json.dumps(rec) + "\n")


def load_embedding_table_jsonl(path) -> TeacherOracle:
    sample_ids = []
    identities = []
    vectors = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln in fh:
            if not ln.strip():
                continue
            try:
                rec = json.loads(ln)
                identities.append(int(rec["identity"]))
                sample_ids.append(int(rec["sample"]))
                vectors.append([float(v) for v in rec["vector"]])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"{path}: bad table record: {exc}") from exc
    if not vectors:
        raise FormatError(f"{path}: empty embedding table")
    if len({len(v) for v in vectors}) != 1:
        raise FormatError(f"{path}: table vectors must all have one length")
    return TeacherOracle.from_table(sample_ids, identities, np.array(vectors))
