"""Synthetic hierarchical-identity datasets, PK batching, and triplet mining.

The generator builds a three-level hierarchy (supercluster -> identity ->
sample) in feature space, so that some identity pairs are genuinely more
similar than others.  Draw order is fixed: supercluster centers first, then
identity centers grouped by supercluster, then samples grouped by identity,
which makes generation a pure function of (spec, seed).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import (
    CapacityError,
    ContractViolation,
    FormatError,
    NoTripletsError,
    UnknownSampleError,
)
from .numerics import Rng, pairwise_sq_euclidean

MINING_STRATEGIES = ("all", "random_per_anchor", "semi_hard")


@dataclass(frozen=True)
class HierarchySpec:
    n_superclusters: int = 4
    identities_per_supercluster: int = 8
    samples_per_identity: int = 30
    input_dim: int = 16
    supercluster_spread: float = 2.0
    identity_spread: float = 0.35
    sample_noise: float = 0.06
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = numbers.Integral if f.type == "int" else numbers.Real
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ContractViolation(f"{f.name} must be {f.type}, got {value!r}")
            if kind is numbers.Integral and f.name != "seed" and value < 1:
                raise ContractViolation(f"{f.name} must be >= 1")
        if not (0.0 < self.sample_noise < self.identity_spread < self.supercluster_spread):
            raise ContractViolation(
                "spreads must satisfy 0 < sample_noise < identity_spread "
                "< supercluster_spread"
            )

    @property
    def n_identities(self) -> int:
        return self.n_superclusters * self.identities_per_supercluster

    @property
    def n_samples(self) -> int:
        return self.n_identities * self.samples_per_identity


class IdIndex:
    """Positions of unique sample ids, looked up a whole id array at a time."""

    def __init__(self, ids: np.ndarray, where: str):
        if ids.size == 0:
            raise ContractViolation(f"no sample ids in {where}")
        self._order = np.argsort(ids, kind="stable")
        self._sorted = ids[self._order]
        self._where = where
        if np.any(self._sorted[1:] == self._sorted[:-1]):
            raise ContractViolation(f"duplicate sample id in {where}")

    def positions(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        at = np.minimum(np.searchsorted(self._sorted, ids), self._sorted.size - 1)
        missing = self._sorted[at] != ids
        if np.any(missing):
            raise UnknownSampleError(f"sample id {ids[missing][0]} not in {self._where}")
        return self._order[at]


class IdentityDataset:
    """Immutable collection of labeled feature vectors with identity indexes."""

    def __init__(
        self,
        sample_ids,
        labels,
        features,
        spec: HierarchySpec | None = None,
        seed: int | None = None,
    ):
        self.sample_ids = np.asarray(sample_ids, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.X = np.asarray(features, dtype=np.float64)
        if self.X.ndim != 2:
            raise ContractViolation("features must be a (n, input_dim) array")
        n = self.X.shape[0]
        if n == 0:
            raise ContractViolation("dataset must contain at least one sample")
        if self.sample_ids.shape != (n,) or self.labels.shape != (n,):
            raise ContractViolation("sample_ids/labels must align with features")
        if not np.all(np.isfinite(self.X)):
            raise ContractViolation("features must be finite")
        self.spec = spec
        self.seed = seed
        self._index = IdIndex(self.sample_ids, "dataset")
        self.identity_list = sorted(set(self.labels.tolist()))
        self._rows_by_identity = {
            ident: np.where(self.labels == ident)[0] for ident in self.identity_list
        }
        # populated by generate_hierarchical; not serialized
        self.identity_centers: np.ndarray | None = None
        self.supercluster_of: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def input_dim(self) -> int:
        return self.X.shape[1]

    @property
    def n_identities(self) -> int:
        return len(self.identity_list)

    def row(self, sample_id: int) -> int:
        return int(self.rows_for([sample_id])[0])

    def rows_for(self, sample_ids) -> np.ndarray:
        """Dataset rows of an array of sample ids; UnknownSampleError if one is absent."""
        return self._index.positions(sample_ids)

    def rows_of(self, identity: int) -> np.ndarray:
        if identity not in self._rows_by_identity:
            raise CapacityError(f"unknown identity {identity}")
        return self._rows_by_identity[identity]

    def pair_capacity(self) -> tuple[int, int]:
        """Distinct unordered (same-identity, different-identity) sample pairs."""
        same = sum(r.size * (r.size - 1) // 2 for r in self._rows_by_identity.values())
        return same, self.n_samples * (self.n_samples - 1) // 2 - same


def generate_hierarchical(spec: HierarchySpec) -> IdentityDataset:
    """Sample a dataset from the three-level Gaussian hierarchy in spec."""
    rng = Rng(spec.seed)
    dim = spec.input_dim
    s_centers = np.stack(
        [spec.supercluster_spread * rng.normals(dim) for _ in range(spec.n_superclusters)]
    )
    identity_centers = []
    supercluster_of = []
    for s in range(spec.n_superclusters):
        for _ in range(spec.identities_per_supercluster):
            identity_centers.append(s_centers[s] + spec.identity_spread * rng.normals(dim))
            supercluster_of.append(s)
    features = []
    labels = []
    for ident, center in enumerate(identity_centers):
        for _ in range(spec.samples_per_identity):
            features.append(center + spec.sample_noise * rng.normals(dim))
            labels.append(ident)
    ds = IdentityDataset(
        sample_ids=np.arange(len(features)),
        labels=np.array(labels),
        features=np.stack(features),
        spec=spec,
        seed=spec.seed,
    )
    ds.identity_centers = np.stack(identity_centers)
    ds.supercluster_of = np.array(supercluster_of, dtype=np.int64)
    return ds


@dataclass
class PkBatch:
    """P identities x K samples each, as dataset row indices grouped by identity."""

    p: int
    k: int
    entries: np.ndarray  # (p*k,) dataset row indices
    labels: np.ndarray   # (p*k,) identity per entry

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.entries.shape != (self.p * self.k,) or self.labels.shape != (self.p * self.k,):
            raise ContractViolation("batch arrays must have p*k entries")
        if len(set(self.entries.tolist())) != self.entries.size:
            raise ContractViolation("duplicate sample in batch")
        idents, counts = np.unique(self.labels, return_counts=True)
        if idents.size != self.p or not np.all(counts == self.k):
            raise ContractViolation("batch must hold exactly p identities, k samples each")

    @property
    def size(self) -> int:
        return self.entries.size


def sample_pk_batch(ds: IdentityDataset, p: int, k: int, rng: Rng) -> PkBatch:
    """Uniform P identities (without replacement) and K samples per identity."""
    if p < 1 or k < 1:
        raise ContractViolation("p and k must be >= 1")
    eligible = [i for i in ds.identity_list if ds.rows_of(i).size >= k]
    if len(eligible) < p:
        raise CapacityError(
            f"need {p} identities with >= {k} samples, dataset has {len(eligible)}"
        )
    chosen = [eligible[i] for i in rng.sample_indices(len(eligible), p)]
    entries = []
    for ident in chosen:
        rows = ds.rows_of(ident)
        entries.append(rows[rng.sample_indices(rows.size, k)])
    return PkBatch(p=p, k=k, entries=np.concatenate(entries), labels=np.repeat(chosen, k))


def mine_triplets(
    batch: PkBatch,
    embeddings: np.ndarray,
    strategy: str = "semi_hard",
    rng: Rng | None = None,
) -> np.ndarray:
    """Select (anchor, positive, negative) positions within a batch.

    Returns a (T, 3) array of indices into the batch entries.  Strategies:

    - ``all``: every valid combination, anchor-major then positive then
      negative ascending (matches a brute-force triple loop).
    - ``random_per_anchor``: one random positive and negative per anchor.
    - ``semi_hard``: per (anchor, positive), the negative with the smallest
      d_an among those with d_an > d_ap; if none violates, the negative with
      the largest d_an.  Ties break toward the smallest batch index.
    """
    if strategy not in MINING_STRATEGIES:
        raise ContractViolation(f"unknown mining strategy {strategy!r}")
    emb = np.asarray(embeddings, dtype=np.float64)
    b = batch.size
    if emb.shape[0] != b:
        raise ContractViolation("need one embedding per batch entry")
    if batch.p < 2:
        raise NoTripletsError("mining needs at least two identities in the batch")
    labels = batch.labels
    negative = labels[:, None] != labels[None, :]     # (B, B) other-identity mask
    positive = ~negative
    np.fill_diagonal(positive, False)
    a_idx, p_idx = np.nonzero(positive)                # anchor-major, positives ascending

    if strategy == "all":
        per_pair = b - batch.k                         # a PK batch gives every anchor B - k negatives
        negatives = np.nonzero(negative)[1].reshape(b, per_pair)
        return np.column_stack([
            np.repeat(a_idx, per_pair), np.repeat(p_idx, per_pair), negatives[a_idx].ravel()
        ])

    if strategy == "random_per_anchor":
        if rng is None:
            raise ContractViolation("random_per_anchor mining requires an rng")
        rows = []
        for a in range(b):
            pos = np.flatnonzero(positive[a])
            if pos.size == 0:  # k = 1: anchor has no positive
                continue
            neg = np.flatnonzero(negative[a])
            rows.append((a, pos[rng.randint(pos.size)], neg[rng.randint(neg.size)]))
        return np.array(rows, dtype=np.int64).reshape(-1, 3)

    # semi_hard: vectorize over all (anchor, positive) pairs
    dmat = pairwise_sq_euclidean(emb)
    d_ap = dmat[a_idx, p_idx]
    rows = dmat[a_idx]                                # (T, B)
    neg_mask = negative[a_idx]
    violating = neg_mask & (rows > d_ap[:, None])
    has_violating = violating.any(axis=1)
    hardest_violating = np.where(violating, rows, np.inf).argmin(axis=1)
    farthest = np.where(negative, dmat, -np.inf).argmax(axis=1)[a_idx]   # one per anchor
    n_idx = np.where(has_violating, hardest_violating, farthest)
    return np.column_stack([a_idx, p_idx, n_idx])


# ---------------------------------------------------------------------------
# dataset file format: JSON lines, header record first
# ---------------------------------------------------------------------------

def save_dataset_jsonl(ds: IdentityDataset, path) -> None:
    header = {
        "input_dim": ds.input_dim,
        "n_samples": ds.n_samples,
        "n_identities": ds.n_identities,
        "seed": ds.seed,
        "spec": asdict(ds.spec) if ds.spec is not None else None,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for i in range(ds.n_samples):
            rec = {
                "sample": int(ds.sample_ids[i]),
                "identity": int(ds.labels[i]),
                "x": [float(v) for v in ds.X[i]],
            }
            fh.write(json.dumps(rec) + "\n")


def _spec_from_header(path, spec) -> HierarchySpec | None:
    keys = {f.name for f in fields(HierarchySpec)}
    if spec and (not isinstance(spec, dict) or set(spec) != keys):
        raise FormatError(f"{path}: header spec must have exactly the keys {sorted(keys)}")
    try:
        return HierarchySpec(**spec) if spec else None
    except ContractViolation as exc:
        raise FormatError(f"{path}: bad header spec: {exc}") from exc


def load_dataset_jsonl(path) -> IdentityDataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty dataset file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: bad header line: {exc}") from exc
    for key in ("input_dim", "n_samples", "n_identities"):
        if key not in header:
            raise FormatError(f"{path}: header missing {key!r}")
    sample_ids = []
    labels = []
    feats = []
    for ln in lines[1:]:
        try:
            rec = json.loads(ln)
            sample_ids.append(int(rec["sample"]))
            labels.append(int(rec["identity"]))
            feats.append(rec["x"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad record: {exc}") from exc
    if len(sample_ids) != header["n_samples"]:
        raise FormatError(
            f"{path}: header declares {header['n_samples']} samples, "
            f"found {len(sample_ids)}"
        )
    try:
        features = np.array(feats, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: x must be equal-length number lists: {exc}") from exc
    ds = IdentityDataset(
        sample_ids=sample_ids,
        labels=labels,
        features=features,
        spec=_spec_from_header(path, header.get("spec")),
        seed=header.get("seed"),
    )
    if ds.input_dim != header["input_dim"] or ds.n_identities != header["n_identities"]:
        raise FormatError(f"{path}: header counts disagree with records")
    return ds
