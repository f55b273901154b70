"""Synthetic hierarchical-identity datasets, PK batching, and triplet mining.

The generator builds a three-level hierarchy (supercluster -> identity ->
sample) in feature space, so that some identity pairs are genuinely more
similar than others.  Draw order is fixed: supercluster centers first, then
identity centers grouped by supercluster, then samples grouped by identity,
which makes generation a pure function of (spec, seed).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import numbers
import os
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    CapacityError,
    ContractViolation,
    FormatError,
    NoTripletsError,
    UnknownSampleError,
)
from .numerics import Rng, gram_sq_euclidean, pairwise_sq_euclidean, randint_limit

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
        self._identities, self._identity_sizes = np.unique(self.labels, return_counts=True)
        self.identity_list = self._identities.tolist()
        self._rows_by_identity = {
            ident: np.where(self.labels == ident)[0] for ident in self.identity_list
        }

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

    def identities_with(self, k: int) -> np.ndarray:
        """Identities with at least k samples, ascending."""
        return self._identities[self._identity_sizes >= k]

    def pair_capacity(self) -> tuple[int, int]:
        """Distinct unordered (same-identity, different-identity) sample pairs."""
        same = sum(r.size * (r.size - 1) // 2 for r in self._rows_by_identity.values())
        return same, self.n_samples * (self.n_samples - 1) // 2 - same


def generate_hierarchical(spec: HierarchySpec) -> IdentityDataset:
    """Sample a dataset from the three-level Gaussian hierarchy in spec."""
    rng = Rng(spec.seed)
    dim = spec.input_dim

    def draw(rows: int) -> np.ndarray:
        return rng.normals(rows * dim).reshape(rows, dim)

    s_centers = spec.supercluster_spread * draw(spec.n_superclusters)
    supercluster_of = np.repeat(np.arange(spec.n_superclusters), spec.identities_per_supercluster)
    identity_centers = s_centers[supercluster_of] + spec.identity_spread * draw(spec.n_identities)
    labels = np.repeat(np.arange(spec.n_identities), spec.samples_per_identity)
    features = identity_centers[labels] + spec.sample_noise * draw(spec.n_samples)
    return IdentityDataset(
        sample_ids=np.arange(spec.n_samples),
        labels=labels,
        features=features,
        spec=spec,
        seed=spec.seed,
    )


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

    @classmethod
    def _built(cls, p: int, k: int, entries: np.ndarray, labels: np.ndarray) -> PkBatch:
        """A batch from a builder that guarantees the invariants; not re-validated."""
        batch = cls.__new__(cls)
        batch.p, batch.k, batch.entries, batch.labels = p, k, entries, labels
        return batch

    @property
    def size(self) -> int:
        return self.entries.size


def sample_pk_batch(ds: IdentityDataset, p: int, k: int, rng: Rng) -> PkBatch:
    """Uniform P identities (without replacement) and K samples per identity."""
    if p < 1 or k < 1:
        raise ContractViolation("p and k must be >= 1")
    eligible = ds.identities_with(k)
    if eligible.size < p:
        raise CapacityError(
            f"need {p} identities with >= {k} samples, dataset has {eligible.size}"
        )
    chosen = eligible[rng.sample_indices(eligible.size, p)]
    entries = []
    for ident in chosen:
        rows = ds.rows_of(ident)
        entries.append(rows[rng.sample_indices(rows.size, k)])
    # distinct identities, k distinct rows of each: the batch invariants hold
    return PkBatch._built(p, k, np.concatenate(entries), np.repeat(chosen, k))


def sample_pk_batches(
    ds: IdentityDataset, p: int, k: int, rng: Rng, count: int
) -> list[PkBatch] | None:
    """The next ``count`` batches of ``sample_pk_batch(ds, p, k, rng)``, drawn at once.

    One ``rng.uint64s`` call draws every word, and the partial Fisher-Yates
    steps run across all batches: first over the eligible identities, then
    over each chosen identity's rows.  The batches and the final state equal
    those of ``count`` calls only when every ``randint`` takes exactly one
    word, that is when

    - more than p identities are eligible and every eligible identity has
      more than k samples (``randint(1)`` draws no word), and
    - no word is rejected (at or above ``randint_limit``).

    Otherwise returns None and leaves rng as it was.
    """
    if p < 1 or k < 1:
        raise ContractViolation("p and k must be >= 1")
    eligible = ds.identities_with(k)
    rows = [ds.rows_of(ident) for ident in eligible.tolist()]
    sizes = np.array([r.size for r in rows], dtype=np.uint64)
    if eligible.size <= p or sizes.min() <= k:
        return None
    saved = list(rng._s)
    words = rng.uint64s(count * (p + p * k)).reshape(count, p + p * k)
    id_words, row_words = words[:, :p], words[:, p:].reshape(count, p, k)
    id_bounds = eligible.size - np.arange(p, dtype=np.uint64)
    row_bounds = sizes[:, None] - np.arange(k, dtype=np.uint64)         # per eligible identity
    chosen = _partial_shuffles(id_words, id_bounds)
    rejected = np.any(id_words > _accepted(id_bounds))
    if rejected or np.any(row_words > _accepted(row_bounds)[chosen]):
        rng._s = saved
        return None
    picked = _partial_shuffles(row_words.reshape(-1, k), row_bounds[chosen.ravel()])
    starts = (np.cumsum(sizes) - sizes).astype(np.int64)
    entries = np.concatenate(rows)[starts[chosen].reshape(-1, 1) + picked]
    labels = np.repeat(eligible[chosen], k, axis=1)
    # as in sample_pk_batch: distinct identities, k distinct rows of each
    return [PkBatch._built(p, k, e, c) for e, c in zip(entries.reshape(count, p * k), labels)]


def _accepted(bounds: np.ndarray) -> np.ndarray:
    """The largest word ``randint(n)`` accepts, for each bound n."""
    limits = [randint_limit(n) - 1 for n in bounds.ravel().tolist()]
    return np.array(limits, dtype=np.uint64).reshape(bounds.shape)


def _partial_shuffles(words: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Row r: ``Rng.sample_indices(n, k)`` for the words its k draws take, where
    bounds (broadcast against words) holds n, n - 1, ..., n - k + 1 and no word
    is rejected.

    The swap targets j = i + w mod (n - i) depend on the words alone.  As in
    ``sample_indices`` only displaced values are tracked: step i takes the
    value at position j and moves the value at position i there, and a
    position holds what the last earlier step moved to it, or itself.
    """
    n_rows, k = words.shape
    steps = np.arange(k, dtype=np.uint64)
    targets = (words % bounds + steps).astype(np.int64).T    # (k, rows)
    taken = np.empty((k, n_rows), dtype=np.int64)
    moved = np.empty((k, n_rows), dtype=np.int64)           # moved[t]: put at targets[t]
    for i, target in enumerate(targets):
        take, move = target, np.full(n_rows, i)
        for t in range(i):                                  # later moves win
            take = np.where(targets[t] == target, moved[t], take)
            move = np.where(targets[t] == i, moved[t], move)
        taken[i], moved[i] = take, move
    return taken.T


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

    Semi-hard selection compares distances within one anchor's row only, so
    it ranks rows with the Gram-form distances of ``gram_sq_euclidean``.  A
    row is certified when its values and its error bound are finite and every
    gap between its consecutive sorted values exceeds twice the bound: the
    Gram row then orders its entries strictly, exactly as the
    ``pairwise_sq_euclidean`` row would.  Every other row (ties, overflow,
    underflow) is recomputed with ``pairwise_sq_euclidean``, so the selected
    triplets equal those from the exact matrix bit for bit.

    The label masks and index arrays depend on the labels alone; for an
    identity-major batch (k equal labels per block, as the samplers build)
    they depend only on (p, k) and are cached.
    """
    if strategy not in MINING_STRATEGIES:
        raise ContractViolation(f"unknown mining strategy {strategy!r}")
    emb = np.asarray(embeddings, dtype=np.float64)
    b = batch.size
    if emb.shape[0] != b:
        raise ContractViolation("need one embedding per batch entry")
    if batch.p < 2:
        raise NoTripletsError("mining needs at least two identities in the batch")
    blocks = batch.labels.reshape(batch.p, batch.k)
    if np.all(blocks == blocks[:, :1]):               # identity-major, as the samplers build
        negative, positive, a_idx, p_idx, negatives = _pk_layout(batch.p, batch.k)
    else:
        negative, positive, a_idx, p_idx, negatives = _label_layout(batch.labels, batch.k)

    if strategy == "all":
        per_pair = b - batch.k
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

    # semi_hard: Gram rows where certified, exact rows elsewhere
    dmat, bound = gram_sq_euclidean(emb)
    ranked = np.sort(dmat, axis=1)
    with np.errstate(invalid="ignore"):               # inf - inf in rows that fail anyway
        certified = np.isfinite(ranked[:, -1]) & (np.diff(ranked).min(axis=1) > 2.0 * bound)
    if not certified.all():
        uncertain = np.flatnonzero(~certified)
        dmat[uncertain] = pairwise_sq_euclidean(emb[uncertain], emb)
    # then vectorize over all (anchor, positive) pairs
    neg_dist = np.where(negative, dmat, -np.inf)      # (B, B); -inf never violates
    d_ap = dmat[a_idx, p_idx]
    rows = neg_dist[a_idx]                            # (T, B)
    has_violating = np.fmax.reduce(neg_dist, axis=1)[a_idx] > d_ap   # NaN never violates
    # where(rows > d_ap, rows, inf) without a branch per element: fmax with
    # -inf keeps a violating value, fmax with +inf replaces the rest, NaN too
    candidates = np.where(rows > d_ap[:, None], -np.inf, np.inf)
    hardest_violating = np.fmax(rows, candidates, out=candidates).argmin(axis=1)
    farthest = neg_dist.argmax(axis=1)[a_idx]         # one per anchor
    n_idx = np.where(has_violating, hardest_violating, farthest)
    return np.column_stack([a_idx, p_idx, n_idx])


def _label_layout(labels: np.ndarray, k: int):
    """Masks and index arrays of a PK batch that depend on its labels alone:
    the (B, B) other-identity and same-identity masks (no diagonal), the
    (anchor, positive) pairs anchor-major with positives ascending, and each
    anchor's B - k negatives ascending."""
    negative = labels[:, None] != labels[None, :]
    positive = ~negative
    np.fill_diagonal(positive, False)
    a_idx, p_idx = np.nonzero(positive)
    negatives = np.nonzero(negative)[1].reshape(labels.size, labels.size - k)
    return negative, positive, a_idx, p_idx, negatives


@functools.cache
def _pk_layout(p: int, k: int):
    """``_label_layout`` of every identity-major (p, k) batch, read-only and shared."""
    arrays = _label_layout(np.arange(p * k) // k, k)
    for array in arrays:
        array.flags.writeable = False
    return arrays


# ---------------------------------------------------------------------------
# dataset file format: JSON lines, header record first; gen-data adds a binary
# companion that holds the parsed arrays of those exact bytes
# ---------------------------------------------------------------------------

COMPANION_MAGIC = b"TFDS01"
_COMPANION_HEAD = struct.Struct("<6s32sQQ")   # magic, sha256, n samples, input dim


def read_text(path, error: type[Exception] = FormatError) -> str:
    """A UTF-8 text file's contents; bytes that are not UTF-8 raise ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc


_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,)}


def json_field(value, kind: type):
    """A decoded JSON value as ``kind``, if it has that JSON type: an id or count
    (``int``) is an integer, a score (``float``) any number, a flag (``bool``)
    true or false.  Booleans are not numbers.  TypeError otherwise."""
    if type(value) not in _JSON_TYPES[kind]:
        raise TypeError(f"expected a JSON {kind.__name__}, got {value!r:.40}")
    return float(value) if kind is float else value


def save_dataset_jsonl(ds: IdentityDataset, path) -> None:
    header = {
        "input_dim": ds.input_dim,
        "n_samples": ds.n_samples,
        "n_identities": ds.n_identities,
        "seed": ds.seed,
        "spec": asdict(ds.spec) if ds.spec is not None else None,
    }
    # json.dumps writes a float as its repr, so these are json.dumps's bytes
    record = '{"sample": %d, "identity": %d, "x": [%s]}\n'
    ids, labels = ds.sample_ids.tolist(), ds.labels.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for at in range(0, ds.n_samples, 512):     # one write per block of rows
            fh.write("".join([record % (i, c, ", ".join(map(repr, x))) for i, c, x in
                              zip(ids[at:at + 512], labels[at:at + 512],
                                  ds.X[at:at + 512].tolist())]))


def companion_path(path) -> Path:
    """The binary companion of dataset file ``path``: ``<path>.tfds``."""
    return Path(f"{path}.tfds")


def _sha256(parts) -> bytes:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.digest()


def save_dataset_companion(ds: IdentityDataset, path) -> None:
    """Write the companion of dataset file ``path``, whose records must parse to ``ds``.

    Layout: magic, the sha256 of the dataset file's bytes followed by the rest
    of the companion, u64 n, u64 d, then n little-endian int64 sample ids, n
    int64 identities and n x d float64 features, row-major.
    """
    body = [struct.pack("<QQ", ds.n_samples, ds.input_dim),
            *(np.ascontiguousarray(a, dtype=t) for a, t in
              ((ds.sample_ids, "<i8"), (ds.labels, "<i8"), (ds.X, "<f8")))]
    with open(path, "rb") as fh:
        digest = _sha256(itertools.chain(iter(lambda: fh.read(1 << 20), b""), body))
    with open(companion_path(path), "wb") as fh:
        fh.write(COMPANION_MAGIC + digest)
        for part in body:
            fh.write(part)


def _companion_arrays(path, blob: bytes):
    """(sample ids, identities, features) from the companion of ``path`` if its
    magic, length and digest all match ``blob``, the dataset file's bytes; None
    otherwise, so a missing, stale or torn companion is only a cache miss."""
    try:
        with open(companion_path(path), "rb") as fh:
            head = fh.read(_COMPANION_HEAD.size)
            if len(head) != _COMPANION_HEAD.size:
                return None
            magic, digest, n, d = _COMPANION_HEAD.unpack(head)
            size = 8 * n * (2 + d)               # checked against the file before allocating
            if magic != COMPANION_MAGIC or os.fstat(fh.fileno()).st_size != len(head) + size:
                return None
            body = bytearray(size)
            if fh.readinto(body) != size:
                return None
    except OSError:
        return None
    if _sha256((blob, head[-16:], body)) != digest:      # head[-16:] holds n and d
        return None
    ids = np.frombuffer(body, dtype="<i8", count=2 * n).reshape(2, n)
    features = np.frombuffer(body, dtype="<f8", count=n * d, offset=16 * n).reshape(n, d)
    return ids[0], ids[1], features


def _spec_from_header(path, spec) -> HierarchySpec | None:
    keys = {f.name for f in fields(HierarchySpec)}
    if spec and (not isinstance(spec, dict) or set(spec) != keys):
        raise FormatError(f"{path}: header spec must have exactly the keys {sorted(keys)}")
    try:
        return HierarchySpec(**spec) if spec else None
    except ContractViolation as exc:
        raise FormatError(f"{path}: bad header spec: {exc}") from exc


def _parse_records(path, lines: list[str], n_declared):
    """(sample ids, identities, features) of the record lines of a dataset file."""
    sample_ids = []
    labels = []
    feats = []
    for ln in lines:
        try:
            rec = json.loads(ln)
            sample_ids.append(json_field(rec["sample"], int))
            labels.append(json_field(rec["identity"], int))
            feats.append(rec["x"])
        except (json.JSONDecodeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad record: {exc}") from exc
    if len(sample_ids) != n_declared:
        raise FormatError(
            f"{path}: header declares {n_declared} samples, found {len(sample_ids)}"
        )
    try:
        ids = np.array([sample_ids, labels], dtype=np.int64)
        features = np.array(feats, dtype=np.float64)
    except (OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: ids must fit in int64 and x must be equal-length "
                          f"number lists: {exc}") from exc
    return ids[0], ids[1], features


def load_dataset_jsonl(path) -> IdentityDataset:
    """The dataset in JSON-lines file ``path``.  A companion whose digest matches
    the file's bytes supplies the arrays; otherwise the records are parsed."""
    blob = Path(path).read_bytes()
    arrays = _companion_arrays(path, blob)
    if arrays is not None:            # bytes that save_dataset_jsonl wrote: header first
        blob = blob.partition(b"\n")[0]
    try:
        lines = [ln for ln in blob.decode("utf-8").splitlines() if ln.strip()]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    del blob                          # the lines hold the text: parse with one copy of it
    if not lines:
        raise FormatError(f"{path}: empty dataset file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: bad header line: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header line must be a JSON object")
    counts = ("input_dim", "n_samples", "n_identities")
    for key in counts:
        if key not in header:
            raise FormatError(f"{path}: header missing {key!r}")
    if arrays is None:
        arrays = _parse_records(path, lines[1:], header["n_samples"])
    ds = IdentityDataset(
        sample_ids=arrays[0],
        labels=arrays[1],
        features=arrays[2],
        spec=_spec_from_header(path, header.get("spec")),
        seed=header.get("seed"),
    )
    if (ds.input_dim, ds.n_samples, ds.n_identities) != tuple(header[k] for k in counts):
        raise FormatError(f"{path}: header counts disagree with records")
    return ds
