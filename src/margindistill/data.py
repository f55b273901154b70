"""Synthetic hierarchical-identity datasets, PK batching, and triplet mining.

The generator builds a three-level hierarchy (supercluster -> identity ->
sample) in feature space, so that some identity pairs are genuinely more
similar than others.  Draw order is fixed: supercluster centers first, then
identity centers grouped by supercluster, then samples grouped by identity,
which makes generation a pure function of (spec, seed).
"""

from __future__ import annotations

import functools
import io
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
from .numerics import (Rng, check_seed, gram_sq_euclidean, pairwise_sq_euclidean,
                       partial_shuffles)

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
            kind, convert = (numbers.Integral, int) if f.type == "int" else (numbers.Real, float)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ContractViolation(f"{f.name} must be {f.type}, got {value!r}")
            if kind is numbers.Integral and f.name != "seed" and value < 1:
                raise ContractViolation(f"{f.name} must be >= 1")
            try:        # a numpy value as an int or a float, as the header's JSON needs
                object.__setattr__(self, f.name, convert(value))
            except OverflowError as exc:
                raise ContractViolation(f"{f.name} must fit a float: {value!r:.40}") from exc
        check_seed(self.seed)
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
    """Positions of unique sample ids, looked up a whole id array at a time.
    Ids that fill a range, as generated datasets' do, are found by subtraction."""

    def __init__(self, ids: np.ndarray, where: str):
        if ids.size == 0:
            raise ContractViolation(f"no sample ids in {where}")
        self._order = np.argsort(ids, kind="stable")
        self._sorted = ids[self._order]
        self._where = where
        if np.any(self._sorted[1:] == self._sorted[:-1]):
            raise ContractViolation(f"duplicate sample id in {where}")
        self._range = int(self._sorted[-1]) - int(self._sorted[0]) == ids.size - 1

    def positions(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if self._range:
            missing = (ids < self._sorted[0]) | (ids > self._sorted[-1])
            at = ids - self._sorted[0]                    # in range wherever not missing
        else:
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
        self._identities, self.identity_sizes = np.unique(self.labels, return_counts=True)
        self.identity_list = self._identities.tolist()
        # the one grouping by identity: rows stable-sorted by label, so the i-th smallest
        # identity's rows, ascending, are identity_order[identity_starts[i]:][:identity_sizes[i]]
        self.identity_order = np.argsort(self.labels, kind="stable")
        self.identity_starts = np.cumsum(self.identity_sizes) - self.identity_sizes
        for array in (self.identity_order, self.identity_sizes, self.identity_starts):
            array.flags.writeable = False

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

    def pair_capacity(self) -> tuple[int, int]:
        """Distinct unordered (same-identity, different-identity) sample pairs."""
        same = int(np.sum(self.identity_sizes * (self.identity_sizes - 1) // 2))
        return same, self.n_samples * (self.n_samples - 1) // 2 - same


@np.errstate(over="ignore", invalid="ignore")     # spreads near the float64 limit overflow
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
    if not np.isfinite(features).all():
        raise ContractViolation("supercluster_spread, identity_spread and sample_noise "
                                "give features that are not finite")
    return IdentityDataset(
        sample_ids=np.arange(spec.n_samples),
        labels=labels,
        features=features,
        spec=spec,
        seed=spec.seed,
    )


@dataclass
class PkBatch:
    """P identities x K samples each: dataset rows in p blocks of k, one identity per block."""

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
        blocks = self.labels.reshape(self.p, self.k)
        if np.any(blocks != blocks[:, :1]):
            raise ContractViolation("batch labels must be p blocks of k equal labels")

    @classmethod
    def _built(cls, p: int, k: int, entries: np.ndarray, labels: np.ndarray) -> PkBatch:
        """A batch from a builder that guarantees the invariants; not re-validated."""
        batch = cls.__new__(cls)
        batch.p, batch.k, batch.entries, batch.labels = p, k, entries, labels
        return batch

    @property
    def size(self) -> int:
        return self.entries.size


def _pk_eligible(ds: IdentityDataset, p: int, k: int) -> np.ndarray:
    """The positions among ds's identities of those with k or more samples, p or more."""
    if p < 1 or k < 1:
        raise ContractViolation("p and k must be >= 1")
    eligible = np.flatnonzero(ds.identity_sizes >= k)
    if eligible.size < p:
        raise CapacityError(
            f"need {p} identities with >= {k} samples, dataset has {eligible.size}"
        )
    return eligible


def sample_pk_batch(ds: IdentityDataset, p: int, k: int, rng: Rng) -> PkBatch:
    """Uniform P identities (without replacement) and K samples per identity: the
    ``pk_batches`` batch of rng's next p + p * k words.  Errors draw no word."""
    _pk_eligible(ds, p, k)
    return pk_batches(ds, p, k, rng.uint64s(p + p * k).reshape(1, -1))[0]


def pk_batches(ds: IdentityDataset, p: int, k: int, words: np.ndarray) -> list[PkBatch]:
    """One batch per row of p + p * k words, decoded by partial Fisher-Yates
    (``partial_shuffles``) across the rows at once.

    The eligible identities are those with k or more rows, ascending.  A row's first
    p words pick p of them (step i: i + w mod (n_eligible - i)); then each chosen
    identity, in pick order, picks k of its rows (listed ascending) from the next k.
    """
    eligible = _pk_eligible(ds, p, k)
    id_bounds = eligible.size - np.arange(p, dtype=np.uint64)
    row_bounds = ds.identity_sizes[eligible].astype(np.uint64)[:, None] - np.arange(
        k, dtype=np.uint64)                                 # per eligible identity
    chosen = partial_shuffles(words[:, :p], id_bounds)
    picked = partial_shuffles(words[:, p:].reshape(-1, k), row_bounds[chosen.ravel()])
    entries = ds.identity_order[ds.identity_starts[eligible[chosen]].reshape(-1, 1) + picked]
    labels = np.repeat(ds._identities[eligible[chosen]], k, axis=1)
    # distinct identities, k distinct rows of each, identity-major: the invariants hold
    return [PkBatch._built(p, k, e, c) for e, c in zip(entries.reshape(-1, p * k), labels)]


def mining_words(strategy: str, p: int, k: int) -> int:
    """The words ``mine_triplets`` reads for a p x k batch: two per anchor under
    ``random_per_anchor`` (none at k = 1, where no anchor has a positive), else none."""
    return 2 * p * k if strategy == "random_per_anchor" and k > 1 else 0


def mine_triplets(
    batch: PkBatch,
    embeddings: np.ndarray,
    strategy: str = "semi_hard",
    words: np.ndarray | None = None,
) -> np.ndarray:
    """Select (anchor, positive, negative) positions within a batch.

    Returns a (T, 3) array of indices into the batch entries.  Strategies:

    - ``all``: every valid combination, anchor-major then positive then
      negative ascending (matches a brute-force triple loop).
    - ``random_per_anchor``: one random positive and negative per anchor, from
      the anchor's two ``words``: the positive's word mod k - 1 picks among its
      positives ascending, then the negative's word mod B - k among its
      negatives ascending.  ``mining_words`` gives their count.
    - ``semi_hard``: per (anchor, positive), the negative with the smallest
      d_an among those that violate, d_an > d_ap; if none violates, the
      farthest negative.  +inf violates a finite d_ap, NaN never violates,
      ties go to the lowest batch index, and the farthest negative is the
      first NaN, or else the first maximum.

    Semi-hard selection compares distances within one anchor's row only, so
    it ranks rows with the Gram-form distances of ``gram_sq_euclidean``.  A
    row is certified when its values and its error bound are finite and every
    gap between its consecutive sorted values exceeds twice the bound: the
    Gram row then orders its entries strictly, exactly as the
    ``pairwise_sq_euclidean`` row would.  If any row of the batch fails
    (ties, NaN, overflow or underflow), the batch takes the exact
    ``pairwise_sq_euclidean`` matrix instead, each row ranked with equal
    values negatives first, then by batch index, and NaN last.  Either way a
    pair's negative is the first negative ranked after its positive, or the
    anchor's last ranked negative if none is; on the exact matrix a pick that
    does not exceed d_ap becomes the farthest negative.  The selected
    triplets equal those of the rule on the exact matrix bit for bit.

    The label masks and index arrays depend only on (p, k), since every batch is
    identity-major, and are cached.
    """
    if strategy not in MINING_STRATEGIES:
        raise ContractViolation(f"unknown mining strategy {strategy!r}")
    n_words, need = 0 if words is None else len(words), mining_words(strategy, batch.p, batch.k)
    if n_words != need:
        raise ContractViolation(f"{strategy} mining of a {batch.p} x {batch.k} batch reads "
                                f"{need} words, got {n_words}")
    emb = np.asarray(embeddings, dtype=np.float64)
    b = batch.size
    if emb.ndim != 2 or emb.shape[0] != b:
        raise ContractViolation("embeddings must be a (B, dim) array, one row per batch entry")
    if batch.p < 2:
        raise NoTripletsError("mining needs at least two identities in the batch")
    (negative, a_idx, p_idx, negatives,
     row_starts, pair_at, pair_last) = _pk_layout(batch.p, batch.k)

    if strategy == "all":
        per_pair = b - batch.k
        return _stack_triplets(np.repeat(a_idx, per_pair), np.repeat(p_idx, per_pair),
                               negatives[a_idx].ravel())

    if strategy == "random_per_anchor":
        picks = np.asarray(words, dtype=np.uint64).reshape(-1, 2)   # k = 1: no anchors
        anchors = np.arange(picks.shape[0])
        positives = p_idx.reshape(b, batch.k - 1)[anchors, picks[:, 0] % (batch.k - 1)]
        return _stack_triplets(anchors, positives, negatives[anchors, picks[:, 1] % (b - batch.k)])

    # semi_hard: one sort per Gram row certifies the row and ranks its negatives
    dmat, bound = gram_sq_euclidean(emb)
    order = np.argsort(dmat, axis=1)
    sorted_at = order + row_starts                    # flat positions, each row ascending
    exact = not _rows_certified(dmat.take(sorted_at), bound)
    if exact:
        dmat = pairwise_sq_euclidean(emb)
        order = np.lexsort((~negative, dmat))         # equal values: negatives first
        sorted_at = order + row_starts
    # A pair's negative is the first negative ranked after its positive, or the
    # anchor's last negative if none is.  Every sorted row holds k same-identity
    # entries: the s-th of them, counted row-major, at flat position i has
    # i - s negatives before it, so i - s indexes the first negative after it
    # in order[is_negative], the row-major ranked negatives; pair_last caps
    # that at the anchor's last negative.
    is_negative = negative.take(sorted_at)
    same_at = np.flatnonzero(~is_negative)
    first_after = np.empty(b * b, dtype=np.intp)
    first_after[sorted_at.take(same_at)] = same_at - np.arange(same_at.size)
    n_idx = order[is_negative].take(np.minimum(first_after.take(pair_at), pair_last))
    if exact:
        # only exact rows hold ties and NaN: a pick may equal d_ap or be NaN,
        # and a capped pick may be the last of several equal maxima
        violates = dmat[a_idx, n_idx] > dmat.take(pair_at)
        farthest = np.where(negative, dmat, -np.inf).argmax(axis=1)
        n_idx = np.where(violates, n_idx, farthest[a_idx])
    return _stack_triplets(a_idx, p_idx, n_idx)


def _stack_triplets(anchors, positives, negatives) -> np.ndarray:
    """The (T, 3) int64 triplets of three length-T position arrays."""
    out = np.empty((anchors.size, 3), dtype=np.int64)
    out[:, 0], out[:, 1], out[:, 2] = anchors, positives, negatives
    return out


def _rows_certified(ranked: np.ndarray, bound: np.ndarray) -> bool:
    """Whether every ascending row of ``ranked`` has a finite last value and gaps
    above twice its row's bound.  One flat comparison: a NaN gap or bound fails
    it, as it fails a row-wise minimum."""
    with np.errstate(invalid="ignore"):               # inf - inf in rows that fail anyway
        return bool(np.isfinite(ranked[:, -1]).all()
                    and (ranked[:, 1:] - ranked[:, :-1] > 2.0 * bound[:, None]).all())


@functools.cache
def _pk_layout(p: int, k: int):
    """Masks and index arrays of every (p, k) batch, read-only and shared: the
    (B, B) other-identity mask, the (anchor, positive) pairs anchor-major with
    positives ascending, each anchor's B - k negatives ascending, and the flat
    offsets semi-hard mining reads with: each row's start in a flat (B, B)
    matrix, each pair's entry there, and the position of each pair's anchor's
    last negative in the flat anchor-major (B, B - k) negatives."""
    b, blocks = p * k, np.arange(p * k) // k
    negative = blocks[:, None] != blocks[None, :]
    a_idx, p_idx = np.nonzero(~negative & ~np.eye(b, dtype=bool))
    negatives = np.nonzero(negative)[1].reshape(b, b - k)
    row_starts = np.arange(0, b * b, b)[:, None]
    arrays = (negative, a_idx, p_idx, negatives,
              row_starts, a_idx * b + p_idx, (a_idx + 1) * (b - k) - 1)
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


def read_json_records(path, lines: list[str], what: str, decode) -> tuple[tuple, ...]:
    """The columns of JSON-lines records ``lines``, non-blank lines of file ``path``:
    ``decode`` maps each line's JSON object to a tuple of its fields, checked with
    ``json_field``.  The first line that fails raises ``FormatError("<path>: bad
    <what>: <reason>")``.  Dataset records and pair files both follow this rule."""
    try:
        rows = [decode(json.loads(ln)) for ln in lines]
    except (KeyError, OverflowError, TypeError, ValueError) as exc:  # JSONDecodeError too
        raise FormatError(f"{path}: bad {what}: {exc}") from exc
    return tuple(zip(*rows))


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


def _blocks(fh):
    """The rest of binary file ``fh``, read block by block into one reused 1 MiB buffer."""
    buffer = bytearray(1 << 20)
    while size := fh.readinto(buffer):
        yield memoryview(buffer)[:size]


def sha256(*parts) -> bytes:
    """The sha256 digest of the byte strings of iterables ``parts``, in order.

    Every digest the package takes comes from here.  hashlib is imported on
    the first call, so a process that never hashes never loads OpenSSL.
    """
    import hashlib

    digest = hashlib.sha256()
    for part in itertools.chain(*parts):
        digest.update(part)
    return digest.digest()


def save_dataset_companion(ds: IdentityDataset, dataset, path) -> None:
    """Write to ``path`` the companion of dataset file ``dataset``, whose records parse to ``ds``.

    Layout: magic, the sha256 of the dataset file's bytes followed by the rest
    of the companion, u64 n, u64 d, then n little-endian int64 sample ids, n
    int64 identities and n x d float64 features, row-major.
    """
    body = [struct.pack("<QQ", ds.n_samples, ds.input_dim),
            *(np.ascontiguousarray(a, dtype=t) for a, t in
              ((ds.sample_ids, "<i8"), (ds.labels, "<i8"), (ds.X, "<f8")))]
    with open(dataset, "rb") as fh:
        digest = sha256(_blocks(fh), body)
    with open(path, "wb") as fh:
        fh.write(COMPANION_MAGIC + digest)
        for part in body:
            fh.write(part)


def _companion_arrays(path):
    """(header line, (sample ids, identities, features)) from the companion of
    ``path`` if its magic, length and digest all match the dataset file; None
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
        # hash the dataset file in blocks, keeping only its header line; head[-16:] is n, d
        with open(path, "rb") as fh:
            header = fh.readline()
            if sha256((header,), _blocks(fh), (head[-16:], body)) != digest:
                return None
    except OSError:
        return None
    ids = np.frombuffer(body, dtype="<i8", count=2 * n).reshape(2, n)
    features = np.frombuffer(body, dtype="<f8", count=n * d, offset=16 * n).reshape(n, d)
    return header, (ids[0], ids[1], features)


def _spec_from_header(path, spec) -> HierarchySpec | None:
    keys = {f.name for f in fields(HierarchySpec)}
    if spec is not None and (not isinstance(spec, dict) or set(spec) != keys):
        raise FormatError(f"{path}: header spec must be null or have the keys {sorted(keys)}")
    try:
        return HierarchySpec(**spec) if spec is not None else None
    except ContractViolation as exc:
        raise FormatError(f"{path}: bad header spec: {exc}") from exc


TEXT_BLOCK = 1 << 18          # bytes of dataset text decoded and parsed at a time


def _text_blocks(path, fh):
    """The non-blank lines of the rest of binary file ``fh`` as UTF-8 text, one list
    per block of about ``TEXT_BLOCK`` bytes.  A block ends after a newline, so a
    ``splitlines`` break never spans two and the lines are the whole text's."""
    while chunk := fh.read(TEXT_BLOCK) + fh.readline():
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
        yield [ln for ln in text.splitlines() if ln.strip()]


def _record_arrays(path, sample_ids, labels, feats):
    try:
        ids = np.array([sample_ids, labels], dtype=np.int64)
        features = np.array(feats, dtype=np.float64)
    except (OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: ids must fit in int64 and x must be equal-length "
                          f"number lists: {exc}") from exc
    return ids[0], ids[1], features


def _parse_records(path, blocks, n_declared):
    """(sample ids, identities, features) of the record lines of a dataset file,
    given as lists of lines.  Each block becomes arrays as soon as it is parsed;
    the count is checked after the last block, and the blocks' arrays are then
    joined.  No records give empty arrays, whose features are not 2-D."""
    parts = []
    found = 0
    for lines in filter(None, blocks):
        parts.append(_record_arrays(path, *read_json_records(path, lines, "record", lambda r: (
            json_field(r["sample"], int), json_field(r["identity"], int), r["x"]))))
        found += len(lines)
    if found != n_declared:
        raise FormatError(f"{path}: header declares {n_declared} samples, found {found}")
    if not parts:
        return _record_arrays(path, [], [], [])
    try:
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))
    except ValueError as exc:
        raise FormatError(f"{path}: records of unequal shape: {exc}") from exc


def load_dataset_jsonl(path) -> IdentityDataset:
    """The dataset in JSON-lines file ``path``.  A companion whose digest matches
    the file's bytes supplies the arrays; otherwise the records are parsed, one
    ``TEXT_BLOCK`` of text at a time.  A faulty file raises the ``FormatError`` of
    the first fault met in that order: per block its UTF-8 text, its records, then
    their arrays; the record count after the last block, then the join."""
    # with a companion the bytes are save_dataset_jsonl's, so the header line is enough
    header_line, arrays = _companion_arrays(path) or (None, None)
    with io.BytesIO(header_line) if arrays is not None else open(path, "rb") as fh:
        blocks = _text_blocks(path, fh)
        lines = next(filter(None, blocks), None)
        if lines is None:
            raise FormatError(f"{path}: empty dataset file")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: bad header line: {exc}") from exc
        if not isinstance(header, dict):
            raise FormatError(f"{path}: header line must be a JSON object")
        try:
            counts = tuple(json_field(header[k], int) for k in ("input_dim", "n_samples",
                                                                "n_identities"))
            seed = None if header.get("seed") is None else json_field(header["seed"], int)
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{path}: the header needs integer input_dim, n_samples and "
                              f"n_identities, and an integer or null seed: {exc}") from exc
        if arrays is None:
            arrays = _parse_records(path, itertools.chain([lines[1:]], blocks), counts[1])
    spec = _spec_from_header(path, header.get("spec"))
    try:
        ds = IdentityDataset(sample_ids=arrays[0], labels=arrays[1], features=arrays[2],
                             spec=spec, seed=seed)
    except ContractViolation as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if (ds.input_dim, ds.n_samples, ds.n_identities) != counts:
        raise FormatError(f"{path}: header counts disagree with records")
    return ds
