"""Pair-based verification and teacher/student geometry comparison.

Verification sweeps a decision threshold over cosine distances of labeled
pairs and reports the best same/different accuracy.  Candidate thresholds
are the midpoints between consecutive distinct observed distances plus two
extremes: the minimum distance (classifies every pair as "different" under
the strict ``distance < threshold`` rule) and max distance + 1 (classifies
every pair as "same").  Ties break toward the smaller threshold.

Geometry preservation is measured as the Spearman rank correlation between
the strict upper triangles of two inter-identity centroid distance
matrices; ranks use the average convention for ties.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .data import IdentityDataset, json_field, read_json_records, read_text
from .errors import (
    CapacityError,
    ContractViolation,
    DegenerateInput,
    FormatError,
    InsufficientData,
)
from .mlp import MlpModel, embed
from .numerics import Rng, Words, pairwise_sq_euclidean, partial_shuffle, partial_shuffles
from .teacher import TeacherOracle


@dataclass
class PairSet:
    a_ids: np.ndarray
    b_ids: np.ndarray
    same: np.ndarray

    def __post_init__(self):
        self.a_ids = np.asarray(self.a_ids, dtype=np.int64)
        self.b_ids = np.asarray(self.b_ids, dtype=np.int64)
        self.same = np.asarray(self.same, dtype=bool)
        if not (self.a_ids.shape == self.b_ids.shape == self.same.shape):
            raise ContractViolation("pair arrays must align")

    def __len__(self) -> int:
        return self.a_ids.size


@dataclass
class VerificationReport:
    best_accuracy: float
    best_threshold: float
    false_accept_rates: np.ndarray    # the ROC: per swept threshold, ascending, the
    true_accept_rates: np.ndarray     # share of each class's pairs called "same"


def _embeddings_for(embedder, ds: IdentityDataset, rows: np.ndarray) -> np.ndarray:
    if isinstance(embedder, TeacherOracle):
        return embedder.embed_rows(ds, rows)
    if isinstance(embedder, MlpModel):
        return embed(embedder, ds.X[rows])
    raise ContractViolation(f"cannot embed with a {type(embedder).__name__}")


def build_pairs(
    ds: IdentityDataset, n_pos: int, n_neg: int, rng: Rng
) -> PairSet:
    """n_pos same-identity and n_neg different-identity sample-id pairs.

    No unordered pair repeats.  An attempt draws a random identity and two of its
    rows (a partial Fisher-Yates of two words, taken by a one-row identity too), or two
    random rows, refused on one row or one identity; a pair is kept at its first
    attempt.  After 200 * want + 10,000 attempts a deterministic enumeration
    fallback picks the rest, so tight requests stay feasible.  The draws are those
    of one draw at a time."""
    if n_pos < 0 or n_neg < 0:
        raise ContractViolation("pair counts must be >= 0")
    pos_available, neg_available = ds.pair_capacity()
    if n_pos > pos_available:
        raise CapacityError(f"requested {n_pos} positive pairs, only {pos_available} exist")
    if n_neg > neg_available:
        raise CapacityError(f"requested {n_neg} negative pairs, only {neg_available} exist")
    # at least `want` attempts run, so the words of both kinds' first rounds come in one draw
    words = Words(rng, n_pos * 3 + n_neg * 2)
    lo, hi = np.concatenate([_collect(ds, n_pos, True, words),
                             _collect(ds, n_neg, False, words)], axis=1)
    return PairSet(a_ids=ds.sample_ids[lo], b_ids=ds.sample_ids[hi],
                   same=np.repeat([True, False], [n_pos, n_neg]))


def _collect(ds: IdentityDataset, want: int, same: bool, words: Words):
    """(lower rows, higher rows) of ``build_pairs``' ``want`` pairs of one kind.  A round
    takes the words of the attempts that must still run at once, 3 per same-identity
    attempt and 2 per different-identity one, and decodes them as arrays."""
    n, sizes = ds.n_samples, ds.identity_sizes
    found = np.empty(0, dtype=np.int64)         # pair codes: lower row * n + higher row
    attempts, budget = 0, 200 * want + 10_000
    while found.size < want and attempts < budget:
        count = min(want - found.size, budget - attempts)
        w = words.take(count * (2 + same)).reshape(count, 2 + same)
        if same:
            ident = (w[:, 0] % np.uint64(ds.n_identities)).astype(np.intp)
            size = sizes[ident, None]
            # bounds size, size - 1; a one-row identity's are 1, 1 and it picks its one
            # row twice, which is refused below
            bounds = np.maximum(size - np.arange(2), 1).astype(np.uint64)
            picked = np.minimum(partial_shuffles(w[:, 1:], bounds), size - 1)
            r1, r2 = ds.identity_order[ds.identity_starts[ident, None] + picked].T
        else:
            r1, r2 = (w % np.uint64(n)).astype(np.intp).T
        attempts += count
        keep = (r1 != r2) & ((ds.labels[r1] == ds.labels[r2]) == same)
        codes = np.concatenate((found, np.minimum(r1, r2)[keep] * n + np.maximum(r1, r2)[keep]))
        found = codes[np.sort(np.unique(codes, return_index=True)[1])]    # first occurrences
    if found.size < want:
        # the remaining valid pairs, row-major; a code is the flat index of its pair
        valid = np.triu((ds.labels[:, None] == ds.labels) == same, k=1)
        valid.flat[found] = False
        r1, r2 = np.nonzero(valid)
        picks = partial_shuffle(words.take(want - found.size), r1.size)
        found = np.concatenate((found, r1[picks] * n + r2[picks]))
    return np.divmod(found, n)


def _pair_cosine_distances(embedder, ds: IdentityDataset, rows_a, rows_b) -> np.ndarray:
    unique_rows, position = np.unique(np.concatenate([rows_a, rows_b]), return_inverse=True)
    emb = _embeddings_for(embedder, ds, unique_rows)
    ea = emb[position[:rows_a.size]]
    eb = emb[position[rows_a.size:]]
    na = np.sqrt(np.einsum("ij,ij->i", ea, ea))
    nb = np.sqrt(np.einsum("ij,ij->i", eb, eb))
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise DegenerateInput("zero-norm embedding in verification pairs")
    return 1.0 - np.einsum("ij,ij->i", ea, eb) / (na * nb)


def threshold_sweep(distances: np.ndarray, same: np.ndarray) -> VerificationReport:
    """Best-accuracy threshold search on precomputed pair distances.

    A pair is predicted "same" when its distance is strictly below the
    threshold, so the count of such pairs per class is a left-sided
    ``searchsorted`` into that class's sorted distances; every rate is an
    exact count divided by its class size.
    """
    d = np.asarray(distances, dtype=np.float64)
    same = np.asarray(same, dtype=bool)
    if d.size == 0:
        raise ContractViolation("cannot sweep an empty pair set")
    if not np.all(np.isfinite(d)):
        raise DegenerateInput("pair distances must be finite")
    ordered = np.sort(d)         # np.unique(d)'s levels, without its import of numpy.ma
    levels = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    thresholds = np.concatenate(
        [levels[:1], 0.5 * (levels[:-1] + levels[1:]), levels[-1:] + 1.0])
    pos = np.sort(d[same])
    neg = np.sort(d[~same])
    true_accepts = np.searchsorted(pos, thresholds, side="left")
    false_accepts = np.searchsorted(neg, thresholds, side="left")
    accuracy = (true_accepts + (neg.size - false_accepts)) / d.size
    best = int(np.argmax(accuracy))                   # first max = smallest threshold
    return VerificationReport(
        best_accuracy=float(accuracy[best]),
        best_threshold=float(thresholds[best]),
        false_accept_rates=false_accepts / max(neg.size, 1),   # a class with no pairs reads 0
        true_accept_rates=true_accepts / max(pos.size, 1),
    )


def verify(embedder, ds: IdentityDataset, pairs: PairSet) -> VerificationReport:
    """Cosine-distance verification accuracy under the best swept threshold."""
    if len(pairs) == 0:
        raise ContractViolation("verify requires a non-empty pair set")
    rows_a = ds.rows_for(pairs.a_ids)
    rows_b = ds.rows_for(pairs.b_ids)
    wrong = np.flatnonzero((ds.labels[rows_a] == ds.labels[rows_b]) != pairs.same)
    if wrong.size:
        i = wrong[0]
        raise ContractViolation(f"pair ({pairs.a_ids[i]}, {pairs.b_ids[i]}) label disagrees "
                                "with the dataset identity map")
    distances = _pair_cosine_distances(embedder, ds, rows_a, rows_b)
    return threshold_sweep(distances, pairs.same)


def centroid_distance_matrix(
    embedder, ds: IdentityDataset
) -> tuple[list[int], np.ndarray]:
    """Pairwise squared Euclidean distances between per-identity mean embeddings.

    Returns (sorted identity ids, matrix); the matrix is exactly symmetric
    with a zero diagonal.
    """
    emb = _embeddings_for(embedder, ds, np.arange(ds.n_samples))
    return list(ds.identity_list), pairwise_sq_euclidean(_identity_means(emb, ds))


def _identity_means(emb: np.ndarray, ds: IdentityDataset) -> np.ndarray:
    """Row i: the mean of ``emb`` over the rows of ds's i-th smallest identity, equal
    to ``emb[rows].mean(axis=0)`` bit for bit.

    The identities of one size are gathered into one (identities, size, dim)
    block and reduced over its middle axis, which adds each identity's rows in
    ascending order as the per-identity mean does.  Padding unequal sizes into
    one block would not be exact: numpy sums a length-1 ``dim`` pairwise, and
    padding changes the pairing.  A generated dataset has one size, so one block.
    """
    sizes, starts, order = ds.identity_sizes, ds.identity_starts, ds.identity_order
    means = np.empty((sizes.size, emb.shape[1]), dtype=np.float64)
    for size in sorted(set(sizes.tolist())):
        of_size = np.flatnonzero(sizes == size)
        rows = order[starts[of_size, None] + np.arange(size)]
        means[of_size] = emb[rows].mean(axis=1)
    return means


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with the average convention for ties."""
    order = np.argsort(values, kind="stable")
    # tie groups: runs of equal sorted values, ranked start + 1 .. end + 1
    _, start, count = np.unique(values[order], return_index=True, return_counts=True,
                                equal_nan=False)
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (2 * start + count - 1) + 1.0, count)
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation (Pearson on average ranks)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ContractViolation("rank correlation needs equal-length inputs")
    if x.size < 3:
        raise InsufficientData("rank correlation needs >= 3 observations")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt(float(np.dot(rx, rx)) * float(np.dot(ry, ry)))
    if denom == 0.0:
        raise DegenerateInput("rank correlation undefined for constant ranks")
    return float(np.dot(rx, ry)) / denom


def structure_correlation(teacher_matrix: np.ndarray, student_matrix: np.ndarray) -> float:
    """Spearman correlation of the strict upper triangles of two centroid matrices."""
    tm = np.asarray(teacher_matrix, dtype=np.float64)
    sm = np.asarray(student_matrix, dtype=np.float64)
    if tm.shape != sm.shape or tm.ndim != 2 or tm.shape[0] != tm.shape[1]:
        raise ContractViolation("matrices must be square and equally shaped")
    n = tm.shape[0]
    if n < 3:
        raise InsufficientData("structure correlation needs >= 3 identities")
    iu = np.triu_indices(n, k=1)
    return spearman(tm[iu], sm[iu])


# ---------------------------------------------------------------------------
# pair file format: JSON lines {a, b, same}
# ---------------------------------------------------------------------------

# a file of json.dumps's lines for {"a": int, "b": int, "same": bool}, each ending in a
# newline; [0-9], because \d also takes other Unicode digits, which JSON refuses, and ids
# of at most 18 digits, which int64 holds
_PAIR_ID = r"-?(?:0|[1-9][0-9]{0,17})"
_CANONICAL_PAIRS = re.compile(
    rf'(?:\{{"a": {_PAIR_ID}, "b": {_PAIR_ID}, "same": (?:true|false)\}}\n)+')


def load_pairs_jsonl(path) -> PairSet:
    """The pairs of JSON-lines file ``path``.  A file of ``json.dumps``'s exact
    lines is read as numbers in one pass; any other file is decoded line by line
    as JSON.  Both give the same pairs, and the second the same errors."""
    text = read_text(path)
    if _CANONICAL_PAIRS.fullmatch(text):
        numbers = (text.replace('{"a": ', "").replace(', "b": ', " ")
                   .replace(', "same": true}', " 1").replace(', "same": false}', " 0"))
        a_ids, b_ids, same = np.fromstring(numbers, dtype=np.int64, sep=" ").reshape(-1, 3).T
        return PairSet(a_ids=a_ids, b_ids=b_ids, same=same == 1)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty pair file")
    a_ids, b_ids, same = read_json_records(path, lines, "pair record", lambda rec: (
        json_field(rec["a"], int), json_field(rec["b"], int), json_field(rec["same"], bool)))
    try:
        ids = np.array([a_ids, b_ids], dtype=np.int64)
    except OverflowError as exc:
        raise FormatError(f"{path}: pair ids must fit in int64: {exc}") from exc
    return PairSet(a_ids=ids[0], b_ids=ids[1], same=np.array(same))
