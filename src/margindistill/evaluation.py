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

import json
from dataclasses import dataclass

import numpy as np

from .data import IdentityDataset, json_field, read_text
from .errors import (
    CapacityError,
    ContractViolation,
    DegenerateInput,
    FormatError,
    InsufficientData,
)
from .mlp import MlpModel, forward_batch
from .numerics import Rng, pairwise_sq_euclidean
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
    roc_points: list[tuple[float, float]]  # (false-accept rate, true-accept rate)


def _embeddings_for(embedder, ds: IdentityDataset, rows: np.ndarray) -> np.ndarray:
    if isinstance(embedder, TeacherOracle):
        return embedder.embed_rows(ds, rows)
    if isinstance(embedder, MlpModel):
        emb, _ = forward_batch(embedder, ds.X[rows])
        return emb
    raise ContractViolation(f"cannot embed with a {type(embedder).__name__}")


def build_pairs(
    ds: IdentityDataset, n_pos: int, n_neg: int, rng: Rng
) -> PairSet:
    """n_pos same-identity and n_neg different-identity sample-id pairs.

    No unordered pair repeats.  Rejection sampling with a deterministic
    enumeration fallback keeps tight requests (all available pairs) feasible.
    """
    if n_pos < 0 or n_neg < 0:
        raise ContractViolation("pair counts must be >= 0")
    pos_available, neg_available = ds.pair_capacity()
    if n_pos > pos_available:
        raise CapacityError(f"requested {n_pos} positive pairs, only {pos_available} exist")
    if n_neg > neg_available:
        raise CapacityError(f"requested {n_neg} negative pairs, only {neg_available} exist")

    a_ids: list[int] = []
    b_ids: list[int] = []
    same: list[bool] = []

    def collect(want: int, want_same: bool) -> None:
        seen: set[tuple[int, int]] = set()
        attempts = 0
        budget = 200 * want + 10_000
        while len(seen) < want and attempts < budget:
            attempts += 1
            if want_same:
                ident = ds.identity_list[rng.randint(ds.n_identities)]
                rows = ds.rows_of(ident)
                if rows.size < 2:
                    continue
                i, j = rng.sample_indices(rows.size, 2)
                r1, r2 = int(rows[i]), int(rows[j])
            else:
                r1 = rng.randint(ds.n_samples)
                r2 = rng.randint(ds.n_samples)
                if r1 == r2 or ds.labels[r1] == ds.labels[r2]:
                    continue
            key = (min(r1, r2), max(r1, r2))
            if key in seen:
                continue
            seen.add(key)
            a_ids.append(int(ds.sample_ids[key[0]]))
            b_ids.append(int(ds.sample_ids[key[1]]))
            same.append(want_same)
        if len(seen) < want:
            # deterministic fallback: the remaining valid pairs, row-major
            valid = np.triu((ds.labels[:, None] == ds.labels) == want_same, k=1)
            taken = np.array(sorted(seen), dtype=np.int64).reshape(-1, 2)
            valid[taken[:, 0], taken[:, 1]] = False
            r1, r2 = np.nonzero(valid)
            picks = rng.sample_indices(r1.size, want - len(seen))
            a_ids.extend(ds.sample_ids[r1[picks]].tolist())
            b_ids.extend(ds.sample_ids[r2[picks]].tolist())
            same.extend([want_same] * len(picks))

    collect(n_pos, True)
    collect(n_neg, False)
    return PairSet(a_ids=np.array(a_ids), b_ids=np.array(b_ids), same=np.array(same))


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
    levels = np.unique(d)
    thresholds = np.concatenate(
        [levels[:1], 0.5 * (levels[:-1] + levels[1:]), levels[-1:] + 1.0])
    pos = np.sort(d[same])
    neg = np.sort(d[~same])
    true_accepts = np.searchsorted(pos, thresholds, side="left")
    false_accepts = np.searchsorted(neg, thresholds, side="left")
    accuracy = (true_accepts + (neg.size - false_accepts)) / d.size
    best = int(np.argmax(accuracy))                   # first max = smallest threshold
    tar = true_accepts / max(pos.size, 1)             # a class with no pairs reads 0
    far = false_accepts / max(neg.size, 1)
    return VerificationReport(
        best_accuracy=float(accuracy[best]),
        best_threshold=float(thresholds[best]),
        roc_points=list(zip(far.tolist(), tar.tolist())),
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
    idents = ds.identity_list
    centroids = np.stack([emb[ds.rows_of(i)].mean(axis=0) for i in idents])
    return idents, pairwise_sq_euclidean(centroids)


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

def save_pairs_jsonl(pairs: PairSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, s in zip(pairs.a_ids, pairs.b_ids, pairs.same):
            fh.write(json.dumps({"a": int(a), "b": int(b), "same": bool(s)}) + "\n")


def load_pairs_jsonl(path) -> PairSet:
    a_ids = []
    b_ids = []
    same = []
    for ln in read_text(path).splitlines():
        if not ln.strip():
            continue
        try:
            rec = json.loads(ln)
            a_ids.append(json_field(rec["a"], int))
            b_ids.append(json_field(rec["b"], int))
            same.append(json_field(rec["same"], bool))
        except (json.JSONDecodeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad pair record: {exc}") from exc
    if not a_ids:
        raise FormatError(f"{path}: empty pair file")
    try:
        ids = np.array([a_ids, b_ids], dtype=np.int64)
    except OverflowError as exc:
        raise FormatError(f"{path}: pair ids must fit in int64: {exc}") from exc
    return PairSet(a_ids=ids[0], b_ids=ids[1], same=np.array(same))
