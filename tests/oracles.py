"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: gradients come from
central finite differences, forwards from straight-line loops, selections
from brute-force enumeration.  The last section is the exception: it keeps
earlier library implementations that faster code must match bit for bit.
"""

import math
import struct

import numpy as np

from margindistill.numerics import pairwise_sq_euclidean


def central_diff_grad(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at 1-d point x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def straightline_mlp_forward(weights, biases, x, normalize):
    """Loop-based re-implementation of the dense forward pass."""
    a = [float(v) for v in x]
    n_layers = len(weights)
    for layer in range(n_layers):
        w = weights[layer]
        b = biases[layer]
        fan_in, fan_out = w.shape
        z = []
        for j in range(fan_out):
            s = float(b[j])
            for i in range(fan_in):
                s += a[i] * float(w[i, j])
            z.append(s)
        if layer < n_layers - 1:
            a = [v if v > 0.0 else 0.0 for v in z]
        else:
            a = z
    if normalize:
        norm = math.sqrt(sum(v * v for v in a))
        a = [v / norm for v in a]
    return np.array(a)


def brute_force_all_triplets(labels):
    """Triple loop over (a, p, n) positions with the label constraints."""
    n = len(labels)
    out = []
    for a in range(n):
        for p in range(n):
            if p == a or labels[p] != labels[a]:
                continue
            for neg in range(n):
                if labels[neg] == labels[a]:
                    continue
                out.append((a, p, neg))
    return np.array(out, dtype=np.int64)


def brute_force_semi_hard(labels, dmat):
    """Per (a, p): negative by the semi-hard rule, scanning all negatives."""
    n = len(labels)
    out = []
    for a in range(n):
        for p in range(n):
            if p == a or labels[p] != labels[a]:
                continue
            d_ap = dmat[a, p]
            best_violating = None
            farthest = None
            for neg in range(n):
                if labels[neg] == labels[a]:
                    continue
                d_an = dmat[a, neg]
                if farthest is None or d_an > dmat[a, farthest]:
                    farthest = neg
                if d_an > d_ap and (
                    best_violating is None or d_an < dmat[a, best_violating]
                ):
                    best_violating = neg
            out.append((a, p, best_violating if best_violating is not None else farthest))
    return np.array(out, dtype=np.int64)


def exhaustive_sweep_best_accuracy(distances, same):
    """Best same/different accuracy over every achievable decision split.

    Walks k = "classify the k closest pairs as same" for k = 0..n over the
    sorted distances, skipping splits that would cut through tied values.
    Returns (best_accuracy, list of achievable accuracies).
    """
    d = list(distances)
    n = len(d)
    order = sorted(range(n), key=lambda i: d[i])
    best = 0.0
    achieved = []
    for k in range(n + 1):
        if 0 < k < n and d[order[k - 1]] == d[order[k]]:
            continue  # a threshold cannot separate tied distances
        correct = 0
        for rank, idx in enumerate(order):
            predicted_same = rank < k
            if predicted_same == bool(same[idx]):
                correct += 1
        acc = correct / n
        achieved.append(acc)
        best = max(best, acc)
    return best, achieved


def unit_vector(rng, dim):
    v = rng.normals(dim)
    return v / math.sqrt(float(np.dot(v, v)))


def struct_embedding_table_bytes(sample_ids, identities, vectors):
    """TFEMB1 bytes written record by record with struct, in sample-id order."""
    vectors = np.asarray(vectors)
    out = [b"TFEMB1", struct.pack("<II", len(sample_ids), vectors.shape[1])]
    for i in sorted(range(len(sample_ids)), key=lambda i: sample_ids[i]):
        out.append(struct.pack("<II", int(identities[i]), int(sample_ids[i])))
        out.append(vectors[i].astype("<f4").tobytes())
    return b"".join(out)


def brute_force_sweep(distances, same):
    """Candidate thresholds and, per threshold, (accuracy, false-accept rate,
    true-accept rate) by counting every pair under "same iff distance < t".

    Candidates: the smallest distance, each midpoint of consecutive distinct
    distances, and the largest distance + 1.
    """
    levels = sorted(set(distances))
    thresholds = [levels[0]]
    thresholds += [0.5 * (lo + hi) for lo, hi in zip(levels, levels[1:])]
    thresholds.append(levels[-1] + 1.0)
    n_pos = sum(1 for s in same if s)
    n_neg = len(same) - n_pos
    rows = []
    for t in thresholds:
        tp = sum(1 for d, s in zip(distances, same) if s and d < t)
        fp = sum(1 for d, s in zip(distances, same) if not s and d < t)
        rows.append(((tp + n_neg - fp) / len(same),
                     fp / n_neg if n_neg else 0.0, tp / n_pos if n_pos else 0.0))
    return thresholds, rows


# ---------------------------------------------------------------------------
# Earlier library implementations of the training loop's steps.  The fast
# paths must reproduce them bit for bit, so these keep the old arithmetic
# (and call pairwise_sq_euclidean where the old code did) instead of
# deriving results independently.
# ---------------------------------------------------------------------------

def per_anchor_mining(labels, emb, strategy, rng=None):
    """Semi-hard or random_per_anchor mining, one anchor at a time."""
    labels = np.asarray(labels, dtype=np.int64)
    b = labels.size
    positions = np.arange(b)
    if strategy == "random_per_anchor":
        rows = []
        for a in range(b):
            pos = positions[(labels == labels[a]) & (positions != a)]
            if pos.size == 0:
                continue
            neg = positions[labels != labels[a]]
            rows.append((a, pos[rng.randint(pos.size)], neg[rng.randint(neg.size)]))
        return np.array(rows, dtype=np.int64).reshape(-1, 3)
    assert strategy == "semi_hard"
    dmat = pairwise_sq_euclidean(np.asarray(emb, dtype=np.float64))
    a_idx = []
    p_idx = []
    for a in range(b):
        pos = positions[(labels == labels[a]) & (positions != a)]
        a_idx.extend([a] * pos.size)
        p_idx.extend(pos.tolist())
    a_idx = np.array(a_idx, dtype=np.int64)
    p_idx = np.array(p_idx, dtype=np.int64)
    d_ap = dmat[a_idx, p_idx]
    rows = dmat[a_idx]
    neg_mask = labels[a_idx][:, None] != labels[None, :]
    violating = neg_mask & (rows > d_ap[:, None])
    has_violating = violating.any(axis=1)
    hardest_violating = np.where(violating, rows, np.inf).argmin(axis=1)
    farthest = np.where(neg_mask, rows, -np.inf).argmax(axis=1)
    n_idx = np.where(has_violating, hardest_violating, farthest)
    return np.column_stack([a_idx, p_idx, n_idx])


def add_at_batch_grad(emb, triplets, active):
    """batch_loss's per-sample gradient accumulated with three np.add.at calls."""
    emb = np.asarray(emb, dtype=np.float64)
    tri = np.asarray(triplets, dtype=np.int64)
    scale = 1.0 / tri.shape[0]
    act = np.where(active)[0]
    anchors, positives, negatives = emb[tri[act, 0]], emb[tri[act, 1]], emb[tri[act, 2]]
    grad = np.zeros_like(emb)
    np.add.at(grad, tri[act, 0], 2.0 * scale * (negatives - positives))
    np.add.at(grad, tri[act, 1], -2.0 * scale * (anchors - positives))
    np.add.at(grad, tri[act, 2], 2.0 * scale * (anchors - negatives))
    return grad


def pairwise_matrix_gaps(vectors, triplets):
    """Teacher gaps read from the full pairwise teacher-distance matrix."""
    dmat = pairwise_sq_euclidean(vectors)
    tri = np.asarray(triplets, dtype=np.int64)
    return np.maximum(dmat[tri[:, 0], tri[:, 2]] - dmat[tri[:, 0], tri[:, 1]], 0.0)
