"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: gradients come from
central finite differences, forwards from straight-line loops, selections
from brute-force enumeration.
"""

import math
import struct

import numpy as np


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
