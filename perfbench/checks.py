"""Independent recomputations and property checks for the benchmark's outputs.

Everything here reads the program's artifacts with its own parsers and
recomputes results with its own numpy code; nothing calls into
``margindistill``.  Each ``check_*`` function raises :class:`CheckFailed`
with a one-line reason when an output is wrong.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from collections import defaultdict

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's recomputation."""


# ---------------------------------------------------------------------------
# file parsers (formats as documented in the top-level README)
# ---------------------------------------------------------------------------

def parse_checkpoint(path):
    """TFMLP1 file -> (layer dims, normalize flag, f32 weights, f32 biases)."""
    blob = open(path, "rb").read()
    if blob[:6] != b"TFMLP1":
        raise CheckFailed(f"{path}: bad checkpoint magic")
    (n_dims,) = struct.unpack_from("<I", blob, 6)
    dims = struct.unpack_from(f"<{n_dims}I", blob, 10)
    off = 10 + 4 * n_dims
    flag = blob[off]
    off += 1
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(np.frombuffer(blob, "<f4", fan_in * fan_out, off).reshape(fan_in, fan_out))
        off += 4 * fan_in * fan_out
        biases.append(np.frombuffer(blob, "<f4", fan_out, off))
        off += 4 * fan_out
    if off != len(blob):
        raise CheckFailed(f"{path}: {len(blob) - off} unexpected trailing bytes")
    return dims, bool(flag), weights, biases


def parse_table(path):
    """TFEMB1 file -> (sample ids, identities, (n, dim) f32 vectors)."""
    blob = open(path, "rb").read()
    if blob[:6] != b"TFEMB1":
        raise CheckFailed(f"{path}: bad embedding-table magic")
    count, dim = struct.unpack_from("<II", blob, 6)
    rec = np.dtype([("identity", "<u4"), ("sample", "<u4"), ("vector", "<f4", (dim,))])
    if len(blob) != 14 + count * rec.itemsize:
        raise CheckFailed(f"{path}: length disagrees with its header")
    table = np.frombuffer(blob, rec, count, 14)
    return table["sample"].astype(np.int64), table["identity"].astype(np.int64), table["vector"]


def table_rows(path, sample_ids):
    """TFEMB1 vectors as float64, one per given sample id, in that order."""
    ids, _, vectors = parse_table(path)
    at = np.searchsorted(ids, sample_ids)
    if not np.array_equal(ids[np.minimum(at, len(ids) - 1)], sample_ids):
        raise CheckFailed(f"{path}: table does not hold every sample")
    return vectors[at].astype(np.float64)


def parse_dataset(path):
    """Dataset JSONL -> (header, sample ids, identities, (n, dim) features)."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        recs = [json.loads(line) for line in fh if line.strip()]
    ids = np.array([r["sample"] for r in recs], dtype=np.int64)
    labels = np.array([r["identity"] for r in recs], dtype=np.int64)
    x = np.array([r["x"] for r in recs], dtype=np.float64)
    return header, ids, labels, x


def parse_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# recomputations
# ---------------------------------------------------------------------------

def forward(weights, biases, x, normalize=True):
    """Row embeddings of x under an MLP with ReLU hidden layers, in float64."""
    a = np.asarray(x, dtype=np.float64)
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = a @ np.asarray(w, dtype=np.float64) + np.asarray(b, dtype=np.float64)
        if i < len(weights) - 1:
            a = np.maximum(a, 0.0)
    if normalize:
        a = a / np.sqrt(np.einsum("ij,ij->i", a, a))[:, None]
    return a


def pair_cosine_distances(emb, rows_a, rows_b):
    ea, eb = emb[rows_a], emb[rows_b]
    na = np.sqrt(np.einsum("ij,ij->i", ea, ea))
    nb = np.sqrt(np.einsum("ij,ij->i", eb, eb))
    return 1.0 - np.einsum("ij,ij->i", ea, eb) / (na * nb)


def best_accuracy(distances, same):
    """Best accuracy of the rule "same iff distance < t" over every cut.

    Sort-based: after sorting, a threshold can only fall between two
    distinct distances or beyond either end, and each cut's accuracy is a
    difference of prefix counts.
    """
    order = np.argsort(distances, kind="stable")
    d = np.asarray(distances)[order]
    s = np.asarray(same, dtype=bool)[order]
    n = d.size
    same_below = np.concatenate([[0], np.cumsum(s)])          # same pairs with index < cut
    diff_below = np.concatenate([[0], np.cumsum(~s)])
    correct = same_below + (diff_below[-1] - diff_below)
    cuts = np.concatenate([[True], d[1:] > d[:-1], [True]])   # cut before index i
    return float(correct[cuts].max()) / n


def centroid_matrix(emb, labels):
    idents = np.unique(labels)
    centroids = np.stack([emb[labels == i].mean(axis=0) for i in idents])
    diff = centroids[:, None, :] - centroids[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def upper(mat):
    return mat[np.triu_indices(mat.shape[0], k=1)]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_accuracy(reported, emb, rows_a, rows_b, same):
    """The program's best accuracy equals the benchmark's own sweep."""
    own = best_accuracy(pair_cosine_distances(emb, rows_a, rows_b), same)
    if reported != own:
        raise CheckFailed(f"best_accuracy {reported!r} != recomputed {own!r}")


def check_structure(reported, teacher_emb, student_emb, labels):
    """Spearman structure correlation matches scipy on own centroid matrices."""
    from scipy.stats import spearmanr

    own = float(spearmanr(upper(centroid_matrix(teacher_emb, labels)),
                          upper(centroid_matrix(student_emb, labels))).statistic)
    if not math.isclose(reported, own, rel_tol=0.0, abs_tol=1e-9):
        raise CheckFailed(f"structure correlation {reported!r} != scipy {own!r}")


def check_calibration(report, vector_of):
    """Every recorded gap, and the extremes, recomputed from table vectors."""
    triplets = report["triplets"]
    if len(triplets) != report["sample_count"] or len(report["d_values"]) != len(triplets):
        raise CheckFailed("calibration report counts disagree")
    own = []
    for a, p, n in triplets:
        ea, ep, en = vector_of[a], vector_of[p], vector_of[n]
        dn, dp = ea - en, ea - ep
        own.append(max(float(np.dot(dn, dn)) - float(np.dot(dp, dp)), 0.0))
    if own != list(report["d_values"]):
        raise CheckFailed("calibration d values differ from recomputation")
    if (min(own), max(own)) != (report["d_min_observed"], report["d_max_observed"]):
        raise CheckFailed("calibration extremes differ from recomputation")


def check_table(vectors_f32, own_emb, ulps=0, atol=0.0):
    """TFEMB1 vectors are the float32 rounding of the own teacher forward.

    ``ulps`` allows for a last-bit difference in the float64 forward;
    ``atol`` for a forward taken from float32-rounded checkpoint weights.
    """
    own = own_emb.astype(np.float32)
    if vectors_f32.shape != own.shape:
        raise CheckFailed(f"table shape {vectors_f32.shape} != {own.shape}")
    ulp_gap = np.abs(vectors_f32.view(np.int32).astype(np.int64) - own.view(np.int32))
    bad = (ulp_gap > ulps) & (np.abs(vectors_f32.astype(np.float64) - own_emb) > atol)
    if bad.any():
        raise CheckFailed(f"{int(bad.sum())} table values differ from own teacher forward")


def check_checkpoint(parsed, weights, biases):
    """A TFMLP1 file holds exactly the float32 rounding of the given weights."""
    _, _, ck_w, ck_b = parsed
    for got, want in zip(ck_w + ck_b, list(weights) + list(biases)):
        if got.shape != want.shape or not np.array_equal(got, want.astype(np.float32)):
            raise CheckFailed("checkpoint does not hold the model's weights")


def check_train_log(rows, mode, m=0.0, m_min=0.0, m_max=0.0):
    """Margins respect the margin config; losses and active fractions are sane.

    ``rows`` are dicts with loss, mean_margin and active_frac, one per
    non-skipped iteration.  A mean of margins that each lie in
    [m_min, m_max] lies there too, up to one rounding of the mean.
    """
    tol = 1e-12
    for r in rows:
        loss, margin, active = r["loss"], r["mean_margin"], r["active_frac"]
        if not (math.isfinite(loss) and loss >= 0.0):
            raise CheckFailed(f"iteration {r['iter']}: loss {loss!r}")
        if not (0.0 <= active <= 1.0):
            raise CheckFailed(f"iteration {r['iter']}: active_frac {active!r}")
        if mode == "fixed":
            ok = abs(margin - m) <= tol * max(1.0, m)
        else:
            ok = m_min - tol <= margin <= m_max + tol
        if not ok:
            raise CheckFailed(f"iteration {r['iter']}: {mode} margin {margin!r} out of bounds")


def expected_triplets(p, k, strategy):
    if strategy == "all":
        return p * k * (k - 1) * (p - 1) * k
    if strategy == "semi_hard":
        return p * k * (k - 1)
    raise ValueError(f"no fixed triplet count for {strategy!r}")


def check_triplet_count(count, p, k, strategy):
    want = expected_triplets(p, k, strategy)
    if count != want:
        raise CheckFailed(f"{strategy} mining gave {count} triplets per batch, expected {want}")


def check_compare(csv_path, reports):
    """Per-run rows equal the reports; each mean row is the mean of its runs.

    ``reports`` are the parsed evaluation.json documents that were compared.
    """
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    runs = defaultdict(list)
    means = {}
    for label, seed, acc, struct_ in rows:
        entry = (float(acc), float(struct_) if struct_ else None)
        if seed == "mean":
            means[label] = entry
        else:
            runs[label].append((int(seed),) + entry)
    want = defaultdict(list)
    for r in reports:
        want[r["label"]].append((r["seed"], r["best_accuracy"], r["structure_correlation"]))
    if {k: sorted(v) for k, v in runs.items()} != {k: sorted(v) for k, v in want.items()}:
        raise CheckFailed("compare rows differ from the evaluation reports")
    for label, entries in runs.items():
        accs = [e[1] for e in entries]
        structs = [e[2] for e in entries]
        acc, struct_ = means.get(label, (None, None))
        if acc is None or not math.isclose(acc, math.fsum(accs) / len(accs), rel_tol=1e-12):
            raise CheckFailed(f"compare mean accuracy for {label!r} is wrong")
        if None in structs:
            continue
        if struct_ is None or not math.isclose(
                struct_, math.fsum(structs) / len(structs), rel_tol=1e-12, abs_tol=1e-15):
            raise CheckFailed(f"compare mean structure correlation for {label!r} is wrong")
