"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: gradients come from
central finite differences, forwards from straight-line loops, selections
from brute-force enumeration.  The last section is the exception: it keeps
earlier library implementations that faster code must match bit for bit.
"""

import csv
import io
import json
import math
import struct
from pathlib import Path

import numpy as np

from margindistill import data
from margindistill.data import IdentityDataset, PkBatch, json_field, mine_triplets, read_text
from margindistill.errors import CapacityError, ContractViolation, FormatError
from margindistill.evaluation import PairSet
from margindistill.loss import batch_loss
from margindistill.mlp import backward_batch, forward_batch, init_sgd, sgd_step
from margindistill.numerics import Rng, pairwise_sq_euclidean
from margindistill.teacher import triplet_gaps
from margindistill.training import TrainLog


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
    """Per (a, p): negative by the semi-hard rule, scanning all negatives; the
    farthest negative is the first NaN, or else the first maximum."""
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
                if farthest is None or d_an > dmat[a, farthest] or (
                        np.isnan(d_an) and not np.isnan(dmat[a, farthest])):
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


def randint(rng, n):
    """An integer in [0, n): one word mod n."""
    return rng.next_uint64() % n


def uniform(rng):
    """A float in [0, 1): one word's top 53 bits times 2^-53."""
    return (rng.next_uint64() >> 11) * 2.0**-53


def rows_of(ds, identity):
    """The dataset rows of one identity, ascending."""
    return np.flatnonzero(ds.labels == identity)


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


def save_pairs_jsonl(pairs, path):
    """A pair file as the CLI reads it: one JSON line {a, b, same} per pair."""
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, s in zip(pairs.a_ids, pairs.b_ids, pairs.same):
            fh.write(json.dumps({"a": int(a), "b": int(b), "same": bool(s)}) + "\n")


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
            rows.append((a, pos[randint(rng, pos.size)], neg[randint(rng, neg.size)]))
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
    # every violator at +inf: argmin lands on the first inf, which may not violate
    lands = violating[np.arange(a_idx.size), hardest_violating]
    hardest_violating = np.where(lands, hardest_violating, violating.argmax(axis=1))
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


def per_triplet_calibration(vectors, ds, n_triplets, rng):
    """calibrate_margins's earlier sampling loop: per triplet, list the anchor's
    other rows and every other-identity row, then draw one of each.
    Returns (d_values, row triplets)."""
    eligible_rows = [
        r for r in range(ds.n_samples)
        if rows_of(ds, ds.labels[r]).size >= 2
    ]
    d_values = []
    rows = []
    for _ in range(n_triplets):
        a_row = eligible_rows[randint(rng, len(eligible_rows))]
        ident = int(ds.labels[a_row])
        same = [int(r) for r in rows_of(ds, ident) if r != a_row]
        p_row = same[randint(rng, len(same))]
        other = np.where(ds.labels != ident)[0]
        n_row = int(other[randint(rng, other.size)])
        d_an = vectors[a_row] - vectors[n_row]
        d_ap = vectors[a_row] - vectors[p_row]
        d_values.append(max(float(np.dot(d_an, d_an)) - float(np.dot(d_ap, d_ap)), 0.0))
        rows.append((a_row, p_row, n_row))
    return d_values, rows


def per_iteration_triplet_loop(model, ds, cfg, margin, rng, teacher_vectors=None):
    """training._run_triplet_loop drawing one per_batch_pk_sample per iteration, and
    random_per_anchor mining's words one at a time."""
    log = TrainLog()
    sgd = init_sgd(model, cfg.learning_rate, cfg.momentum)
    for it in range(cfg.iterations):
        batch = per_batch_pk_sample(ds, cfg.p, cfg.k, rng)
        emb, cache = forward_batch(model, ds.X[batch.entries])
        if cfg.mining == "random_per_anchor":
            triplets = per_anchor_mining(batch.labels, emb, cfg.mining, rng)
        else:
            triplets = mine_triplets(batch, emb, cfg.mining)
        gaps = None
        if margin.mode == "dynamic":
            gaps = triplet_gaps(teacher_vectors[batch.entries], triplets)
        result = batch_loss(emb, triplets, gaps, margin)
        grads = backward_batch(model, cache, result.grad)
        sgd_step(sgd, model, grads)
        log.append(
            it, result.loss, float(result.margins.mean()), float(result.active.mean())
        )
    return log


def one_shot_sq_euclidean(x, y=None):
    """pairwise_sq_euclidean as one (n, m, d) difference tensor, before it took row blocks."""
    x = np.asarray(x, dtype=np.float64)
    y = x if y is None else np.asarray(y, dtype=np.float64)
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def sq_euclidean(a, b):
    """Squared Euclidean distance of two vectors, one np.dot."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.dot(d, d))


# ---------------------------------------------------------------------------
# Earlier one-at-a-time and per-pair forms of the random draws, the data
# generator and the evaluation helpers.  The array forms must reproduce them
# bit for bit (the draws, the generator, the pair picks) or rank for rank
# (the centroid matrix).
# ---------------------------------------------------------------------------

def list_sample_indices(rng, n, k):
    """k distinct indices from range(n): partial Fisher-Yates on the next k words,
    swapping entries of a full list(range(n))."""
    idx = list(range(n))
    for i in range(k):
        j = i + randint(rng, n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]


def per_batch_pk_sample(ds, p, k, rng):
    """sample_pk_batch one word at a time: p of the identities with k or more rows,
    ascending, by list_sample_indices, then k of each chosen identity's rows,
    ascending, the same way.  Errors draw no word."""
    if p < 1 or k < 1:
        raise ContractViolation("p and k must be >= 1")
    identities, sizes = np.unique(ds.labels, return_counts=True)
    eligible = identities[sizes >= k]
    if eligible.size < p:
        raise CapacityError(
            f"need {p} identities with >= {k} samples, dataset has {eligible.size}")
    chosen = eligible[list_sample_indices(rng, eligible.size, p)]
    entries = []
    for ident in chosen:
        rows = rows_of(ds, ident)
        entries.append(rows[list_sample_indices(rng, rows.size, k)])
    return PkBatch(p, k, np.concatenate(entries), np.repeat(chosen, k))


def scalar_words(next_word, n):
    """n stream words, one next_word() call each."""
    return np.array([next_word() for _ in range(n)], dtype=np.uint64)


def scalar_uniforms(next_word, count):
    """count uniforms in [0, 1), each the top 53 bits of one word."""
    return np.array([(next_word() >> 11) * 2.0**-53 for _ in range(count)])


def scalar_normal(next_word):
    """One Box-Muller normal from two words, no cached spare; a zero u1 reads as 2^-53."""
    u1 = max(next_word() >> 11, 1) * 2.0**-53
    u2 = (next_word() >> 11) * 2.0**-53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def scalar_normals(next_word, count):
    return np.array([scalar_normal(next_word) for _ in range(count)], dtype=np.float64)


def nested_loop_generate(spec):
    """generate_hierarchical drawing one vector at a time: supercluster
    centers, then identity centers per supercluster, then samples per identity.
    Returns the dataset, the identity centers and each identity's supercluster."""
    rng = Rng(spec.seed)

    def draw():
        return scalar_normals(rng.next_uint64, spec.input_dim)

    s_centers = np.stack([spec.supercluster_spread * draw() for _ in range(spec.n_superclusters)])
    identity_centers = []
    supercluster_of = []
    for s in range(spec.n_superclusters):
        for _ in range(spec.identities_per_supercluster):
            identity_centers.append(s_centers[s] + spec.identity_spread * draw())
            supercluster_of.append(s)
    features = []
    labels = []
    for ident, center in enumerate(identity_centers):
        for _ in range(spec.samples_per_identity):
            features.append(center + spec.sample_noise * draw())
            labels.append(ident)
    ds = IdentityDataset(np.arange(len(features)), np.array(labels), np.stack(features),
                         spec=spec, seed=spec.seed)
    return ds, np.stack(identity_centers), np.array(supercluster_of, dtype=np.int64)


def per_pair_centroid_matrix(emb, ds):
    """Centroid distance matrix with one np.dot per identity pair."""
    centroids = np.stack([emb[rows_of(ds, i)].mean(axis=0) for i in ds.identity_list])
    n = len(centroids)
    mat = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            diff = centroids[i] - centroids[j]
            mat[i, j] = mat[j, i] = float(np.dot(diff, diff))
    return mat


def loop_build_pairs(ds, n_pos, n_neg, rng):
    """build_pairs whose enumeration fallback is a double loop over (r1, r2).
    Returns (a_ids, b_ids, same) arrays."""
    a_ids, b_ids, same = [], [], []

    def collect(want, want_same):
        if want == 0:
            return
        seen = set()
        attempts = 0
        budget = 200 * want + 10_000
        while len(seen) < want and attempts < budget:
            attempts += 1
            if want_same:
                ident = ds.identity_list[randint(rng, ds.n_identities)]
                rows = rows_of(ds, ident)
                if rows.size < 2:                     # refused after its two row words
                    rng.next_uint64(), rng.next_uint64()
                    continue
                i, j = list_sample_indices(rng, rows.size, 2)
                r1, r2 = int(rows[i]), int(rows[j])
            else:
                r1 = randint(rng, ds.n_samples)
                r2 = randint(rng, ds.n_samples)
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
            remaining = []
            for r1 in range(ds.n_samples):
                for r2 in range(r1 + 1, ds.n_samples):
                    if (ds.labels[r1] == ds.labels[r2]) != want_same:
                        continue
                    if (r1, r2) in seen:
                        continue
                    remaining.append((r1, r2))
            for idx in list_sample_indices(rng, len(remaining), want - len(seen)):
                r1, r2 = remaining[idx]
                a_ids.append(int(ds.sample_ids[r1]))
                b_ids.append(int(ds.sample_ids[r2]))
                same.append(want_same)

    collect(n_pos, True)
    collect(n_neg, False)
    return np.array(a_ids), np.array(b_ids), np.array(same)


def per_record_load_pairs(path):
    """load_pairs_jsonl with json.loads and json_field on every line."""
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


def whole_text_load_dataset(path):
    """load_dataset_jsonl's text path as one parse of the whole file: decode it
    all, split it into lines, parse every record, then count and convert."""
    try:
        lines = [ln for ln in Path(path).read_bytes().decode("utf-8").splitlines()
                 if ln.strip()]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines:
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
    sample_ids, labels, feats = [], [], []
    for ln in lines[1:]:
        try:
            rec = json.loads(ln)
            sample_ids.append(json_field(rec["sample"], int))
            labels.append(json_field(rec["identity"], int))
            feats.append(rec["x"])
        except (json.JSONDecodeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad record: {exc}") from exc
    if len(sample_ids) != counts[1]:
        raise FormatError(f"{path}: header declares {counts[1]} samples, found "
                          f"{len(sample_ids)}")
    try:
        ids = np.array([sample_ids, labels], dtype=np.int64)
        features = np.array(feats, dtype=np.float64)
    except (OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: ids must fit in int64 and x must be equal-length "
                          f"number lists: {exc}") from exc
    spec = data._spec_from_header(path, header.get("spec"))
    try:
        ds = IdentityDataset(sample_ids=ids[0], labels=ids[1], features=features,
                             spec=spec, seed=seed)
    except ContractViolation as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if (ds.input_dim, ds.n_samples, ds.n_identities) != counts:
        raise FormatError(f"{path}: header counts disagree with records")
    return ds


def certified_row_by_row(ranked, bound):
    """mine_triplets' certification as a row-wise minimum of the gaps."""
    with np.errstate(invalid="ignore"):
        certified = np.isfinite(ranked[:, -1]) & (np.diff(ranked).min(axis=1) > 2.0 * bound)
    return bool(certified.all())


def per_identity_means(emb, labels):
    """Each identity's mean embedding, one ``mean`` per identity."""
    return np.stack([emb[labels == ident].mean(axis=0) for ident in np.unique(labels)])


def csv_writer_roc(points):
    """roc.csv's text as csv.writer writes it."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["false_accept_rate", "true_accept_rate"])
    writer.writerows(points)
    return fh.getvalue()
