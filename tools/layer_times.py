"""Microseconds per call of each training-loop layer at perfbench's ``comparison`` shape.

    PYTHONPATH=src python3 tools/layer_times.py [batches] [seed]

Trains the comparison teacher (128-128-128 hidden, 32-dim output, 500
iterations) and a fixed-margin student (32-32 hidden, 16-dim output, 600
iterations) on the default dataset, draws ``batches`` (default 500) PK batches
with p = k = 8, and times every layer over all of them: the best of five
passes, divided by the number of calls.  Column "dim 16" is the student and
"dim 32" the teacher; ``triplet_gaps`` reads the column's own embeddings.
"""

import sys
import time

import numpy as np

from margindistill.data import (
    HierarchySpec, generate_hierarchical, mine_triplets, sample_pk_batches)
from margindistill.loss import MarginConfig, batch_loss
from margindistill.mlp import backward_batch, forward_batch, init_mlp, init_sgd, sgd_step
from margindistill.numerics import Rng
from margindistill.teacher import triplet_gaps
from margindistill.training import DistillConfig, TeacherTrainConfig, distill, train_teacher

P = K = 8
MARGIN = MarginConfig.fixed(0.3)


def per_call(fn, calls, passes=5):
    """Best pass over ``calls`` (argument tuples), in microseconds per call."""
    best = float("inf")
    for _ in range(passes):
        t0 = time.perf_counter()
        for args in calls:
            fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best / len(calls) * 1e6


def layer_times(model, batches, ds):
    emb_cache = [forward_batch(model, ds.X[b.entries]) for b in batches]
    mined = [mine_triplets(b, e, "semi_hard") for b, (e, _) in zip(batches, emb_cache)]
    results = [batch_loss(e, t, None, MARGIN) for (e, _), t in zip(emb_cache, mined)]
    grads = [backward_batch(model, c, r.grad) for (_, c), r in zip(emb_cache, results)]
    state, stepped = init_sgd(model, 0.001, 0.9), model.copy()
    return {
        "forward_batch": per_call(forward_batch, [(model, ds.X[b.entries]) for b in batches]),
        "mine_triplets": per_call(mine_triplets, [(b, e, "semi_hard")
                                                  for b, (e, _) in zip(batches, emb_cache)]),
        "triplet_gaps": per_call(triplet_gaps, [(e, t) for (e, _), t in zip(emb_cache, mined)]),
        "batch_loss": per_call(batch_loss, [(e, t, None, MARGIN)
                                            for (e, _), t in zip(emb_cache, mined)]),
        "backward_batch": per_call(backward_batch, [(model, c, r.grad)
                                                    for (_, c), r in zip(emb_cache, results)]),
        "sgd_step": per_call(sgd_step, [(state, stepped, g) for g in grads]),
    }


def main(argv):
    count = int(argv[0]) if argv else 500
    seed = int(argv[1]) if len(argv) > 1 else 0
    ds = generate_hierarchical(HierarchySpec(seed=seed))
    oracle, _ = train_teacher(ds, TeacherTrainConfig(iterations=500), seed=seed)
    student = init_mlp((ds.input_dim, 32, 32, 16), True, Rng(seed + 1))
    student, _ = distill(ds, oracle, student, DistillConfig(margin=MARGIN, iterations=600))
    batches = sample_pk_batches(ds, P, K, Rng(seed + 2), count)
    sampling = per_call(lambda: sample_pk_batches(ds, P, K, Rng(seed + 2), count), [()]) / count
    columns = [layer_times(student, batches, ds), layer_times(oracle.model, batches, ds)]
    print(f"us per call, p = k = {P}, {count} batches, numpy {np.__version__}")
    print(f"{'layer':<20}{'dim 16':>10}{'dim 32':>10}")
    print(f"{'sample_pk_batches':<20}{sampling:>10.1f}{'':>10}  (per batch)")
    for name in columns[0]:
        print(f"{name:<20}{columns[0][name]:>10.1f}{columns[1][name]:>10.1f}")


if __name__ == "__main__":
    main(sys.argv[1:])
