"""Traced mode: per-layer timings taken from outside the program.

The tracer replaces a public function in the namespace where its caller
looks it up (for example ``margindistill.training.mine_triplets``) with a
timing wrapper, and puts the original back when the run ends.  The
program's source is not touched.  Each wrapped call is a span; spans nest
through a stack, so a span's self time is its duration minus that of the
wrapped calls it made.

Two measurements replay a call after it returns, so that they do not
perturb the call's own timing: the number of ``Rng.next_uint64`` draws of a
PK sampling (replayed on a copy of the generator) and the traced-allocation
peak of a threshold sweep (replayed under ``tracemalloc``).  Replay time is
booked as a child of the enclosing span and is subtracted from the traced
wall time.
"""

from __future__ import annotations

import copy
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[list[float]] = []
        self.role = "other"        # "teacher" inside train_teacher, "student" inside distill
        self.replay_s = 0.0
        self._written: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn, args, kwargs, before=None, after=None):
        state = self._replay(lambda: before(args, kwargs)) if before else None
        child = [0.0]
        self._stack.append(child)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dt
            self.calls[name] += 1
            self.total[name] += dt
            self.self_time[name] += dt - child[0]
        if after:
            after(args, kwargs, result, dt, state)
        return result

    def _replay(self, fn):
        """Run benchmark-side measurement work outside every span's self time."""
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        self.replay_s += dt
        if self._stack:
            self._stack[-1][0] += dt
        return out

    def patch(self, module, attr, name, before=None, after=None, role=None):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            span = name.format(role=self.role)
            if role is None:
                return self._span(span, original, args, kwargs, before, after)
            outer, self.role = self.role, role
            try:
                return self._span(span, original, args, kwargs, before, after)
            finally:
                self.role = outer

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))
        return original

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def begin_command(self):
        """A CLI command starts: reloads are loads of files it wrote itself."""
        self._written.clear()

    # -- hooks ---------------------------------------------------------------

    def _wrote(self, args, kwargs, result, dt, state):
        self._written.add(str(Path(args[1])))

    def _loaded(self, args, kwargs, result, dt, state):
        if str(Path(args[0])) in self._written:
            self.counts["reload_s"] += dt

    def install(self, md):
        """Wrap every layer boundary the per-layer metrics read."""
        cli, data, evaluation, mlp = md.cli, md.data, md.evaluation, md.mlp
        teacher, training = md.teacher, md.training
        counts = self.counts

        def on_trained(args, kwargs, result, dt, state):
            counts["skipped"] += len(result[1].skipped)

        def on_mined(args, kwargs, result, dt, state):
            counts["triplets"] += len(result)

        def on_loss(args, kwargs, result, dt, state):
            counts["active"] += int(result.active.sum())
            counts["loss_triplets"] += result.active.size

        def on_calibrate(args, kwargs, result, dt, state):
            counts["calibration_triplets"] += result.sample_count

        for module in (training, cli):
            self.patch(module, "train_teacher", "training.train_teacher", after=on_trained,
                       role="teacher")
            self.patch(module, "distill", "training.distill", after=on_trained, role="student")
        sample_pk_batch = training.sample_pk_batch
        threshold_sweep = evaluation.threshold_sweep

        def count_draws(args, kwargs, result, dt, rng_copy):
            def replay():
                draws = [0]
                step = rng_copy.next_uint64

                def counted():
                    draws[0] += 1
                    return step()

                rng_copy.next_uint64 = counted      # instance attribute shadows the method
                sample_pk_batch(*args[:3], rng_copy)
                return draws[0]

            counts["rng_draws"] += self._replay(replay)

        def sweep_peak(args, kwargs, result, dt, state):
            n = len(args[0])
            if n <= counts["sweep_pairs"]:
                return

            def replay():
                tracemalloc.start()
                try:
                    threshold_sweep(*args, **kwargs)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

            counts["sweep_pairs"] = n
            counts["sweep_peak_bytes"] = max(counts["sweep_peak_bytes"], self._replay(replay))

        self.patch(training, "sample_pk_batch", "data.sample_pk_batch",
                   before=lambda a, kw: copy.deepcopy(a[3]), after=count_draws)
        self.patch(training, "forward_batch", "mlp.forward_batch[{role}]")
        self.patch(training, "mine_triplets", "data.mine_triplets", after=on_mined)
        self.patch(data, "pairwise_sq_euclidean", "data.mine_pairwise")
        self.patch(training, "pairwise_sq_euclidean", "teacher.gap")
        self.patch(training, "batch_loss", "loss.batch_loss", after=on_loss)
        self.patch(training, "backward_batch", "mlp.backward_batch[{role}]")
        self.patch(training, "sgd_step", "mlp.sgd_step[{role}]")
        self.patch(training, "tabulate", "teacher.tabulate")
        for module in (data, cli):
            self.patch(module, "generate_hierarchical", "data.generate_hierarchical")
        self.patch(cli, "save_dataset_jsonl", "data.save_dataset_jsonl", after=self._wrote)
        self.patch(cli, "load_dataset_jsonl", "data.load_dataset_jsonl", after=self._loaded)
        for module in (mlp, cli):
            self.patch(module, "save_checkpoint", "mlp.save_checkpoint", after=self._wrote)
            self.patch(module, "load_checkpoint", "mlp.load_checkpoint", after=self._loaded)
        for module in (teacher, cli):
            self.patch(module, "save_embedding_table", "teacher.save_embedding_table",
                       after=self._wrote)
            self.patch(module, "load_embedding_table", "teacher.load_embedding_table",
                       after=self._loaded)
            self.patch(module, "calibrate_margins", "teacher.calibrate_margins",
                       after=on_calibrate)
        for attr in ("build_pairs", "verify", "centroid_distance_matrix",
                     "structure_correlation"):
            self.patch(evaluation, attr, f"evaluation.{attr}")
        self.patch(evaluation, "threshold_sweep", "evaluation.threshold_sweep",
                   after=sweep_peak)

    # -- per-layer metrics ---------------------------------------------------

    def mean(self, name, scale):
        n = self.calls[name]
        return self.total[name] / n * scale if n else 0.0

    def metrics(self, run):
        """Per-layer metric values; a layer the workload never calls reads 0."""
        us, ms = 1e6, 1e3
        c = self.counts
        iters = self.calls["data.sample_pk_batch"]
        loop_self = self.self_time["training.train_teacher"] + self.self_time["training.distill"]
        mined = self.calls["data.mine_triplets"]
        values = {
            "package.import_ms": (run.import_s * ms, "ms"),
            "numerics.rng_draws_per_iter": (c["rng_draws"] / iters if iters else 0.0, "count"),
            "data.generate_hierarchical_ms": (self.mean("data.generate_hierarchical", ms), "ms"),
            "data.save_dataset_jsonl_ms": (self.mean("data.save_dataset_jsonl", ms), "ms"),
            "data.load_dataset_jsonl_ms": (self.mean("data.load_dataset_jsonl", ms), "ms"),
            "data.sample_pk_batch_us": (self.mean("data.sample_pk_batch", us), "us"),
            "data.mine_triplets_us": (self.mean("data.mine_triplets", us), "us"),
            "data.mine_pairwise_us": (self.mean("data.mine_pairwise", us), "us"),
            "data.triplets_per_batch": (c["triplets"] / mined if mined else 0.0, "count"),
            "loss.batch_loss_us": (self.mean("loss.batch_loss", us), "us"),
            "loss.active_frac": (c["active"] / c["loss_triplets"] if c["loss_triplets"] else 0.0,
                                 "ratio"),
        }
        for role in ("teacher", "student"):
            for step, short in (("forward_batch", "forward"), ("backward_batch", "backward"),
                                ("sgd_step", "sgd_step")):
                values[f"mlp.{short}_{role}_us"] = (self.mean(f"mlp.{step}[{role}]", us), "us")
        n_cal = c["calibration_triplets"]
        values.update({
            "mlp.save_checkpoint_ms": (self.mean("mlp.save_checkpoint", ms), "ms"),
            "mlp.load_checkpoint_ms": (self.mean("mlp.load_checkpoint", ms), "ms"),
            "teacher.gap_us": (self.mean("teacher.gap", us), "us"),
            "teacher.tabulate_ms": (self.mean("teacher.tabulate", ms), "ms"),
            "teacher.calibrate_margins_ms": (self.mean("teacher.calibrate_margins", ms), "ms"),
            "teacher.calibrate_us_per_triplet": (
                self.total["teacher.calibrate_margins"] / n_cal * us if n_cal else 0.0, "us"),
            "teacher.save_embedding_table_ms": (self.mean("teacher.save_embedding_table", ms),
                                                "ms"),
            "teacher.load_embedding_table_ms": (self.mean("teacher.load_embedding_table", ms),
                                                "ms"),
        })
        for attr in ("build_pairs", "verify", "threshold_sweep", "centroid_distance_matrix",
                     "structure_correlation"):
            values[f"evaluation.{attr}_ms"] = (self.mean(f"evaluation.{attr}", ms), "ms")
        values.update({
            "evaluation.threshold_sweep_peak_mb": (c["sweep_peak_bytes"] / 2**20, "MB"),
            "training.loop_self_us": (loop_self / iters * us if iters else 0.0, "us"),
            "training.skipped_batches": (c["skipped"], "count"),
        })
        commands = run.command_times
        for command in ("gen-data", "train-teacher", "calibrate", "distill", "evaluate",
                        "compare"):
            times = commands.get(command, [])
            key = "cli." + command.replace("-", "_") + "_s"
            values[key] = (sum(times) / len(times) if times else 0.0, "s")
        values["cli.reload_ms"] = (
            c["reload_s"] / run.rounds * ms if commands else 0.0, "ms")
        values["trace.wall_s"] = (run.wall_s() - self.replay_s, "s")
        return values
