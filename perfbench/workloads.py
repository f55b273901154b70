"""The benchmark's workloads: rounds of the program's stages, timed from outside.

A run is a whole number of identical rounds, each on inputs derived from the
run seed and the round index.  Stage times are taken around the calls the
benchmark makes into ``margindistill``; correctness checks are queued and run
after the last round, outside every timed span.
"""

from __future__ import annotations

import functools
import json
import random
import resource
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import checks


@dataclass(frozen=True)
class LibraryPlan:
    """The README's dynamic-vs-fixed experiment, called through the library."""

    spec: dict = field(default_factory=dict)             # HierarchySpec overrides
    teacher: dict = field(default_factory=dict)          # TeacherTrainConfig overrides
    distill: dict = field(default_factory=dict)          # DistillConfig overrides
    student_dims: tuple = (32, 32, 16)                   # hidden layers + embedding
    variants: tuple = (("dynamic", 0.6, 1.8), ("fixed-0.3", 0.3, None),
                       ("fixed-0.4", 0.4, None), ("fixed-0.5", 0.5, None))
    pairs: tuple = (300, 300)
    calibration_triplets: int = 1000
    round_s: float = 6.0                                 # reference duration of one round

    @property
    def ops_per_round(self):
        return 2 + 2 * len(self.variants)

    def batch_shapes(self, md):
        """Distinct (p, k, mining) of the teacher and the students."""
        t = md.training.TeacherTrainConfig(**self.teacher)
        d = md.training.DistillConfig(margin=md.MarginConfig.fixed(0.3), **self.distill)
        return {(t.p, t.k, t.mining), (d.p, d.k, d.mining)}


@dataclass(frozen=True)
class CliPlan:
    """The six subcommands, called in-process through ``cli.main``."""

    config: dict                                         # CLI config keys shared by all commands
    pairs: tuple = (3000, 3000)
    round_s: float = 7.0
    ops_per_round: int = 9

    def batch_shapes(self, md):
        c = self.config
        return {(c[f"{s}.batch_p"], c[f"{s}.batch_k"], c[f"{s}.mining"])
                for s in ("teacher", "distill")}


PLANS = {
    "comparison": LibraryPlan(
        teacher={"iterations": 500}, distill={"iterations": 600}, round_s=5.5),
    "dense-mining": LibraryPlan(
        teacher={"iterations": 50, "mining": "all"},
        distill={"iterations": 60, "mining": "all"},
        variants=(("dynamic", 0.6, 1.8), ("fixed-0.3", 0.3, None)), round_s=4.6),
    "cli-protocol": CliPlan(config={
        "data.n_superclusters": 8, "data.identities_per_supercluster": 16,
        "data.samples_per_identity": 50, "data.input_dim": 32,
        "teacher.iterations": 200, "teacher.margin": 0.3, "teacher.batch_p": 8,
        "teacher.batch_k": 8, "teacher.mining": "semi_hard",
        "distill.iterations": 300, "distill.batch_p": 8, "distill.batch_k": 8,
        "distill.mining": "semi_hard", "distill.m": 0.3, "distill.m_min": 0.6,
        "distill.m_max": 1.8, "calibrate.n_triplets": 4000,
    }),
}


class Run:
    """Everything one benchmark process measures, counts and checks."""

    def __init__(self, launch):
        self.launch = launch
        self.import_s = 0.0                     # median fresh-interpreter import time
        self.rounds = 0
        self.stage_s = defaultdict(float)
        self.stage_work = defaultdict(float)
        self.setup_s: list[float] = []
        self.command_times = defaultdict(list)
        self.accuracies: list[float] = []
        self.structures: list[float] = []
        self.excluded_s = 0.0
        self.end = None
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed_ops: set = set()
        self.check_failures: list[str] = []
        self._checks: list = []
        self._round_done = 0

    def timed(self, stage, work, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        self.stage_s[stage] += time.perf_counter() - t0
        self.stage_work[stage] += work
        return result

    def excluded(self, fn, *args):
        """Benchmark-side work (input files, parsing) kept out of wall_s."""
        t0 = time.perf_counter()
        result = fn(*args)
        self.excluded_s += time.perf_counter() - t0
        return result

    def done(self, op, *deferred_checks):
        """Operation ``op`` of this round returned; queue its checks."""
        self._round_done += 1
        for fn in deferred_checks:
            self._checks.append(((self.rounds, op), fn))

    def run_round(self, plan, fn):
        self._round_done = 0
        try:
            fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed_ops.update((self.rounds, f"not-done-{i}")
                                   for i in range(plan.ops_per_round - self._round_done))
        else:
            if self._round_done != plan.ops_per_round:
                raise RuntimeError(f"round made {self._round_done} operations, "
                                   f"plan says {plan.ops_per_round}")
        self.attempted += plan.ops_per_round
        self.rounds += 1

    def finish_rounds(self):
        self.end = time.perf_counter()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run_checks(self):
        for op, fn in self._checks:
            try:
                fn()
            except checks.CheckFailed as exc:
                self.failed_ops.add(op)
                self.check_failures.append(f"round {op[0]} {op[1]}: {exc}")
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.failed_ops.add(op)
                self.check_failures.append(f"round {op[0]} {op[1]}: check raised")
        self._checks.clear()

    def check_traced_triplets(self, tracer, shapes):
        """The traced mean of mined triplets per batch matches the batch shape."""
        calls = tracer.calls["data.mine_triplets"]
        if len(shapes) != 1 or not calls:
            return
        ((p, k, strategy),) = shapes
        try:
            checks.check_triplet_count(tracer.counts["triplets"] / calls, p, k, strategy)
        except checks.CheckFailed as exc:
            self.check_failures.append(f"traced mining: {exc}")

    def wall_s(self):
        return self.end - self.launch - self.excluded_s

    def rate(self, stage):
        return self.stage_work[stage] / self.stage_s[stage] if self.stage_s[stage] else 0.0


def round_seed(seed, index):
    return (seed * 65537 + index) % 2**63


def n_rounds(plan, seconds):
    return max(1, round(seconds / plan.round_s))


# ---------------------------------------------------------------------------
# library workloads: comparison, dense-mining
# ---------------------------------------------------------------------------

def mined_per_batch(md, ds, p, k, strategy, weights, biases, seed):
    """Triplets the program mines on one PK batch embedded by the given weights."""
    batch = md.data.sample_pk_batch(ds, p, k, md.Rng(seed))
    emb = checks.forward(weights, biases, ds.X[batch.entries])
    return len(md.data.mine_triplets(batch, emb, strategy))


def library_round(md, run, plan, rseed, out):
    data, evaluation, mlp = md.data, md.evaluation, md.mlp
    teacher, training = md.teacher, md.training
    sub = md.derive_subseed
    tag = f"r{run.rounds}"

    t0 = time.perf_counter()
    ds = data.generate_hierarchical(data.HierarchySpec(**plan.spec, seed=sub(rseed, "data")))
    run.setup_s.append(time.perf_counter() - t0)

    tcfg = training.TeacherTrainConfig(**plan.teacher)
    oracle, tlog = run.timed("teacher", tcfg.iterations, training.train_teacher,
                             ds, tcfg, sub(rseed, "teacher"))
    t_ckpt, t_table = out / f"{tag}-teacher.ckpt", out / f"{tag}-teacher.emb"
    mlp.save_checkpoint(oracle.model, t_ckpt)
    teacher.save_embedding_table(oracle, t_table)
    table = teacher.load_embedding_table(t_table)
    tw, tb = oracle.model.weights, oracle.model.biases

    @functools.cache
    def teacher_emb():
        return checks.forward(tw, tb, ds.X)

    run.done(
        "train-teacher",
        lambda: checks.check_train_log(log_rows(tlog), "fixed", m=tcfg.margin),
        lambda: checks.check_checkpoint(checks.parse_checkpoint(t_ckpt), tw, tb),
        lambda: checks.check_table(checks.table_rows(t_table, ds.sample_ids).astype("float32"),
                                   teacher_emb(), ulps=1),
        lambda: checks.check_triplet_count(
            mined_per_batch(md, ds, tcfg.p, tcfg.k, tcfg.mining, tw, tb, rseed),
            tcfg.p, tcfg.k, tcfg.mining),
    )

    n_cal = plan.calibration_triplets
    report = run.timed("calibrate", n_cal, teacher.calibrate_margins,
                       table, ds, n_cal, md.Rng(sub(rseed, "calibrate")))

    def check_calibration():
        ids, _, vectors = checks.parse_table(t_table)
        vector_of = dict(zip(ids.tolist(), vectors.astype("float64")))
        checks.check_calibration(json.loads(report.to_json()), vector_of)

    run.done("calibrate", check_calibration)

    n_pos, n_neg = plan.pairs
    pairs = run.timed("eval", 0, evaluation.build_pairs,
                      ds, n_pos, n_neg, md.Rng(sub(rseed, "eval")))
    _, teacher_matrix = run.timed("eval", 0, evaluation.centroid_distance_matrix, oracle, ds)
    student0 = mlp.init_mlp((ds.input_dim, *plan.student_dims), True,
                            md.Rng(sub(rseed, "student-init")))
    for label, m, m_max in plan.variants:
        if m_max is None:
            margin, stage = md.MarginConfig.fixed(m), "distill_fixed"
        else:
            margin, stage = md.MarginConfig.dynamic(m, m_max), "distill_dynamic"
        dcfg = training.DistillConfig(margin=margin, seed=sub(rseed, "distill"), **plan.distill)
        trained, log = run.timed(stage, dcfg.iterations, training.distill,
                                 ds, oracle, student0, dcfg)
        s_ckpt = out / f"{tag}-{label}.ckpt"
        mlp.save_checkpoint(trained, s_ckpt)
        reloaded = mlp.load_checkpoint(s_ckpt)
        w, b = trained.weights, trained.biases
        run.done(
            f"distill-{label}",
            lambda log=log, margin=margin: checks.check_train_log(
                log_rows(log), margin.mode, m=margin.m, m_min=margin.m_min, m_max=margin.m_max),
            lambda s_ckpt=s_ckpt, w=w, b=b: checks.check_checkpoint(
                checks.parse_checkpoint(s_ckpt), w, b),
            lambda r=reloaded, w=w, b=b: checks.check_checkpoint(
                (None, None, r.weights, r.biases), w, b),
            lambda w=w, b=b: checks.check_triplet_count(
                mined_per_batch(md, ds, dcfg.p, dcfg.k, dcfg.mining, w, b, rseed),
                dcfg.p, dcfg.k, dcfg.mining),
        )

        verdict = run.timed("eval", len(pairs), evaluation.verify, trained, ds, pairs)
        _, student_matrix = run.timed("eval", 0, evaluation.centroid_distance_matrix,
                                      trained, ds)
        structure = run.timed("eval", 0, evaluation.structure_correlation,
                              teacher_matrix, student_matrix)
        run.accuracies.append(verdict.best_accuracy)
        if margin.mode == "dynamic":
            run.structures.append(structure)

        def check_evaluation(acc=verdict.best_accuracy, structure=structure, w=w, b=b):
            emb = checks.forward(w, b, ds.X)
            rows_a = [ds.row(s) for s in pairs.a_ids]
            rows_b = [ds.row(s) for s in pairs.b_ids]
            checks.check_accuracy(acc, emb, rows_a, rows_b, pairs.same)
            checks.check_structure(structure, teacher_emb(), emb, ds.labels)

        run.done(f"evaluate-{label}", check_evaluation)


def log_rows(log):
    return [{"iter": i, "loss": loss, "mean_margin": m, "active_frac": a}
            for i, loss, m, a in zip(log.iterations, log.loss, log.mean_margin, log.active_frac)]


# ---------------------------------------------------------------------------
# cli-protocol
# ---------------------------------------------------------------------------

def write_pairs(path, ids, labels, n_pos, n_neg, seed):
    """Distinct same- and different-identity pairs as the pair JSONL format."""
    rng = random.Random(seed)
    by_identity = defaultdict(list)
    for sid, ident in zip(ids.tolist(), labels.tolist()):
        by_identity[ident].append(sid)
    idents = sorted(by_identity)
    ident_of = dict(zip(ids.tolist(), labels.tolist()))
    all_ids = ids.tolist()
    seen = set()
    lines = []
    while len(lines) < n_pos:
        a, b = rng.sample(by_identity[rng.choice(idents)], 2)
        if (min(a, b), max(a, b)) not in seen:
            seen.add((min(a, b), max(a, b)))
            lines.append((a, b, True))
    while len(lines) < n_pos + n_neg:
        a, b = rng.choice(all_ids), rng.choice(all_ids)
        if ident_of[a] != ident_of[b] and (min(a, b), max(a, b)) not in seen:
            seen.add((min(a, b), max(a, b)))
            lines.append((a, b, False))
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, same in lines:
            fh.write(json.dumps({"a": a, "b": b, "same": same}) + "\n")
    return lines


def cli_round(md, run, plan, rseed, out, history, tracer=None):
    """One pipeline: gen-data, train-teacher, calibrate, two distills, three
    evaluates and a compare over every evaluation made so far in the run."""
    tag = f"r{run.rounds}"
    cfg = plan.config

    def command(stage, work, name, extra=None, args=(), out_arg=out):
        """Run one subcommand; return the artifact directory it created."""
        argv = [name]
        if extra is not None:
            lines = {**cfg, "run.seed": rseed, **extra}
            path = out / f"{tag}-{name}-{len(run.command_times[name])}.cfg"
            path.write_text("".join(f"{k} = {_cfg_value(v)}\n" for k, v in lines.items()),
                            encoding="utf-8")
            argv += ["--config", str(path)]
        argv += [*args, "--out", str(out_arg), "--quiet"]
        before = set(out.iterdir())
        if tracer is not None:
            tracer.begin_command()
        t0 = time.perf_counter()
        code = md.cli.main(argv)
        dt = time.perf_counter() - t0
        run.stage_s[stage] += dt
        run.stage_work[stage] += work
        run.command_times[name].append(dt)
        if code != 0:
            raise RuntimeError(f"margindistill {' '.join(argv)} exited with {code}")
        made = [p for p in set(out.iterdir()) - before if p.is_dir()]
        return made[0] if made else None

    data_dir = command("gen-data", 0, "gen-data", {})
    run.setup_s.append(run.command_times["gen-data"][-1])
    dataset = data_dir / "dataset.jsonl"
    header, ids, labels, x = run.excluded(checks.parse_dataset, dataset)
    pairs_path = out / f"{tag}-pairs.jsonl"
    n_pos, n_neg = plan.pairs
    pair_list = run.excluded(write_pairs, pairs_path, ids, labels, n_pos, n_neg, rseed)
    n_samples = (cfg["data.n_superclusters"] * cfg["data.identities_per_supercluster"]
                 * cfg["data.samples_per_identity"])

    def check_dataset():
        if header["n_samples"] != n_samples or len(set(ids.tolist())) != n_samples:
            raise checks.CheckFailed(f"dataset holds {len(ids)} samples, expected {n_samples}")
        _, per_identity = np.unique(labels, return_counts=True)
        if set(per_identity.tolist()) != {cfg["data.samples_per_identity"]} \
                or x.shape[1] != cfg["data.input_dim"] or not np.isfinite(x).all():
            raise checks.CheckFailed("dataset identities or features differ from the config")

    run.done("gen-data", check_dataset)

    io = {"io.dataset": dataset}
    t_dir = command("teacher", cfg["teacher.iterations"], "train-teacher", io)
    table = t_dir / "teacher_table.emb"

    def check_teacher():
        _, _, tw, tb = checks.parse_checkpoint(t_dir / "teacher.ckpt")
        # the checkpoint holds float32 weights, so its forward agrees only to ~1e-6
        checks.check_table(checks.table_rows(table, ids).astype("float32"),
                           checks.forward(tw, tb, x), atol=1e-4)
        checks.check_train_log(checks.parse_jsonl(t_dir / "train_log.jsonl"), "fixed",
                               m=cfg["teacher.margin"])

    run.done("train-teacher", check_teacher)
    io["io.teacher"] = table

    c_dir = command("calibrate", cfg["calibrate.n_triplets"], "calibrate", io)

    def check_calibration():
        t_ids, _, vectors = checks.parse_table(table)
        report = json.loads((c_dir / "calibration.json").read_text(encoding="utf-8"))
        checks.check_calibration(report, dict(zip(t_ids.tolist(), vectors.astype("float64"))))

    run.done("calibrate", check_calibration)

    students = {}
    for mode in ("dynamic", "fixed"):
        s_dir = command(f"distill_{mode}", cfg["distill.iterations"], "distill",
                        {**io, "distill.margin_mode": mode})
        students[mode] = s_dir / "student.ckpt"

        def check_distill(s_dir=s_dir, mode=mode):
            rows = [r for r in checks.parse_jsonl(s_dir / "train_log.jsonl") if "loss" in r]
            checks.check_train_log(rows, mode, m=cfg["distill.m"], m_min=cfg["distill.m_min"],
                                   m_max=cfg["distill.m_max"])
            _, _, w, b = checks.parse_checkpoint(s_dir / "student.ckpt")
            ds = md.data.IdentityDataset(ids, labels, x)
            p, k, mining = cfg["distill.batch_p"], cfg["distill.batch_k"], cfg["distill.mining"]
            checks.check_triplet_count(mined_per_batch(md, ds, p, k, mining, w, b, rseed),
                                       p, k, mining)

        run.done(f"distill-{mode}", check_distill)

    for label, model, extra in (("teacher", table, {}),
                                ("dynamic", students["dynamic"], {"io.teacher": table}),
                                ("fixed", students["fixed"], {"io.teacher": table})):
        e_dir = command("eval", n_pos + n_neg, "evaluate",
                        {"io.dataset": dataset, "io.model": model, "io.pairs": pairs_path,
                         "run.label": label, **extra})
        report = json.loads((e_dir / "evaluation.json").read_text(encoding="utf-8"))
        history.append((e_dir, report))
        if label != "teacher":
            run.accuracies.append(report["best_accuracy"])
        if label == "dynamic":
            run.structures.append(report["structure_correlation"])

        def check_evaluation(report=report, model=model, label=label):
            teacher_emb = checks.table_rows(table, ids)
            row_of = {sid: i for i, sid in enumerate(ids.tolist())}
            rows_a = [row_of[a] for a, _, _ in pair_list]
            rows_b = [row_of[b] for _, b, _ in pair_list]
            same = [s for _, _, s in pair_list]
            if label == "teacher":
                emb = teacher_emb
            else:
                _, _, w, b = checks.parse_checkpoint(model)
                emb = checks.forward(w, b, x)
                checks.check_structure(report["structure_correlation"], teacher_emb, emb, labels)
            checks.check_accuracy(report["best_accuracy"], emb, rows_a, rows_b, same)

        run.done(f"evaluate-{label}", check_evaluation)

    compared = list(history)
    csv_path = out / f"{tag}-comparison.csv"
    command("compare", 0, "compare", args=[str(d) for d, _ in compared], out_arg=csv_path)
    run.done("compare", lambda: checks.check_compare(csv_path, [r for _, r in compared]))


def _cfg_value(value):
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)
