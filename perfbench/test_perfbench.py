"""Fast tests of the benchmark itself, on tiny configurations.

    python3 -m pytest -q perfbench

Every correctness check must reject a deliberately wrong output, and a run
must print a well-formed report.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import margindistill as md  # noqa: E402
import margindistill.cli  # noqa: E402,F401
from perfbench import checks, run, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SPEC = {"n_superclusters": 2, "identities_per_supercluster": 2,
             "samples_per_identity": 6, "input_dim": 4}
TINY_LIBRARY = workloads.LibraryPlan(
    spec=TINY_SPEC,
    teacher={"hidden_dims": (8,), "embed_dim": 4, "iterations": 4, "p": 3, "k": 3,
             "floor_pairs": 10},
    distill={"iterations": 4, "p": 3, "k": 3},
    student_dims=(6, 4), pairs=(10, 10), calibration_triplets=20, round_s=1.0)
TINY_PLANS = {
    "comparison": TINY_LIBRARY,
    "dense-mining": workloads.LibraryPlan(
        spec=TINY_SPEC, teacher={**TINY_LIBRARY.teacher, "mining": "all"},
        distill={**TINY_LIBRARY.distill, "mining": "all"}, student_dims=(6, 4),
        variants=TINY_LIBRARY.variants[:2], pairs=(10, 10), calibration_triplets=20,
        round_s=1.0),
    "cli-protocol": workloads.CliPlan(config={
        **{f"data.{k}": v for k, v in TINY_SPEC.items()},
        "teacher.hidden_dims": (8,), "teacher.embed_dim": 4, "teacher.iterations": 4,
        "teacher.margin": 0.3, "teacher.batch_p": 3, "teacher.batch_k": 3,
        "teacher.mining": "semi_hard", "student.hidden_dims": (6,), "student.embed_dim": 4,
        "distill.iterations": 4, "distill.batch_p": 3, "distill.batch_k": 3,
        "distill.mining": "semi_hard", "distill.m": 0.3, "distill.m_min": 0.6,
        "distill.m_max": 1.8, "calibrate.n_triplets": 20,
    }, pairs=(10, 10), round_s=1.0),
}


def tiny_dataset(seed=3):
    return md.generate_hierarchical(md.HierarchySpec(**TINY_SPEC, seed=seed))


def embeddings(n, dim, seed):
    e = np.random.default_rng(seed).normal(size=(n, dim))
    return e / np.linalg.norm(e, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:under-trained teacher")
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY_PLANS))
def test_report_is_well_formed(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "PLANS", TINY_PLANS)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "2",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 2 * TINY_PLANS[workload].ops_per_round
    assert result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and np.isfinite(value["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert md.training.mine_triplets is md.data.mine_triplets     # tracer restored
    assert not (ROOT / ".perfbench_out" / f"{workload}-{os.getpid()}").exists()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "comparison",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.PLANS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


# ---------------------------------------------------------------------------
# each check accepts the right output and rejects a wrong one
# ---------------------------------------------------------------------------

def test_own_sweep_matches_program_sweep():
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 50):
        d = np.round(rng.random(n), 2)                 # ties on purpose
        same = rng.random(n) < 0.5
        assert checks.best_accuracy(d, same) == md.threshold_sweep(d, same).best_accuracy


def test_check_accuracy_rejects_perturbed_accuracy():
    ds = tiny_dataset()
    emb = embeddings(ds.n_samples, 4, 1)
    pairs = md.build_pairs(ds, 10, 10, md.Rng(2))
    rows_a = [ds.row(s) for s in pairs.a_ids]
    rows_b = [ds.row(s) for s in pairs.b_ids]
    table = md.TeacherOracle.from_table(ds.sample_ids, ds.labels, emb)
    reported = md.verify(table, ds, pairs).best_accuracy
    checks.check_accuracy(reported, emb, rows_a, rows_b, pairs.same)
    with pytest.raises(checks.CheckFailed):
        checks.check_accuracy(reported - 1 / len(pairs), emb, rows_a, rows_b, pairs.same)


def test_check_structure_rejects_shuffled_centroids():
    ds = tiny_dataset()
    t_emb, s_emb = embeddings(ds.n_samples, 4, 1), embeddings(ds.n_samples, 4, 2)
    t_table = md.TeacherOracle.from_table(ds.sample_ids, ds.labels, t_emb)
    s_table = md.TeacherOracle.from_table(ds.sample_ids, ds.labels, s_emb)
    reported = md.structure_correlation(md.centroid_distance_matrix(t_table, ds)[1],
                                        md.centroid_distance_matrix(s_table, ds)[1])
    checks.check_structure(reported, t_emb, s_emb, ds.labels)
    shuffled = ds.labels[np.random.default_rng(0).permutation(ds.n_samples)]
    with pytest.raises(checks.CheckFailed):
        checks.check_structure(reported, t_emb, s_emb, shuffled)


def test_check_calibration_rejects_wrong_extremes(tmp_path):
    ds = tiny_dataset()
    table = md.TeacherOracle.from_table(ds.sample_ids, ds.labels, embeddings(ds.n_samples, 4, 1))
    md.save_embedding_table(table, tmp_path / "t.emb")
    reloaded = md.load_embedding_table(tmp_path / "t.emb")
    report = json.loads(md.calibrate_margins(reloaded, ds, 30, md.Rng(1)).to_json())
    ids, _, vectors = checks.parse_table(tmp_path / "t.emb")
    vector_of = dict(zip(ids.tolist(), vectors.astype(np.float64)))
    checks.check_calibration(report, vector_of)
    for key in ("d_max_observed", "d_min_observed"):
        with pytest.raises(checks.CheckFailed):
            checks.check_calibration({**report, key: report[key] + 1e-9}, vector_of)
    with pytest.raises(checks.CheckFailed):
        checks.check_calibration(
            {**report, "d_values": [report["d_values"][0] + 1e-6, *report["d_values"][1:]]},
            vector_of)


def test_check_table_rejects_changed_vector(tmp_path):
    ds = tiny_dataset()
    model = md.init_mlp((4, 4), True, md.Rng(1))
    table = md.tabulate(md.TeacherOracle.from_model(model), ds)
    md.save_embedding_table(table, tmp_path / "t.emb")
    vectors = checks.parse_table(tmp_path / "t.emb")[2]
    own = checks.forward(model.weights, model.biases, ds.X)
    checks.check_table(vectors, own, ulps=1)
    bad = vectors.copy()
    bad[3, 1] += 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.check_table(bad, own, ulps=1)
    with pytest.raises(checks.CheckFailed):
        checks.check_table(bad, own, atol=1e-4)


def test_check_checkpoint_rejects_other_weights(tmp_path):
    model = md.init_mlp((4, 8, 4), True, md.Rng(1))
    md.save_checkpoint(model, tmp_path / "m.ckpt")
    parsed = checks.parse_checkpoint(tmp_path / "m.ckpt")
    checks.check_checkpoint(parsed, model.weights, model.biases)
    other = md.init_mlp((4, 8, 4), True, md.Rng(2))
    with pytest.raises(checks.CheckFailed):
        checks.check_checkpoint(parsed, other.weights, other.biases)


def test_check_train_log_rejects_bad_rows():
    good = {"iter": 0, "loss": 0.5, "mean_margin": 1.0, "active_frac": 0.25}
    checks.check_train_log([good], "dynamic", m_min=0.6, m_max=1.8)
    checks.check_train_log([{**good, "mean_margin": 0.3}], "fixed", m=0.3)
    for mode, row in (("dynamic", {**good, "mean_margin": 1.9}),
                      ("dynamic", {**good, "mean_margin": 0.5}),
                      ("fixed", {**good, "mean_margin": 0.31}),
                      ("dynamic", {**good, "loss": -0.1}),
                      ("dynamic", {**good, "loss": float("nan")}),
                      ("dynamic", {**good, "active_frac": 1.5})):
        with pytest.raises(checks.CheckFailed):
            checks.check_train_log([row], mode, m=0.3, m_min=0.6, m_max=1.8)


@pytest.mark.filterwarnings("ignore:under-trained teacher")
def test_check_train_log_accepts_program_logs():
    ds = tiny_dataset()
    teacher, _ = md.train_teacher(ds, md.TeacherTrainConfig(
        hidden_dims=(8,), embed_dim=4, iterations=3, p=3, k=3, floor_pairs=10,
        accuracy_floor=0.0))
    student = md.init_mlp((4, 4), True, md.Rng(1))
    for margin in (md.MarginConfig.dynamic(0.6, 1.8), md.MarginConfig.fixed(0.4)):
        _, log = md.distill(ds, teacher, student,
                            md.DistillConfig(margin=margin, iterations=5, p=3, k=3))
        checks.check_train_log(workloads.log_rows(log), margin.mode, m=margin.m,
                               m_min=margin.m_min, m_max=margin.m_max)


def test_check_triplet_count():
    checks.check_triplet_count(448, 8, 8, "semi_hard")
    checks.check_triplet_count(25088, 8, 8, "all")
    ds = tiny_dataset()
    model = md.init_mlp((4, 4), True, md.Rng(1))
    for strategy in ("semi_hard", "all"):
        count = workloads.mined_per_batch(md, ds, 3, 3, strategy, model.weights,
                                          model.biases, 7)
        checks.check_triplet_count(count, 3, 3, strategy)
        with pytest.raises(checks.CheckFailed):
            checks.check_triplet_count(count + 1, 3, 3, strategy)


def test_check_compare_rejects_wrong_mean(tmp_path):
    reports = []
    for i, (label, seed, acc, struct_) in enumerate(
            [("dynamic", 0, 0.9, 0.4), ("dynamic", 1, 0.8, 0.2), ("fixed", 0, 1.0, 0.1)]):
        report = {"label": label, "seed": seed, "best_accuracy": acc,
                  "structure_correlation": struct_}
        (tmp_path / f"e{i}").mkdir()
        (tmp_path / f"e{i}" / "evaluation.json").write_text(json.dumps(report))
        reports.append(report)
    out = tmp_path / "cmp.csv"
    assert md.cli.main(["compare", *(str(tmp_path / f"e{i}") for i in range(3)),
                        "--out", str(out), "--quiet"]) == 0
    checks.check_compare(out, reports)
    text = out.read_text()
    mean_row = next(line for line in text.splitlines() if line.startswith("dynamic,mean"))
    out.write_text(text.replace(mean_row, "dynamic,mean,0.9,0.3"))
    with pytest.raises(checks.CheckFailed):
        checks.check_compare(out, reports)
    out.write_text(text)
    with pytest.raises(checks.CheckFailed):
        checks.check_compare(out, reports[:2])


def test_failed_check_or_crash_marks_operations_failed():
    plan = TINY_PLANS["cli-protocol"]
    r = workloads.Run(0.0)

    def wrong():
        raise checks.CheckFailed("wrong output")

    def round_with_bad_output():
        for i in range(plan.ops_per_round):
            r.done(f"op{i}", wrong if i == 2 else (lambda: None))

    def round_that_crashes():
        r.done("op0")
        raise RuntimeError("program error")

    r.run_round(plan, round_with_bad_output)
    r.run_round(plan, round_that_crashes)
    r.run_checks()
    assert r.attempted == 2 * plan.ops_per_round
    assert len(r.failed_ops) == 1 + plan.ops_per_round - 1
    assert len(r.check_failures) == 1
