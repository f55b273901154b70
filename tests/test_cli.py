import csv
import json
import struct
from pathlib import Path

from margindistill.cli import load_config, main
from margindistill.data import load_dataset_jsonl
from margindistill.mlp import load_checkpoint
from margindistill.numerics import Rng, derive_subseed
from margindistill.teacher import TeacherOracle, calibrate_margins, tabulate

SMALL_CONFIG = """
# small pipeline config for tests
run.label = smoke
run.seed = 0
data.n_superclusters = 2
data.identities_per_supercluster = 3
data.samples_per_identity = 8
data.input_dim = 6
teacher.hidden_dims = 16,16
teacher.embed_dim = 8
teacher.iterations = 120
teacher.batch_p = 4
teacher.batch_k = 4
teacher.accuracy_floor = 0.5
student.hidden_dims = 12,12
student.embed_dim = 6
distill.iterations = 60
distill.batch_p = 4
distill.batch_k = 4
calibrate.n_triplets = 50
eval.n_pos = 40
eval.n_neg = 40
"""


def _write_config(tmp_path, text=SMALL_CONFIG, **extra):
    lines = [text]
    for key, val in extra.items():
        lines.append(f"{key.replace('_dot_', '.')} = {val}")
    path = tmp_path / "config.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _only_dir(out: Path, prefix: str) -> Path:
    matches = [d for d in out.iterdir() if d.name.startswith(prefix + "-")]
    assert len(matches) == 1, matches
    return matches[0]


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(None)
    assert cfg["run.seed"] == 0
    assert cfg["teacher.hidden_dims"] == (128, 128, 128)
    path = tmp_path / "c.txt"
    path.write_text("run.seed = 7\nteacher.hidden_dims = 8,4\n")
    cfg = load_config(str(path))
    assert cfg["run.seed"] == 7
    assert cfg["teacher.hidden_dims"] == (8, 4)
    cfg = load_config(str(path), seed_override=99)
    assert cfg["run.seed"] == 99


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("data.nope = 3\n")
    rc = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "runs")])
    assert rc == 2


def test_config_hash_stable_and_sensitive(tmp_path):
    c1 = load_config(_write_config(tmp_path))
    c2 = load_config(_write_config(tmp_path))
    assert c1.content_hash() == c2.content_hash()
    c3 = load_config(_write_config(tmp_path), seed_override=1)
    assert c3.content_hash() != c1.content_hash()


def test_gen_data_counts_and_determinism(tmp_path, capsys):
    config = _write_config(tmp_path)
    out1 = tmp_path / "runs1"
    out2 = tmp_path / "runs2"
    assert main(["gen-data", "--config", config, "--out", str(out1)]) == 0
    assert main(["gen-data", "--config", config, "--out", str(out2)]) == 0
    d1 = _only_dir(out1, "gen-data")
    d2 = _only_dir(out2, "gen-data")
    ds = load_dataset_jsonl(d1 / "dataset.jsonl")
    assert ds.n_samples == 2 * 3 * 8
    assert (d1 / "dataset.jsonl").read_bytes() == (d2 / "dataset.jsonl").read_bytes()
    assert (d1 / "config.resolved").read_bytes() == (d2 / "config.resolved").read_bytes()


def test_gen_data_invalid_spec_diagnostic(tmp_path, capsys):
    config = _write_config(
        tmp_path, **{"data_dot_identity_spread": "3.0"}
    )  # identity_spread > supercluster_spread
    rc = main(["gen-data", "--config", config, "--out", str(tmp_path / "runs")])
    captured = capsys.readouterr()
    assert rc != 0
    assert "identity_spread" in captured.err


def test_missing_upstream_artifact_diagnostic(tmp_path, capsys):
    config = _write_config(tmp_path, **{"io_dot_dataset": str(tmp_path / "nope.jsonl")})
    rc = main(["train-teacher", "--config", config, "--out", str(tmp_path / "runs")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "nope.jsonl" in captured.err


def test_bad_checkpoint_magic_is_format_error(tmp_path, capsys):
    ds_out = tmp_path / "runs"
    config = _write_config(tmp_path)
    assert main(["gen-data", "--config", config, "--out", str(ds_out)]) == 0
    dataset = _only_dir(ds_out, "gen-data") / "dataset.jsonl"
    bogus = tmp_path / "bogus.ckpt"
    bogus.write_bytes(b"\x00" * 64)
    config2 = _write_config(
        tmp_path, **{"io_dot_dataset": str(dataset), "io_dot_teacher": str(bogus)}
    )
    rc = main(["calibrate", "--config", config2, "--out", str(ds_out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "not a recognized checkpoint" in captured.err


def test_oversized_table_header_is_format_error(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["gen-data", "--config", _write_config(tmp_path), "--out", str(out)]) == 0
    dataset = _only_dir(out, "gen-data") / "dataset.jsonl"
    huge = tmp_path / "huge.emb"
    huge.write_bytes(b"TFEMB1" + struct.pack("<II", 200_000, 100_000))
    config = _write_config(
        tmp_path, **{"io_dot_dataset": str(dataset), "io_dot_teacher": str(huge)}
    )
    assert main(["calibrate", "--config", config, "--out", str(out)]) == 1
    assert "header declares" in capsys.readouterr().err


def test_ragged_dataset_rows_are_format_error(tmp_path, capsys):
    dataset = tmp_path / "ragged.jsonl"
    dataset.write_text(
        json.dumps({"input_dim": 2, "n_samples": 2, "n_identities": 1}) + "\n"
        + json.dumps({"sample": 0, "identity": 0, "x": [0.1, 0.2]}) + "\n"
        + json.dumps({"sample": 1, "identity": 0, "x": [0.3]}) + "\n"
    )
    config = _write_config(tmp_path, **{"io_dot_dataset": str(dataset)})
    assert main(["train-teacher", "--config", config, "--out", str(tmp_path / "runs")]) == 1
    assert "equal-length" in capsys.readouterr().err


def test_checkpoint_teacher_is_tabulated_against_the_dataset(tmp_path):
    out = tmp_path / "runs"
    assert main(["gen-data", "--config", _write_config(tmp_path), "--out", str(out)]) == 0
    dataset = _only_dir(out, "gen-data") / "dataset.jsonl"
    config_t = _write_config(tmp_path, **{"io_dot_dataset": str(dataset)})
    assert main(["train-teacher", "--config", config_t, "--out", str(out), "--quiet"]) == 0
    ckpt = _only_dir(out, "train-teacher") / "teacher.ckpt"
    config_c = _write_config(
        tmp_path, **{"io_dot_dataset": str(dataset), "io_dot_teacher": str(ckpt)}
    )
    assert main(["calibrate", "--config", config_c, "--out", str(out), "--quiet"]) == 0
    report = json.loads((_only_dir(out, "calibrate") / "calibration.json").read_text())

    ds = load_dataset_jsonl(dataset)
    table = tabulate(TeacherOracle.from_model(load_checkpoint(ckpt)), ds)
    want = calibrate_margins(table, ds, 50, Rng(derive_subseed(0, "calibrate")))
    assert report["d_values"] == want.d_values


def test_full_pipeline_and_compare(tmp_path, capsys):
    out = str(tmp_path / "runs")
    config = _write_config(tmp_path)
    assert main(["gen-data", "--config", config, "--out", out, "--quiet"]) == 0
    dataset = _only_dir(Path(out), "gen-data") / "dataset.jsonl"

    config_t = _write_config(tmp_path, **{"io_dot_dataset": str(dataset)})
    assert main(["train-teacher", "--config", config_t, "--out", out, "--quiet"]) == 0
    tdir = _only_dir(Path(out), "train-teacher")
    assert (tdir / "teacher.ckpt").exists()
    assert (tdir / "teacher_table.emb").exists()
    assert (tdir / "train_log.jsonl").exists()

    table = tdir / "teacher_table.emb"
    config_c = _write_config(
        tmp_path, **{"io_dot_dataset": str(dataset), "io_dot_teacher": str(table)}
    )
    assert main(["calibrate", "--config", config_c, "--out", out, "--quiet"]) == 0
    cal = json.loads((_only_dir(Path(out), "calibrate") / "calibration.json").read_text())
    assert cal["sample_count"] == 50

    assert main(["distill", "--config", config_c, "--out", out, "--quiet"]) == 0
    sdir = _only_dir(Path(out), "distill")
    student = sdir / "student.ckpt"
    assert student.exists()

    # student evaluation (with structure correlation against the teacher)
    config_e = _write_config(
        tmp_path,
        **{
            "run_dot_label": "student-dyn",
            "io_dot_dataset": str(dataset),
            "io_dot_teacher": str(table),
            "io_dot_model": str(student),
        },
    )
    assert main(["evaluate", "--config", config_e, "--out", out, "--quiet"]) == 0
    edir1 = _only_dir(Path(out), "evaluate")
    report = json.loads((edir1 / "evaluation.json").read_text())
    assert 0.0 <= report["best_accuracy"] <= 1.0
    assert report["structure_correlation"] is not None
    assert (edir1 / "roc.csv").exists()

    # teacher self-evaluation (no structure correlation)
    out2 = str(tmp_path / "runs2")
    config_e2 = _write_config(
        tmp_path,
        **{
            "run_dot_label": "teacher",
            "io_dot_dataset": str(dataset),
            "io_dot_model": str(table),
        },
    )
    assert main(["evaluate", "--config", config_e2, "--out", out2, "--quiet"]) == 0
    edir2 = _only_dir(Path(out2), "evaluate")
    report2 = json.loads((edir2 / "evaluation.json").read_text())
    assert report2["structure_correlation"] is None

    # compare the two reports
    csv_path = tmp_path / "cmp.csv"
    rc = main(["compare", str(edir1), str(edir2), "--out", str(csv_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "student-dyn" in captured.out and "teacher" in captured.out
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "seed", "best_accuracy", "structure_correlation"]
    # 2 runs + 2 per-label mean rows
    assert len(rows) == 5


def test_pipeline_stage_determinism_excluding_meta(tmp_path):
    out = str(tmp_path / "runs")
    config = _write_config(tmp_path)

    def snapshot(stage):
        d = _only_dir(Path(out), stage)
        return {p.name: p.read_bytes() for p in d.iterdir() if p.name != "meta.json"}

    assert main(["gen-data", "--config", config, "--out", out, "--quiet"]) == 0
    first = snapshot("gen-data")
    assert main(["gen-data", "--config", config, "--out", out, "--quiet"]) == 0
    assert snapshot("gen-data") == first

    dataset = _only_dir(Path(out), "gen-data") / "dataset.jsonl"
    cfg_t = _write_config(tmp_path, **{"io_dot_dataset": str(dataset)})
    assert main(["train-teacher", "--config", cfg_t, "--out", out, "--quiet"]) == 0
    first = snapshot("train-teacher")
    assert main(["train-teacher", "--config", cfg_t, "--out", out, "--quiet"]) == 0
    assert snapshot("train-teacher") == first


def test_compare_identical_reports_mean_equals_value(tmp_path, capsys):
    for i, d in enumerate(["r1", "r2"]):
        rd = tmp_path / d
        rd.mkdir()
        (rd / "evaluation.json").write_text(json.dumps({
            "label": "fixed-0.3", "seed": i, "best_accuracy": 0.875,
            "structure_correlation": 0.25,
        }) + "\n")
    csv_path = tmp_path / "cmp.csv"
    rc = main(["compare", str(tmp_path / "r1"), str(tmp_path / "r2"),
               "--out", str(csv_path)])
    assert rc == 0
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4  # header + 2 runs + 1 mean
    mean_row = rows[-1]
    assert mean_row[1] == "mean"
    assert float(mean_row[2]) == 0.875
    assert float(mean_row[3]) == 0.25


def test_compare_fixed_vs_dynamic_sweep_row_count(tmp_path):
    # 2 labels x 5 seeds -> 10 rows + 2 mean rows
    n = 0
    dirs = []
    for label in ("fixed", "dynamic"):
        for seed in range(5):
            rd = tmp_path / f"run{n}"
            rd.mkdir()
            (rd / "evaluation.json").write_text(json.dumps({
                "label": label, "seed": seed, "best_accuracy": 0.9 + 0.01 * seed,
                "structure_correlation": None,
            }) + "\n")
            dirs.append(str(rd))
            n += 1
    csv_path = tmp_path / "cmp.csv"
    assert main(["compare", *dirs, "--out", str(csv_path), "--quiet"]) == 0
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 10 + 2


def test_compare_csv_roundtrip_equals_table(tmp_path):
    rd1, rd2 = tmp_path / "x", tmp_path / "y"
    for i, rd in enumerate([rd1, rd2]):
        rd.mkdir()
        (rd / "evaluation.json").write_text(json.dumps({
            "label": "L", "seed": i, "best_accuracy": 1.0 / 3.0 + i,
            "structure_correlation": 2.0 / 3.0,
        }) + "\n")
    csv_path = tmp_path / "cmp.csv"
    assert main(["compare", str(rd1), str(rd2), "--out", str(csv_path), "--quiet"]) == 0
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    # repr round-trip: parsed floats equal the source values exactly
    assert float(rows[1][2]) == 1.0 / 3.0
    assert float(rows[2][2]) == 1.0 / 3.0 + 1
    assert float(rows[1][3]) == 2.0 / 3.0
    assert float(rows[3][2]) == (1.0 / 3.0 + (1.0 / 3.0 + 1)) / 2.0


def test_compare_requires_reports(tmp_path, capsys):
    rc = main(["compare", str(tmp_path), "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    assert "expected file" in capsys.readouterr().err


def test_seed_override_changes_artifacts(tmp_path):
    config = _write_config(tmp_path)
    out = str(tmp_path / "runs")
    assert main(["gen-data", "--config", config, "--out", out, "--quiet"]) == 0
    assert main(["gen-data", "--config", config, "--out", out, "--seed", "5",
                 "--quiet"]) == 0
    dirs = [d for d in Path(out).iterdir() if d.name.startswith("gen-data-")]
    assert len(dirs) == 2
    blobs = {(d / "dataset.jsonl").read_bytes() for d in dirs}
    assert len(blobs) == 2


def test_distill_fixed_mode_and_calibrated_bounds(tmp_path):
    out = str(tmp_path / "runs")
    config = _write_config(tmp_path)
    assert main(["gen-data", "--config", config, "--out", out, "--quiet"]) == 0
    dataset = _only_dir(Path(out), "gen-data") / "dataset.jsonl"
    cfg_t = _write_config(tmp_path, **{"io_dot_dataset": str(dataset)})
    assert main(["train-teacher", "--config", cfg_t, "--out", out, "--quiet"]) == 0
    table = _only_dir(Path(out), "train-teacher") / "teacher_table.emb"

    # fixed-margin grid row
    cfg_fixed = _write_config(
        tmp_path,
        **{
            "io_dot_dataset": str(dataset),
            "io_dot_teacher": str(table),
            "distill_dot_margin_mode": "fixed",
            "distill_dot_m": "0.4",
        },
    )
    assert main(["distill", "--config", cfg_fixed, "--out", out, "--quiet"]) == 0

    # dynamic with bounds taken from a calibration artifact
    cfg_cal = _write_config(
        tmp_path, **{"io_dot_dataset": str(dataset), "io_dot_teacher": str(table)}
    )
    assert main(["calibrate", "--config", cfg_cal, "--out", out, "--quiet"]) == 0
    calibration = _only_dir(Path(out), "calibrate") / "calibration.json"
    cfg_dyn = _write_config(
        tmp_path,
        **{
            "io_dot_dataset": str(dataset),
            "io_dot_teacher": str(table),
            "distill_dot_use_calibration": "true",
            "io_dot_calibration": str(calibration),
        },
    )
    assert main(["distill", "--config", cfg_dyn, "--out", out, "--quiet"]) == 0
    distill_dirs = [d for d in Path(out).iterdir() if d.name.startswith("distill-")]
    assert len(distill_dirs) == 2  # two distinct configs, two artifact dirs

    # calibration requested but artifact missing -> usage error naming the key
    cfg_missing = _write_config(
        tmp_path,
        **{
            "io_dot_dataset": str(dataset),
            "io_dot_teacher": str(table),
            "distill_dot_use_calibration": "true",
        },
    )
    assert main(["distill", "--config", cfg_missing, "--out", out, "--quiet"]) == 2
