import contextlib
import csv
import io
import json
import struct
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margindistill import cli, data
from margindistill.cli import load_config, main
from margindistill.data import HierarchySpec, load_dataset_jsonl
from margindistill.evaluation import build_pairs, save_pairs_jsonl
from margindistill.loss import MarginConfig
from margindistill.mlp import load_checkpoint
from margindistill.numerics import Rng, derive_subseed
from margindistill.teacher import TeacherOracle, calibrate_margins, tabulate
from margindistill.training import DistillConfig, TeacherTrainConfig

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


TINY_CONFIG = """
data.n_superclusters = 2
data.identities_per_supercluster = 2
data.samples_per_identity = 4
data.input_dim = 3
teacher.hidden_dims = 8
teacher.embed_dim = 4
teacher.iterations = 20
teacher.batch_p = 2
teacher.batch_k = 2
teacher.accuracy_floor = 0.0
student.hidden_dims = 6
student.embed_dim = 3
distill.iterations = 0
calibrate.n_triplets = 5
eval.n_pos = 6
eval.n_neg = 6
"""
KINDS = ["dataset", "pairs", "calibration", "config", "ckpt", "table", "evaluation", "companion"]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """One file of every kind the CLI reads, from a 16-sample pipeline."""
    root = tmp_path_factory.mktemp("tiny")

    def run(command, **keys):
        config = root / f"{command}.cfg"
        config.write_text(TINY_CONFIG + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert main([command, "--config", str(config), "--out", str(root), "--quiet"]) == 0
        return _only_dir(root, command), config

    dataset = run("gen-data")[0] / "dataset.jsonl"
    teacher = run("train-teacher", **{"io.dataset": dataset})[0]
    calibration, config = run("calibrate", **{"io.dataset": dataset,
                                              "io.teacher": teacher / "teacher_table.emb"})
    pairs = root / "pairs.jsonl"
    save_pairs_jsonl(build_pairs(load_dataset_jsonl(dataset), 6, 6, Rng(0)), pairs)
    evaluation = run("evaluate", **{"io.dataset": dataset, "io.model": teacher / "teacher.ckpt",
                                    "io.pairs": pairs})[0]
    return {"dataset": dataset, "table": teacher / "teacher_table.emb", "config": config,
            "ckpt": teacher / "teacher.ckpt", "pairs": pairs, "evaluation":
            evaluation / "evaluation.json", "calibration": calibration / "calibration.json",
            "companion": data.companion_path(dataset)}


def _input(tiny, work, kind, data):
    """``data`` (bytes or text) saved under work/in/ with the name of tiny's ``kind`` file."""
    path = work / "in" / tiny[kind].name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return path


def _cli_reading(tiny, kind, path, command=None):
    """(exit code, stderr) of a CLI call that reads ``path`` as its ``kind`` input
    and tiny's files for the rest.  Any exception escapes to the caller."""
    work = path.parent.parent
    if kind == "evaluation":
        argv = ["compare", str(path.parent), str(tiny["evaluation"].parent),
                "--out", str(work / "c.csv")]
    else:
        files = {"dataset": tiny["dataset"], "teacher": tiny["table"], "model": tiny["ckpt"],
                 "pairs": tiny["pairs"], "calibration": tiny["calibration"]}
        config = path
        if kind == "companion":     # the companion under test beside an intact dataset
            files["dataset"] = path.with_suffix("")
            files["dataset"].write_bytes(tiny["dataset"].read_bytes())
        elif kind != "config":
            files[{"table": "teacher", "ckpt": "model"}.get(kind, kind)] = path
        if kind != "config":
            config = work / "run.cfg"
            config.write_text(TINY_CONFIG + "distill.use_calibration = true\n"
                              + "".join(f"io.{k} = {v}\n" for k, v in files.items()))
        command = command or {"pairs": "evaluate", "ckpt": "evaluate",
                              "calibration": "distill"}.get(kind, "calibrate")
        argv = [command, "--config", str(config), "--out", str(work / "runs")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([*argv, "--quiet"])
    return rc, err.getvalue()


def _outputs(runs: Path) -> dict:
    """Artifact bytes by file name, leaving out meta.json and the path-bearing config."""
    return {p.name: p.read_bytes() for p in runs.rglob("*")
            if p.is_file() and p.name not in ("meta.json", "config.resolved")}


@pytest.fixture(scope="module")
def plain_outputs(tiny, tmp_path_factory):
    """What the command of the ``companion`` kind writes with no companion at all."""
    work = tmp_path_factory.mktemp("plain")
    path = _input(tiny, work, "dataset", tiny["dataset"].read_bytes())
    assert _cli_reading(tiny, "dataset", path) == (0, "")
    return _outputs(work / "runs")


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


@pytest.mark.parametrize("section, cls, given, text, want", [
    ("data", HierarchySpec, {"seed": 5}, "data.n_superclusters = 3\ndata.sample_noise = 0.01",
     {"n_superclusters": 3, "sample_noise": 0.01}),
    ("teacher", TeacherTrainConfig, {}, "teacher.batch_p = 3\nteacher.hidden_dims = 4,2",
     {"p": 3, "hidden_dims": (4, 2)}),
    ("distill", DistillConfig, {"margin": MarginConfig.fixed(0.3), "seed": 5},
     "distill.batch_k = 3\ndistill.mining = all", {"k": 3, "mining": "all"}),
])
def test_section_keys_map_onto_config_fields(tmp_path, section, cls, given, text, want):
    # a field's key is named after it, except p and k, and takes the field's default
    renamed = {"p": "batch_p", "k": "batch_k"}
    names = {f.name for f in fields(cls)} - set(given) - {"floor_pairs"}
    assert {f"{section}.{renamed.get(n, n)}" for n in names} <= set(cli.CONFIG_KEYS)
    assert cli._from_config(cls, load_config(None), section, **given) == cls(**given)
    path = tmp_path / "c.txt"
    path.write_text(text + "\n")
    assert cli._from_config(cls, load_config(str(path)), section, **given) \
        == cls(**given, **want)


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("data.nope = 3\n")
    rc = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "runs")])
    assert rc == 2


def test_removed_eval_every_key_rejected(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("distill.eval_every = 10\n")
    rc = main(["distill", "--config", str(path), "--out", str(tmp_path / "runs")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error:") and "distill.eval_every" in err[0]


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


def test_bad_checkpoint_magic_is_format_error(tiny, tmp_path):
    rc, err = _cli_reading(tiny, "ckpt", _input(tiny, tmp_path, "ckpt", b"\x00" * 64))
    assert rc == 1 and "not a recognized checkpoint" in err


def test_oversized_table_header_is_format_error(tiny, tmp_path):
    huge = b"TFEMB1" + struct.pack("<II", 200_000, 100_000)
    rc, err = _cli_reading(tiny, "table", _input(tiny, tmp_path, "table", huge))
    assert rc == 1 and "header declares" in err


@pytest.mark.parametrize("kind", ["ckpt", "table"])   # evaluate's io.model, calibrate's io.teacher
def test_oversized_checkpoint_header_is_format_error(tiny, tmp_path, kind):
    huge = b"TFMLP1" + struct.pack("<I2IB", 2, 2**32 - 1, 2**32 - 1, 1) + bytes(64)
    rc, err = _cli_reading(tiny, kind, _input(tiny, tmp_path, kind, huge))
    assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert "header declares" in err


def test_ragged_dataset_rows_are_format_error(tiny, tmp_path):
    lines = tiny["dataset"].read_text().splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), "x": [0.3]})
    path = _input(tiny, tmp_path, "dataset", "\n".join(lines))
    rc, err = _cli_reading(tiny, "dataset", path, command="train-teacher")
    assert rc == 1 and "equal-length" in err


def test_ragged_table_jsonl_teacher_is_format_error(tiny, tmp_path):
    # TFEMB1 is the only table format: a JSON-lines table is refused, ragged or not
    rows = [{"identity": 0, "sample": 0, "vector": [0.6, 0.8]},
            {"identity": 0, "sample": 1, "vector": [1.0]}]
    for table in (rows, rows[:1]):
        text = "".join(json.dumps(r) + "\n" for r in table)
        rc, err = _cli_reading(tiny, "table", _input(tiny, tmp_path, "table", text))
        assert rc == 1 and "not a recognized checkpoint" in err


def test_dataset_spec_with_unknown_key_is_format_error(tiny, tmp_path):
    lines = tiny["dataset"].read_text().splitlines()
    header = json.loads(lines[0])
    header["spec"]["bogus"] = 1
    path = _input(tiny, tmp_path, "dataset", "\n".join([json.dumps(header)] + lines[1:]))
    rc, err = _cli_reading(tiny, "dataset", path, command="train-teacher")
    assert rc == 1 and "header spec" in err


@pytest.mark.parametrize("change", [
    {"sample_count": 7, "d_min_observed": 5.0}, {"sample_count": 7}, {"d_min_observed": 5.0},
    {"d_max_observed": 0.0}, {"triplets": [[1, 2]] * 5}, {"triplets": []},
    {"d_values": [float("nan")] * 5},
], ids=str)
def test_inconsistent_calibration_report_is_format_error(tiny, tmp_path, change):
    report = {**json.loads(tiny["calibration"].read_text()), **change}
    path = _input(tiny, tmp_path, "calibration", json.dumps(report))
    rc, err = _cli_reading(tiny, "calibration", path)
    assert rc == 1 and "bad calibration report" in err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["evaluate", "distill"])
def test_non_finite_checkpoint_weight_is_format_error(tiny, tmp_path, command, value):
    blob = bytearray(tiny["ckpt"].read_bytes())
    (n_dims,) = struct.unpack_from("<I", blob, 6)
    struct.pack_into("<f", blob, 6 + 4 + 4 * n_dims + 1, value)   # the first weight
    path = _input(tiny, tmp_path, "ckpt", bytes(blob))
    # evaluate reads it as io.model, distill as io.teacher
    kind = "ckpt" if command == "evaluate" else "table"
    rc, err = _cli_reading(tiny, kind, path, command=command)
    assert rc == 1 and f"{path}: checkpoint weights must be finite" in err


def test_checkpoint_teacher_is_tabulated_against_the_dataset(tiny, tmp_path):
    ckpt = _input(tiny, tmp_path, "ckpt", tiny["ckpt"].read_bytes())
    config = tmp_path / "c.cfg"
    config.write_text(TINY_CONFIG + f"io.dataset = {tiny['dataset']}\nio.teacher = {ckpt}\n")
    assert main(["calibrate", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((_only_dir(tmp_path, "calibrate") / "calibration.json").read_text())
    ds = load_dataset_jsonl(tiny["dataset"])
    table = tabulate(TeacherOracle.from_model(load_checkpoint(ckpt)), ds)
    want = calibrate_margins(table, ds, 5, Rng(derive_subseed(0, "calibrate")))
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


def _compare(tmp_path, records):
    """compare over one evaluation.json per record; returns the CSV rows."""
    dirs = [tmp_path / f"run{i}" for i in range(len(records))]
    for rd, record in zip(dirs, records):
        rd.mkdir()
        (rd / "evaluation.json").write_text(json.dumps(record) + "\n")
    assert main(["compare", *map(str, dirs), "--out", str(tmp_path / "c.csv"), "--quiet"]) == 0
    with open(tmp_path / "c.csv") as fh:
        return list(csv.reader(fh))


def test_compare_identical_reports_mean_equals_value(tmp_path):
    rows = _compare(tmp_path, [{"label": "fixed-0.3", "seed": i, "best_accuracy": 0.875,
                                "structure_correlation": 0.25} for i in range(2)])
    assert len(rows) == 4  # header + 2 runs + 1 mean
    assert rows[-1][1:] == ["mean", "0.875", "0.25"]


def test_compare_fixed_vs_dynamic_sweep_row_count(tmp_path):
    # 2 labels x 5 seeds -> 10 rows + 2 mean rows
    rows = _compare(tmp_path, [
        {"label": label, "seed": seed, "best_accuracy": 0.9 + 0.01 * seed,
         "structure_correlation": None} for label in ("fixed", "dynamic") for seed in range(5)])
    assert len(rows) == 1 + 10 + 2


def test_compare_csv_roundtrip_equals_table(tmp_path):
    rows = _compare(tmp_path, [{"label": "L", "seed": i, "best_accuracy": 1.0 / 3.0 + i,
                                "structure_correlation": 2.0 / 3.0} for i in range(2)])
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


# ---------------------------------------------------------------------------
# input boundaries: a bad data file exits 1, a bad config 2, with one error line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_cli_runs_on_each_unchanged_input(tiny, kind, tmp_path):
    path = _input(tiny, tmp_path, kind, tiny[kind].read_bytes())
    assert _cli_reading(tiny, kind, path) == (0, "")


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=100, deadline=None)
@given(pos=st.integers(0, 2**16), how=st.sampled_from(["cut", "flip", "set"]),
       value=st.integers(0, 255))
def test_mutated_input_never_escapes_cli(tiny, plain_outputs, kind, pos, how, value):
    blob = bytearray(tiny[kind].read_bytes())
    at = pos % len(blob)
    if how == "cut":
        del blob[at:]
    else:
        blob[at] = blob[at] ^ (1 << value % 8) if how == "flip" else value
    with tempfile.TemporaryDirectory() as work:
        rc, err = _cli_reading(tiny, kind, _input(tiny, Path(work), kind, bytes(blob)))
        outputs = _outputs(Path(work) / "runs")
    if kind == "companion":     # a damaged companion is a cache miss, never an error
        assert (rc, err) == (0, "") and outputs == plain_outputs
    # a change can leave a valid file (a digit for a digit), which then runs normally
    assert rc in (0, 1, 2) and (rc == 0) == (err == "")
    if rc:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert rc == 1 or kind == "config"


@pytest.mark.parametrize("command, settings", [
    ("train-teacher", {"teacher.iterations": 0, "teacher.learning_rate": -1,
                       "teacher.momentum": 5}),
    ("train-teacher", {"teacher.learning_rate": "nan"}),
    ("distill", {"distill.learning_rate": 0}),
    ("distill", {"distill.momentum": 1.0}),
], ids=str)
def test_bad_optimizer_settings_exit_with_one_error_line(tiny, tmp_path, command, settings):
    config = tmp_path / "run.cfg"
    config.write_text(TINY_CONFIG + f"io.dataset = {tiny['dataset']}\nio.teacher = {tiny['table']}\n"
                      + "".join(f"{k} = {v}\n" for k, v in settings.items()))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([command, "--config", str(config), "--out", str(tmp_path / "runs"), "--quiet"])
    assert rc != 0
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert not list(tmp_path.rglob("*.ckpt"))


def test_non_utf8_dataset_is_format_error(tiny, tmp_path):
    blob = tiny["dataset"].read_bytes()
    path = _input(tiny, tmp_path, "dataset", blob[:40] + b"\xff" + blob[41:])
    assert _cli_reading(tiny, "dataset", path, command="train-teacher")[0] == 1


def test_non_utf8_config_is_config_error(tiny, tmp_path):
    rc, err = _cli_reading(tiny, "config", _input(tiny, tmp_path, "config", b"run.label = \xe9"))
    assert rc == 2 and "not UTF-8" in err


def _with_raw(line, key, raw):
    """A JSON record line with ``raw`` spliced in verbatim as the value of ``key``."""
    return json.dumps({**json.loads(line), key: "@@"}).replace('"@@"', raw)


OUT_OF_INT64 = ["99999999999999999999", "1e999", "-9223372036854775809"]


@pytest.mark.parametrize("kind, key, raw", [
    *[(kind, key, raw) for kind, key in [("dataset", "sample"), ("dataset", "identity"),
                                         ("pairs", "a")] for raw in OUT_OF_INT64],
    ("calibration", "sample_count", "1e999"),   # a count only needs to be an integer
])
def test_out_of_range_numbers_are_format_errors(tiny, tmp_path, kind, key, raw):
    lines = tiny[kind].read_text().splitlines()
    lines[kind == "dataset"] = _with_raw(lines[kind == "dataset"], key, raw)
    rc, err = _cli_reading(tiny, kind, _input(tiny, tmp_path, kind, "\n".join(lines)))
    assert rc == 1 and err.startswith("error: ")


@pytest.mark.parametrize("kind, key, raw", [
    ("dataset", "sample", "0.7"), ("dataset", "identity", '"0"'), ("pairs", "a", "3.9"),
    ("pairs", "same", '"false"'), ("calibration", "sample_count", "1.9"),
    ("calibration", "triplets", '[[0.2, "1", true]]'),
], ids=str)
def test_json_fields_of_the_wrong_type_are_format_errors(tiny, tmp_path, kind, key, raw):
    # ids and counts are JSON integers, scores numbers and ``same`` a boolean
    lines = tiny[kind].read_text().splitlines()
    record = json.loads(lines[kind == "dataset"])
    if key == "triplets":       # the bad triplet first, so the report stays consistent
        raw = raw[:-1] + ", " + json.dumps(record["triplets"][1:])[1:]
    lines[kind == "dataset"] = _with_raw(lines[kind == "dataset"], key, raw)
    rc, err = _cli_reading(tiny, kind, _input(tiny, tmp_path, kind, "\n".join(lines)))
    assert rc == 1 and err.startswith("error: ") and "expected a JSON" in err


@pytest.mark.parametrize("change", [
    {"best_accuracy": None}, {"label": 3}, {"seed": "0"}, {"seed": True}, {"seed": 1.5},
    {"best_accuracy": "0.9"}, {"best_accuracy": False}, {"structure_correlation": "x"},
    {"best_accuracy": 10 ** 400}, "accuracy 0.9",
], ids=str)
def test_compare_rejects_bad_evaluation_records(tiny, tmp_path, change):
    record = json.loads(tiny["evaluation"].read_text())
    if isinstance(change, dict):
        record.update(change)
        record = {k: v for k, v in record.items() if v is not None}
    text = change if isinstance(change, str) else json.dumps(record)
    rc, err = _cli_reading(tiny, "evaluation", _input(tiny, tmp_path, "evaluation", text))
    assert rc == 1 and "bad evaluation report" in err


def test_commands_after_gen_data_read_the_companion(tmp_path, monkeypatch):
    out = tmp_path / "runs"
    assert main(["gen-data", "--config", _write_config(tmp_path), "--out", str(out),
                 "--quiet"]) == 0
    dataset = _only_dir(out, "gen-data") / "dataset.jsonl"
    assert data.companion_path(dataset).exists()

    def refuse(*args):
        raise AssertionError("a command parsed the dataset records")

    monkeypatch.setattr(data, "_parse_records", refuse)
    keys = {"io_dot_dataset": dataset}
    assert main(["train-teacher", "--config", _write_config(tmp_path, **keys), "--out",
                 str(out), "--quiet"]) == 0
    keys["io_dot_teacher"] = _only_dir(out, "train-teacher") / "teacher_table.emb"
    for command in ("calibrate", "distill"):
        assert main([command, "--config", _write_config(tmp_path, **keys), "--out", str(out),
                     "--quiet"]) == 0
    keys["io_dot_model"] = _only_dir(out, "distill") / "student.ckpt"
    assert main(["evaluate", "--config", _write_config(tmp_path, **keys), "--out", str(out),
                 "--quiet"]) == 0


def test_gen_data_refuses_a_file_that_does_not_parse_back_bit_for_bit(tmp_path, monkeypatch,
                                                                      capsys):
    def save_off_by_one_ulp(ds, path):
        x = ds.X.copy()
        x[3, 1] = np.nextafter(x[3, 1], np.inf)
        data.save_dataset_jsonl(data.IdentityDataset(ds.sample_ids, ds.labels, x), path)

    monkeypatch.setattr(cli, "save_dataset_jsonl", save_off_by_one_ulp)
    out = tmp_path / "runs"
    assert main(["gen-data", "--config", _write_config(tmp_path), "--out", str(out)]) == 1
    assert "validation reload differs" in capsys.readouterr().err
    assert not list(out.rglob("*.tfds"))


def test_gen_data_reload_parses_the_text_over_an_earlier_companion(tmp_path, monkeypatch):
    out = tmp_path / "runs"
    config = _write_config(tmp_path)
    assert main(["gen-data", "--config", config, "--out", str(out), "--quiet"]) == 0
    companion = data.companion_path(_only_dir(out, "gen-data") / "dataset.jsonl")
    first = companion.read_bytes()
    parsed = []
    parse = data._parse_records
    monkeypatch.setattr(data, "_parse_records", lambda *a: parsed.append(1) or parse(*a))
    assert main(["gen-data", "--config", config, "--out", str(out), "--quiet"]) == 0
    assert parsed == [1] and companion.read_bytes() == first
