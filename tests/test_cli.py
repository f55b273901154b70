import contextlib
import csv
import io
import json
import os
import signal
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margindistill import cli, data, teacher
from margindistill.cli import load_config, main
from margindistill.data import HierarchySpec, load_dataset_jsonl
from margindistill.evaluation import build_pairs, threshold_sweep, verify
from margindistill.loss import MarginConfig
from margindistill.mlp import init_mlp, load_checkpoint, save_checkpoint
from margindistill.numerics import Rng, derive_subseed
from margindistill.teacher import (TeacherOracle, calibrate_margins, load_embedding_table,
                                   save_embedding_table, tabulate)
from margindistill.training import DistillConfig, TeacherTrainConfig

from oracles import csv_writer_roc, save_pairs_jsonl

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
    """``text`` with the keys in ``extra`` set, replacing any line that sets them."""
    extra = {key.replace("_dot_", "."): val for key, val in extra.items()}
    lines = [ln for ln in text.splitlines() if ln.partition("=")[0].strip() not in extra]
    lines += [f"{key} = {val}" for key, val in extra.items()]
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
    # a field's key is named after it, except p and k, and takes the field's default;
    # the section's other keys are the margin keys, which belong to no config class
    renamed = {"p": "batch_p", "k": "batch_k"}
    names = {f.name for f in fields(cls)} - set(given) - {"floor_pairs"}
    margin_keys = {"distill.margin_mode", "distill.m", "distill.m_min", "distill.m_max",
                   "distill.use_calibration"}
    assert {f"{section}.{renamed.get(n, n)}" for n in names} \
        == {key for key in cli.CONFIG_KEYS if key.startswith(section + ".")} - margin_keys
    assert cli._from_config(cls, load_config(None), section, **given) == cls(**given)
    path = tmp_path / "c.txt"
    path.write_text(text + "\n")
    assert cli._from_config(cls, load_config(str(path)), section, **given) \
        == cls(**given, **want)


# every key with its default: a new key or a changed default changes every config hash
DEFAULT_RESOLVED = "".join(f"{line}\n" for line in [
    "calibrate.n_triplets = 1000",
    "data.identities_per_supercluster = 8",
    "data.identity_spread = 0.35",
    "data.input_dim = 16",
    "data.n_superclusters = 4",
    "data.sample_noise = 0.06",
    "data.samples_per_identity = 30",
    "data.supercluster_spread = 2.0",
    "distill.batch_k = 8",
    "distill.batch_p = 8",
    "distill.iterations = 2500",
    "distill.learning_rate = 0.001",
    "distill.m = 0.3",
    "distill.m_max = 1.8",
    "distill.m_min = 0.6",
    "distill.margin_mode = dynamic",
    "distill.mining = semi_hard",
    "distill.momentum = 0.9",
    "distill.use_calibration = false",
    "eval.n_neg = 300",
    "eval.n_pos = 300",
    "io.calibration = ",
    "io.dataset = ",
    "io.model = ",
    "io.pairs = ",
    "io.teacher = ",
    "run.label = run",
    "run.seed = 0",
    "student.embed_dim = 16",
    "student.hidden_dims = 32,32",
    "teacher.accuracy_floor = 0.95",
    "teacher.batch_k = 8",
    "teacher.batch_p = 8",
    "teacher.embed_dim = 32",
    "teacher.hidden_dims = 128,128,128",
    "teacher.iterations = 1500",
    "teacher.learning_rate = 0.01",
    "teacher.margin = 0.3",
    "teacher.mining = semi_hard",
    "teacher.momentum = 0.9",
])


def test_default_config_resolves_to_the_pinned_text():
    assert load_config(None).resolved_text() == DEFAULT_RESOLVED


@pytest.mark.parametrize("seed, ok", [(-1, False), (2**64, False), (2**64 - 1, True)])
def test_seed_outside_64_bits_is_config_error(tmp_path, capsys, seed, ok):
    # a masked seed would alias another seed's data under a different config hash
    for where in ("flag", "config"):
        out = tmp_path / where
        keys = {"run_dot_seed": seed} if where == "config" else {}
        argv = ["gen-data", "--config", _write_config(tmp_path, TINY_CONFIG, **keys),
                "--out", str(out), "--quiet"]
        rc = main(argv + ["--seed", str(seed)] if where == "flag" else argv)
        err = capsys.readouterr().err
        want = (0, "") if ok else (2, f"error: run.seed must lie in [0, 2^64), got {seed}\n")
        assert (rc, err) == want and out.exists() == ok


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("data.nope = 3\n")
    rc = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "runs")])
    assert rc == 2


def test_config_key_set_twice_rejected(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("data.input_dim = 3\n# data.input_dim = 5\ndata.input_dim = 4  # again\n")
    rc = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "runs")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and err == [f"error: {path}:3: data.input_dim was already set on line 1"]
    assert not (tmp_path / "runs").exists()


def test_removed_eval_every_key_rejected(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("distill.eval_every = 10\n")
    rc = main(["distill", "--config", str(path), "--out", str(tmp_path / "runs")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error:") and "distill.eval_every" in err[0]


@pytest.mark.parametrize("text, want", [
    *[(text, False) for text in ("false", "0", "no", "off", "False", "OFF")],
    *[(text, True) for text in ("true", "1", "yes", "on", "Yes")],
])
def test_boolean_spellings(tmp_path, text, want):
    path = tmp_path / "c.txt"
    path.write_text(f"distill.use_calibration = {text}\n")
    assert load_config(str(path))["distill.use_calibration"] is want


def test_a_boolean_of_another_spelling_is_config_error(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("distill.use_calibration = maybe\n")
    rc = main(["distill", "--config", str(path), "--out", str(tmp_path / "runs")])
    assert (rc, capsys.readouterr().err) == (
        2, f"error: {path}:1: bad value for distill.use_calibration: not a boolean: 'maybe'\n")


def test_an_unknown_margin_mode_is_config_error(tiny, tmp_path, capsys):
    config = _write_config(tmp_path, TINY_CONFIG, distill_dot_margin_mode="dynamc", **{
        "io.dataset": tiny["dataset"], "io.teacher": tiny["table"]})
    rc = main(["distill", "--config", config, "--out", str(tmp_path / "runs"), "--quiet"])
    assert (rc, capsys.readouterr().err) == (
        2, "error: distill.margin_mode must be fixed or dynamic, got 'dynamc'\n")
    assert not (tmp_path / "runs").exists()


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


def test_gen_data_overflowing_spreads_are_one_error_line(tmp_path):
    # a child process, so numpy's warnings reach stderr as they would for a user
    config = _write_config(tmp_path, data_dot_supercluster_spread="1e308",
                           data_dot_identity_spread="1e307")
    code, err = _finish(_child("import margindistill.cli as c; c.console_main()",
                               "gen-data", "--config", config, "--out", tmp_path / "runs"))
    assert code == 1 and err.count("\n") == 1, err
    assert err.startswith("error: supercluster_spread, identity_spread and sample_noise ")


def test_missing_upstream_artifact_diagnostic(tmp_path, capsys):
    config = _write_config(tmp_path, **{"io_dot_dataset": str(tmp_path / "nope.jsonl")})
    rc = main(["train-teacher", "--config", config, "--out", str(tmp_path / "runs")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "nope.jsonl" in captured.err


def test_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys):
    # numpy's MemoryError names the allocation; a bare one gets a message of its own
    def refuse(spec):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "generate_hierarchical", refuse)
    config = _write_config(tmp_path)
    for message, shown in (("Unable to allocate 23.8 GiB", "Unable to allocate 23.8 GiB"),
                           ("", "out of memory")):
        assert main(["gen-data", "--config", config, "--out", str(tmp_path / "runs")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {shown}"]


def test_importing_the_package_loads_no_digest_library(tmp_path):
    # OpenSSL comes with hashlib: only a process that takes a digest loads it
    script = """if True:
        import sys
        import margindistill, margindistill.cli
        print(sorted({"hashlib", "_hashlib"} & set(sys.modules)))
        cfg = margindistill.cli.load_config(None)
        print(cfg.content_hash(), sorted({"hashlib", "_hashlib"} & set(sys.modules)))
        import hashlib
        print(hashlib.sha256(cfg.resolved_text().encode("utf-8")).hexdigest()[:10])
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    lines = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path, check=True,
                           capture_output=True, text=True).stdout.splitlines()
    assert lines[0] == "[]"
    digest, loaded = lines[1].split(" ", 1)
    assert loaded == "['_hashlib', 'hashlib']"
    assert digest == lines[2]


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


def _no_records(text):
    header = {**json.loads(text.splitlines()[0]), "n_samples": 0, "n_identities": 0}
    return json.dumps(header) + "\n"


def _repeated_id(text):
    lines = text.splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), "sample": json.loads(lines[1])["sample"]})
    return "\n".join(lines) + "\n"


def _non_unit_vector(blob):
    dim = struct.unpack_from("<II", blob, 6)[1]
    records = np.frombuffer(blob, teacher._table_record(dim), offset=14).copy()
    records["vector"][0] *= 2
    return blob[:14] + records.tobytes()


def _no_d_values(text):
    return json.dumps({k: v for k, v in json.loads(text).items() if k != "d_values"})


def _zero_layer_dim(blob):
    return blob[:6] + struct.pack("<3I?", 2, 16, 0, True)      # dims 16, 0 and no weights


@pytest.mark.parametrize("kind, change, message", [
    ("dataset", _no_records, "features must be a (n, input_dim) array"),
    ("dataset", _repeated_id, "duplicate sample id in dataset"),
    ("table", _non_unit_vector, "table vectors must be unit-norm"),
    ("calibration", _no_d_values, "bad calibration report: 'd_values'"),
    ("ckpt", _zero_layer_dim, "layer_dims needs >= 2 positive entries"),
], ids=lambda v: getattr(v, "__name__", None))
def test_a_loaded_file_fault_names_the_file(tiny, tmp_path, kind, change, message):
    # a fault the constructors find in a loaded file is a FormatError that names it
    old = tiny[kind].read_bytes() if kind in ("table", "ckpt") else tiny[kind].read_text()
    path = _input(tiny, tmp_path, kind, change(old))
    assert _cli_reading(tiny, kind, path) == (1, f"error: {path}: {message}\n")


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


@pytest.mark.parametrize("command", ["evaluate", "calibrate", "distill"])
def test_checkpoint_of_another_input_dim_is_one_error_line(tiny, tmp_path, command):
    path = _input(tiny, tmp_path, "ckpt", b"")
    save_checkpoint(init_mlp((5, 8, 4), True, Rng(0)), path)        # the dataset has 3 inputs
    # evaluate reads it as io.model, calibrate and distill as io.teacher
    rc, err = _cli_reading(tiny, "ckpt" if command == "evaluate" else "table", path, command)
    assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert "expected input of shape (B, 5), got (" in err


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


@pytest.mark.parametrize("kind", ["pairs", "table"])
def test_an_unknown_sample_id_is_one_plain_error_line(tiny, tmp_path, kind):
    # evaluate reads a pair that names id 999; calibrate embeds every dataset id
    # (0-15) with a table that lacks 15.  The message is printed without quotes.
    if kind == "pairs":
        path = _input(tiny, tmp_path, "pairs", '{"a": 999, "b": 0, "same": false}\n')
        want = "error: sample id 999 not in dataset\n"
    else:
        table = load_embedding_table(tiny["table"])
        keep = table.sample_ids != 15
        path = _input(tiny, tmp_path, "table", b"")
        save_embedding_table(TeacherOracle.from_table(
            table.sample_ids[keep], table.identities[keep], table.vectors[keep]), path)
        want = "error: sample id 15 not in embedding table\n"
    assert _cli_reading(tiny, kind, path) == (1, want)


def test_a_signaling_nan_in_a_table_is_one_error_line_and_no_warning(tiny, tmp_path):
    # casting a float32 signaling NaN to float64 warns; isfinite on the raw values does not
    blob = bytearray(tiny["table"].read_bytes())
    struct.pack_into("<I", blob, len(teacher.TABLE_MAGIC) + 8 + 8, 0x7FA00000)
    path = _input(tiny, tmp_path, "table", bytes(blob))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = _cli_reading(tiny, "table", path)
    assert result == (1, f"error: {path}: table vectors must be finite\n")
    assert [str(w.message) for w in caught] == []


def test_train_teacher_prints_the_under_trained_warning_line(tiny, tmp_path):
    # the stdout line is the one report: a console run writes nothing to stderr
    config = _write_config(tmp_path, TINY_CONFIG, io_dot_dataset=tiny["dataset"],
                           teacher_dot_iterations=0, teacher_dot_accuracy_floor=1.0)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", "import margindistill.cli as c; c.console_main()",
                          "train-teacher", "--config", config, "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    ds = load_dataset_jsonl(tiny["dataset"])
    table = load_embedding_table(_only_dir(tmp_path, "train-teacher") / "teacher_table.emb")
    floor_pairs = TeacherTrainConfig().floor_pairs
    pos, neg = ds.pair_capacity()
    pairs = build_pairs(ds, min(floor_pairs, pos), min(floor_pairs, neg),
                        Rng(derive_subseed(derive_subseed(0, "teacher"), "teacher-floor")))
    accuracy = verify(table, ds, pairs).best_accuracy
    assert accuracy < 1.0
    assert run.stdout.splitlines()[0] == (
        f"warning: under-trained teacher: 0 iterations; verification accuracy "
        f"{accuracy:.3f} below floor 1.000")


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


def test_compare_needs_two_reports(tiny, tmp_path, capsys):
    rc = main(["compare", str(tiny["evaluation"].parent), "--out", str(tmp_path / "c.csv")])
    assert (rc, capsys.readouterr().err) == (
        2, "error: compare needs at least two evaluation reports\n")
    assert not (tmp_path / "c.csv").exists()


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
    config.write_text(TINY_CONFIG
                      + f"io.dataset = {tiny['dataset']}\nio.teacher = {tiny['table']}\n"
                      + "".join(f"{k} = {v}\n" for k, v in settings.items()))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([command, "--config", str(config), "--out", str(tmp_path / "runs"), "--quiet"])
    assert rc != 0
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert not list(tmp_path.rglob("*.ckpt"))


@pytest.mark.parametrize("command, settings", [
    ("train-teacher", {"teacher.learning_rate": 1e200}),
    ("distill", {"distill.learning_rate": 1e200, "distill.iterations": 20,
                 "distill.batch_p": 2, "distill.batch_k": 2}),
], ids=str)
def test_diverging_run_names_its_iteration_and_learning_rate(tiny, tmp_path, command, settings):
    config = _write_config(tmp_path, TINY_CONFIG, **settings, **{
        "io.dataset": tiny["dataset"], "io.teacher": tiny["table"]})
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        rc = main([command, "--config", config, "--out", str(tmp_path / "runs"), "--quiet"])
    lines = err.getvalue().splitlines()
    assert rc == 1 and caught == [] and len(lines) == 1
    assert lines[0].startswith("error: training diverged: loss nan at iteration ")
    assert lines[0].endswith("with learning_rate 1e+200")


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
    ("header", "input_dim", "3.0"), ("header", "n_samples", "16.0"),
    ("header", "n_identities", "4.0"), ("header", "seed", '"x"'), ("header", "seed", "[1, 2]"),
    ("header", "spec", "0"), ("header", "spec", "[]"),
], ids=str)
def test_json_fields_of_the_wrong_type_are_format_errors(tiny, tmp_path, kind, key, raw):
    # ids and counts are JSON integers, scores numbers and ``same`` a boolean; a
    # dataset header's seed is an integer or null and its spec an object or null
    file = "dataset" if kind == "header" else kind
    at = int(kind == "dataset")     # a dataset's first record; the header or only line else
    lines = tiny[file].read_text().splitlines()
    record = json.loads(lines[at])
    if key == "triplets":       # the bad triplet first, so the report stays consistent
        raw = raw[:-1] + ", " + json.dumps(record["triplets"][1:])[1:]
    lines[at] = _with_raw(lines[at], key, raw)
    path = _input(tiny, tmp_path, file, "\n".join(lines))
    for companion in (False, True) if kind == "header" else (False,):
        if companion:           # the records' arrays from a companion that matches the file
            data.save_dataset_companion(load_dataset_jsonl(tiny["dataset"]), path,
                                        data.companion_path(path))
        rc, err = _cli_reading(tiny, file, path)
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
        assert ("header spec" if key == "spec" else "expected a JSON") in err


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
    err = capsys.readouterr().err
    assert "dataset.jsonl: validation reload differs" in err and ".partial" not in err
    assert not [p for p in out.rglob("*")
                if p.name == "dataset.jsonl" or p.suffix in (".tfds", ".partial")]


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


# ---------------------------------------------------------------------------
# publishing: each artifact name holds a whole, checked file or nothing
# ---------------------------------------------------------------------------

ARTIFACTS = {           # what each command writes besides config.resolved and meta.json
    "gen-data": ["dataset.jsonl", "dataset.jsonl.tfds"],
    "train-teacher": ["teacher.ckpt", "teacher_table.emb", "train_log.jsonl"],
    "calibrate": ["calibration.json"],
    "distill": ["student.ckpt", "train_log.jsonl"],
    "evaluate": ["evaluation.json", "roc.csv"],
}
RUN_FILES = ["config.resolved", "meta.json"]


def _run_on_tiny(tiny, tmp_path, command):
    """main's exit code for ``command`` on tiny's inputs, writing under tmp_path/runs."""
    if command == "compare":
        reports = [str(tiny["evaluation"].parent)] * 2
        return main(["compare", *reports, "--out", str(tmp_path / "c.csv"), "--quiet"])
    return main([command, "--config", str(_tiny_config(tiny, tmp_path)), "--out",
                 str(tmp_path / "runs"), "--quiet"])


def _tiny_config(tiny, tmp_path) -> Path:
    """tmp_path/run.cfg, a config that runs every command on tiny's inputs."""
    config = tmp_path / "run.cfg"
    config.write_text(TINY_CONFIG + f"io.dataset = {tiny['dataset']}\n"
                      f"io.teacher = {tiny['table']}\nio.model = {tiny['ckpt']}\n")
    return config


@pytest.mark.parametrize("command", ARTIFACTS)
def test_every_file_a_command_writes_is_published_checked(tiny, tmp_path, monkeypatch, command):
    written = []
    write_checked = cli._write_checked
    monkeypatch.setattr(cli, "_write_checked",
                        lambda path, *rest: written.append(path) or write_checked(path, *rest))
    assert _run_on_tiny(tiny, tmp_path, command) == 0
    files = list(_only_dir(tmp_path / "runs", command).iterdir())
    assert sorted(written) == sorted(files)
    assert sorted(p.name for p in files) == sorted(ARTIFACTS[command] + RUN_FILES)


@pytest.mark.parametrize("command, name", [
    *((command, name) for command, names in ARTIFACTS.items() for name in names + RUN_FILES),
    ("compare", "c.csv"),
])
def test_an_interrupted_write_leaves_no_file(tiny, tmp_path, monkeypatch, command, name):
    write_checked = cli._write_checked

    def torn(path, write, check=None):
        def write_a_few_bytes(temp):
            write(temp)                   # the command's own saver must write the temp file
            with open(temp, "r+b") as fh:
                fh.truncate(4)
            raise KeyboardInterrupt
        return write_checked(path, write_a_few_bytes if path.name == name else write, check)

    monkeypatch.setattr(cli, "_write_checked", torn)
    with pytest.raises(KeyboardInterrupt):
        _run_on_tiny(tiny, tmp_path, command)
    assert not [p for p in tmp_path.rglob("*")
                if p.name == name or p.suffix in (".partial", ".tfds")]


@pytest.mark.parametrize("command", [*ARTIFACTS, "compare"])
def test_published_files_have_the_permission_bits_of_a_plain_open(tiny, tmp_path, command):
    umask = os.umask(0o022)       # a temp file from mkstemp would read 0600 here
    try:
        assert _run_on_tiny(tiny, tmp_path, command) == 0
        if command == "compare":
            files = [tmp_path / "c.csv"]
        else:
            files = list(_only_dir(tmp_path / "runs", command).iterdir())
        plain = files[0].parent / "plain"
        with open(plain, "w"):
            pass
    finally:
        os.umask(umask)
    mode = oct(plain.stat().st_mode)
    assert {p.name: oct(p.stat().st_mode) for p in files} == {p.name: mode for p in files}


def test_a_255_byte_target_publishes(tiny, tmp_path):
    """The temp name is bounded, so a target name of the longest length a file name
    may have publishes the bytes a short name gets, and leaves no temp file."""
    reports = [str(tiny["evaluation"].parent)] * 2
    long, short = tmp_path / ("c" * 251 + ".csv"), tmp_path / "c.csv"
    for target in (long, short):
        assert main(["compare", *reports, "--out", str(target), "--quiet"]) == 0
    assert long.read_bytes() == short.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([long.name, short.name])


@pytest.mark.parametrize("target", ["outdir", "c" * 252 + ".csv"],
                         ids=["a directory", "a 256-byte name"])
def test_a_failed_write_names_only_the_target(tiny, tmp_path, capsys, target):
    target = tmp_path / target
    if target.name == "outdir":
        target.mkdir()
    reports = [str(tiny["evaluation"].parent)] * 2
    assert main(["compare", *reports, "--out", str(target), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err and ".partial" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["outdir"] * (target.name == "outdir")


def _child(script: str, *args) -> subprocess.Popen:
    """A Python child that runs ``script`` with ``args``, importing this margindistill."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.Popen([sys.executable, "-c", script, *map(str, args)], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def _finish(child: subprocess.Popen) -> tuple[int, str]:
    """(exit code, stderr) of ``child``, which is killed if it runs for over 120 s."""
    try:
        err = child.communicate(timeout=120)[1]
    except subprocess.TimeoutExpired:
        child.kill()
        err = child.communicate()[1] + "\nkilled after 120 s"
    return child.returncode, err


def _run_files(out: Path, command: str) -> dict[str, bytes]:
    """name -> bytes of every file but meta.json in ``command``'s run directory under ``out``."""
    return {p.name: p.read_bytes() for p in _only_dir(out, command).iterdir()
            if p.name != "meta.json"}


def _serial_files(config: Path, out: Path, command: str) -> dict[str, bytes]:
    """``_run_files`` of one in-process run into ``out``."""
    assert main([command, "--config", str(config), "--out", str(out), "--quiet"]) == 0
    return _run_files(out, command)


MEET_INSIDE_THE_WRITE = """
import os, sys, time
from pathlib import Path
from margindistill import cli

saver_name, meeting, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
saver = getattr(cli, saver_name)

def save_then_meet(*args):
    # the temp file is whole; wait here until the other run has written its own
    saver(*args)
    (meeting / str(os.getpid())).touch()
    deadline = time.monotonic() + 60
    while len(list(meeting.iterdir())) < 2:
        if time.monotonic() > deadline:
            sys.exit("the other run never reached the rendezvous")
        time.sleep(0.01)

setattr(cli, saver_name, save_then_meet)
sys.exit(cli.main(argv))
"""


@pytest.mark.parametrize("command, saver", [("gen-data", "save_dataset_jsonl"),
                                            ("train-teacher", "save_checkpoint")])
def test_two_runs_publish_into_one_directory_at_once(tiny, tmp_path, command, saver):
    config = _tiny_config(tiny, tmp_path)
    meeting = tmp_path / "meeting"
    meeting.mkdir()
    out = tmp_path / "shared"
    argv = [command, "--config", config, "--out", out, "--quiet"]
    children = [_child(MEET_INSIDE_THE_WRITE, saver, meeting, *argv) for _ in range(2)]
    results = [_finish(child) for child in children]
    assert results == [(0, "")] * 2
    assert len(list(meeting.iterdir())) == 2       # both were inside _write_checked at once
    assert _run_files(out, command) == _serial_files(config, tmp_path / "serial", command)
    assert not [p for p in out.rglob("*") if p.suffix == ".partial"]


KILL_AT = """
import os, signal, sys
from margindistill import cli

point, argv = sys.argv[1], sys.argv[2:]

def die(*args):
    os.kill(os.getpid(), signal.SIGKILL)

if point == "temp-written":       # teacher.ckpt's temp file is whole, not yet checked
    save = cli.save_checkpoint
    cli.save_checkpoint = lambda *args: die(save(*args))
elif point == "in-check":         # teacher_table.emb's check has begun
    cli.load_embedding_table = die
elif point == "first-renamed":    # teacher.ckpt is in place, the table not yet begun
    cli.save_embedding_table = die
else:                             # every file but meta.json is in place
    write_checked = cli._write_checked
    cli._write_checked = lambda path, *rest: (
        die() if path.name == "meta.json" else write_checked(path, *rest))
sys.exit(cli.main(argv))
"""


@pytest.mark.parametrize("point", ["temp-written", "in-check", "first-renamed", "before-meta"])
def test_a_killed_run_reruns_cleanly(tiny, tmp_path, point):
    config = _tiny_config(tiny, tmp_path)
    clean = _serial_files(config, tmp_path / "clean", "train-teacher")
    out = tmp_path / "runs"
    argv = ["train-teacher", "--config", config, "--out", out, "--quiet"]

    def files_left() -> set[str]:
        """The names in the run directory, once each artifact is checked to hold the
        clean run's bytes or to be absent, and every other file to be a temp file."""
        files = _run_files(out, "train-teacher")
        for name, got in files.items():
            assert got == clean[name] if name in clean else (
                name.startswith(".") and name.endswith(".partial"))
        return set(files)

    assert _finish(_child(KILL_AT, point, *argv))[0] == -signal.SIGKILL
    files_left()
    assert main(list(map(str, argv))) == 0
    assert files_left() >= set(clean)


@settings(max_examples=200, deadline=None)
@given(n_pos=st.integers(0, 40), n_neg=st.integers(0, 40), levels=st.integers(1, 50),
       seed=st.integers(0, 2**32 - 1))
def test_roc_csv_is_what_csv_writer_writes(n_pos, n_neg, levels, seed):
    """The same text as csv.writer for the rates of any sweep, ties and an empty
    class (rates 0.0) included."""
    gen = np.random.default_rng(seed)
    size = max(n_pos + n_neg, 1)
    distances = gen.integers(0, levels, size) / levels              # ties when levels < size
    same = np.arange(size) < n_pos
    report = threshold_sweep(distances, same)
    points = zip(report.false_accept_rates.tolist(), report.true_accept_rates.tolist())
    assert cli._roc_csv(report) == csv_writer_roc(points)
