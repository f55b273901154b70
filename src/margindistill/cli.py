"""Command-line pipeline: gen-data, train-teacher, calibrate, distill, evaluate, compare.

Configs are flat ``key = value`` text files; unknown keys are rejected and
missing keys take documented defaults.  Every command writes its artifacts
into ``<out>/<command>-<hash>/`` where the hash is taken over the fully
resolved config, so reruns of an identical config land in the same
directory and different configs never collide.  The resolved config is
echoed next to the artifacts; timestamps live only in the meta.json
sidecar.  All randomness fans out from run.seed through fixed stage labels.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, evaluation
from .data import (HierarchySpec, IdentityDataset, companion_path, generate_hierarchical,
                   json_field, load_dataset_jsonl, read_text, save_dataset_companion,
                   save_dataset_jsonl)
from .errors import FormatError, MarginDistillError
from .loss import MarginConfig
from .mlp import CHECKPOINT_MAGIC, init_mlp, load_checkpoint, save_checkpoint
from .numerics import Rng, derive_subseed
from .teacher import (
    TABLE_MAGIC,
    CalibrationReport,
    TeacherOracle,
    calibrate_margins,
    load_embedding_table,
    save_embedding_table,
    tabulate,
)
from .training import DistillConfig, TeacherTrainConfig, distill, train_teacher


class ConfigError(MarginDistillError, ValueError):
    pass


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


# key -> (parser, default, help); keys of config-class fields take the field's default
CONFIG_KEYS: dict[str, tuple] = {
    "run.label": (str, "run", "label attached to evaluation reports"),
    "run.seed": (int, 0, "master seed; stages derive labeled sub-seeds"),
    "data.n_superclusters": (int, HierarchySpec.n_superclusters,
                             "superclusters in the synthetic hierarchy"),
    "data.identities_per_supercluster": (int, HierarchySpec.identities_per_supercluster,
                                         "identities per supercluster"),
    "data.samples_per_identity": (int, HierarchySpec.samples_per_identity, "samples per identity"),
    "data.input_dim": (int, HierarchySpec.input_dim, "feature dimension"),
    "data.supercluster_spread": (float, HierarchySpec.supercluster_spread,
                                 "supercluster center scale"),
    "data.identity_spread": (float, HierarchySpec.identity_spread, "identity center noise scale"),
    "data.sample_noise": (float, HierarchySpec.sample_noise, "per-sample noise scale"),
    "teacher.hidden_dims": (_parse_ints, TeacherTrainConfig.hidden_dims, "teacher hidden layers"),
    "teacher.embed_dim": (int, TeacherTrainConfig.embed_dim, "teacher embedding dimension"),
    "teacher.margin": (float, TeacherTrainConfig.margin, "fixed margin for teacher pre-training"),
    "teacher.learning_rate": (float, TeacherTrainConfig.learning_rate,
                              "teacher SGD learning rate"),
    "teacher.momentum": (float, TeacherTrainConfig.momentum, "teacher SGD momentum"),
    "teacher.iterations": (int, TeacherTrainConfig.iterations, "teacher training iterations"),
    "teacher.batch_p": (int, TeacherTrainConfig.p, "identities per teacher batch"),
    "teacher.batch_k": (int, TeacherTrainConfig.k, "samples per identity per teacher batch"),
    "teacher.mining": (str, TeacherTrainConfig.mining, "teacher mining strategy"),
    "teacher.accuracy_floor": (float, TeacherTrainConfig.accuracy_floor,
                               "warn if teacher accuracy is below this"),
    "student.hidden_dims": (_parse_ints, (32, 32), "student hidden layers"),
    "student.embed_dim": (int, 16, "student embedding dimension"),
    "distill.margin_mode": (str, "dynamic", "fixed | dynamic"),
    "distill.m": (float, 0.3, "fixed-mode margin"),
    "distill.m_min": (float, 0.6, "dynamic-mode lower margin bound"),
    "distill.m_max": (float, 1.8, "dynamic-mode upper margin bound"),
    "distill.use_calibration": (_parse_bool, False, "take margin bounds from io.calibration"),
    "distill.learning_rate": (float, DistillConfig.learning_rate, "student SGD learning rate"),
    "distill.momentum": (float, DistillConfig.momentum, "student SGD momentum"),
    "distill.iterations": (int, DistillConfig.iterations, "distillation iterations"),
    "distill.batch_p": (int, DistillConfig.p, "identities per distillation batch"),
    "distill.batch_k": (int, DistillConfig.k, "samples per identity per distillation batch"),
    "distill.mining": (str, DistillConfig.mining, "distillation mining strategy"),
    "calibrate.n_triplets": (int, 1000, "triplets sampled for calibration"),
    "eval.n_pos": (int, 300, "positive verification pairs"),
    "eval.n_neg": (int, 300, "negative verification pairs"),
    "io.dataset": (str, "", "path to a dataset .jsonl"),
    "io.teacher": (str, "", "path to a teacher checkpoint or embedding table"),
    "io.calibration": (str, "", "path to a calibration report .json"),
    "io.model": (str, "", "path to the model to evaluate (checkpoint or table)"),
    "io.pairs": (str, "", "optional path to a pair .jsonl (else pairs are sampled)"),
}


@dataclass
class ExperimentConfig:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def resolved_text(self) -> str:
        lines = []
        for key in sorted(self.values):
            val = self.values[key]
            if isinstance(val, tuple):
                val = ",".join(str(v) for v in val)
            elif isinstance(val, bool):
                val = "true" if val else "false"
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.resolved_text().encode("utf-8")).hexdigest()[:10]


def load_config(path: str | None, seed_override: int | None = None) -> ExperimentConfig:
    values = {key: default for key, (_, default, _) in CONFIG_KEYS.items()}
    if path is not None:
        text = read_text(path, ConfigError)
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            parser = CONFIG_KEYS[key][0]
            try:
                values[key] = parser(val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    if seed_override is not None:
        values["run.seed"] = seed_override
    return ExperimentConfig(values)


_KEY_NAMES = {"p": "batch_p", "k": "batch_k"}     # config field -> key name, where they differ


def _from_config(cls, cfg: ExperimentConfig, section: str, **given):
    """``cls`` with every field that has a ``section.*`` key read from that key;
    the fields in ``given`` are passed in, and the rest keep their defaults."""
    keys = {f.name: f"{section}.{_KEY_NAMES.get(f.name, f.name)}" for f in fields(cls)
            if f.name not in given}
    return cls(**{name: cfg[key] for name, key in keys.items() if key in CONFIG_KEYS}, **given)


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

def _artifact_dir(out: str, command: str, cfg: ExperimentConfig) -> Path:
    d = Path(out) / f"{command}-{cfg.content_hash()}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_run_files(dirpath: Path, command: str, cfg: ExperimentConfig) -> None:
    (dirpath / "config.resolved").write_text(cfg.resolved_text(), encoding="utf-8")
    meta = {
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }
    (dirpath / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def _require_input(cfg: ExperimentConfig, key: str) -> Path:
    if not cfg[key]:
        raise ConfigError(f"missing config key for {key} (expected a path)")
    p = Path(cfg[key])
    if not p.exists():
        raise ConfigError(f"{key} not found: expected file {p}")
    return p


def _load_model_file(path: Path, teacher_of: IdentityDataset | None = None):
    """TFMLP1 -> MlpModel; TFEMB1 -> table.  A teacher is a table, so given
    ``teacher_of`` a checkpoint is tabulated against that dataset."""
    with path.open("rb") as fh:
        head = fh.read(len(CHECKPOINT_MAGIC))
    if head == TABLE_MAGIC:
        return load_embedding_table(path)
    if head != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a recognized checkpoint or embedding table")
    model = load_checkpoint(path)
    if teacher_of is None:
        return model
    return tabulate(TeacherOracle.from_model(model), teacher_of)


def _say(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_data(cfg: ExperimentConfig, out: str, quiet: bool) -> int:
    spec = _from_config(HierarchySpec, cfg, "data", seed=derive_subseed(cfg["run.seed"], "data"))
    ds = generate_hierarchical(spec)
    d = _artifact_dir(out, "gen-data", cfg)
    target = d / "dataset.jsonl"
    companion_path(target).unlink(missing_ok=True)    # the reload below must parse the text
    save_dataset_jsonl(ds, target)
    _write_run_files(d, "gen-data", cfg)
    reloaded = load_dataset_jsonl(target)
    for got, want in ((reloaded.sample_ids, ds.sample_ids), (reloaded.labels, ds.labels),
                      (reloaded.X, ds.X)):
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            raise FormatError(f"{target}: validation reload differs from the generated data")
    save_dataset_companion(ds, target)
    _say(quiet, f"wrote {target} ({ds.n_samples} samples, {ds.n_identities} identities, "
                f"dim {ds.input_dim})")
    return 0


def cmd_train_teacher(cfg: ExperimentConfig, out: str, quiet: bool) -> int:
    ds = load_dataset_jsonl(_require_input(cfg, "io.dataset"))
    tcfg = _from_config(TeacherTrainConfig, cfg, "teacher")
    oracle, log = train_teacher(ds, tcfg, seed=derive_subseed(cfg["run.seed"], "teacher"))
    d = _artifact_dir(out, "train-teacher", cfg)
    ckpt = d / "teacher.ckpt"
    table = d / "teacher_table.emb"
    save_checkpoint(oracle.model, ckpt)
    save_embedding_table(oracle, table)
    log.write_jsonl(d / "train_log.jsonl")
    _write_run_files(d, "train-teacher", cfg)
    load_checkpoint(ckpt)
    load_embedding_table(table)
    if oracle.warning:
        _say(quiet, f"warning: {oracle.warning}")
    final_loss = log.loss[-1] if log.loss else float("nan")
    _say(quiet, f"wrote {ckpt} and {table} (final loss {final_loss:.4f})")
    return 0


def cmd_calibrate(cfg: ExperimentConfig, out: str, quiet: bool) -> int:
    ds = load_dataset_jsonl(_require_input(cfg, "io.dataset"))
    oracle = _load_model_file(_require_input(cfg, "io.teacher"), teacher_of=ds)
    report = calibrate_margins(oracle, ds, cfg["calibrate.n_triplets"],
                               Rng(derive_subseed(cfg["run.seed"], "calibrate")))
    d = _artifact_dir(out, "calibrate", cfg)
    target = d / "calibration.json"
    target.write_text(report.to_json() + "\n", encoding="utf-8")
    _write_run_files(d, "calibrate", cfg)
    CalibrationReport.from_json(read_text(target))
    _say(quiet, f"wrote {target} (d in [{report.d_min_observed:.4f}, "
                f"{report.d_max_observed:.4f}] over {report.sample_count} triplets)")
    return 0


def _margin_from_config(cfg: ExperimentConfig) -> MarginConfig:
    mode = cfg["distill.margin_mode"]
    if mode == "fixed":
        return MarginConfig.fixed(cfg["distill.m"])
    if mode != "dynamic":
        raise ConfigError(f"distill.margin_mode must be fixed or dynamic, got {mode!r}")
    if cfg["distill.use_calibration"]:
        path = _require_input(cfg, "io.calibration")
        report = CalibrationReport.from_json(read_text(path))
        return MarginConfig.dynamic(report.suggested_m_min, report.suggested_m_max)
    return MarginConfig.dynamic(cfg["distill.m_min"], cfg["distill.m_max"])


def cmd_distill(cfg: ExperimentConfig, out: str, quiet: bool) -> int:
    ds = load_dataset_jsonl(_require_input(cfg, "io.dataset"))
    oracle = _load_model_file(_require_input(cfg, "io.teacher"), teacher_of=ds)
    margin = _margin_from_config(cfg)
    student = init_mlp((ds.input_dim, *cfg["student.hidden_dims"], cfg["student.embed_dim"]),
                       normalize_output=True,
                       rng=Rng(derive_subseed(cfg["run.seed"], "student-init")))
    dcfg = _from_config(DistillConfig, cfg, "distill", margin=margin,
                        seed=derive_subseed(cfg["run.seed"], "distill"))
    trained, log = distill(ds, oracle, student, dcfg)
    d = _artifact_dir(out, "distill", cfg)
    ckpt = d / "student.ckpt"
    save_checkpoint(trained, ckpt)
    log.write_jsonl(d / "train_log.jsonl")
    _write_run_files(d, "distill", cfg)
    load_checkpoint(ckpt)
    final_loss = log.loss[-1] if log.loss else float("nan")
    _say(quiet, f"wrote {ckpt} (margin mode {margin.mode}, final loss {final_loss:.4f})")
    return 0


def cmd_evaluate(cfg: ExperimentConfig, out: str, quiet: bool) -> int:
    ds = load_dataset_jsonl(_require_input(cfg, "io.dataset"))
    embedder = _load_model_file(_require_input(cfg, "io.model"))
    if cfg["io.pairs"]:
        pairs = evaluation.load_pairs_jsonl(_require_input(cfg, "io.pairs"))
    else:
        pairs = evaluation.build_pairs(ds, cfg["eval.n_pos"], cfg["eval.n_neg"],
                                       Rng(derive_subseed(cfg["run.seed"], "eval")))
    report = evaluation.verify(embedder, ds, pairs)
    structure = None
    if cfg["io.teacher"]:
        oracle = _load_model_file(_require_input(cfg, "io.teacher"), teacher_of=ds)
        _, tmat = evaluation.centroid_distance_matrix(oracle, ds)
        _, smat = evaluation.centroid_distance_matrix(embedder, ds)
        structure = evaluation.structure_correlation(tmat, smat)
    d = _artifact_dir(out, "evaluate", cfg)
    payload = {"label": cfg["run.label"], "seed": cfg["run.seed"], "n_pairs": len(pairs),
               "best_accuracy": report.best_accuracy, "best_threshold": report.best_threshold,
               "structure_correlation": structure}
    (d / "evaluation.json").write_text(json.dumps(payload, sort_keys=True) + "\n",
                                       encoding="utf-8")
    with open(d / "roc.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["false_accept_rate", "true_accept_rate"])
        writer.writerows(report.roc_points)
    _write_run_files(d, "evaluate", cfg)
    _read_evaluation(d / "evaluation.json")
    line = f"accuracy {report.best_accuracy:.4f} at threshold {report.best_threshold:.4f}"
    if structure is not None:
        line += f", structure correlation {structure:.4f}"
    _say(quiet, f"wrote {d / 'evaluation.json'} ({line})")
    return 0


def _read_evaluation(path: Path) -> tuple[str, int, float, float | None]:
    """(label, seed, best_accuracy, structure_correlation) of one evaluation.json."""
    try:
        obj = json.loads(read_text(path))
        if not isinstance(obj["label"], str):
            raise TypeError(f"label must be a string, got {obj['label']!r:.40}")
        struct = obj.get("structure_correlation")
        return (obj["label"], json_field(obj["seed"], int),
                json_field(obj["best_accuracy"], float),
                None if struct is None else json_field(struct, float))
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad evaluation report: {exc}") from exc


def cmd_compare(run_dirs: list[str], csv_out: str, quiet: bool) -> int:
    rows = []
    for run in run_dirs:
        path = Path(run) / "evaluation.json"
        if not path.exists():
            raise ConfigError(f"no evaluation report found: expected file {path}")
        rows.append(_read_evaluation(path))
    if len(rows) < 2:
        raise ConfigError("compare needs at least two evaluation reports")
    rows.sort(key=lambda r: (r[0], r[1]))

    table = [("label", "seed", "best_accuracy", "structure_correlation")]
    for label, seed, acc, struct in rows:
        table.append((label, str(seed), repr(acc), "" if struct is None else repr(struct)))
    for label, group in itertools.groupby(rows, key=lambda r: r[0]):
        _, _, accs, structs = zip(*group)
        mean_struct = "" if None in structs else repr(float(np.mean(structs)))
        table.append((label, "mean", repr(float(np.mean(accs))), mean_struct))

    widths = [max(len(row[i]) for row in table) for i in range(4)]
    for row in table:
        _say(quiet, "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    with open(csv_out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerows(table)
    _say(quiet, f"wrote {csv_out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="margindistill",
        description="triplet metric learning with teacher-distilled dynamic margins",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-data", "train-teacher", "calibrate", "distill", "evaluate"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--out", default="runs", help="base output directory")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--quiet", action="store_true")
    p = sub.add_parser("compare")
    p.add_argument("run_dirs", nargs="+", help="artifact directories with evaluation.json")
    p.add_argument("--out", default="comparison.csv", help="CSV output path")
    p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            return cmd_compare(args.run_dirs, args.out, args.quiet)
        cfg = load_config(args.config, seed_override=args.seed)
        handler = {
            "gen-data": cmd_gen_data,
            "train-teacher": cmd_train_teacher,
            "calibrate": cmd_calibrate,
            "distill": cmd_distill,
            "evaluate": cmd_evaluate,
        }[args.command]
        return handler(cfg, args.out, args.quiet)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MarginDistillError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
