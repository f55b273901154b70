"""Golden artifact hashes: the six CLI commands at the acceptance config, for
seeds 0 and 1, must write the bytes recorded in ``golden.json``.

Artifact bits depend on numpy, its BLAS build and the CPU kernels that build
picks at run time, and libm, so the hashes are recorded per platform
fingerprint.  On a platform with no entry the test skips; ``pytest -rs``
prints the fingerprint and the computed hashes, ready to paste in as a new
entry.  A change that means to alter artifact bytes updates the file and
says why.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from margindistill.cli import main

from test_acceptance import ACCEPTANCE_CLI_CONFIG

GOLDEN = Path(__file__).with_name("golden.json")


def _cpu_model() -> str:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return platform.processor()
    return next((ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("model name")),
                platform.processor())


def fingerprint() -> dict:
    """What can change artifact bits, as JSON values."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas},
        "cpu": _cpu_model(),
        "libc": " ".join(platform.libc_ver()),
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def _run_pipeline(seed: int) -> Path:
    """gen-data through evaluate for ``seed`` under ./runs; the evaluate directory."""
    keys = {}

    def run(command, **new_keys):
        keys.update(new_keys)
        config = Path(f"{command}-{seed}.cfg")
        config.write_text(ACCEPTANCE_CLI_CONFIG
                          + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        before = set(Path("runs").glob(f"{command}-*"))
        argv = [command, "--config", str(config), "--out", "runs", "--seed", str(seed)]
        assert main([*argv, "--quiet"]) == 0
        (made,) = set(Path("runs").glob(f"{command}-*")) - before
        return made

    dataset = run("gen-data") / "dataset.jsonl"
    teacher = run("train-teacher", **{"io.dataset": dataset})
    calibration = run("calibrate", **{"io.teacher": teacher / "teacher_table.emb"})
    student = run("distill", **{"io.calibration": calibration / "calibration.json",
                                "distill.use_calibration": "true"})
    return run("evaluate", **{"io.model": student / "student.ckpt",
                              "io.teacher": teacher / "teacher.ckpt"})


def test_cli_artifacts_match_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)     # relative paths: config.resolved and hashes are portable
    evaluations = [str(_run_pipeline(seed)) for seed in (0, 1)]
    assert main(["compare", *evaluations, "--out", "runs/comparison.csv", "--quiet"]) == 0
    hashes = {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(Path("runs").rglob("*")) if p.is_file() and p.name != "meta.json"}
    here = fingerprint()
    entry = next((e for e in json.loads(GOLDEN.read_text()) if e["fingerprint"] == here), None)
    if entry is None:
        pytest.skip(f"no hashes recorded for this platform; to record them, add this entry "
                    f"to {GOLDEN.name}:\n"
                    + json.dumps({"fingerprint": here, "sha256": hashes}, indent=2))
    assert hashes == entry["sha256"]
