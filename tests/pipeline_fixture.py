"""The tiny end-to-end pipeline whose outputs ``tests/fixtures/pipeline.json`` pins.

synth -> train-source -> fit-prior -> adapt (craft, tl, naive) -> sweep runs
in one directory.  The fixture holds the sha256 of every file the pipeline
writes and each report's ``rmse`` and ``pbcor`` as exact floats, beside the
numpy and BLAS versions that produced them.  A report file is hashed as its
``json.dumps(sort_keys=True)`` without the keys that echo the run directory.
A change that moves the numbers on purpose regenerates the fixture:

    PYTHONPATH=src python -m tests.pipeline_fixture --write
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from craft.harness import (
    ExperimentConfig,
    default_scenario,
    run_adapt,
    run_fit_prior,
    run_sweep,
    run_synth,
    run_train_source,
)

FIXTURE = Path(__file__).parent / "fixtures" / "pipeline.json"
REGENERATE = "PYTHONPATH=src python -m tests.pipeline_fixture --write"
_PATH_KEYS = ("files_opened", "report_path")  # they echo the run directory
METHODS = ("craft", "tl", "naive")


def environment() -> dict:
    """The numpy build the pipeline's floats depend on: its version and its BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas["name"], "blas_version": blas["version"]}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        report = json.loads(data)
        if isinstance(report, dict) and any(key in report for key in _PATH_KEYS):
            kept = {key: value for key, value in report.items() if key not in _PATH_KEYS}
            data = json.dumps(kept, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _metrics(report: dict) -> dict:
    return {"rmse": report["rmse"], "pbcor": report["pbcor"]}


def run_pipeline(root) -> dict:
    """Run the pipeline under ``root``; returns the record the fixture holds,
    without its environment."""
    root = Path(root)
    base = ExperimentConfig(
        scenario=default_scenario(seed=3, d=3, n_source=400, n_target_train=200,
                                  n_target_val=60, n_target_test=100),
        hidden_layers=(8, 8), epochs=5, learning_rate=3e-3, bins=40, label_fraction=0.1)
    data = run_synth(dataclasses.replace(base, out_dir=str(root / "data")))
    source = run_train_source(dataclasses.replace(
        base, out_dir=str(root / "source"), source_train=data["source"], epochs=20))
    target = dataclasses.replace(
        base, source_checkpoint=source["checkpoint"], target_train=data["target_train"],
        target_val=data["target_val"], target_test=data["target_test"])
    # adapt's craft run reads a histogram prior file; the sweep's craft cells fit mixtures
    prior = run_fit_prior(dataclasses.replace(target, out_dir=str(root / "prior"),
                                              prior_form="histogram"))
    reports = {"source": _metrics(json.loads(Path(source["report"]).read_text()))}
    for method in METHODS:
        report = run_adapt(dataclasses.replace(target, out_dir=str(root / "adapt"), method=method,
                                               prior_file=prior["prior"]))
        reports[f"adapt/{method}"] = _metrics(report)
    sweep = run_sweep(dataclasses.replace(target, out_dir=str(root / "sweep"), methods=list(METHODS),
                                          label_fractions=[0.1, 0.3], seeds=[0, 1]))
    for row in sweep["rows"]:
        reports[f"sweep/{row['method']}/{row['label_fraction']}/{row['seed']}"] = _metrics(row)
    files = {path.relative_to(root).as_posix(): _digest(path)
             for path in sorted(root.rglob("*")) if path.is_file()}
    return {"files": files, "reports": reports}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the fixture pipeline in a temporary "
                                     "directory and write its record to tests/fixtures/pipeline.json.")
    parser.add_argument("--write", action="store_true", required=True,
                        help="overwrite the committed fixture")
    parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        record = {"environment": environment(), **run_pipeline(tmp)}
    FIXTURE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
