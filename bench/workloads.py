"""The benchmark's workloads: set-up, one timed unit, and the checks on its output.

Each workload drives the package only through its public entry points and
feeds it data generated by ``default_scenario``.  A unit is one call the
workload times: one adaptation, one source training, or one sweep over one
cell of the grid.  The checks run after the timer stops.  A pass is the
units of one run seed; units of the same kind do the same work.

Every unit takes its run seed from a fixed list.  The per-seed quality of an
adaptation varies widely (CRAFT at 5% labels scores test RMSE 0.6 to 1.7
across seeds 0-11), so a benchmark seed that picked the run seeds would make
the quality metrics spread far beyond any usable bound.  The benchmark seed
therefore only fixes the order in which a run visits the list; the quality
figures are medians over the whole list and repeat exactly.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

# Entry points are called through their modules so that a traced run, which
# replaces them in those modules, sees the benchmark's own calls too.
from craft import data, harness, metrics, network
from craft.harness import (
    RUN_REPORT_SCHEMA,
    ExperimentConfig,
    aggregate_sweep_rows,
    default_scenario,
)


@dataclass(frozen=True)
class Settings:
    """Sizes and hyperparameters; ``FULL`` follows the stock quality run."""

    scenario: dict = field(default_factory=dict)  # overrides for default_scenario
    scenario_seed: int = 7
    hidden: tuple = (32, 32)
    epochs: int = 40
    learning_rate: float = 1e-3
    alpha: float = 0.1
    c: float = 0.5
    bins: int = 200
    batch_size: int = 64
    source_epochs: int = 150
    source_learning_rate: float = 3e-3
    source_seed: int = 0
    source_val_fraction: float = 0.2
    n_strata: int = 10
    craft_fraction: float = 0.05
    fractions: tuple = (0.01, 0.05, 0.10)
    methods: tuple = ("craft", "tl", "naive")
    run_seeds: tuple = (0, 1, 2, 3, 4)
    min_setups: int = 3
    min_setup_s: float = 0.5  # keep setting up until this much time has passed

    def spec(self):
        return default_scenario(seed=self.scenario_seed, **self.scenario)

    def source_config(self, seed: int, **extra) -> ExperimentConfig:
        return ExperimentConfig(hidden_layers=self.hidden, epochs=self.source_epochs,
                                learning_rate=self.source_learning_rate, seed=seed,
                                batch_size=self.batch_size,
                                val_fraction=self.source_val_fraction, **extra)

    def adapt_config(self, **extra) -> ExperimentConfig:
        return ExperimentConfig(hidden_layers=self.hidden, epochs=self.epochs,
                                learning_rate=self.learning_rate, alpha=self.alpha, c=self.c,
                                bins=self.bins, batch_size=self.batch_size,
                                prior_form="mixture", model_selection="best_val",
                                n_strata=self.n_strata, **extra)


FULL = Settings()
TINY = Settings(scenario=dict(d=3, n_source=300, n_target_train=1000, n_target_val=50,
                              n_target_test=100),
                hidden=(8,), epochs=2, bins=20, source_epochs=3, run_seeds=(0, 1),
                min_setups=1, min_setup_s=0.0)


@dataclass
class Run:
    """Quality of one adaptation, source training, or sweep cell."""

    method: str
    fraction: float | None
    seed: int
    rmse: float
    pbcor: float | None


@dataclass
class Outcome:
    """What one unit did: its time, the work it counts, and its checked runs."""

    seconds: float
    train_rows: int
    attempted: int
    kind: str = ""
    failed: int = 0
    runs: list = field(default_factory=list)
    problems: list = field(default_factory=list)


_validator = jsonschema.Draft202012Validator(RUN_REPORT_SCHEMA)


def report_problems(report: dict) -> list:
    """Why a run report fails the checks: schema, finite RMSE, finite pbcor
    for every method that trains a model."""
    problems = [f"schema: {e.message}" for e in _validator.iter_errors(report)]
    rmse = report.get("rmse")
    if not isinstance(rmse, (int, float)) or not math.isfinite(rmse):
        problems.append(f"rmse not finite: {rmse!r}")
    pbcor = report.get("pbcor")
    if report.get("method") != "naive" and (
            not isinstance(pbcor, (int, float)) or not math.isfinite(pbcor)):
        problems.append(f"pbcor not finite: {pbcor!r}")
    return problems


def labeled_rows(n: int, fraction: float, n_strata: int) -> int:
    """Rows a stratified mask keeps labeled: round-half-up per equal stratum."""
    sizes = [n // n_strata + (1 if i < n % n_strata else 0) for i in range(n_strata)]
    return sum(int(math.floor(fraction * s + 0.5)) for s in sizes)


class AdaptCraft:
    """CRAFT adaptations at one label fraction from a checkpoint trained in set-up."""

    name = "adapt-craft"
    headline = "craft"

    def __init__(self, settings: Settings, workdir: Path):
        self.s = settings

    def setup(self) -> None:
        s = self.s
        source, self.train, self.val, self.test = data.generate_synthetic(s.spec())
        params, scaler, report = harness.train_source_in_memory(
            source, s.source_config(s.source_seed))
        problems = report_problems(report.to_dict())
        if problems:
            raise RuntimeError(f"source report fails checks: {problems}")
        self.checkpoint = network.Checkpoint(params, scaler)

    def source_only_rmse(self) -> float:
        return metrics.evaluate(self.checkpoint.params, self.test, self.checkpoint.scaler).rmse

    def unit_keys(self) -> list:
        return list(self.s.run_seeds)

    def unit(self, seed: int) -> Outcome:
        s = self.s
        cfg = s.adapt_config(method="craft", label_fraction=s.craft_fraction, seed=seed)
        t0 = time.perf_counter()
        report = harness.adapt_in_memory(self.checkpoint, self.train, self.val, self.test, cfg,
                                         seed=seed)
        seconds = time.perf_counter() - t0
        out = Outcome(seconds, self.train.n * s.epochs, attempted=1, kind="craft")
        _check_run(out, report, s.craft_fraction, seed)
        return out


class TrainSource:
    """Supervised source training: no selection, prior or unsupervised term."""

    name = "train-source"
    headline = "source"

    def __init__(self, settings: Settings, workdir: Path):
        self.s = settings

    def setup(self) -> None:
        self.source = data.generate_synthetic(self.s.spec())[0]

    def source_only_rmse(self) -> None:
        return None

    def unit_keys(self) -> list:
        return list(self.s.run_seeds)

    def unit(self, seed: int) -> Outcome:
        s = self.s
        n_val = max(1, int(round(s.source_val_fraction * self.source.n)))
        t0 = time.perf_counter()
        _, _, report = harness.train_source_in_memory(self.source, s.source_config(seed))
        seconds = time.perf_counter() - t0
        out = Outcome(seconds, (self.source.n - n_val) * s.source_epochs, attempted=1,
                      kind="source")
        _check_run(out, report.to_dict(), None, seed, method="source")
        return out


class SweepGrid:
    """File-based sweeps over methods x label fractions x run seeds, one cell per sweep.

    Each cell is swept on its own, so a unit takes 0.05-1.5 s rather than the
    5 s of a whole grid for one seed.  The run's fastest time of each cell
    then comes from many short samples, which a host whose speed drifts by
    tens of percent within a minute moved about half as much as the fastest
    of a few 5-s sweeps (see README.md).  Every unit reloads the CSVs and the checkpoint and rewrites
    the sweep files, so the file path weighs nine times as much per pass as
    in one sweep over the whole grid.
    """

    name = "sweep-grid"
    headline = "craft"

    def __init__(self, settings: Settings, workdir: Path):
        self.s = settings
        self.workdir = Path(workdir)

    def setup(self) -> None:
        s = self.s
        self.paths = harness.run_synth(
            ExperimentConfig(scenario=s.spec(), out_dir=str(self.workdir / "data")))
        trained = harness.run_train_source(s.source_config(
            s.source_seed, source_train=self.paths["source"],
            out_dir=str(self.workdir / "source")))
        with open(trained["report"], encoding="utf-8") as fh:
            problems = report_problems(json.load(fh))
        if problems:
            raise RuntimeError(f"source report fails checks: {problems}")
        self.checkpoint_path = trained["checkpoint"]
        self.n_train = s.spec().n_target_train

    def source_only_rmse(self) -> float:
        ckpt = network.load_checkpoint(self.checkpoint_path)
        test = data.load_csv(self.paths["target_test"])
        return metrics.evaluate(ckpt.params, test, ckpt.scaler).rmse

    def unit_keys(self) -> list:
        s = self.s
        return [(seed, m, f) for seed in s.run_seeds for m in s.methods for f in s.fractions]

    def unit(self, key) -> Outcome:
        s = self.s
        seed, method, fraction = key
        out_dir = self.workdir / "sweep"
        cfg = s.adapt_config(
            source_checkpoint=self.checkpoint_path, target_train=self.paths["target_train"],
            target_val=self.paths["target_val"], target_test=self.paths["target_test"],
            out_dir=str(out_dir), methods=[method], label_fractions=[fraction], seeds=[seed])
        t0 = time.perf_counter()
        report = harness.run_sweep(cfg)
        seconds = time.perf_counter() - t0
        rows = s.epochs * (self.n_train if method == "craft"
                           else labeled_rows(self.n_train, fraction, s.n_strata)
                           if method == "tl" else 0)
        out = Outcome(seconds, rows, attempted=1, kind=f"{method}/{fraction}")
        problems = _sweep_file_problems(out_dir, report, 1)
        if problems:
            out.failed = out.attempted
            out.problems.extend(problems)
            return out
        for row in report["rows"]:
            if "error" in row:
                out.failed += 1
                out.problems.append(f"cell {row['method']}/{row['label_fraction']}: {row['error']}")
            else:
                _check_run(out, row, row["label_fraction"], seed)
        return out


def _check_run(out: Outcome, report: dict, fraction, seed: int, method: str | None = None):
    problems = report_problems(report)
    if problems:
        out.failed += 1
        out.problems.extend(problems)
        return
    out.runs.append(Run(method or report["method"], fraction, seed, report["rmse"],
                        report["pbcor"]))


def _sweep_file_problems(out_dir: Path, report: dict, n_cells: int) -> list:
    """One row per cell in runs.jsonl, runs.csv and the report, and aggregates
    that re-aggregating runs.jsonl reproduces."""
    with open(out_dir / "runs.jsonl", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    rows = [line for line in lines if "aggregates" not in line]
    with open(out_dir / "sweep_report.json", encoding="utf-8") as fh:
        saved = json.load(fh)
    with open(out_dir / "runs.csv", encoding="utf-8") as fh:
        csv_rows = sum(1 for line in fh if line.strip()) - 1
    problems = []
    if len(rows) != n_cells:
        problems.append(f"runs.jsonl holds {len(rows)} rows for {n_cells} cells")
    if csv_rows != n_cells:
        problems.append(f"runs.csv holds {csv_rows} rows for {n_cells} cells")
    if saved["rows"] != rows or len(report["rows"]) != n_cells:
        problems.append("sweep_report.json rows differ from runs.jsonl")
    if json.loads(json.dumps(aggregate_sweep_rows(rows))) != saved["aggregates"]:
        problems.append("re-aggregating runs.jsonl does not reproduce sweep_report.json")
    return problems


WORKLOADS = {w.name: w for w in (AdaptCraft, TrainSource, SweepGrid)}
