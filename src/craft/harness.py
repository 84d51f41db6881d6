"""Experiment harness: configuration, source training, adaptation runs, sweeps.

Adaptation is source-free by contract: a run reads the source checkpoint and
target files, never source data, and train-source reads the ``source_train``
CSV that synth writes; ``adapt_in_memory`` reads no file.  The train-source,
adapt and evaluate commands record every file they open for reading and echo
the list as ``files_opened``, so the contract is auditable.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    GeneratorSpec,
    _check_integer,
    _check_number,
    apply_scaler,
    fit_scaler,
    generate_synthetic,
    inject_marginal_bias,
    load_csv,
    stratified_label_mask,
    write_csv,
    write_file,
    write_json,
)
from .engine import MIN_BINS, CraftConfig, RunReport, fit_craft, fit_tl, make_bin_grid
from .metrics import evaluate, rmse
from .network import Checkpoint, MlpSpec, init_params, load_checkpoint, save_checkpoint
from .priors import MixturePrior, affine_transform_prior, fit_prior, load_prior, prior_log_density, save_prior

__all__ = [
    "ExperimentConfig",
    "SWEEP_AXES",
    "RUN_REPORT_SCHEMA",
    "default_scenario",
    "train_source_in_memory",
    "adapt_in_memory",
    "aggregate_sweep_rows",
    "run_synth",
    "run_train_source",
    "run_adapt",
    "run_sweep",
    "run_fit_prior",
    "run_evaluate",
]

RUN_REPORT_SCHEMA = {
    "type": "object",
    "required": [f.name for f in dataclasses.fields(RunReport)],
    "properties": {
        "method": {"enum": ["craft", "tl", "naive"]},
        "seed": {"type": "integer"},
        "alpha": {"type": "number", "minimum": 0},
        "c": {"type": "number", "exclusiveMinimum": 0},
        "bins": {"type": ["integer", "null"], "minimum": MIN_BINS},
        "label_fraction": {"type": ["number", "null"], "exclusiveMinimum": 0, "maximum": 1},
        "rmse": {"type": ["number", "null"], "minimum": 0},
        "pbcor": {"type": ["number", "null"], "minimum": -1, "maximum": 1},
        "epochs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["supervised", "unsup_quadratic", "unsup_contrastive"],
                "properties": {
                    "supervised": {"type": "number", "minimum": 0},
                    "unsup_quadratic": {"type": "number", "minimum": 0},
                    "unsup_contrastive": {"type": "number", "minimum": 0},
                },
            },
        },
        "pseudo_label_hist": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "em_iters": {"type": ["integer", "null"], "minimum": 1},
        "em_converged": {"type": ["boolean", "null"]},
        "files_opened": {"type": "array", "items": {"type": "string"}},
    },
}


# each swept field and the config field listing its values, in run_sweep's nesting order
SWEEP_AXES = {"method": "methods", "label_fraction": "label_fractions", "alpha": "alphas",
              "bins": "bin_counts", "seed": "seeds"}


@dataclass
class ExperimentConfig:
    """One JSON-loadable bag of knobs for every command; unused fields are ignored.

    Build it as ``ExperimentConfig(**d)`` from a JSON dict: an unknown key
    raises ``TypeError`` naming it, and a ``scenario`` dict becomes a
    :class:`GeneratorSpec` (any other scenario but None fails).  Every setting
    that would fail each run or sweep cell that reads it is checked when the
    config is built, naming the field: the method, label fraction and fit
    settings, sweep axes included (each axis a nonempty list, and the fit
    settings by the same :class:`CraftConfig` rules a fit applies); the model
    selection, validation fraction and bias setting; the count settings,
    which must be integers (the seeds at least 0, and the bin counts at least
    ``engine.MIN_BINS`` whatever the method); the float settings and axis
    entries, which must be real numbers (a bool is not one);
    ``hidden_layers``, a list of integers of at least 1; the path settings,
    each a nonempty string or None (``out_dir`` a string); and the prior's
    form, strata and bins.  A fit-prior file is adapt's own prior
    at the same ``label_fraction``, ``bias_keep_above`` (which thresholds at
    the label mean), ``n_strata`` and seed.
    """

    # data: the scenario synth generates, and the CSV paths the other commands read
    scenario: GeneratorSpec | None = None
    source_train: str | None = None
    source_checkpoint: str | None = None
    target_train: str | None = None
    target_val: str | None = None
    target_test: str | None = None
    out_dir: str = "runs"
    # network
    hidden_layers: tuple = (32, 32)
    # training (CraftConfig's fit settings have no defaults but these)
    method: str = "craft"
    alpha: float = 0.1
    c: float = 0.5
    bins: int = 200
    batch_size: int = 64
    epochs: int = 40
    learning_rate: float = 1e-4
    model_selection: str = "best_val"
    seed: int = 0
    val_fraction: float = 0.2
    # label availability protocol
    label_fraction: float = 1.0
    n_strata: int = 10
    bias_keep_above: float | None = None  # keeps this share of the rows above the label mean
    # prior
    prior_file: str | None = None  # CRAFT's prior when set, else fitted to the labeled rows
    prior_form: str = "mixture"  # the shape fitted to the labels: mixture | histogram
    prior_bins: int = 10
    # sweep axes
    seeds: list | None = None
    label_fractions: list | None = None
    alphas: list | None = None
    bin_counts: list | None = None
    methods: list | None = None

    def __post_init__(self):
        if isinstance(self.scenario, dict):
            self.scenario = GeneratorSpec(**self.scenario)
        elif not isinstance(self.scenario, (GeneratorSpec, type(None))):
            raise ValueError(f"scenario must be an object or null, got {self.scenario!r}")
        for name in ("source_train", "source_checkpoint", "target_train", "target_val",
                     "target_test", "out_dir", "prior_file"):
            value, allowed = getattr(self, name), str if name == "out_dir" else (str, type(None))
            if not isinstance(value, allowed) or value == "":
                raise ValueError(f"{name} must be a nonempty path string, got {value!r}")
        for axis in SWEEP_AXES.values():
            values = getattr(self, axis)
            if values is not None and not (isinstance(values, (list, tuple)) and values):
                raise ValueError(f"{axis} must be a nonempty list, got {values!r}")
        for method in [self.method, *(self.methods or [])]:
            if method not in ("craft", "tl", "naive"):
                raise ValueError(f"unknown method {method!r}")
        if self.prior_form not in ("mixture", "histogram"):
            raise ValueError(f"unknown prior_form {self.prior_form!r}")
        for fraction in [self.label_fraction, *(self.label_fractions or [])]:
            if not 0.0 < _check_number("label_fraction", fraction) <= 1.0:
                raise ValueError("label_fraction must lie in (0, 1]")
        for alpha in [self.alpha, *(self.alphas or [])]:
            _craft_config(self, alpha=alpha)
        if self.model_selection not in ("best_val", "final"):
            raise ValueError(f"unknown model_selection {self.model_selection!r}")
        if not 0.0 < _check_number("val_fraction", self.val_fraction) < 1.0:
            raise ValueError("val_fraction must lie in (0, 1)")
        bias = self.bias_keep_above
        if bias is not None and not 0.0 <= _check_number("bias_keep_above", bias) <= 1.0:
            raise ValueError("bias_keep_above must lie in [0, 1]")
        if not isinstance(self.hidden_layers, (list, tuple)):
            raise ValueError(f"hidden_layers must be a list of integers, got {self.hidden_layers!r}")
        for width in self.hidden_layers:
            _check_integer("hidden_layers", width, minimum=1)
        _check_integer("bins", self.bins, minimum=MIN_BINS)
        for bins in self.bin_counts or []:
            _check_integer("bin_counts", bins, minimum=MIN_BINS)
        for seed in self.seeds or []:
            _check_integer("seeds", seed, minimum=0)
        _check_integer("n_strata", self.n_strata, minimum=1)
        _check_integer("prior_bins", self.prior_bins, minimum=1)


def _craft_config(cfg: ExperimentConfig, **overrides) -> CraftConfig:
    """The engine settings ``cfg`` carries, with ``overrides`` on top."""
    return CraftConfig(**{"alpha": cfg.alpha, "c": cfg.c, "batch_size": cfg.batch_size,
                          "epochs": cfg.epochs, "seed": cfg.seed,
                          "learning_rate": cfg.learning_rate, **overrides})


def default_scenario(seed: int, **overrides) -> GeneratorSpec:
    """The stock covariate-shift benchmark scenario."""
    base = dict(
        scenario="default-shift",
        d=8,
        n_source=4000,
        n_target_train=2000,
        n_target_val=500,
        n_target_test=1000,
        shift_mean=0.5,
        shift_scale=1.3,
        noise_std=0.1,
        seed=seed,
    )
    base.update(overrides)
    return GeneratorSpec(**base)


def _read(load, path, access_log: list):
    """``load(path)``, noting the path in ``access_log``."""
    access_log.append(str(path))
    return load(path)


def _check_splits(checkpoint: Checkpoint, cfg: ExperimentConfig, fractions, paths: dict,
                  **splits):
    """Fail on the first given split that runs at the label ``fractions`` cannot
    use, naming it and its path in ``paths``: a feature count the checkpoint
    does not take; an unlabeled row in ``target_test``, which every run
    scores, or in ``target_train`` when the label budget at a fraction drops
    labels; or a ``target_val`` without a labeled row to select an epoch on."""
    expected = checkpoint.params.spec.input_dim
    for name, ds in splits.items():
        if ds is None:
            continue
        if ds.d != expected:
            raise ValueError(f"checkpoint expects {expected} features, {name} has {ds.d}")
        where = f"{name} {paths[name]}" if name in paths else name
        if name == "target_val" and cfg.model_selection == "best_val" and not ds.labeled.any():
            raise ValueError(f"{where} has no labeled row to select an epoch on")
        if name == "target_test":
            _require_labels(ds, where, "the run is scored on it")
        if name == "target_train" and not ds.labeled.all():  # it fails before any budget work
            for fraction in fractions:
                _label_budget(ds, dataclasses.replace(cfg, label_fraction=fraction), where)


def _require_labels(ds: Dataset, where: str, reason: str):
    if not ds.labeled.all():
        raise ValueError(f"{where} has {ds.n - ds.n_labeled} of {ds.n} rows unlabeled, but "
                         f"must be fully labeled: {reason}")


def _label_budget(train_raw: Dataset, cfg: ExperimentConfig, where="target_train"):
    """The target train rows and labels a run or a ``fit-prior`` file may read:
    bias first (rows above the label mean), then the stratified label mask,
    both drawn from ``cfg.seed``.  A setting that drops labels fails on a partly
    labeled ``train_raw`` before any work, naming ``where`` and itself."""
    drop = (f"bias_keep_above {cfg.bias_keep_above}" if cfg.bias_keep_above is not None
            else f"label_fraction {cfg.label_fraction}" if cfg.label_fraction < 1.0 else None)
    if drop:
        _require_labels(train_raw, where, f"{drop} drops its labels")
    if cfg.bias_keep_above is not None:
        train_raw = inject_marginal_bias(train_raw, cfg.bias_keep_above, cfg.seed)
    if cfg.label_fraction < 1.0:
        train_raw = stratified_label_mask(train_raw, cfg.label_fraction, cfg.n_strata, cfg.seed)
    return train_raw


def train_source_in_memory(source: Dataset, cfg: ExperimentConfig):
    """Train a fresh regressor on a fully labeled source set, keeping the
    best-validation checkpoint; returns (params, scaler, report)."""
    if not source.labeled.all():
        raise ValueError("source training expects a fully labeled dataset")
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(source.n)
    n_val = max(1, int(round(cfg.val_fraction * source.n)))
    if n_val >= source.n:
        raise ValueError("val_fraction leaves no training rows")
    val_raw = source.subset(perm[:n_val])
    train_raw = source.subset(perm[n_val:])
    scaler = fit_scaler(train_raw)
    train_scaled = apply_scaler(train_raw, scaler)
    val_scaled = apply_scaler(val_raw, scaler)
    spec = MlpSpec((source.d, *cfg.hidden_layers, 1))
    params0 = init_params(spec, cfg.seed)
    params, report = fit_tl(params0, train_scaled, _craft_config(cfg), val=val_scaled)
    metrics = evaluate(params, val_raw, scaler)
    report.rmse = metrics.rmse
    report.pbcor = metrics.pbcor
    return params, scaler, report


def adapt_in_memory(checkpoint: Checkpoint, train_raw: Dataset, val_raw: Dataset | None,
                    test_raw: Dataset, cfg: ExperimentConfig, seed: int | None = None,
                    prior=None) -> dict:
    """One adaptation run against in-memory data; returns the report dict.

    It reads no file, and a given ``seed`` replaces ``cfg.seed``.  The test
    set must be fully labeled, and the train set is cut to its label budget
    (:func:`_label_budget`), which must leave a labeled row unless the run is
    CRAFT at positive ``alpha`` with a given prior.  ``prior``, in label units
    as a prior file holds it, is CRAFT's label prior; without one, the prior is
    fitted to the budget's labels, so it is the prior ``run_fit_prior`` writes
    at the same ``label_fraction``, ``bias_keep_above``, ``n_strata`` and seed,
    and a mixture's EM iterations and convergence are reported.  Either is moved
    into model units by the checkpoint scaler's label map.  The validation
    set, when given, picks the kept epoch under 'best_val' model selection,
    scored on its labeled rows, and must then hold at least one; it is unused
    under 'final'.
    """
    cfg = cfg if seed is None else dataclasses.replace(cfg, seed=seed)
    _check_splits(checkpoint, cfg, [cfg.label_fraction], {},
                  target_train=train_raw, target_val=val_raw, target_test=test_raw)
    scaler = checkpoint.scaler
    work = _label_budget(train_raw, cfg)
    if not (work.labeled.any() or cfg.method == "craft" and cfg.alpha > 0.0 and prior is not None):
        raise ValueError(f"label_fraction {cfg.label_fraction} with n_strata {cfg.n_strata} leaves "
                         f"no labeled row of {work.n} target_train rows; only craft at alpha > 0 "
                         "with a prior file runs without one")

    report: RunReport
    if cfg.method == "naive":
        mean = float(work.labels[work.labeled].mean())
        report = RunReport(method="naive", seed=cfg.seed, alpha=0.0, c=cfg.c, bins=None)
        report.rmse = rmse(np.full(test_raw.n, mean), test_raw.labels)
    else:
        train_scaled = apply_scaler(work, scaler)
        use_val = val_raw is not None and cfg.model_selection == "best_val"
        val_scaled = apply_scaler(val_raw, scaler) if use_val else None
        grid = model_prior = fitted = None
        if cfg.method == "craft" and cfg.alpha > 0.0:
            labeled_scaled = train_scaled.labels[train_scaled.labeled]
            spans = labeled_scaled.size and labeled_scaled.max() > labeled_scaled.min()
            grid = make_bin_grid(cfg.bins, labeled_scaled if spans else
                                 scaler.scale_labels([scaler.label_lo, scaler.label_hi]))
            if prior is None:
                prior = fitted = fit_prior(work.labels[work.labeled], cfg.prior_form, cfg.prior_bins, cfg.seed)
            model_prior = affine_transform_prior(prior, *scaler.label_map())
        config = _craft_config(cfg, grid=grid, prior=model_prior)
        fit = fit_craft if cfg.method == "craft" else fit_tl
        params, report = fit(checkpoint.params, train_scaled, config, val=val_scaled)
        metrics = evaluate(params, test_raw, scaler)
        report.rmse = metrics.rmse
        report.pbcor = metrics.pbcor
        if isinstance(fitted, MixturePrior):  # a histogram has no EM fit to report
            report.em_iters, report.em_converged = len(fitted.loglik_path), fitted.converged
    report.label_fraction = cfg.label_fraction
    return report.to_dict()


# ---------------------------------------------------------------------------
# file-based commands


def run_synth(cfg: ExperimentConfig) -> dict:
    """Generate the configured scenario and write the four CSV splits plus a
    sidecar JSON with the generator settings."""
    spec = cfg.scenario or default_scenario(seed=cfg.seed)
    out = Path(cfg.out_dir)
    source, train, val, test = generate_synthetic(spec)
    paths = {}
    for name, ds in [("source", source), ("target_train", train),
                     ("target_val", val), ("target_test", test)]:
        path = out / f"{name}.csv"
        write_csv(ds, path)
        paths[name] = str(path)
    sidecar = out / "scenario.json"
    write_json(sidecar, spec.to_dict(), indent=2)
    paths["scenario"] = str(sidecar)
    return paths


def run_train_source(cfg: ExperimentConfig) -> dict:
    """Train a source model on the ``source_train`` CSV; writes the checkpoint
    and a report JSON."""
    if not cfg.source_train:
        raise ValueError("train-source needs a source_train CSV; run synth first to write one")
    access: list = []
    source = _read(load_csv, cfg.source_train, access)
    params, scaler, report = train_source_in_memory(source, cfg)
    out = Path(cfg.out_dir)
    ckpt_path = out / "source_checkpoint.json"
    save_checkpoint(ckpt_path, params, scaler)
    report_dict = report.to_dict()
    report_dict["files_opened"] = access
    report_path = out / "source_report.json"
    write_json(report_path, report_dict, indent=2)
    return {"checkpoint": str(ckpt_path), "report": str(report_path), "val_rmse": report.rmse}


def _load_adapt_inputs(cfg: ExperimentConfig, access: list, fractions):
    """The inputs of runs at each of the label ``fractions``, checked before any run."""
    if not cfg.source_checkpoint:
        raise ValueError("adapt needs a source_checkpoint path")
    if not cfg.target_train or not cfg.target_test:
        raise ValueError("adapt needs target_train and target_test paths")
    checkpoint = _read(load_checkpoint, cfg.source_checkpoint, access)
    train = _read(load_csv, cfg.target_train, access)
    val = _read(load_csv, cfg.target_val, access) if cfg.target_val else None
    test = _read(load_csv, cfg.target_test, access)
    prior = _read(load_prior, cfg.prior_file, access) if cfg.prior_file else None
    splits = {"target_train": train, "target_val": val, "target_test": test}
    paths = {name: getattr(cfg, name) for name in splits}
    _check_splits(checkpoint, cfg, fractions, paths, **splits)
    return checkpoint, train, val, test, prior


def run_adapt(cfg: ExperimentConfig) -> dict:
    """Source-free adaptation from files: reads only the checkpoint, the target
    CSVs, and (optionally) a prior file, each once; writes one report JSON."""
    access: list = []
    checkpoint, train, val, test, prior = _load_adapt_inputs(cfg, access, [cfg.label_fraction])
    report = adapt_in_memory(checkpoint, train, val, test, cfg, prior=prior)
    report["files_opened"] = access
    out = Path(cfg.out_dir)
    path = out / f"report_{cfg.method}_seed{cfg.seed}.json"
    write_json(path, report, indent=2)
    report["report_path"] = str(path)
    return report


def _median(values):
    defined = [v for v in values if v is not None]
    return float(np.median(defined)) if defined else None


def aggregate_sweep_rows(rows) -> list:
    """Median metrics per (method, label_fraction, alpha, bins), recomputable from
    rows, in the order of those values (bins None first)."""
    groups: dict = {}
    for row in rows:
        if "error" in row:
            continue
        key = (row["method"], row["label_fraction"], row["alpha"], row["bins"])
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: (*k[:3], k[3] is not None, k[3])):
        members = groups[key]
        out.append({
            "method": key[0],
            "label_fraction": key[1],
            "alpha": key[2],
            "bins": key[3],
            "n_runs": len(members),
            "median_rmse": _median([m["rmse"] for m in members]),
            "median_pbcor": _median([m["pbcor"] for m in members]),
        })
    return out


def run_sweep(cfg: ExperimentConfig) -> dict:
    """Sweep over (methods x fractions x alphas x bins x seeds), each distinct fit once.

    Every input file, a prior file included, is read once and checked before
    any cell, so a split that some cell cannot use fails the whole sweep.
    Tl, naive and craft at alpha zero read neither alpha nor the bin count,
    so their cells run once per (fraction, seed), with alpha 0.0 and bins
    None; the cells keep the order of the product.

    The sweep files an earlier sweep left in ``out_dir`` are removed first.
    ``runs.jsonl`` is rewritten whole after every cell (a failed cell becomes
    an error row and the sweep continues), so an interrupted sweep leaves the
    finished rows intact and nothing of an earlier sweep; the aggregates line
    lands last, plus a combined ``sweep_report.json`` and a delimited
    ``runs.csv``.
    """
    # an axis left None sweeps the one setting it would list
    axes = {name: [getattr(cfg, name)] if getattr(cfg, axis) is None else getattr(cfg, axis)
            for name, axis in SWEEP_AXES.items()}
    checkpoint, train, val, test, prior = _load_adapt_inputs(cfg, [], axes["label_fraction"])
    out = Path(cfg.out_dir)
    for name in ("runs.jsonl", "sweep_report.json", "runs.csv"):
        (out / name).unlink(missing_ok=True)
    cells = dict.fromkeys((m, f, a, b, s) if m == "craft" and a > 0.0 else (m, f, 0.0, None, s)
                          for m, f, a, b, s in product(*axes.values()))
    rows, lines = [], []
    for method, fraction, alpha, bins, seed in cells:
        try:
            # a cell that builds no grid (bins None) keeps the config's bin count
            cell = dataclasses.replace(cfg, method=method, label_fraction=fraction, alpha=alpha,
                                       bins=cfg.bins if bins is None else bins, seed=seed)
            row = adapt_in_memory(checkpoint, train, val, test, cell, prior=prior)
        except Exception as exc:  # record the failure, keep sweeping
            row = {"method": method, "seed": seed, "alpha": alpha, "bins": bins,
                   "label_fraction": fraction, "error": f"{type(exc).__name__}: {exc}"}
        rows.append(row)
        lines.append(json.dumps(row) + "\n")
        write_file(out / "runs.jsonl", lambda fh: fh.writelines(lines))
    aggregates = aggregate_sweep_rows(rows)
    lines.append(json.dumps({"aggregates": aggregates}) + "\n")
    write_file(out / "runs.jsonl", lambda fh: fh.writelines(lines))
    report = {"rows": rows, "aggregates": aggregates}
    write_json(out / "sweep_report.json", report, indent=2)
    columns = ["method", "seed", "alpha", "c", "bins", "label_fraction", "rmse", "pbcor", "error"]
    table = [columns] + [["" if row.get(col) is None else row.get(col) for col in columns]
                         for row in rows]
    write_file(out / "runs.csv", lambda fh: csv.writer(fh).writerows(table))
    return report


def run_fit_prior(cfg: ExperimentConfig) -> dict:
    """Fit a label prior to the labels of the ``target_train`` CSV that the
    label budget leaves, in their units, and write the serialized prior plus
    a density curve CSV.  Passed back as ``prior_file``, it is the prior an
    adapt run on that CSV fits itself at the same ``label_fraction``,
    ``bias_keep_above``, ``n_strata`` and seed."""
    if not cfg.target_train:
        raise ValueError("fit-prior needs a labels CSV via target_train")
    ds = _label_budget(load_csv(cfg.target_train), cfg, f"target_train {cfg.target_train}")
    labels = ds.labels[ds.labeled]
    prior = fit_prior(labels, cfg.prior_form, cfg.prior_bins, cfg.seed)
    out = Path(cfg.out_dir)
    prior_path = out / "prior.json"
    save_prior(prior_path, prior)
    lo, hi = float(labels.min()), float(labels.max())
    pad = 0.1 * (hi - lo) if hi > lo else 1.0
    ys = np.linspace(lo - pad, hi + pad, 256)
    logd = prior_log_density(prior, ys)
    curve = [["y", "log_density", "density"]] + [
        [repr(float(yv)), repr(float(ld)), repr(float(np.exp(ld)))] for yv, ld in zip(ys, logd)]
    curve_path = out / "prior_density.csv"
    write_file(curve_path, lambda fh: csv.writer(fh).writerows(curve))
    return {"prior": str(prior_path), "density_curve": str(curve_path)}


def run_evaluate(cfg: ExperimentConfig) -> dict:
    """Score a checkpoint on a fully labeled CSV in original label units."""
    if not cfg.source_checkpoint or not cfg.target_test:
        raise ValueError("evaluate needs source_checkpoint and target_test")
    access: list = []
    checkpoint = _read(load_checkpoint, cfg.source_checkpoint, access)
    test = _read(load_csv, cfg.target_test, access)
    _check_splits(checkpoint, cfg, [], {"target_test": cfg.target_test}, target_test=test)
    pair = evaluate(checkpoint.params, test, checkpoint.scaler)
    return {
        "rmse": pair.rmse,
        "pbcor": pair.pbcor,
        "files_opened": access,
    }
