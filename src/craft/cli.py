"""Command-line front end.

Every subcommand takes ``--config PATH`` (JSON, see ExperimentConfig) plus
the flag overrides it reads, and rejects any other flag:

- ``synth``: ``--seed``, ``--out``
- ``train-source``: ``--seed``, ``--out``, ``--epochs``
- ``adapt`` and ``sweep``: ``--seed``, ``--out``, ``--epochs``, ``--method``,
  ``--alpha``, ``--bins``, ``--label-fraction``, ``--prior``, ``--checkpoint``
- ``evaluate``: ``--checkpoint``, ``--data`` (the CSV to score)
- ``fit-prior``: ``--seed``, ``--out``, ``--data`` (the CSV whose labels it fits)

Each flag sets the config field named by its ``dest``, and flags beat the
file: the two are merged before the config is built and checked, so a flag
can replace a bad file value, and a bad method, label fraction or fit
setting fails before any work starts.  ``--prior file:PATH`` sets
``prior_file``, and ``--prior fit`` clears one the file names, so the prior
is fitted to the labels of the run's budget.  Priors are in label units: the
file ``fit-prior`` writes, passed back with ``--prior file:``, is adapt's
own prior at the same ``label_fraction``, ``bias_keep_above`` (which
thresholds at the label mean), ``n_strata`` and seed.  A flag for a swept
field also drops the file's axis for it (``harness.SWEEP_AXES``):
``--method`` drops ``methods``, ``--label-fraction`` ``label_fractions``,
``--alpha`` ``alphas``, ``--bins`` ``bin_counts`` and ``--seed`` ``seeds``.
When the config cannot be built or the command fails, the process exits 1
with a one-line error JSON on stderr.  Errors argparse itself catches, such
as an unknown flag or a non-numeric ``--seed``, exit 2 with its usage
message.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    SWEEP_AXES,
    ExperimentConfig,
    run_adapt,
    run_evaluate,
    run_fit_prior,
    run_sweep,
    run_synth,
    run_train_source,
)

_FLAGS = {
    "--seed": {"dest": "seed", "type": int},
    "--out": {"dest": "out_dir", "help": "output directory"},
    "--epochs": {"dest": "epochs", "type": int},
    "--method": {"dest": "method"},
    "--alpha": {"dest": "alpha", "type": float},
    "--bins": {"dest": "bins", "type": int},
    "--label-fraction": {"dest": "label_fraction", "type": float},
    "--prior": {"dest": "prior_file", "help": "fit | file:PATH (fit drops a prior_file)"},
    "--checkpoint": {"dest": "source_checkpoint", "help": "source checkpoint path"},
}
_RUN_FLAGS = tuple(_FLAGS)

# subcommand: (handler, flags it reads, config field its --data flag sets)
_COMMANDS = {
    "synth": (run_synth, ("--seed", "--out"), None),
    "train-source": (run_train_source, ("--seed", "--out", "--epochs"), None),
    "adapt": (run_adapt, _RUN_FLAGS, None),
    "evaluate": (run_evaluate, ("--checkpoint",), "target_test"),
    "fit-prior": (run_fit_prior, ("--seed", "--out"), "target_train"),
    "sweep": (run_sweep, _RUN_FLAGS, None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="craft",
                                     description="Source-free semi-supervised regression transfer")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, data_field) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        if data_field:
            p.add_argument("--data", dest=data_field, help="dataset CSV")
    return parser


def _parse_prior_flag(value: str) -> str | None:
    """The ``prior_file`` a ``--prior`` value sets: None for ``fit``."""
    if value == "fit":
        return None
    if value.startswith("file:") and value != "file:":
        return value[len("file:"):]
    raise ValueError(f"--prior must be fit or file:PATH (got {value!r})")


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    raw = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"config {args.config}: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"config {args.config} holds a {type(raw).__name__}, not a JSON object")
    updates = {field: value for field, value in vars(args).items()
               if field not in ("command", "config") and value is not None}
    if "prior_file" in updates:
        updates["prior_file"] = _parse_prior_flag(updates["prior_file"])
    for field in updates.keys() & SWEEP_AXES.keys():
        raw.pop(SWEEP_AXES[field], None)
    return ExperimentConfig(**{**raw, **updates})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        result = _COMMANDS[args.command][0](cfg)
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    json.dump(result, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
