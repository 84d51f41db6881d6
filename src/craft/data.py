"""Dataset container, file I/O, scaling, label masking, and synthetic generation.

A dataset bundles a feature matrix and a label vector in which a NaN label is
an unlabeled row, whether loaded or masked (an empty CSV cell is the only
file encoding of a missing label).  Every randomized operation here is a
pure function of its inputs and a seed, so splits and masks are reproducible
byte for byte.  Every file the package reads or writes is opened here: CSVs
by :func:`load_csv`, JSON by :func:`read_json`, and every write by
:func:`write_file`.  The CSV writer holds one row of Python objects at a
time.  The frozen value types that hold arrays compare and hash by identity
(``eq=False``): field-by-field ``==`` is ambiguous on arrays.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import warnings
from array import array
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "Dataset",
    "ScalerParams",
    "GeneratorSpec",
    "load_csv",
    "read_json",
    "write_csv",
    "write_file",
    "write_json",
    "fit_scaler",
    "apply_scaler",
    "stratified_label_mask",
    "inject_marginal_bias",
    "generate_synthetic",
    "ground_truth",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, a fresh array no one else holds, made read-only."""
    arr.setflags(write=False)
    return arr


def _frozen_array(values):
    """``values`` as a read-only float64 array: one that already is read-only
    and owns its memory is kept as it is; anything else is copied."""
    if (type(values) is np.ndarray and values.dtype == np.float64 and values.flags.owndata
            and not values.flags.writeable):
        return values
    return _frozen(np.array(values, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class ScalerParams:
    """Affine feature/label scaling fitted on a training set.

    Features are z-scored per column.  Labels are mapped linearly so the
    fitted label range lands on [-1, 1]; values outside the fitted range map
    outside [-1, 1] without clipping.
    """

    feature_mean: np.ndarray
    feature_std: np.ndarray
    label_lo: float
    label_hi: float

    def __post_init__(self):
        object.__setattr__(self, "feature_mean", _frozen_array(self.feature_mean))
        object.__setattr__(self, "feature_std", _frozen_array(self.feature_std))
        object.__setattr__(self, "label_lo", float(self.label_lo))
        object.__setattr__(self, "label_hi", float(self.label_hi))
        for name in ("feature_mean", "feature_std", "label_lo", "label_hi"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if self.feature_mean.ndim != 1 or self.feature_mean.shape != self.feature_std.shape:
            raise ValueError("feature_mean and feature_std must be 1-d and equally long")
        if np.any(self.feature_std <= 0):
            raise ValueError("feature_std entries must be positive")
        if not self.label_lo < self.label_hi:
            raise ValueError("label_lo must lie strictly below label_hi")
        if not math.isfinite(2.0 * (abs(self.label_lo) + abs(self.label_hi))):  # bounds every scaling term
            raise ValueError(f"label_lo {self.label_lo!r} to label_hi {self.label_hi!r} overflows float64")

    def scale_labels(self, y):
        return 2.0 * (np.asarray(y, dtype=np.float64) - self.label_lo) / (self.label_hi - self.label_lo) - 1.0

    def label_map(self):
        """``(scale, shift)``: :meth:`scale_labels` is the map ``scale * y + shift``."""
        span = self.label_hi - self.label_lo
        return 2.0 / span, -2.0 * self.label_lo / span - 1.0

    def unscale_labels(self, y):
        return (np.asarray(y, dtype=np.float64) + 1.0) * (self.label_hi - self.label_lo) / 2.0 + self.label_lo

    def to_dict(self):
        return {
            "feature_mean": self.feature_mean.tolist(),
            "feature_std": self.feature_std.tolist(),
            "label_lo": self.label_lo,
            "label_hi": self.label_hi,
        }


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable feature matrix with a (possibly partial) label vector.

    A NaN label is an unlabeled row and any other label must be finite;
    ``labeled``, the read-only mask of the rows whose label is not NaN, is
    worked out from the labels and is not an argument.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = _frozen_array(self.features)
        labels = _frozen_array(self.labels)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError("features must be a non-empty 2-d matrix")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must be a vector matching the row count")
        if not np.isfinite(feats).all():
            raise ValueError("features contain non-finite entries")
        infinite = np.flatnonzero(np.isinf(labels))
        if infinite.size:
            raise ValueError(f"row {infinite[0]} has label {float(labels[infinite[0]])!r}: a label is "
                             "finite, or NaN on an unlabeled row")
        object.__setattr__(self, "labeled", _frozen(~np.isnan(labels)))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_labeled(self) -> int:
        return int(self.labeled.sum())

    def subset(self, rows) -> "Dataset":
        rows = np.asarray(rows)
        return Dataset(_frozen(self.features[rows]), _frozen(self.labels[rows]))


def _parse_cell(path, lineno, name, cell):
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: non-numeric value {cell!r} in column {name}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: non-finite value {cell!r} in column {name}")
    return value


def _read_header(path, reader):
    """``(header, d, has_mask)`` from a CSV reader's first record, once checked."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    has_mask = bool(header) and header[-1] == "labeled"
    d = len(header) - (2 if has_mask else 1)
    expected = [f"f{j}" for j in range(d)] + ["y"] + (["labeled"] if has_mask else [])
    if d < 1 or header != expected:
        raise ValueError(f"{path}: malformed header {header!r}; expected f0,...,f{{d-1}},y[,labeled]")
    return header, d, has_mask


def load_csv(path) -> Dataset:
    """Read a dataset from a ``f0,...,f{d-1},y[,labeled]`` CSV file.

    Without a ``labeled`` column every row counts as labeled.  A row flagged
    unlabeled must have an empty ``y`` cell, any other row a label, and no cell
    may be non-finite.

    A file without a ``labeled`` column has its body parsed in numpy's C
    reader (``np.loadtxt``); the table must have one column per header name
    and every label, and make a valid :class:`Dataset`.  A masked file, or one that the C
    reader refuses or that breaks a rule, is read by :func:`_load_csv_rows`,
    which defines the format: its result is the file's dataset, and its error
    names the line and column of the bad cell.  The C reader accepts fewer
    spellings than the row reader (no ``1_0``, no non-ASCII digits, no
    whitespace-only lines), never more.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, d, has_mask = _read_header(path, csv.reader(fh))
        if has_mask:
            table = None
        else:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
            except (ValueError, Warning):
                table = None
    if table is not None and table.shape[1] == len(header) and not np.isnan(table[:, d]).any():
        try:
            return Dataset(table[:, :d], table[:, d])
        except ValueError:
            pass
    return _load_csv_rows(path)


def _load_csv_rows(path) -> Dataset:
    """:func:`load_csv` in Python, one row at a time: the definition of the
    format, and the reader that names the first bad cell by file, line and
    column."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header, d, has_mask = _read_header(path, reader)
        feats, labels = array("d"), array("d")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(c.strip() == "" for c in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            if has_mask:
                flag = row[-1].strip()
                if flag not in ("0", "1"):
                    raise ValueError(f"{path}:{lineno}: labeled flag must be 0 or 1, got {flag!r}")
                is_labeled = flag == "1"
            else:
                is_labeled = True
            y_cell = (row[-2] if has_mask else row[-1]).strip()
            if is_labeled:
                if y_cell == "":
                    raise ValueError(f"{path}:{lineno}: labeled sample missing label")
                y_val = _parse_cell(path, lineno, "y", y_cell)
            elif y_cell == "":
                y_val = math.nan
            else:
                raise ValueError(f"{path}:{lineno}: unlabeled row carries a label in column y")
            feats.extend(_parse_cell(path, lineno, f"f{j}", c) for j, c in enumerate(row[:d]))
            labels.append(y_val)
    if not labels:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.frombuffer(feats).reshape(-1, d), np.frombuffer(labels))


def read_json(path, what: str):
    """The JSON value in the UTF-8 file ``path``; invalid JSON fails as ``f"{what} {path}: ..."``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{what} {path}: {exc}") from None


def write_csv(ds: Dataset, path) -> None:
    """Write a dataset in the same CSV format that :func:`load_csv` reads.

    Unlabeled rows get an empty ``y`` cell.  The ``labeled`` column is
    omitted when every row is labeled.
    """
    include_mask = not bool(ds.labeled.all())

    def rows():
        yield [f"f{j}" for j in range(ds.d)] + ["y"] + (["labeled"] if include_mask else [])
        for x, y, kept in zip(ds.features, ds.labels.tolist(), ds.labeled.tolist()):
            row = [repr(v) for v in x.tolist()]
            row.append(repr(y) if kept else "")
            if include_mask:
                row.append("1" if kept else "0")
            yield row

    write_file(path, lambda fh: csv.writer(fh).writerows(rows()))


def write_file(path, fill) -> None:
    """Write ``path`` so that it is never seen half-written.

    The parent directory is created if missing.  ``fill(fh)`` writes a text
    file (UTF-8, ``newline=""``) beside ``path``, which then replaces ``path``
    in one ``os.replace``; if anything fails, the temporary file is removed
    and any earlier ``path`` is left as it was.
    """
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fill(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload, indent: int | None = None) -> None:
    """Write ``payload`` as JSON through :func:`write_file`."""
    write_file(path, lambda fh: json.dump(payload, fh, indent=indent))


def fit_scaler(train: Dataset) -> ScalerParams:
    """Fit scaling statistics: feature moments on all rows, label range on labeled rows."""
    std = train.features.std(axis=0)
    bad = np.flatnonzero(std <= 0)
    if bad.size:
        raise ValueError(f"zero-variance feature column(s): {bad.tolist()}")
    labeled = train.labels[train.labeled]
    if labeled.size == 0:
        raise ValueError("cannot fit a label scaler without labeled rows")
    lo, hi = float(labeled.min()), float(labeled.max())
    if lo == hi:
        raise ValueError("all labels identical: label_lo equals label_hi")
    return ScalerParams(train.features.mean(axis=0), std, lo, hi)


def apply_scaler(ds: Dataset, params: ScalerParams) -> Dataset:
    feats = ds.features - params.feature_mean
    feats /= params.feature_std
    return Dataset(_frozen(feats), _frozen(params.scale_labels(ds.labels)))


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def stratified_label_mask(ds: Dataset, keep_fraction: float, n_strata: int, seed: int) -> Dataset:
    """Drop labels uniformly within label-quantile strata.

    Rows are ranked by label and split into ``n_strata`` equal-probability
    strata; within each stratum of size ``n_s`` exactly ``round(keep_fraction
    * n_s)`` rows stay labeled, chosen uniformly by ``seed``.  A dropped label
    becomes NaN; the kept labels and the features pass through untouched.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must lie in (0, 1]")
    if n_strata < 1:
        raise ValueError("n_strata must be at least 1")
    if not ds.labeled.all():
        raise ValueError("stratified_label_mask expects a fully labeled dataset")
    rng = np.random.default_rng(seed)
    order = np.argsort(ds.labels, kind="stable")
    keep = np.zeros(ds.n, dtype=bool)
    for stratum in np.array_split(order, n_strata):
        k = _round_half_up(keep_fraction * stratum.size)
        if k > 0:
            chosen = rng.choice(stratum.size, size=k, replace=False)
            keep[stratum[chosen]] = True
    return Dataset(ds.features, _frozen(np.where(keep, ds.labels, np.nan)))


def inject_marginal_bias(ds: Dataset, keep_fraction_above: float, seed: int) -> Dataset:
    """Subsample rows whose label exceeds the label mean, biasing the marginal.

    Rows at or below the mean are kept in full; rows above it are kept with
    probability mass ``keep_fraction_above`` (an exact count, chosen uniformly
    by seed).  Output rows are a subset of the input rows in their original
    order.
    """
    if not 0.0 <= keep_fraction_above <= 1.0:
        raise ValueError("keep_fraction_above must lie in [0, 1]")
    if not ds.labeled.all():
        raise ValueError("inject_marginal_bias expects a fully labeled dataset")
    threshold = float(ds.labels.mean())
    rng = np.random.default_rng(seed)
    above = np.flatnonzero(ds.labels > threshold)
    k = _round_half_up(keep_fraction_above * above.size)
    keep = ds.labels <= threshold
    if k > 0:
        kept_above = rng.choice(above, size=k, replace=False)
        keep[kept_above] = True
    return ds.subset(np.flatnonzero(keep))


def _check_integer(name: str, value, minimum: int | None = None) -> None:
    """Reject a count setting that is not an integer (a bool is not one) or
    lies below ``minimum``, naming the setting."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")


def _check_number(name: str, value):
    """``value``, once checked to be a real number (a bool is not one); the
    error names the setting."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


_FLOAT_MAX = float(np.finfo(np.float64).max)


def _check_finite(name: str, nested) -> None:
    """Fail unless ``nested``, a JSON number or nested lists of them, holds
    only finite numbers (a bool or a string is not one), naming the setting."""
    for entry in nested if isinstance(nested, list) else [nested]:
        if isinstance(entry, list):
            _check_finite(name, entry)
        # written so that NaN, infinities and integers beyond float range fail
        elif type(entry) not in (int, float) or not abs(entry) <= _FLOAT_MAX:
            raise ValueError(f"{name} holds {entry!r}, not a finite number")


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Synthetic covariate-shift scenario: one response surface, two domains.

    ``scenario`` is a nonempty name.  Each shift is a finite number or ``d``
    of them, and ``noise_std`` a finite number of at least 0; a bool is not a
    number.
    """

    scenario: str
    d: int
    n_source: int
    n_target_train: int
    n_target_val: int
    n_target_test: int
    shift_mean: np.ndarray
    shift_scale: np.ndarray
    noise_std: float
    seed: int

    def __post_init__(self):
        if not isinstance(self.scenario, str) or not self.scenario:
            raise ValueError(f"scenario must be a nonempty string, got {self.scenario!r}")
        for name in ("d", "n_source", "n_target_train", "n_target_val", "n_target_test"):
            _check_integer(name, getattr(self, name), minimum=1)
        _check_integer("seed", self.seed, minimum=0)
        # written so that NaN fails too
        if not 0.0 <= _check_number("noise_std", self.noise_std) < math.inf:
            raise ValueError("noise_std must be finite and nonnegative")
        object.__setattr__(self, "noise_std", float(self.noise_std))
        for name in ("shift_mean", "shift_scale"):
            value = getattr(self, name)
            listed = isinstance(value, (list, tuple)) or np.ndim(value) > 0
            if listed and len(value) != self.d:
                raise ValueError(f"{name} must be a number or d = {self.d} numbers, "
                                 f"got {len(value)}")
            for entry in value if listed else [value]:
                if not -math.inf < _check_number(name, entry) < math.inf:
                    raise ValueError(f"{name} entries must be finite")
            object.__setattr__(self, name, _frozen_array(np.broadcast_to(value, (self.d,))))
        if np.any(self.shift_scale <= 0):
            raise ValueError("shift_scale entries must be positive")

    def to_dict(self):
        return {**asdict(self), "shift_mean": self.shift_mean.tolist(),
                "shift_scale": self.shift_scale.tolist()}


def ground_truth(X: np.ndarray) -> np.ndarray:
    """Shared response surface: sum of per-feature sines plus one pairwise interaction."""
    y = np.sin(X).sum(axis=1)
    if X.shape[1] >= 2:
        y = y + 0.5 * X[:, 0] * X[:, 1]
    return y


def generate_synthetic(spec: GeneratorSpec):
    """Draw (source, target_train, target_val, target_test), all fully labeled.

    Source covariates are standard normal; target covariates are shifted by
    ``shift_mean`` and scaled by ``shift_scale`` componentwise.  All splits
    share the response surface, get independent noise, and are disjoint draws
    from one seeded stream.
    """
    rng = np.random.default_rng(spec.seed)

    def draw(n, shifted):
        X = rng.standard_normal((n, spec.d))
        if shifted:
            X = spec.shift_mean + spec.shift_scale * X
        y = ground_truth(X) + rng.normal(0.0, spec.noise_std, n)
        return Dataset(X, y)

    source = draw(spec.n_source, shifted=False)
    target_train = draw(spec.n_target_train, shifted=True)
    target_val = draw(spec.n_target_val, shifted=True)
    target_test = draw(spec.n_target_test, shifted=True)
    return source, target_train, target_val, target_test
