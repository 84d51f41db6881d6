"""Source-free adaptation engine.

The adaptive method trains a pretrained regressor on a partially labeled
target set with a two-step scheme per batch: first, candidate labels (the
midpoints of a bin grid) are scored jointly for the whole batch and the best
one per sample, labeled rows included, is frozen as its pseudo-label;
second, one optimizer step is taken on a combined loss.  The joint score of
candidate y for sample i is the Gaussian match between y and the prediction
f_i, normalized by the total Gaussian mass the batch places on y, times the
label prior: a candidate that many samples' predictions crowd around is
discounted, which both fights the source model's prediction bias and lets
the prior steer the label marginal.

The combined loss is the supervised sum of squared residuals plus, weighted
by alpha, a per-sample self-identification term: with scaled squared
distances d_il between pseudo-label i and prediction l, sample i contributes
-log(exp(-d_ii) / sum_l exp(-d_il)), which is zero exactly when sample i is
the only plausible match for its own pseudo-label.  Setting alpha to zero
reduces the method to plain supervised fine-tuning on the labeled rows.

Both steps run at the same parameters, so a training step makes one forward
pass over its batch, labeled rows first, and keeps the activations:
selection, both loss terms and the backward pass read them.  It also builds
one Gaussian kernel, exp(min_l' d_bl' - d_bl) for bin b and prediction l:
every pseudo-label is a midpoint, and both steps use one c and one shift,
so the self-identification matches are the kernel's rows at the chosen
bins, bit for bit.  Each stage of a step is one public function, called by
the training loop itself: ``forward_batch``, :func:`select_pseudo_labels`
(winning bins and the kernel), :func:`craft_loss_and_grad` (both loss terms
and the backward pass, into the fit's one gradient buffer) and ``adam_step``
(an in-place update of the fit's working parameters and moments), so a step
builds no parameter-shaped object.  The engine owns the two fits,
:func:`fit_craft` and :func:`fit_tl`; the naive baseline fits nothing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset, _check_integer, _check_number
from .metrics import rmse
from .network import AdamState, RegressorParams, adam_step, backward, forward_batch
from .priors import prior_log_density

__all__ = [
    "BinGrid",
    "MIN_BINS",
    "CraftConfig",
    "LossBreakdown",
    "RunReport",
    "make_bin_grid",
    "joint_log_scores",
    "select_pseudo_labels",
    "craft_loss_and_grad",
    "fit_craft",
    "fit_tl",
]

MIN_BINS = 3  # a label-built grid's fewest bins: a margin bin on each side of one inner bin


@dataclass(frozen=True)
class BinGrid:
    """Equal-width discretization of a label range; midpoints are the candidates."""

    lo: float
    hi: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        _check_integer("count", self.count)
        object.__setattr__(self, "count", int(self.count))
        if not (self.lo < self.hi and math.isfinite(self.hi - self.lo)):  # so the width is too
            raise ValueError("grid needs finite lo < hi")
        if self.count < 2:
            raise ValueError("grid needs at least 2 bins")
        mids = self.lo + (np.arange(self.count) + 0.5) * self.width
        mids.setflags(write=False)
        object.__setattr__(self, "_midpoints", mids)

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.count

    @property
    def midpoints(self) -> np.ndarray:
        return self._midpoints


def make_bin_grid(count: int, labels) -> BinGrid:
    """Build a grid over ``labels`` with a one-bin margin on each side; it
    needs at least ``MIN_BINS`` bins and labels that span a range.

    The margin is solved self-consistently: with width w = (max - min) /
    (count - 2) the grid spans exactly [min - w, max + w], so every label
    falls strictly inside and the margin is one bin wide.
    """
    x = np.asarray(labels, dtype=np.float64)
    if x.size == 0 or not np.isfinite(x).all():
        raise ValueError("labels must be nonempty and finite")
    if count < MIN_BINS:
        raise ValueError(f"label-built grids need at least {MIN_BINS} bins")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        raise ValueError("label range is zero; build a BinGrid over an explicit range instead")
    w = (hi - lo) / (count - 2)  # a span beyond float range makes BinGrid fail
    return BinGrid(lo - w, hi + w, count)


@dataclass
class CraftConfig:
    """Adaptation hyperparameters.

    ``alpha`` weighs the unsupervised term, in which every batch row takes
    its selected pseudo-label; ``c`` is the Gaussian variance of the match
    score (at 0.5 the quadratics enter unscaled).  ``alpha``, ``c`` and
    ``learning_rate`` must be real numbers, and a bool is not one.  The six
    fit settings have their defaults in ``harness.ExperimentConfig`` alone.
    """

    alpha: float
    c: float
    batch_size: int
    epochs: int
    seed: int
    learning_rate: float
    grid: BinGrid | None = None
    prior: object | None = None

    def __post_init__(self):
        # written so that NaN fails too
        if not 0.0 <= _check_number("alpha", self.alpha) < math.inf:
            raise ValueError("alpha must be finite and nonnegative")
        if not 0.0 < _check_number("c", self.c) < math.inf:
            raise ValueError("c must be finite and positive")
        if not 0.0 <= _check_number("learning_rate", self.learning_rate) < math.inf:
            raise ValueError("learning_rate must be finite and nonnegative")
        _check_integer("batch_size", self.batch_size, minimum=1)
        _check_integer("epochs", self.epochs, minimum=0)
        _check_integer("seed", self.seed, minimum=0)


@dataclass(frozen=True)
class LossBreakdown:
    """Loss components; total == supervised + alpha * (unsup_quadratic + unsup_contrastive)."""

    supervised: float
    unsup_quadratic: float
    unsup_contrastive: float
    total: float


def joint_log_scores(predictions, grid: BinGrid, prior, c: float, kernel: list | None = None) -> np.ndarray:
    """Log joint score of every (sample, candidate midpoint) pair, shape (n, B).

    Entry (i, b) is the negated scaled squared distance between midpoint b and
    prediction i, minus the log-sum-exp over the batch of the same distances
    to midpoint b, plus the midpoint's prior log density.  The Gaussian
    normalizing constant cancels between the match term and the batch total.
    Pass an empty list as ``kernel`` to keep the batch kernel they are normalized
    by: (B, n) rows exp(min_l' d_bl' - d_bl), their sums and shifts -min_l' d_bl'.
    """
    f = np.asarray(predictions, dtype=np.float64)
    if f.ndim != 1 or f.size < 1:
        raise ValueError("predictions must be a nonempty vector")
    mids = grid.midpoints
    # The matrix is built sample-major, in the (n, B) layout it is returned in:
    # no transpose at the end, and each elementwise pass runs n inner loops of
    # B entries rather than B loops of n.  Two facts keep every entry
    # bit-identical to the candidate-major form -((m - f)**2) / (2c): a square
    # does not see the sign of its argument, and dividing by -(2c) rounds
    # exactly as dividing by 2c and negating.
    scores = np.subtract.outer(f, mids)
    np.square(scores, out=scores)
    scores /= -(2.0 * c)
    batch_max = scores.max(axis=0)
    # candidate-major, so each bin's total keeps numpy's pairwise order over one
    # contiguous row; summing down axis 0 would change the last bits
    rows = scores.T.copy()
    rows -= batch_max[:, None]
    np.exp(rows, out=rows)
    sums = rows.sum(axis=1)
    if kernel is not None:
        kernel += [rows, sums, batch_max]
    batch_lse = batch_max + np.log(sums)
    # grouping matters: normalizing the match term first keeps a singleton
    # batch exactly tied across bins, so the distance tie-break can apply
    scores -= batch_lse
    scores += prior_log_density(prior, mids)
    return scores


def select_pseudo_labels(predictions, grid: BinGrid, prior, c: float, kernel: list | None = None) -> np.ndarray:
    """Index of the highest-scoring bin per sample (see :func:`joint_log_scores`,
    which fills ``kernel``); ``grid.midpoints`` at these indices are the
    pseudo-labels.  A non-finite prediction, or a row whose every bin scores
    -inf because the prior puts no mass on any of them, is a ``ValueError``."""
    scores = joint_log_scores(predictions, grid, prior, c, kernel)
    f = np.asarray(predictions, dtype=np.float64)
    chosen = scores.argmax(axis=1)
    best = scores[np.arange(f.size), chosen]
    at_best = scores == best[:, None]
    # each row matches its own winner unless that is NaN, so a count above n means a tie
    if np.count_nonzero(at_best) > f.size or not np.isfinite(best).all():
        # the prior term is the same on every row: only a batch that all scores -inf is its fault
        if np.isneginf(best).all():
            raise ValueError("the label prior puts no mass on any candidate bin")
        if not np.isfinite(best).all():
            raise ValueError("predictions and their squared distances to the bin grid must be finite")
        tied = np.flatnonzero(at_best.sum(axis=1) > 1)
        # ties on the score fall back to the nearest midpoint; argmin then breaks
        # remaining distance ties toward the lowest bin index
        dist = np.abs(grid.midpoints[None, :] - f[tied, None])
        chosen[tied] = np.where(at_best[tied], dist, np.inf).argmin(axis=1)
    return chosen


def _kernel_terms(f: np.ndarray, bins: np.ndarray, kernel: list, mids: np.ndarray, c: float):
    """Per-sample pieces of the self-identification loss, plus its prediction
    gradient, read off the batch kernel at ``bins``.  Sample i contributes
    d_ii + log sum_l exp(-d_il), reported as a quadratic excess over the row
    minimum (nonnegative) plus a crowding term in [0, log n]; both are exactly
    zero for a singleton batch."""
    rows, sums, shift = kernel
    targets, row_sums = mids[bins], sums[bins]
    own = f - targets
    quad = np.square(own) / (2.0 * c) + shift[bins]
    # w holds the row softmax, then softmax * (f_l - t_i)
    w = rows[bins]
    w /= row_sums[:, None]
    w *= f[None, :] - targets[:, None]
    return quad, np.log(row_sums), (own - w.sum(axis=0)) / c


def craft_loss_and_grad(params: RegressorParams, y_sup, selection, config: CraftConfig, cache: list,
                        grads: RegressorParams):
    """Combined loss and its exact parameter gradient over one batch, at fixed pseudo-labels.

    ``cache`` is the activation list a :func:`forward_batch` call over the
    batch at ``params`` filled, the rows first; the predictions and the
    backward pass read it, and no forward pass runs here.  The supervised
    rows are the first ``y_sup.size``.  ``selection``, when given, is the
    ``(bins, kernel)`` :func:`select_pseudo_labels` gave over the last
    ``bins.size`` rows on ``config.grid`` at ``config.c``; the unsupervised
    term covers them with the midpoints at ``bins`` as frozen targets, so a
    row may sit in both terms.  It reads its Gaussian matches off the kernel
    rows at ``bins``, bit for bit what an n x n kernel over the targets
    gives: midpoint targets, one ``c`` and one shift.  Both terms' upstream
    gradients are added per row, and a row in both is backpropagated once,
    into ``grads``, a gradient in the layout of ``params`` that the caller
    owns; it is returned beside the loss.
    """
    y_sup = np.asarray(y_sup, dtype=np.float64)
    n, n_sup = len(cache[0]), y_sup.size
    if n == 0:
        raise ValueError("the batch is empty")
    if n_sup > n:
        raise ValueError(f"y_sup has {n_sup} labels for a batch of {n} rows")
    if selection is not None and selection[0].size > n:
        raise ValueError(f"the selection has {selection[0].size} targets for a batch of {n} rows")
    f = cache[-1][:, 0]
    upstream = np.zeros(n)
    residual = f[:n_sup] - y_sup
    supervised = float(residual @ residual)
    upstream[:n_sup] = 2.0 * residual
    if selection is not None:
        bins, kernel = selection
        start = n - bins.size
        quad, crowding, d_f = _kernel_terms(f[start:], bins, kernel, config.grid.midpoints, config.c)
        unsup_quadratic = float(quad.sum())
        unsup_contrastive = float(crowding.sum())
        upstream[start:] += config.alpha * d_f
    else:
        unsup_quadratic = 0.0
        unsup_contrastive = 0.0
    total = supervised + config.alpha * (unsup_quadratic + unsup_contrastive)
    if not math.isfinite(total):
        raise ValueError("non-finite training loss")
    backward(params, upstream, cache, grads)
    return LossBreakdown(supervised, unsup_quadratic, unsup_contrastive, total), grads


@dataclass
class RunReport:
    """Per-run record: configuration echo, per-epoch loss sums, selected
    pseudo-label counts per bin, and (once evaluated) test metrics.  It holds
    no clock reading, so a run's seed and inputs fix every byte of it."""

    method: str
    seed: int
    alpha: float
    c: float
    bins: int | None
    label_fraction: float | None = None
    rmse: float | None = None
    pbcor: float | None = None
    epochs: list = field(default_factory=list)
    pseudo_label_hist: list = field(default_factory=list)
    em_iters: int | None = None  # EM iterations of a prior the run fitted itself
    em_converged: bool | None = None  # whether that fit stopped on its tolerance

    def to_dict(self) -> dict:
        return asdict(self)


def _fit(source_params: RegressorParams, target: Dataset, config: CraftConfig, val: Dataset | None,
         method: str):
    X, y = target.features, target.labels
    labeled_idx = np.flatnonzero(target.labeled)
    unlabeled_idx = np.flatnonzero(~target.labeled)
    use_unsup = config.alpha > 0.0
    if not use_unsup and labeled_idx.size == 0:
        raise ValueError("supervised fine-tuning needs at least one labeled row")
    if use_unsup and (config.grid is None or config.prior is None):
        raise ValueError("adaptation needs a bin grid and a label prior")
    if val is not None:
        if not val.labeled.any():
            raise ValueError("the validation set has no labeled row to select an epoch on")
        val = val.subset(np.flatnonzero(val.labeled))
    params = source_params.copy()  # the working copy every step updates in place
    grads = RegressorParams(params.spec, np.empty(params.spec.n_params))  # every step's gradient
    state = AdamState.init(params, learning_rate=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    n_batches = max(1, math.ceil(target.n / config.batch_size))
    bins = config.grid.count if use_unsup else None
    hist = np.zeros(bins or 0, dtype=np.int64)
    epoch_rows = []
    best_val_rmse = math.inf
    best_params = None

    cut_l, cut_u = ([k * (m // n_batches) + min(k, m % n_batches) for k in range(n_batches + 1)]
                    for m in (labeled_idx.size, unlabeled_idx.size))  # where np.array_split cuts
    for _ in range(config.epochs):
        sums = [0.0, 0.0, 0.0]
        perm_l, perm_u = rng.permutation(labeled_idx), rng.permutation(unlabeled_idx)
        for lo_l, hi_l, lo_u, hi_u in zip(cut_l, cut_l[1:], cut_u, cut_u[1:]):
            chunk_l, chunk_u = perm_l[lo_l:hi_l], perm_u[lo_u:hi_u]
            # labeled rows first, so the supervised rows lead the stacked batch
            members = np.concatenate([chunk_l, chunk_u]) if use_unsup else chunk_l
            if members.size == 0:
                continue  # nothing contributes a gradient
            cache: list = []
            preds = forward_batch(params, X[members], cache)
            selection = None
            if use_unsup:
                kernel: list = []
                chosen = select_pseudo_labels(preds, config.grid, config.prior, config.c, kernel)
                selection = (chosen, kernel)
                hist += np.bincount(chosen, minlength=bins)
            breakdown, _ = craft_loss_and_grad(params, y[chunk_l], selection, config, cache, grads)
            adam_step(params, grads, state)
            sums[0] += breakdown.supervised
            sums[1] += breakdown.unsup_quadratic
            sums[2] += breakdown.unsup_contrastive
        epoch_rows.append({
            "supervised": sums[0],
            "unsup_quadratic": sums[1],
            "unsup_contrastive": sums[2],
        })
        if val is not None:
            val_rmse = rmse(forward_batch(params, val.features), val.labels)
            if val_rmse < best_val_rmse:
                best_val_rmse = val_rmse
                best_params = params.copy()  # the working copy moves on in place
    if best_params is not None:
        params = best_params
    report = RunReport(method=method, seed=config.seed, alpha=config.alpha, c=config.c,
                       bins=bins, epochs=epoch_rows, pseudo_label_hist=hist.tolist())
    return params, report


def fit_craft(source_params: RegressorParams, target: Dataset, config: CraftConfig,
              val: Dataset | None = None):
    """Adapt pretrained parameters on a partially labeled target set.

    Per batch: every participating row, labeled or not, takes the
    pseudo-label selected at the current parameters, then one optimizer step
    runs on the combined loss.  Works with any labeled fraction in [0, 1];
    with zero labeled rows only the unsupervised term drives the fit.  At
    alpha zero it is supervised fine-tuning and needs at least one labeled
    row.  Given ``val``, which needs a labeled row, the fit returns the
    parameters of the epoch with the lowest RMSE on its labeled rows; without
    it, those of the last epoch.  Deterministic given the config seed.
    """
    return _fit(source_params, target, config, val, "craft")


def fit_tl(source_params: RegressorParams, target: Dataset, config: CraftConfig,
           val: Dataset | None = None):
    """Supervised fine-tuning on the labeled rows only: :func:`fit_craft` at alpha
    zero, whatever alpha ``config`` carries, reported as method "tl"."""
    return _fit(source_params, target, replace(config, alpha=0.0), val, "tl")
