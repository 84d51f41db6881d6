"""Independent reference implementations used as test oracles."""

import math

import numpy as np

from craft.data import Dataset
from craft.engine import craft_loss_and_grad, joint_log_scores, select_pseudo_labels
from craft.harness import ExperimentConfig, _craft_config
from craft.network import RegressorParams, backward, forward_batch
from craft.priors import HistogramPrior, MixturePrior, prior_log_density


def fit_config(**settings):
    """A ``CraftConfig`` at ``ExperimentConfig``'s stock fit settings, with
    ``settings`` on top."""
    return _craft_config(ExperimentConfig(), **settings)


def nan_gradient(params):
    """A gradient buffer in the layout of ``params``, every entry NaN, so an entry
    a backward pass leaves unwritten shows."""
    return RegressorParams(params.spec, np.full(params.spec.n_params, np.nan))


def gradient(params, x, upstream):
    """``backward`` over the activations of a fresh forward pass over ``x``, into
    a fresh :func:`nan_gradient` buffer."""
    cache: list = []
    forward_batch(params, x, cache)
    grads = nan_gradient(params)
    backward(params, upstream, cache, grads)
    return grads


def loss_and_grad(params, x, y_sup, bins, config):
    """``craft_loss_and_grad`` over the activations of a fresh forward pass over ``x``,
    returned with the gradient it wrote into a fresh :func:`nan_gradient` buffer;
    given ``bins``, one per row, every row takes the midpoint of ``config.grid`` at
    its bin as target, with the batch kernel built over all the predictions."""
    cache: list = []
    f = forward_batch(params, x, cache)
    selection = None
    if bins is not None:
        bins, kernel = np.asarray(bins), []
        grid = config.grid
        joint_log_scores(f, grid, uniform_prior(grid.lo, grid.hi), config.c, kernel)
        selection = (bins, kernel)
    grads = nan_gradient(params)
    return craft_loss_and_grad(params, y_sup, selection, config.alpha, cache, grads), grads


def uniform_prior(lo, hi):
    """The uniform density on [lo, hi]: the one-bin histogram on those edges."""
    return HistogramPrior([lo, hi], [1.0])


def invert_scaler(ds, params):
    """Map a scaled dataset back to original feature and label units."""
    feats = ds.features * params.feature_std + params.feature_mean
    labels = params.unscale_labels(ds.labels)
    return Dataset(feats, labels)


def batch_joint_log_density(params, x, targets, prior, c):
    """Sum over rows of the full normalized joint log density at fixed targets.

    Unlike the training loss, this keeps every parameter-free term (the prior
    mass and the Gaussian normalizer), so maximizing it is equivalent to
    minimizing the unsupervised loss; the exact gradient is returned alongside.
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    f = forward_batch(params, x)
    log_pdf = -0.5 * np.log(2.0 * np.pi * c) - (targets[:, None] - f[None, :]) ** 2 / (2.0 * c)
    row_max = log_pdf.max(axis=1)
    row_lse = row_max + np.log(np.exp(log_pdf - row_max[:, None]).sum(axis=1))
    total = float(np.sum(np.diagonal(log_pdf) - row_lse + prior_log_density(prior, targets)))
    softmax = np.exp(log_pdf - row_lse[:, None])
    resid = f[None, :] - targets[:, None]
    d_f = (-np.diagonal(resid) + (softmax * resid).sum(axis=0)) / c
    return total, gradient(params, x, d_f)


def stacked_loss_and_grad(params, x_labeled, y_labeled, x_unsup, bins, config):
    """:func:`loss_and_grad` over the labeled rows stacked above the unsupervised
    rows, as a fit stacks its batch: the unsupervised rows, and ``bins`` for every
    row of the stacked batch, join only at positive alpha."""
    if config.alpha > 0.0:
        return loss_and_grad(params, np.vstack([x_labeled, x_unsup]), y_labeled, bins, config)
    return loss_and_grad(params, x_labeled, y_labeled, None, config)


def reference_unsup_terms(f, targets, c):
    """The self-identification pieces over an n x n Gaussian kernel built from the
    targets themselves: per sample the quadratic excess d_ii - min_l d_il, the
    crowding log sum_l exp(min_l' d_il' - d_il), and the prediction gradient of
    their sum.  The engine reads the same numbers off the batch kernel of
    pseudo-label selection."""
    resid = f[None, :] - targets[:, None]
    dmat = np.square(resid)
    dmat /= 2.0 * c
    row_min = dmat.min(axis=1)
    # w holds exp(row min - d_il), then the row softmax, then softmax * (f_l - t_i)
    w = row_min[:, None] - dmat
    np.exp(w, out=w)
    sums = w.sum(axis=1)
    quad = np.diagonal(dmat) - row_min
    crowding = np.log(sums)
    w /= sums[:, None]
    w *= resid
    d_loss_d_f = np.diagonal(resid).copy()
    d_loss_d_f -= w.sum(axis=0)
    d_loss_d_f /= c
    return quad, crowding, d_loss_d_f


def candidate_major_joint_log_scores(predictions, grid, prior, c):
    """``joint_log_scores`` as first written: the matrix is built (bins, n), with
    the batch reductions along its contiguous rows, and transposed at the end."""
    f = np.asarray(predictions, dtype=np.float64)
    mids = grid.midpoints
    neg_d = -((mids[:, None] - f[None, :]) ** 2) / (2.0 * c)
    batch_max = neg_d.max(axis=1)
    batch_lse = batch_max + np.log(np.exp(neg_d - batch_max[:, None]).sum(axis=1))
    logp = prior_log_density(prior, mids)
    return (neg_d.T - batch_lse[None, :]) + logp[None, :]


def loop_component_log_pdfs(means, variances, rates, z):
    """Per-component log densities at the shifted points ``z``, one component at
    a time, stacked (k, m); exponentials are minus infinity below zero."""
    parts = []
    for mu, var in zip(means, variances):
        parts.append(-0.5 * np.log(2.0 * np.pi * var) - (z - mu) ** 2 / (2.0 * var))
    for lam in rates:
        with np.errstate(invalid="ignore"):
            parts.append(np.where(z >= 0.0, math.log(lam) - lam * z, -np.inf))
    return np.array(parts)


def loop_mixture_log_density(prior: MixturePrior, y):
    """Mixture log density at the points ``y`` from :func:`loop_component_log_pdfs`,
    with a guarded log-sum-exp over components; minus infinity where every
    component is."""
    comp = loop_component_log_pdfs(prior.means, prior.variances, prior.rates,
                                   np.asarray(y, dtype=np.float64) + prior.offset)
    with np.errstate(divide="ignore"):
        a = np.log(prior.weights)[:, None] + comp
    m = np.max(a, axis=0)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = safe + np.log(np.exp(a - safe).sum(axis=0))
    return np.where(np.isfinite(m), out, -np.inf)


def loop_histogram_log_density(prior: HistogramPrior, y):
    """Histogram log density at each point of ``y``, bin by bin in plain Python:
    bin b holds [edges[b], edges[b + 1]), the last bin its right edge too, at
    density probs[b] / width, logged with numpy's log; minus infinity off the
    edges, in an empty bin and at NaN."""
    edges, probs = prior.edges.tolist(), prior.probs.tolist()
    last = len(probs) - 1
    out = []
    for v in np.atleast_1d(np.asarray(y, dtype=np.float64)).tolist():
        dens = 0.0
        for b, p in enumerate(probs):
            if edges[b] <= v < edges[b + 1] or (b == last and v == edges[-1]):
                dens = p / (edges[b + 1] - edges[b])
        with np.errstate(divide="ignore"):
            out.append(np.log(dens))
    return np.array(out)


def loop_em_fit(labels, seed, max_iters, tol):
    """EM for the mixture of two Gaussians and one exponential, point by point
    in plain Python: ``em_fit``'s documented start (quantile means, the floored
    variance, the inverse mean rate jittered by ``default_rng(seed)``, uniform
    weights, the offset ``1e-6 * range - min``), then its M-step, stopping after
    ``max_iters`` steps or on the first that gains less than ``tol``.  Returns
    (weights, means, variances, rates, offset, loglik_path)."""
    x = [float(v) for v in labels]
    data_range = max(x) - min(x)
    floor = 1e-4 * data_range**2
    offset = 1e-6 * data_range - min(x)
    z = [v + offset for v in x]
    n = len(z)
    mean_z = sum(z) / n
    means = [float(q) for q in np.quantile(z, [1.0 / 3.0, 2.0 / 3.0])]
    var_z = sum((v - mean_z) ** 2 for v in z) / n
    variances = [max(var_z, floor)] * 2
    rate = (1.0 / mean_z) * (1.0 + 0.1 * (2.0 * float(np.random.default_rng(seed).random()) - 1.0))
    weights = [1.0 / 3.0] * 3
    path = []
    for _ in range(max_iters):
        resp, ll = [], 0.0
        for v in z:
            logs = [math.log(w) if w > 0 else -math.inf for w in weights]
            comp = [logs[j] - 0.5 * math.log(2.0 * math.pi * variances[j])
                    - (v - means[j]) ** 2 / (2.0 * variances[j]) for j in range(2)]
            comp.append(logs[2] + math.log(rate) - rate * v if v >= 0.0 else -math.inf)
            top = max(comp)
            lse = top + math.log(sum(math.exp(c - top) for c in comp))
            resp.append([math.exp(c - lse) for c in comp])
            ll += lse
        path.append(ll)
        if len(path) > 1 and ll - path[-2] < tol:
            break
        mass = [sum(r[j] for r in resp) for j in range(3)]
        weights = [m / n for m in mass]
        for j in range(2):
            if mass[j] > 1e-12:
                means[j] = sum(r[j] * v for r, v in zip(resp, z)) / mass[j]
                var = sum(r[j] * (v - means[j]) ** 2 for r, v in zip(resp, z)) / mass[j]
                variances[j] = max(var, floor)
        if mass[2] > 1e-12:
            rate = mass[2] / sum(r[2] * v for r, v in zip(resp, z))
    return weights, means, variances, [rate], offset, path


def brute_force_scores(predictions, grid, prior, c):
    """Cell-by-cell evaluation of the joint log score matrix."""
    f = [float(v) for v in predictions]
    mids = [float(m) for m in grid.midpoints]
    logp = [float(prior_log_density(prior, m)[0]) for m in mids]
    n, n_bins = len(f), len(mids)
    batch_lse = []
    for b in range(n_bins):
        neg = np.array([-((mids[b] - f[l]) ** 2) / (2.0 * c) for l in range(n)])
        shift = np.max(neg)
        batch_lse.append(float(shift + np.log(np.exp(neg - shift).sum())))
    scores = np.empty((n, n_bins))
    for i in range(n):
        for b in range(n_bins):
            neg_d = -((mids[b] - f[i]) ** 2) / (2.0 * c)
            scores[i, b] = (neg_d - batch_lse[b]) + logp[b]
    return scores


def brute_force_select(predictions, grid, prior, c):
    """Double-loop argmax over (samples x bins) with explicit tie handling:
    ties on the score go to the midpoint nearest the prediction, then to the
    lowest bin index."""
    scores = brute_force_scores(predictions, grid, prior, c)
    f = [float(v) for v in predictions]
    mids = [float(m) for m in grid.midpoints]
    out = []
    for i in range(scores.shape[0]):
        best = None
        for b in range(scores.shape[1]):
            if best is None or scores[i, b] > scores[i, best]:
                best = b
            elif scores[i, b] == scores[i, best] and abs(mids[b] - f[i]) < abs(mids[best] - f[i]):
                best = b
        out.append(mids[best])
    return np.array(out)


def grad_check(loss_fn, params, h=1e-5):
    """Compare an analytic gradient against central differences, coordinate by coordinate.

    ``loss_fn`` maps parameters to (scalar loss, gradient in the parameter
    layout).  Returns max over coordinates of |g_analytic - g_fd| / max(1, |g_fd|).
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    _, analytic = loss_fn(params)
    worst = 0.0
    for k in range(params.vector.size):
        plus = params.copy()
        minus = params.copy()
        plus.vector[k] += h
        minus.vector[k] -= h
        fd = (loss_fn(plus)[0] - loss_fn(minus)[0]) / (2.0 * h)
        worst = max(worst, abs(analytic.vector[k] - fd) / max(1.0, abs(fd)))
    return worst


def reference_adam(weights, biases, grads, moments, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Block-by-block Adam update on lists of arrays; ``moments`` maps block id to (m, v)."""
    new_blocks = []
    for kind, thetas, gs in (("w", weights, grads.weights), ("b", biases, grads.biases)):
        updated = []
        for i, (theta, g) in enumerate(zip(thetas, gs)):
            m, v = moments.get((kind, i), (np.zeros_like(theta), np.zeros_like(theta)))
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g**2
            moments[(kind, i)] = (m, v)
            updated.append(theta - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps))
        new_blocks.append(updated)
    return new_blocks


def reference_fit(source_params, target, config):
    """The unfused training loop: per step a selection forward, separate supervised and
    unsupervised forwards, a backward pass that reruns the forward, a prior evaluated
    per batch and Adam walked block by block, with no validation set, so no epoch
    is selected; at ``config.alpha`` zero this is supervised fine-tuning.  Returns
    the parameters after each epoch."""
    X, y = target.features, target.labels
    labeled_idx = np.flatnonzero(target.labeled)
    unlabeled_idx = np.flatnonzero(~target.labeled)
    use_unsup = config.alpha > 0.0
    spec = source_params.spec
    weights = [w.copy() for w in source_params.weights]
    biases = [b.copy() for b in source_params.biases]
    moments, t = {}, 0
    rng = np.random.default_rng(config.seed)
    n_batches = max(1, math.ceil(target.n / config.batch_size))
    trajectory = []
    for _ in range(config.epochs):
        labeled_chunks = np.array_split(rng.permutation(labeled_idx), n_batches)
        unlabeled_chunks = np.array_split(rng.permutation(unlabeled_idx), n_batches)
        for chunk_l, chunk_u in zip(labeled_chunks, unlabeled_chunks):
            members = np.concatenate([chunk_l, chunk_u])
            if not (use_unsup and members.size) and chunk_l.size == 0:
                continue
            params = RegressorParams.from_blocks(spec, weights, biases)
            x_l, y_l = X[chunk_l], y[chunk_l]
            upstream, rows = [], []
            if chunk_l.size:
                residual = forward_batch(params, x_l) - y_l
                upstream.append(2.0 * residual)
                rows.append(x_l)
            if use_unsup and members.size:
                x_u = X[members]
                chosen = select_pseudo_labels(forward_batch(params, x_u), config.grid,
                                              config.prior, config.c)
                targets = config.grid.midpoints[chosen]
                f = forward_batch(params, x_u)
                resid = f[None, :] - targets[:, None]
                dmat = resid**2 / (2.0 * config.c)
                w = np.exp(-(dmat - dmat.min(axis=1)[:, None]))
                softmax = w / w.sum(axis=1)[:, None]
                d_f = (np.diagonal(resid) - (softmax * resid).sum(axis=0)) / config.c
                upstream.append(config.alpha * d_f)
                rows.append(x_u)
            grads = gradient(params, np.vstack(rows), np.concatenate(upstream))
            t += 1
            weights, biases = reference_adam(weights, biases, grads, moments, t,
                                             config.learning_rate)
        trajectory.append(RegressorParams.from_blocks(spec, weights, biases))
    return trajectory
