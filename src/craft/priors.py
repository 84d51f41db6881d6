"""Label-marginal priors: every prior is fitted, read and written here.

Two prior shapes are supported: a histogram density, and a mixture of two
Gaussians and one exponential fitted by EM; :func:`fit_prior` fits either,
and a prior file (:func:`save_prior`, :func:`load_prior`) holds either as
:func:`prior_to_dict` writes it, every number in it finite and real.  A flat
prior over [lo, hi] is the one-bin histogram file on those edges, and EM's
stop rule is kept here alone: :attr:`MixturePrior.converged` says whether a
fit stopped on ``EM_TOL``.  The mixture acts on data shifted by a constant
offset, part of the fitted parameters, that places the exponentials' origin
just below the smallest label, so a fit does not depend on the label units:
fitting ``a * y + b`` for any ``a > 0`` gives the fit of ``y`` moved by
:func:`affine_transform_prior`.  The array-holding priors compare and hash by
identity, as in :mod:`craft.data`.

A mixture computes its density constants once, when it is built: the log
weights, each Gaussian's normalizer ``-0.5 * log(2 pi var)`` with numpy's
log, and each exponential's log rate with ``math.log``, whose result can
differ from numpy's array log in the last bit.  Every density call still
evaluates all components at every point it is given; the EM fit recomputes
the same constants on each iteration with the same expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import _check_finite, _frozen_array, read_json, write_json

__all__ = [
    "HistogramPrior",
    "MixturePrior",
    "EM_TOL",
    "EM_MAX_ITERS",
    "em_fit",
    "fit_prior",
    "load_prior",
    "save_prior",
    "prior_log_density",
    "fit_histogram_prior",
    "affine_transform_prior",
    "prior_to_dict",
    "prior_from_dict",
]

EM_TOL = 1e-6  # the tolerance em_fit stops on: a step that gains less log-likelihood ends it
EM_MAX_ITERS = 500  # the most iterations em_fit runs
_MIXTURE_SHAPE = (2, 1)  # the Gaussians and exponentials of a mixture fit_prior fits


@dataclass(frozen=True, eq=False)
class MixturePrior:
    """Mixture density: component weights, Gaussian (mean, variance) pairs,
    exponential rates, and the offset applied before evaluation.

    ``loglik_path`` records the per-iteration log-likelihood of the fit; it is
    diagnostic only and excluded from serialization.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    rates: np.ndarray
    offset: float
    loglik_path: tuple = field(default=(), repr=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        object.__setattr__(self, "means", _frozen_array(self.means))
        object.__setattr__(self, "variances", _frozen_array(self.variances))
        object.__setattr__(self, "rates", _frozen_array(self.rates))
        object.__setattr__(self, "offset", float(self.offset))
        for name in ("weights", "means", "variances", "rates", "offset"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        k = self.means.size + self.rates.size
        if self.weights.shape != (k,):
            raise ValueError("weights must have one entry per component")
        if np.any(self.weights < 0) or abs(float(self.weights.sum()) - 1.0) > 1e-6:
            raise ValueError("weights must be nonnegative and sum to 1")
        if self.means.shape != self.variances.shape:
            raise ValueError("means and variances must pair up")
        if np.any(self.variances <= 0):
            raise ValueError("Gaussian variances must be positive")
        if np.any(self.rates <= 0):
            raise ValueError("exponential rates must be positive")
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_log_weights", np.log(self.weights))
        object.__setattr__(self, "_gauss_norms", _gauss_norms(self.variances))
        object.__setattr__(self, "_log_rates", _log_rates(self.rates))

    @property
    def converged(self) -> bool:
        """Whether EM stopped on ``EM_TOL``: the last step of ``loglik_path`` gained less."""
        return len(self.loglik_path) > 1 and self.loglik_path[-1] - self.loglik_path[-2] < EM_TOL


def _gauss_norms(variances):
    """Log normalizing constant of each Gaussian component."""
    return -0.5 * np.log(2.0 * np.pi * variances)


def _log_rates(rates):
    """Log of each exponential rate, taken with ``math.log``: numpy's array log
    may round differently in the last bit."""
    return np.array([math.log(lam) for lam in rates])


def _component_log_pdfs(z, means, variances, norms, rates, log_rates):
    """Per-component log densities at the shifted points ``z``, stacked (k, m);
    ``norms`` and ``log_rates`` are :func:`_gauss_norms` and :func:`_log_rates`."""
    out = np.empty((means.size + rates.size, z.size))
    gauss = out[: means.size]
    np.subtract(z, means[:, None], out=gauss)
    np.square(gauss, out=gauss)
    gauss /= (2.0 * variances)[:, None]
    np.subtract(norms[:, None], gauss, out=gauss)
    expo = out[means.size:]
    np.multiply(rates[:, None], z, out=expo)
    np.subtract(log_rates[:, None], expo, out=expo)
    # exponential components carry no mass below the shifted origin
    np.copyto(expo, -np.inf, where=~(z >= 0.0))
    return out


def _logsumexp_rows(a):
    """Log-sum-exp down axis 0, tolerating all minus-infinity columns."""
    m = np.max(a, axis=0)
    finite = np.isfinite(m)
    if finite.all():
        return m + np.log(np.exp(a - m).sum(axis=0))
    safe = np.where(finite, m, 0.0)
    with np.errstate(divide="ignore"):
        out = safe + np.log(np.exp(a - safe).sum(axis=0))
    return np.where(finite, out, -np.inf)


def _label_span(x):
    """``(min, max)`` of the labels ``x``, which must be finite and span a range float64 holds."""
    if not np.isfinite(x).all():
        raise ValueError("labels contain non-finite values")
    lo, hi = float(x.min()), float(x.max())
    if not math.isfinite(hi - lo):
        raise ValueError(f"labels span [{lo!r}, {hi!r}], a range that overflows float64")
    return lo, hi


def em_fit(labels, seed: int) -> MixturePrior:
    """Fit the mixture of two Gaussians and one exponential (``_MIXTURE_SHAPE``)
    to 1-d samples by EM, on the labels shifted by the offset
    ``1e-6 * range - min(labels)``, which puts the exponential's origin just
    below the smallest label, so the fit does not depend on the label units.

    EM starts from Gaussian means at the shifted 1/3 and 2/3 quantiles, both
    with the floored variance of the data, the rate at the inverse shifted mean
    jittered by ``seed``, and uniform weights.  The M-step re-estimates weights
    as responsibility means, Gaussian moments as responsibility-weighted means
    and variances floored at 1e-4 times the squared data range, and the rate as
    responsibility mass over the responsibility-weighted sum.  EM stops once the
    log-likelihood gains less than ``EM_TOL`` or after ``EM_MAX_ITERS``
    iterations; the likelihood path is monotone nondecreasing up to rounding.
    """
    k1, k2 = _MIXTURE_SHAPE
    x = np.asarray(labels, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("labels must be a nonempty vector")
    lo, hi = _label_span(x)
    if np.unique(x).size < k1 + k2:
        raise ValueError(f"need at least {k1 + k2} distinct values to fit {k1 + k2} components")
    data_range = hi - lo
    min_var = 1e-4 * (data_range * data_range)  # as data_range**2, which raises past float64
    offset = 1e-6 * data_range - lo
    # lo + offset is the smallest shifted label, which must stay above the origin
    if not (np.finfo(np.float64).tiny <= min_var and math.isfinite(x.size * data_range * data_range)
            and lo + offset > 0.0):
        raise ValueError(f"labels span [{lo!r}, {hi!r}], a range too wide or too narrow for EM in float64")
    z = x + offset
    n = z.size

    rng = np.random.default_rng(seed)
    means = np.quantile(z, (np.arange(k1) + 1.0) / (k1 + 1.0))
    variances = np.full(k1, max(float(z.var()), min_var))
    rates = (1.0 / float(z.mean())) * (1.0 + 0.1 * (2.0 * rng.random(k2) - 1.0))
    weights = np.full(k1 + k2, 1.0 / (k1 + k2))

    path = []
    prev = None
    for iteration in range(EM_MAX_ITERS):
        weighted = _component_log_pdfs(z, means, variances, _gauss_norms(variances), rates,
                                       _log_rates(rates))
        with np.errstate(divide="ignore"):
            weighted += np.log(weights)[:, None]
        per_point = _logsumexp_rows(weighted)
        ll = float(per_point.sum())
        if not np.isfinite(ll):
            raise ValueError(f"EM log-likelihood became non-finite at iteration {iteration}")
        path.append(ll)
        if prev is not None and ll - prev < EM_TOL:
            break
        prev = ll
        resp = np.exp(weighted - per_point[None, :])
        mass = resp.sum(axis=1)
        weights = mass / n
        for j in range(k1):
            if mass[j] <= 1e-12:
                continue  # dead component: keep its previous shape
            mu = float(resp[j] @ z / mass[j])
            var = float(resp[j] @ (z - mu) ** 2 / mass[j])
            means[j] = mu
            variances[j] = max(var, min_var)
        if mass[k1] > 1e-12:
            rates[0] = float(mass[k1] / (resp[k1] @ z))
    return MixturePrior(weights, means, variances, rates, offset, loglik_path=tuple(path))


@dataclass(frozen=True, eq=False)
class HistogramPrior:
    """Piecewise-constant density on contiguous bins.

    Bin weights are normalized to sum to 1 at construction, so any positive
    rescaling of the input weights yields the same prior.
    """

    edges: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        edges = _frozen_array(self.edges)
        probs = np.array(self.probs, dtype=np.float64)
        if edges.ndim != 1 or edges.size != probs.size + 1:
            raise ValueError("need len(edges) == len(probs) + 1")
        for name, values in (("edges", edges), ("probs", probs)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if not math.isfinite(float(edges[-1]) - float(edges[0])):  # so every bin width is too
            raise ValueError("edges must span a range that float64 holds")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        if np.any(probs < 0):
            raise ValueError("bin weights must be nonnegative")
        total = float(probs.sum())
        if total <= 0:
            raise ValueError("bin weights must not all be zero")
        probs = probs / total
        probs.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "probs", probs)


def prior_log_density(prior, y):
    """Log density of a label prior at each point of ``y``, always a 1-d array; -inf off support."""
    yv = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if isinstance(prior, HistogramPrior):
        nbins = prior.probs.size
        idx = np.searchsorted(prior.edges, yv, side="right") - 1
        idx = np.where(yv == prior.edges[-1], nbins - 1, idx)
        inside = (idx >= 0) & (idx < nbins)
        safe = np.clip(idx, 0, nbins - 1)
        widths = np.diff(prior.edges)
        with np.errstate(divide="ignore"):
            dens = np.log(prior.probs[safe] / widths[safe])
        out = np.where(inside, dens, -np.inf)
    elif isinstance(prior, MixturePrior):
        comp = _component_log_pdfs(yv + prior.offset, prior.means, prior.variances,
                                   prior._gauss_norms, prior.rates, prior._log_rates)
        comp += prior._log_weights[:, None]
        out = _logsumexp_rows(comp)
    else:
        raise TypeError(f"unknown prior type {type(prior).__name__}")
    return out


def fit_histogram_prior(labels, n_bins: int) -> HistogramPrior:
    """Equal-width histogram over [min, max] with empirical bin frequencies.

    Identical labels collapse to a single unit-width bin centered on the value.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    x = np.asarray(labels, dtype=np.float64)
    if x.size == 0:
        raise ValueError("labels must be nonempty")
    lo, hi = _label_span(x)
    if lo == hi:
        if not lo - 0.5 < lo + 0.5:
            raise ValueError(f"labels are all {lo!r}, too large for a unit-width bin around them")
        return HistogramPrior(np.array([lo - 0.5, lo + 0.5]), np.array([1.0]))
    edges = np.linspace(lo, hi, n_bins + 1)
    if np.any(np.diff(edges) <= 0):
        raise ValueError(f"labels span [{lo!r}, {hi!r}], a range float64 cannot cut into {n_bins} bins")
    counts, _ = np.histogram(x, bins=edges)
    return HistogramPrior(edges, counts / x.size)


def affine_transform_prior(prior, scale: float, shift: float):
    """Re-express a prior for the transformed variable ``y' = scale * y + shift``.

    Both shapes are closed under positive affine maps; densities pick up
    the usual 1/scale Jacobian.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if isinstance(prior, HistogramPrior):
        return HistogramPrior(scale * prior.edges + shift, prior.probs)
    if isinstance(prior, MixturePrior):
        # the shifted variable x = y + offset maps to x' = scale * x when the
        # new offset is scale * offset - shift
        return MixturePrior(
            weights=prior.weights,
            means=scale * prior.means,
            variances=scale**2 * prior.variances,
            rates=prior.rates / scale,
            offset=scale * prior.offset - shift,
        )
    raise TypeError(f"unknown prior type {type(prior).__name__}")


def prior_to_dict(prior) -> dict:
    if isinstance(prior, HistogramPrior):
        return {"kind": "histogram", "edges": prior.edges.tolist(), "probs": prior.probs.tolist()}
    if isinstance(prior, MixturePrior):
        return {
            "kind": "mixture",
            "weights": prior.weights.tolist(),
            "gaussians": [[m, v] for m, v in zip(prior.means.tolist(), prior.variances.tolist())],
            "exponentials": prior.rates.tolist(),
            "offset": prior.offset,
        }
    raise TypeError(f"unknown prior type {type(prior).__name__}")


def prior_from_dict(d: dict):
    """The prior a :func:`prior_to_dict` dict describes: kind ``histogram``
    or ``mixture``.  Anything else, a missing key, or an entry that is not a
    finite real number, is a ``ValueError``."""
    if not isinstance(d, dict):
        raise ValueError(f"a prior is a JSON object, not a {type(d).__name__}")
    kind = d.get("kind")
    try:
        if kind == "histogram":
            _check_finite("edges", d["edges"])
            _check_finite("probs", d["probs"])
            return HistogramPrior(d["edges"], d["probs"])
        if kind == "mixture":
            gaussians = d.get("gaussians", [])
            if not (isinstance(gaussians, list)
                    and all(isinstance(g, list) and len(g) == 2 for g in gaussians)):
                raise ValueError("mixture prior gaussians must be [mean, variance] pairs")
            rates, offset = d.get("exponentials", []), d.get("offset", 0.0)
            for key, value in (("weights", d["weights"]), ("gaussians", gaussians),
                               ("exponentials", rates), ("offset", offset)):
                _check_finite(key, value)
            return MixturePrior(
                weights=d["weights"],
                means=[g[0] for g in gaussians],
                variances=[g[1] for g in gaussians],
                rates=rates,
                offset=offset,
            )
    except KeyError as exc:
        raise ValueError(f"{kind} prior has no key {exc.args[0]!r}") from None
    raise ValueError(f"unknown prior kind {kind!r}")


def fit_prior(labels, form: str, n_bins: int, seed: int):
    """The ``form`` prior of ``labels``, in their units: an EM mixture or an ``n_bins`` histogram."""
    if form not in ("mixture", "histogram"):
        raise ValueError(f"unknown prior_form {form!r}")
    if np.size(labels) == 0:
        raise ValueError("no labels available to fit the prior")
    if form == "histogram":
        return fit_histogram_prior(labels, n_bins)
    return em_fit(labels, seed)


def load_prior(path):
    """The prior in a :func:`save_prior` file, read by :func:`craft.data.read_json`; errors name ``path``."""
    d = read_json(path, "prior file")
    try:
        return prior_from_dict(d)
    except ValueError as exc:
        raise ValueError(f"prior file {path}: {exc}") from None


def save_prior(path, prior) -> None:
    """Write ``prior`` to ``path`` as indented :func:`prior_to_dict` JSON."""
    write_json(path, prior_to_dict(prior), indent=2)
