"""CVR model trainers.

Three trainers share one deterministic optimizer:
  * train_weighted_logistic — logistic regression under per-sample importance
    weights (the corrected estimator);
  * train_naive_logistic — the same model with unit weights (what you get if
    you ignore label censoring);
  * train_dfm — a joint model of conversion probability and exponential
    conversion-delay rate, fit by maximum likelihood on censored labels.

Weighted losses are normalized by the total weight by default ("mean" mode),
which makes duplicating a sample and doubling its weight exactly equivalent;
"sum" mode skips the normalization for callers that tune l2 against an
unnormalized loss.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

from .optim import (
    OptConfig,
    OptResult,
    minimize_batch,
    sigmoid,
    softplus,
    softplus_sigmoid,
)

if TYPE_CHECKING:  # pragma: no cover
    from .weights import WeightedDataset

SECONDS_PER_DAY = 86400.0
MODEL_FORMAT = "fsiw.model/1"


class TrainingError(RuntimeError):
    """Training could not proceed; carries the offending sample index if known."""

    def __init__(self, message: str, *, sample_index: int | None = None):
        if sample_index is not None:
            message = f"{message} (sample index {sample_index})"
        super().__init__(message)
        self.sample_index = sample_index


@dataclass(frozen=True)
class TrainingMeta:
    seed: int
    n_iter: int
    final_loss: float
    converged: bool
    stopped_early: bool = False


@dataclass(frozen=True)
class LinearCvrModel:
    coef: np.ndarray
    intercept: float
    dim: int
    l2: float
    meta: TrainingMeta

    def __post_init__(self):
        if self.coef.shape != (self.dim,):
            raise ValueError(f"coef must have shape ({self.dim},)")


@dataclass(frozen=True)
class DfmModel:
    """Joint model: P(convert|x) = sigma(cvr head), delay rate = exp(delay head).

    The delay head is parameterized in inverse days to keep its linear scores
    near zero; use predict_delay_rate for unit conversions.
    """

    cvr_coef: np.ndarray
    cvr_intercept: float
    delay_coef: np.ndarray
    delay_intercept: float
    dim: int
    l2: float
    meta: TrainingMeta


def _validate_weights(w: np.ndarray) -> None:
    bad = ~(np.isfinite(w) & (w > 0))
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise TrainingError(
            f"sample weight must be a positive finite number, got {w[idx]}",
            sample_index=idx,
        )


def _denominator(w: np.ndarray, normalization: str) -> float:
    if normalization == "mean":
        return float(w.sum())
    if normalization == "sum":
        return 1.0
    raise ValueError(f"unknown loss normalization {normalization!r}")


def fit_logistic(
    x: sparse.csr_matrix,
    y: np.ndarray,
    *,
    sample_weight: np.ndarray | None = None,
    l2: float = 0.0,
    opt: OptConfig | None = None,
    normalization: str = "mean",
    validation: tuple[sparse.csr_matrix, np.ndarray, np.ndarray] | None = None,
    theta0: np.ndarray | None = None,
) -> tuple[np.ndarray, OptResult]:
    """Minimize the (weighted) logistic loss plus (l2/2)·||coef||².

    Returns theta laid out as [coef..., intercept]; the intercept is not
    regularized. ``validation`` is (x, y, weight) scored by weighted log loss
    for early stopping.
    """
    n, dim = x.shape
    if n == 0:
        raise TrainingError("empty training set")
    if len(y) != n:
        raise TrainingError(f"label count {len(y)} != sample count {n}")
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    _validate_weights(w)
    if l2 < 0:
        raise ValueError("l2 must be non-negative")
    opt = opt or OptConfig()
    y = np.asarray(y, dtype=float)
    denom = _denominator(w, normalization)
    xt = x.T.tocsr()

    def value(theta: np.ndarray) -> float:
        z = x @ theta[:dim] + theta[dim]
        return float(w @ (softplus(z) - y * z)) / denom + 0.5 * l2 * float(
            theta[:dim] @ theta[:dim]
        )

    def value_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        coef = theta[:dim]
        z = x @ coef + theta[dim]
        sp, p = softplus_sigmoid(z)
        loss = float(w @ (sp - y * z)) / denom + 0.5 * l2 * float(coef @ coef)
        dz = w * (p - y) / denom
        grad = np.empty(dim + 1)
        grad[:dim] = xt @ dz + l2 * coef
        grad[dim] = dz.sum()
        return loss, grad

    val_fn = None
    if validation is not None:
        xv, yv, wv = validation
        yv = np.asarray(yv, dtype=float)
        wv = np.asarray(wv, dtype=float)
        wv_total = float(wv.sum())

        def val_fn(theta: np.ndarray) -> float:
            zv = xv @ theta[:dim] + theta[dim]
            return float(wv @ (softplus(zv) - yv * zv)) / wv_total

    start = np.zeros(dim + 1) if theta0 is None else np.asarray(theta0, dtype=float)
    try:
        result = minimize_batch(value_grad, value, start, opt, validation=val_fn)
    except FloatingPointError as exc:
        z = x @ start[:dim] + start[dim]
        per_sample = w * (softplus(z) - y * z)
        bad = ~np.isfinite(per_sample)
        idx = int(np.argmax(bad)) if np.any(bad) else None
        raise TrainingError(f"non-finite training loss: {exc}", sample_index=idx) from exc
    return result.theta, result


def _meta(opt: OptConfig, result: OptResult) -> TrainingMeta:
    return TrainingMeta(
        seed=opt.seed,
        n_iter=result.n_iter,
        final_loss=result.loss,
        converged=result.converged,
        stopped_early=result.stopped_early,
    )


def _linear_model(theta: np.ndarray, l2: float, meta: TrainingMeta) -> LinearCvrModel:
    dim = theta.shape[0] - 1
    return LinearCvrModel(coef=theta[:dim], intercept=float(theta[dim]), dim=dim, l2=l2, meta=meta)


def train_weighted_logistic(
    data: "WeightedDataset",
    l2: float,
    opt: OptConfig | None = None,
    *,
    normalization: str = "mean",
    validation: "WeightedDataset | None" = None,
) -> LinearCvrModel:
    """Importance-weighted logistic regression over hashed features.

    When ``validation`` is supplied, early stopping monitors the weighted log
    loss on it (weights there should come from the same weighting scheme).
    """
    val = None
    if validation is not None and len(validation) > 0:
        val = (validation.x, validation.y, validation.weights)
    opt = opt or OptConfig()
    theta, result = fit_logistic(
        data.x,
        data.y,
        sample_weight=data.weights,
        l2=l2,
        opt=opt,
        normalization=normalization,
        validation=val,
    )
    return _linear_model(theta, l2, _meta(opt, result))


def train_naive_logistic(
    x: sparse.csr_matrix,
    y: np.ndarray,
    l2: float,
    opt: OptConfig | None = None,
    *,
    normalization: str = "mean",
) -> LinearCvrModel:
    """Unweighted logistic regression on snapshot labels (the biased baseline)."""
    opt = opt or OptConfig()
    theta, result = fit_logistic(x, y, l2=l2, opt=opt, normalization=normalization)
    return _linear_model(theta, l2, _meta(opt, result))


def dfm_nll_grad(
    theta: np.ndarray,
    x: sparse.csr_matrix,
    xt: sparse.csr_matrix,
    y: np.ndarray,
    d_days: np.ndarray,
    e_days: np.ndarray,
    l2: float,
    denom: float,
    want_grad: bool = True,
) -> tuple[float, np.ndarray | None]:
    """Censored-likelihood objective for the joint CVR/delay model.

    theta = [cvr coef..., cvr intercept, delay coef..., delay intercept]; z and
    u are the CVR and delay scores and λ = exp(u).
    Positives contribute -log p(x) - log f(d|x) = softplus(z) - z - u + λd.
    Negatives contribute -log[(1-p(x)) + p(x)·S(e|x)] = softplus(z) - softplus(v)
    with v = z - λe; r2 = sigmoid(v) is the posterior probability that the
    negative converts later. Both branches are computed on every row and
    chosen with np.where. λ is multiplied only by the row's own d or e, so an
    overflowing λ raises no warning that a per-label computation would not.
    """
    dim = x.shape[1]
    wc, bc = theta[:dim], theta[dim]
    wd, bd = theta[dim + 1 : 2 * dim + 1], theta[2 * dim + 1]
    z = x @ wc + bc
    u = x @ wd + bd
    pos = y == 1

    with np.errstate(over="ignore", under="ignore"):
        lam = np.exp(u)
        t = np.where(pos, d_days, e_days)
        lam_t = lam * t
        v = z - lam_t
        if want_grad:
            sp_z, p = softplus_sigmoid(z)
            sp_v, r2 = softplus_sigmoid(v)
        else:
            sp_z, sp_v = softplus(z), softplus(v)
        ll = sp_z - np.where(pos, z + u - lam_t, sp_v)
        loss = float(ll.sum()) / denom + 0.5 * l2 * (float(wc @ wc) + float(wd @ wd))

    if not want_grad:
        return loss, None

    # dz = p - 1 and du = λd - 1 on positives, dz = p - r2 and du = r2·λe on negatives
    q = np.where(pos, 1.0, r2)
    dz = (p - q) / denom
    with np.errstate(invalid="ignore"):
        du = lam_t * q - pos
    over = np.isinf(lam_t)
    if over.any():
        # λ·t overflowed, so r2 = 0 on a negative: q·λ first, then t, gives
        # its du = 0 unless λ itself is inf
        du[over] = q[over] * lam[over] * t[over] - pos[over]
    du /= denom

    grad = np.empty_like(theta)
    grad[:dim] = xt @ dz + l2 * wc
    grad[dim] = dz.sum()
    grad[dim + 1 : 2 * dim + 1] = xt @ du + l2 * wd
    grad[2 * dim + 1] = du.sum()
    return loss, grad


def train_dfm(
    x: sparse.csr_matrix,
    y: np.ndarray,
    d: np.ndarray,
    e: np.ndarray,
    l2: float,
    opt: OptConfig | None = None,
    *,
    normalization: str = "mean",
) -> DfmModel:
    """Fit the joint conversion/delay model by full-batch gradient descent.

    ``d`` and ``e`` are the observed delay and the elapsed time in seconds;
    positives contribute through ``d`` and negatives through ``e``, so ``d``
    on negatives is ignored. Initialization is data-dependent: the CVR
    intercept starts at the snapshot base rate, the delay intercept at the
    inverse mean observed delay.
    """
    n, dim = x.shape
    if n == 0:
        raise TrainingError("empty training set")
    y = np.asarray(y, dtype=float)
    pos = y == 1
    if not np.any(pos):
        raise TrainingError("cannot fit a delay model without positive samples")
    d_days = np.asarray(d, dtype=float) / SECONDS_PER_DAY
    e_days = np.asarray(e, dtype=float) / SECONDS_PER_DAY

    opt = opt or OptConfig()
    xt = x.T.tocsr()
    denom = _denominator(np.ones(n), normalization)

    theta0 = np.zeros(2 * dim + 2)
    base = min(max(float(y.mean()), 1e-6), 1.0 - 1e-6)
    theta0[dim] = np.log(base / (1.0 - base))
    mean_delay = float(d_days[pos].mean())
    theta0[2 * dim + 1] = -np.log(max(mean_delay, 1e-6))

    def value(theta: np.ndarray) -> float:
        loss, _ = dfm_nll_grad(theta, x, xt, y, d_days, e_days, l2, denom, want_grad=False)
        return loss

    def value_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grad = dfm_nll_grad(theta, x, xt, y, d_days, e_days, l2, denom)
        return loss, grad

    try:
        result = minimize_batch(value_grad, value, theta0, opt)
    except FloatingPointError as exc:
        raise TrainingError(f"non-finite likelihood: {exc}") from exc

    theta = result.theta
    return DfmModel(
        cvr_coef=theta[:dim],
        cvr_intercept=float(theta[dim]),
        delay_coef=theta[dim + 1 : 2 * dim + 1],
        delay_intercept=float(theta[2 * dim + 1]),
        dim=dim,
        l2=l2,
        meta=_meta(opt, result),
    )


def predict_cvr_batch(model: LinearCvrModel | DfmModel, x: sparse.csr_matrix) -> np.ndarray:
    """Conversion probability for every row of the feature matrix ``x``."""
    if x.shape[1] != model.dim:
        raise ValueError(f"feature dim {x.shape[1]} != model dim {model.dim}")
    coef, intercept = (
        (model.coef, model.intercept)
        if isinstance(model, LinearCvrModel)
        else (model.cvr_coef, model.cvr_intercept)
    )
    return sigmoid(x @ coef + intercept)


def predict_delay_rate(model: DfmModel, x: sparse.csr_matrix, per: str = "day") -> np.ndarray:
    """Predicted delay rate for every row of ``x``, per day or per second."""
    rate = np.exp(x @ model.delay_coef + model.delay_intercept)
    if per == "day":
        return rate
    if per == "second":
        return rate / SECONDS_PER_DAY
    raise ValueError(f"unknown rate unit {per!r}")


def _sparse_coef(coef: np.ndarray) -> tuple[list[int], list[float]]:
    idx = np.nonzero(coef)[0]
    return [int(i) for i in idx], [float(coef[i]) for i in idx]


def save_model(model: LinearCvrModel | DfmModel, path: str | Path) -> None:
    """Write a model as a versioned JSON blob (sparse coefficient storage)."""
    meta = {
        "seed": model.meta.seed,
        "n_iter": model.meta.n_iter,
        "final_loss": model.meta.final_loss,
        "converged": model.meta.converged,
        "stopped_early": model.meta.stopped_early,
    }
    if isinstance(model, LinearCvrModel):
        idx, val = _sparse_coef(model.coef)
        blob = {
            "format": MODEL_FORMAT,
            "kind": "linear",
            "dim": model.dim,
            "l2": model.l2,
            "intercept": model.intercept,
            "coef_idx": idx,
            "coef_val": val,
            "meta": meta,
        }
    elif isinstance(model, DfmModel):
        ci, cv = _sparse_coef(model.cvr_coef)
        di, dv = _sparse_coef(model.delay_coef)
        blob = {
            "format": MODEL_FORMAT,
            "kind": "dfm",
            "dim": model.dim,
            "l2": model.l2,
            "cvr_intercept": model.cvr_intercept,
            "cvr_idx": ci,
            "cvr_val": cv,
            "delay_intercept": model.delay_intercept,
            "delay_idx": di,
            "delay_val": dv,
            "meta": meta,
        }
    else:
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    Path(path).write_text(json.dumps(blob, sort_keys=True, indent=0) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> LinearCvrModel | DfmModel:
    blob = json.loads(Path(path).read_text(encoding="utf-8"))
    if blob.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {blob.get('format')!r}")
    meta = TrainingMeta(
        seed=blob["meta"]["seed"],
        n_iter=blob["meta"]["n_iter"],
        final_loss=blob["meta"]["final_loss"],
        converged=blob["meta"]["converged"],
        stopped_early=blob["meta"].get("stopped_early", False),
    )
    dim = blob["dim"]
    if blob["kind"] == "linear":
        coef = np.zeros(dim)
        coef[blob["coef_idx"]] = blob["coef_val"]
        return LinearCvrModel(
            coef=coef, intercept=blob["intercept"], dim=dim, l2=blob["l2"], meta=meta
        )
    if blob["kind"] == "dfm":
        cvr = np.zeros(dim)
        cvr[blob["cvr_idx"]] = blob["cvr_val"]
        delay = np.zeros(dim)
        delay[blob["delay_idx"]] = blob["delay_val"]
        return DfmModel(
            cvr_coef=cvr,
            cvr_intercept=blob["cvr_intercept"],
            delay_coef=delay,
            delay_intercept=blob["delay_intercept"],
            dim=dim,
            l2=blob["l2"],
            meta=meta,
        )
    raise ValueError(f"unknown model kind {blob['kind']!r}")
