"""CVR model trainers.

Three trainers share one deterministic optimizer:
  * train_weighted_logistic — logistic regression under per-sample importance
    weights (the corrected estimator);
  * train_naive_logistic — the same model with unit weights (what you get if
    you ignore label censoring);
  * train_dfm — a joint model of conversion probability and exponential
    conversion-delay rate, fit by maximum likelihood on censored labels: a
    positive converted after its observed delay, a negative has not
    converted by its elapsed time (``_dfm_objective``).

Weighted losses are normalized by the total weight. The two logistic trainers
fit on the distinct rows of their feature matrix, each with its summed weight
and weighted mean label. So duplicating a unit-weight sample gives the same
model, bit for bit, as giving it weight two, and a fit costs per distinct
row, not per sample. A ``RowGroups`` holds one matrix's grouping, so fits on
the same rows group them once.

train_dfm groups only its feature-only terms when at most half of its rows
are distinct: the CVR score z, its sum z + u with the delay score, the rate
λ = exp(u), softplus(z) and sigmoid(z) are computed per distinct row and
gathered back to the samples, with the same bits as per sample. What reads a
sample's observed time (λ·d, λ·e, the censored branch and the loss sum) stays
per sample, and so do the gradient products, whose sums a grouping would
reorder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

from .optim import OptConfig, TrainingMeta, dot, minimize_batch, sigmoid, softplus_sigmoid

if TYPE_CHECKING:  # pragma: no cover
    from .weights import WeightedDataset

SECONDS_PER_DAY = 86400.0
MODEL_FORMAT = "fsiw.model/1"


class TrainingError(RuntimeError):
    """Training could not proceed."""


@dataclass(frozen=True)
class LinearCvrModel:
    coef: np.ndarray
    intercept: float
    l2: float
    meta: TrainingMeta


@dataclass(frozen=True)
class DfmModel:
    """Joint model: P(convert|x) = sigma(cvr head), delay rate = exp(delay head).

    The delay head is parameterized in inverse days to keep its linear scores
    near zero: a row's delay rate per second is
    ``exp(x @ delay_coef + delay_intercept) / SECONDS_PER_DAY``.
    """

    cvr_coef: np.ndarray
    cvr_intercept: float
    delay_coef: np.ndarray
    delay_intercept: float
    l2: float
    meta: TrainingMeta


def check_l2(l2: float) -> None:
    """Reject an L2 penalty that is negative, infinite or nan."""
    if not 0 <= l2 < np.inf:
        raise ValueError(f"l2 must be finite and non-negative, got {l2!r}")


def _reject_first(bad: np.ndarray, values: np.ndarray, rule: str) -> None:
    """Raise ``TrainingError`` naming the first sample where ``bad`` holds."""
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise TrainingError(f"{rule}, got {values[idx]} (sample index {idx})")


def _column(values: np.ndarray, n: int, name: str) -> np.ndarray:
    """One value per sample, as a float array."""
    if len(values) != n:
        raise TrainingError(f"{name} count {len(values)} != sample count {n}")
    return np.asarray(values, dtype=float)


def _labels(y: np.ndarray, n: int) -> np.ndarray:
    y = _column(y, n, "label")
    _reject_first((y != 0) & (y != 1), y, "label must be 0 or 1")
    return y


def _validate_weights(w: np.ndarray) -> None:
    bad = ~(np.isfinite(w) & (w > 0))
    _reject_first(bad, w, "sample weight must be a positive finite number")


def _distinct_rows(x: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """The first occurrence of each distinct row of ``x``, ascending, and the
    group of every row.

    Two rows are the same when their column indices and the bits of their
    stored values are equal, in stored order. Groups are numbered in order of
    first occurrence, so ``x[first][inverse]`` is ``x``, and a matrix whose
    rows all differ gives ``first = inverse = arange(n)``.
    """
    n, dim = x.shape
    nnz = np.diff(x.indptr)
    width = int(nnz.max(initial=0))
    row = np.repeat(np.arange(n), nnz)
    slot = np.arange(x.nnz) - x.indptr[row]
    # sort keys: each row's length and its column indices + 1 (0 pads a
    # short row), packed into as few int64s as hold them, then the bits of
    # every stored-value slot that is not the same on all rows
    bits = max(dim, width, 1).bit_length()
    per_key = 63 // bits
    n_keys = -(-(width + 1) // per_key)
    cols = np.zeros((n_keys * per_key, n), dtype=np.int64)
    cols[0] = nnz
    cols[1 + slot, row] = x.indices + 1
    shifts = bits * np.arange(per_key)[:, None]
    packed = (cols.reshape(n_keys, per_key, n) << shifts).sum(axis=1)
    values = np.zeros((width, n), dtype=np.int64)
    values[slot, row] = np.asarray(x.data, dtype=np.float64).view(np.int64)
    keys = np.concatenate([values[np.any(values != values[:, :1], axis=1)], packed])
    order = np.lexsort(keys)  # stable, so a group's first sorted row is its first occurrence
    starts = np.ones(n, dtype=bool)
    sorted_keys = keys[:, order]
    np.any(sorted_keys[:, 1:] != sorted_keys[:, :-1], axis=0, out=starts[1:])
    firsts = order[starts]
    by_first = np.argsort(firsts)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = rank[np.cumsum(starts) - 1]
    return firsts[by_first], inverse


def _checked(
    x: sparse.csr_matrix | RowGroups, y: np.ndarray, sample_weight: np.ndarray | None, l2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and weights as float arrays, after the checks every logistic
    fit makes on its rows."""
    n = x.shape[0]
    if n == 0:
        raise TrainingError("empty training set")
    y = _labels(y, n)
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    _validate_weights(w)
    check_l2(l2)
    return y, w


def fit_logistic(
    x: sparse.csr_matrix,
    y: np.ndarray,
    *,
    sample_weight: np.ndarray | None = None,
    l2: float = 0.0,
    opt: OptConfig = OptConfig(),
    validation: tuple[sparse.csr_matrix, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, TrainingMeta]:
    """Minimize the (weighted) logistic loss plus (l2/2)·||coef||², one
    objective term per row of ``x``.

    Returns theta laid out as [coef..., intercept]; the intercept is not
    regularized. ``validation`` is (x, y, weight) scored by weighted log loss
    for early stopping.
    """
    y, w = _checked(x, y, sample_weight, l2)
    return _minimize_logistic(x, x.T.tocsr(), y, w, float(w.sum()), l2, opt, validation)


class RowGroups:
    """A feature matrix ``x`` grouped into its distinct rows (``_distinct_rows``):
    ``first`` and ``inverse``, the distinct-row matrix ``x[first]`` and its
    transpose. Without a repeated row the distinct-row matrix is ``x`` itself.

    Every trainer takes a RowGroups wherever it takes ``x``, so fits on the
    same rows can share one grouping."""

    def __init__(self, x: sparse.csr_matrix):
        self.x = x
        self.first, self.inverse = _distinct_rows(x)
        self.distinct = x if self.first.size == x.shape[0] else x[self.first]
        self.distinct_t = self.distinct.T.tocsr()

    @property
    def shape(self) -> tuple[int, int]:
        return self.x.shape


def _fit_distinct(
    x: sparse.csr_matrix | RowGroups,
    y: np.ndarray,
    sample_weight: np.ndarray | None,
    l2: float,
    opt: OptConfig,
    validation: tuple[sparse.csr_matrix, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, TrainingMeta]:
    """``fit_logistic`` with one objective term per distinct row of ``x``,
    grouped here unless ``x`` is its RowGroups.

    Rows with the same features share one score z, so Σ wᵢ·(softplus(z) − yᵢ·z)
    over a group is W·(softplus(z) − r·z) with W = Σ wᵢ and r = Σ wᵢ·yᵢ / W.
    Without a repeated row W = w and r = y bit for bit (w·1/w = 1, 0/w = 0),
    and the fit runs the per-row arithmetic.
    """
    y, w = _checked(x, y, sample_weight, l2)
    groups = x if isinstance(x, RowGroups) else RowGroups(x)
    group_w = np.bincount(groups.inverse, weights=w)
    group_y = np.bincount(groups.inverse, weights=w * y) / group_w
    return _minimize_logistic(
        groups.distinct, groups.distinct_t, group_y, group_w, float(w.sum()), l2, opt, validation
    )


def _minimize_logistic(
    x: sparse.csr_matrix,
    xt: sparse.csr_matrix,
    y: np.ndarray,
    w: np.ndarray,
    denom: float,
    l2: float,
    opt: OptConfig,
    validation: tuple[sparse.csr_matrix, np.ndarray, np.ndarray] | None,
) -> tuple[np.ndarray, TrainingMeta]:
    """Minimize w @ (softplus(z) − y·z) / denom + (l2/2)·||coef||² over the
    checked rows of ``x``, whose transpose as CSR is ``xt``."""
    dim = x.shape[1]

    def value_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        coef = theta[:dim]
        z = x @ coef + theta[dim]
        sp, p = softplus_sigmoid(z)
        loss = dot(w, sp - y * z) / denom + 0.5 * l2 * dot(coef, coef)
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
            return dot(wv, softplus_sigmoid(zv)[0] - yv * zv) / wv_total

    try:
        return minimize_batch(value_grad, np.zeros(dim + 1), opt, validation=val_fn)
    except FloatingPointError as exc:
        raise TrainingError(f"non-finite training loss: {exc}") from exc


def _linear_model(theta: np.ndarray, l2: float, meta: TrainingMeta) -> LinearCvrModel:
    return LinearCvrModel(coef=theta[:-1], intercept=float(theta[-1]), l2=l2, meta=meta)


def train_weighted_logistic(
    data: "WeightedDataset",
    l2: float,
    opt: OptConfig = OptConfig(),
    *,
    validation: "WeightedDataset | None" = None,
) -> LinearCvrModel:
    """Importance-weighted logistic regression over hashed features.

    ``data.x`` may be the RowGroups of the features, to reuse a grouping.
    When ``validation`` is supplied, early stopping monitors the weighted log
    loss on it (weights there should come from the same weighting scheme).
    """
    val = None
    if validation is not None and len(validation) > 0:
        val = (validation.x, validation.y, validation.weights)
    theta, meta = _fit_distinct(data.x, data.y, data.weights, l2, opt, val)
    return _linear_model(theta, l2, meta)


def train_naive_logistic(
    x: sparse.csr_matrix | RowGroups,
    y: np.ndarray,
    l2: float,
    opt: OptConfig = OptConfig(),
) -> LinearCvrModel:
    """Unweighted logistic regression on snapshot labels (the biased
    baseline). ``x`` may be given as its RowGroups, to reuse a grouping."""
    theta, meta = _fit_distinct(x, y, None, l2, opt)
    return _linear_model(theta, l2, meta)


def _dfm_objective(
    theta: np.ndarray,
    x: sparse.csr_matrix,
    xt: sparse.csr_matrix,
    pos: np.ndarray,
    t: np.ndarray,
    l2: float,
    denom: float,
    rows: np.ndarray | None,
) -> tuple[float, np.ndarray]:
    """The joint CVR/delay model's censored negative log likelihood, summed
    over samples and divided by ``denom``, plus (l2/2)·(||cvr coef||² +
    ||delay coef||²), and its gradient.

    theta = [cvr coef..., cvr intercept, delay coef..., delay intercept]; z and
    u are the CVR and delay scores and λ = exp(u). ``pos`` is each sample's
    label test and ``t`` its observed time in days: the delay d on positives,
    the elapsed time e on negatives.
    Positives contribute -log p(x) - log f(d|x) = softplus(z) - z - u + λd.
    Negatives contribute -log[(1-p(x)) + p(x)·S(e|x)] = softplus(z) - softplus(v)
    with v = z - λe; r2 = sigmoid(v) is the posterior probability that the
    negative converts later. Both branches are computed on every row and
    chosen with np.where. λ is multiplied only by the row's own t, so an
    overflowing λ raises no warning that a per-label computation would not.

    With a row map ``rows``, ``x`` holds distinct feature rows and sample i
    has the features of ``x[rows[i]]``; ``xt`` stays the transpose of the
    per-sample matrix. z, z + u, λ, softplus(z) and sigmoid(z) read only a
    row's features, so they are computed once per distinct row and gathered.
    A distinct row keeps the stored indices and values of the rows it stands
    for, so its scores sum in the same order, and the link functions act
    element by element: the gathered values are the per-sample ones, bit for
    bit. Everything that reads t, and the gradient products over ``xt``, stay
    per sample; summing the products per group first would reorder their sums.
    """
    dim = x.shape[1]
    wc, bc = theta[:dim], theta[dim]
    wd, bd = theta[dim + 1 : 2 * dim + 1], theta[2 * dim + 1]
    z = x @ wc + bc
    u = x @ wd + bd

    with np.errstate(over="ignore", under="ignore"):
        lam = np.exp(u)
        zu = z + u
        sp_z, p = softplus_sigmoid(z)
        if rows is not None:
            z, zu, lam, sp_z, p = (a.take(rows) for a in (z, zu, lam, sp_z, p))
        lam_t = lam * t
        v = z - lam_t
        sp_v, r2 = softplus_sigmoid(v)
        ll = sp_z - np.where(pos, zu - lam_t, sp_v)
        loss = float(ll.sum()) / denom + 0.5 * l2 * (dot(wc, wc) + dot(wd, wd))

    # dz = p - 1 and du = λd - 1 on positives, dz = p - r2 and du = r2·λe on negatives
    q = np.where(pos, 1.0, r2)
    dz = (p - q) / denom
    with np.errstate(invalid="ignore"):
        du = lam_t * q - pos
        over = np.isinf(lam_t)
        if over.any():
            # λ·t overflowed, so r2 = 0 on a negative: q·λ first, then t, gives
            # its du = 0 unless λ itself is inf, where the loss is inf too
            du[over] = q[over] * lam[over] * t[over] - pos[over]
    du /= denom

    grad = np.empty_like(theta)
    grad[:dim] = xt @ dz + l2 * wc
    grad[dim] = dz.sum()
    grad[dim + 1 : 2 * dim + 1] = xt @ du + l2 * wd
    grad[2 * dim + 1] = du.sum()
    return loss, grad


def train_dfm(
    x: sparse.csr_matrix | RowGroups,
    y: np.ndarray,
    d: np.ndarray,
    e: np.ndarray,
    l2: float,
    opt: OptConfig = OptConfig(),
) -> DfmModel:
    """Fit the joint conversion/delay model by maximum likelihood.

    The censored negative log-likelihood is minimized by full-batch L-BFGS
    (``optim.minimize_batch``), which stops once one iteration lowers the
    loss by at most ``opt.tol`` relative, or after ``opt.max_iter``
    iterations with ``meta.converged`` False.

    ``d`` and ``e`` are the observed delay and the elapsed time in seconds,
    finite and non-negative; positives contribute through ``d`` and
    negatives through ``e``, so ``d`` on negatives is not used.
    Initialization is data-dependent: the CVR intercept starts at the
    snapshot base rate, the delay intercept at the inverse mean observed
    delay.

    ``x`` may be given as its RowGroups, to reuse a grouping. When at most
    half of the rows are distinct, the objective computes its feature-only
    terms once per distinct row and gathers them (``_dfm_objective``);
    with more distinct rows the gathers cost more than they save, and it
    runs per row. The model is the same bits either way.
    """
    check_l2(l2)
    n, dim = x.shape
    if n == 0:
        raise TrainingError("empty training set")
    y = _labels(y, n)
    d, e = _column(d, n, "delay"), _column(e, n, "elapsed-time")
    for values, name in ((d, "delay"), (e, "elapsed time")):
        bad = ~(np.isfinite(values) & (values >= 0))
        _reject_first(bad, values, f"{name} must be a finite non-negative number of seconds")
    pos = y == 1
    if not np.any(pos):
        raise TrainingError("cannot fit a delay model without positive samples")
    d_days = d / SECONDS_PER_DAY
    e_days = e / SECONDS_PER_DAY
    t = np.where(pos, d_days, e_days)

    groups = x if isinstance(x, RowGroups) else RowGroups(x)
    # gathering pays when rows repeat: per evaluation, 64 distinct rows of 28k
    # took 23-28% less time grouped, 4,599 distinct of 4,782 took 7-10% more
    grouped = 2 * groups.first.size <= n
    rows = groups.inverse if grouped else None
    xs = groups.distinct if grouped else groups.x
    xt = groups.distinct_t if groups.distinct is groups.x else groups.x.T.tocsr()
    denom = float(n)

    theta0 = np.zeros(2 * dim + 2)
    base = min(max(float(y.mean()), 1e-6), 1.0 - 1e-6)
    theta0[dim] = np.log(base / (1.0 - base))
    mean_delay = float(d_days[pos].mean())
    theta0[2 * dim + 1] = -np.log(max(mean_delay, 1e-6))

    def value_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        return _dfm_objective(theta, xs, xt, pos, t, l2, denom, rows)

    try:
        theta, meta = minimize_batch(value_grad, theta0, opt)
    except FloatingPointError as exc:
        raise TrainingError(f"non-finite likelihood: {exc}") from exc

    return DfmModel(
        cvr_coef=theta[:dim],
        cvr_intercept=float(theta[dim]),
        delay_coef=theta[dim + 1 : 2 * dim + 1],
        delay_intercept=float(theta[2 * dim + 1]),
        l2=l2,
        meta=meta,
    )


def predict_cvr_batch(model: LinearCvrModel | DfmModel, x: sparse.csr_matrix) -> np.ndarray:
    """Conversion probability for every row of the feature matrix ``x``."""
    coef, intercept = (
        (model.coef, model.intercept)
        if isinstance(model, LinearCvrModel)
        else (model.cvr_coef, model.cvr_intercept)
    )
    if x.shape[1] != coef.size:
        raise ValueError(f"feature dim {x.shape[1]} != model dim {coef.size}")
    return sigmoid(x @ coef + intercept)


def _sparse_coef(coef: np.ndarray) -> tuple[list[int], list[float]]:
    idx = np.nonzero(coef)[0]
    return [int(i) for i in idx], [float(coef[i]) for i in idx]


def save_model(model: LinearCvrModel | DfmModel, path: str | Path) -> None:
    """Write a model as a versioned JSON blob (sparse coefficient storage)."""
    meta = {
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
            "dim": model.coef.size,
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
            "dim": model.cvr_coef.size,
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
