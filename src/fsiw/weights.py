"""Importance-weight estimation from relabeled data.

Two logistic models are fit on the relabeled D1/D0 sets: one predicts how
likely a converting click has already been observed ("pos" model), the other
how likely a currently-negative click will stay negative ("neg" model). Each
reads hashed click features x plus features of the elapsed time e (log time
and coarse duration bins, ``weight_design``) so the time dependence need
not be linear. Per-sample weights are then the reciprocal of the pos-model
probability for positives and the neg-model probability itself for
negatives, clipped away from zero.

Weights are predicted from each row's own elapsed time, so the prediction
design of a set of rows does not depend on the deadline: a ``DesignRows``
builds it once per distinct ``edges`` and every deadline predicts from it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from .optim import OptConfig, sigmoid
from .training import SECONDS_PER_DAY, RowGroups, check_l2, fit_logistic

DEFAULT_EDGES = (3600, 21600, 43200, 86400, 172800, 345600, 604800)
DEFAULT_CLIP_FLOOR = 0.01


def weight_design(x: sparse.csr_matrix, e: np.ndarray, edges: tuple[int, ...]) -> sparse.csr_matrix:
    """The weight models' design ``[x | one-hot bin(e) | log days]``: the
    hashed features, then the duration bin of each elapsed time by ``edges``,
    then its log in days.

    Built as CSR arrays directly, each row holding its entries of ``x``, its
    bin entry, then its log entry unless that is zero (``e`` of exactly one
    day): the arrays ``sparse.hstack`` gives for ``x`` beside the dense block
    of those columns."""
    e = np.asarray(e, dtype=float)
    if np.any(e <= 0):
        raise ValueError("elapsed times must be positive")
    n, dim = x.shape
    bins = np.searchsorted(np.asarray(edges, dtype=float), e, side="left")
    log_days = np.log(e / SECONDS_PER_DAY)
    has_log = log_days != 0.0
    extra = 1 + has_log
    indptr = x.indptr + np.r_[0, np.cumsum(extra)]
    bin_at = indptr[1:] - extra
    log_at = indptr[1:][has_log] - 1
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int64)
    from_x = np.ones(indptr[-1], dtype=bool)
    from_x[bin_at] = from_x[log_at] = False
    data[from_x], indices[from_x] = x.data, x.indices
    data[bin_at], indices[bin_at] = 1.0, dim + bins
    data[log_at], indices[log_at] = log_days[has_log], dim + len(edges) + 1
    return sparse.csr_matrix((data, indices, indptr), shape=(n, dim + len(edges) + 2))


@dataclass(frozen=True)
class DesignRows:
    """Rows to predict weights for: hashed features ``x`` and elapsed seconds
    ``e``. ``design(edges)`` builds their ``weight_design`` on first use and
    keeps it, so a split's rows get one design per distinct ``edges``
    however many deadlines predict from them."""

    x: sparse.csr_matrix
    e: np.ndarray
    _designs: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.x.shape[0] != np.shape(self.e)[0]:
            raise ValueError("feature/elapsed-time length mismatch")

    def design(self, edges: tuple[int, ...]) -> sparse.csr_matrix:
        key = tuple(edges)
        if key not in self._designs:
            self._designs[key] = weight_design(self.x, self.e, key)
        return self._designs[key]


@dataclass(frozen=True)
class WeightModelHyper:
    """Settings of one weight model; each field is a key of the config's
    ``weight_model_pos`` / ``weight_model_neg`` section."""

    l2: float = 1e-3
    edges: tuple[int, ...] = field(default=DEFAULT_EDGES, metadata={"duration": True})
    max_iter: int = 300
    holdout_fraction: float = 0.1

    def __post_init__(self):
        check_l2(self.l2)
        if list(self.edges) != sorted(set(self.edges)) or any(e <= 0 for e in self.edges):
            raise ValueError("edges must be strictly increasing positive durations")
        self.opt  # raises on a bad max_iter
        if not 0.0 <= self.holdout_fraction < 0.5:
            raise ValueError("holdout_fraction must be in [0, 0.5)")

    @property
    def opt(self) -> OptConfig:
        # holdout early stopping: score every 5 iterations, stop after 5 misses
        return OptConfig(max_iter=self.max_iter, tol=1e-10, eval_every=5, patience=5)


@dataclass(frozen=True)
class WeightModel:
    """Probabilistic classifier over hashed features and the elapsed-time
    features of ``edges``.

    ``degenerate`` marks the single-class fallback: a constant predictor at
    the class rate, flagged so callers can surface the anomaly.
    """

    coef: np.ndarray
    intercept: float
    edges: tuple[int, ...]
    degenerate: bool = False
    constant: float | None = None

    def predict_rows(self, rows: DesignRows) -> np.ndarray:
        if self.degenerate:
            return np.full(rows.x.shape[0], float(self.constant))
        return sigmoid(rows.design(self.edges) @ self.coef + self.intercept)


def check_clip_floor(clip_floor: float) -> None:
    """Reject a weight-model probability floor outside (0, 1)."""
    if not 0.0 < clip_floor < 1.0:
        raise ValueError("clip_floor must be a probability strictly inside (0, 1)")


@dataclass(frozen=True)
class WeightedDataset:
    """Training rows (features, snapshot label, elapsed seconds) with aligned
    positive importance weights: at least 1 on positives, at most 1 on
    negatives. The features may be given as their ``RowGroups``."""

    x: sparse.csr_matrix | RowGroups
    y: np.ndarray
    e: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y)
        w = np.asarray(self.weights, dtype=float)
        if not self.x.shape[0] == y.shape[0] == np.shape(self.e)[0] == w.shape[0]:
            raise ValueError("sample/weight length mismatch")
        if np.any(~np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be positive and finite")
        bad = ((y == 0) & (w > 1.0 + 1e-12)) | ((y == 1) & (w < 1.0 - 1e-12))
        if np.any(bad):
            i = int(np.argmax(bad))
            if y[i] == 0:
                raise ValueError(f"negative sample {i} has weight {w[i]} > 1")
            raise ValueError(f"positive sample {i} has weight {w[i]} < 1")

    def __len__(self) -> int:
        return len(self.weights)


def fit_weight_model(
    x: sparse.csr_matrix,
    e_adj: np.ndarray,
    s: np.ndarray,
    hyper: WeightModelHyper = WeightModelHyper(),
    *,
    seed: int = 0,
) -> WeightModel:
    """Fit one of the two weight models on a relabeled set.

    Training pairs the hashed click features ``x`` with the features of the
    *adjusted* elapsed time and targets the s-label. A holdout of
    ``hyper.holdout_fraction``, drawn from ``seed``, drives early stopping.
    Single-class inputs degrade to a constant predictor at the class rate,
    with a warning; ``assign_fsiw`` clips it like any prediction. A fit that
    reaches ``hyper.max_iter`` without converging or stopping early on its
    holdout warns too.
    """
    s = np.asarray(s, dtype=float)
    if s.size == 0:
        raise ValueError("cannot fit a weight model on an empty dataset")
    n, dim = x.shape
    if not n == s.size == np.size(e_adj):
        raise ValueError("feature/elapsed-time/label length mismatch")

    n_classes = len(np.unique(s))
    if n_classes == 1:
        rate = float(s[0])
        warnings.warn(
            f"weight-model data has a single s-class ({int(rate)}); "
            f"falling back to a constant predictor at {rate}",
            RuntimeWarning,
            stacklevel=2,
        )
        return WeightModel(
            coef=np.zeros(dim + len(hyper.edges) + 2),
            intercept=0.0,
            edges=hyper.edges,
            degenerate=True,
            constant=rate,
        )

    x = weight_design(x, e_adj, hyper.edges)

    validation = None
    train_idx = np.arange(n)
    if hyper.holdout_fraction > 0 and n >= 20:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x77]))
        perm = rng.permutation(n)
        n_hold = max(1, int(n * hyper.holdout_fraction))
        hold_idx, fit_idx = perm[:n_hold], perm[n_hold:]
        # early stopping only makes sense when the retained part still has
        # both classes; otherwise fit on everything without a holdout
        if len(np.unique(s[fit_idx])) == 2:
            train_idx = fit_idx
            validation = (
                x[hold_idx],
                s[hold_idx],
                np.ones(len(hold_idx)),
            )

    theta, meta = fit_logistic(
        x[train_idx],
        s[train_idx],
        l2=hyper.l2,
        opt=hyper.opt,
        validation=validation,
    )
    if not (meta.converged or meta.stopped_early):
        warnings.warn(f"fit did not converge (n_iter={meta.n_iter})", RuntimeWarning, stacklevel=2)
    return WeightModel(
        coef=theta[:-1],
        intercept=float(theta[-1]),
        edges=hyper.edges,
    )


def assign_fsiw(
    model_pos: WeightModel,
    model_neg: WeightModel,
    rows: DesignRows,
    y: np.ndarray,
    clip_floor: float = DEFAULT_CLIP_FLOOR,
) -> WeightedDataset:
    """Attach an importance weight to every training row of ``rows``.

    Predictions use each row's original elapsed time ``rows.e`` (not the
    adjusted one the models were trained with), and both models predict from
    the designs ``rows`` keeps, so calls that share ``rows`` build each one
    once. Positives get the reciprocal of the pos model's probability;
    negatives get the neg model's probability directly. Probabilities are
    clipped to [clip_floor, 1] first, which caps any weight at 1/clip_floor.
    """
    check_clip_floor(clip_floor)
    p_pos = np.clip(model_pos.predict_rows(rows), clip_floor, 1.0)
    p_neg = np.clip(model_neg.predict_rows(rows), clip_floor, 1.0)
    weights = np.where(np.asarray(y) == 1, 1.0 / p_pos, p_neg)
    return WeightedDataset(x=rows.x, y=y, e=rows.e, weights=weights)


def dump_weights(dataset: WeightedDataset, path: str | Path) -> None:
    """Audit dump: one row per sample (index, y, e, weight). ``fsiw run``
    writes it in the process that fits lr_fsiw, right after that fit weights
    its rows (``experiment._fit_fsiw``)."""
    rows = zip(
        np.asarray(dataset.y).tolist(),
        np.asarray(dataset.e).tolist(),
        np.asarray(dataset.weights, dtype=float).tolist(),
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index\ty\te\tweight\n")
        for i, (y, e, w) in enumerate(rows):
            handle.write(f"{i}\t{y}\t{e}\t{w!r}\n")
