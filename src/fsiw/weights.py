"""Importance-weight estimation from relabeled data.

Two logistic models are fit on the relabeled D1/D0 sets: one predicts how
likely a converting click has already been observed ("pos" model), the other
how likely a currently-negative click will stay negative ("neg" model). Each
consumes hashed click features plus an elapsed-time basis (log time and
coarse duration bins) so the time dependence need not be linear. Per-sample
weights are then the reciprocal of the pos-model probability for positives
and the neg-model probability itself for negatives, clipped away from zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .optim import OptConfig, append_columns, sigmoid
from .training import fit_logistic

DEFAULT_EDGES = (3600, 21600, 43200, 86400, 172800, 345600, 604800)
DEFAULT_CLIP_FLOOR = 0.01
SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class ElapsedBasis:
    """Feature expansion of an elapsed time: one-hot duration bin + log days."""

    edges: tuple[int, ...] = DEFAULT_EDGES

    def __post_init__(self):
        if list(self.edges) != sorted(set(self.edges)) or any(e <= 0 for e in self.edges):
            raise ValueError("edges must be strictly increasing positive durations")

    @property
    def n_columns(self) -> int:
        return len(self.edges) + 2

    def transform(self, e: np.ndarray) -> np.ndarray:
        e = np.asarray(e, dtype=float)
        if np.any(e <= 0):
            raise ValueError("elapsed times must be positive")
        out = np.zeros((e.shape[0], self.n_columns))
        bins = np.searchsorted(np.asarray(self.edges, dtype=float), e, side="left")
        out[np.arange(e.shape[0]), bins] = 1.0
        out[:, -1] = np.log(e / SECONDS_PER_DAY)
        return out


@dataclass(frozen=True)
class WeightModelHyper:
    l2: float = 1e-3
    basis: ElapsedBasis = ElapsedBasis()
    opt: OptConfig = OptConfig(max_iter=300, tol=1e-10, eval_every=5, patience=5)
    holdout_fraction: float = 0.1
    clip_floor: float = DEFAULT_CLIP_FLOOR
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.holdout_fraction < 0.5:
            raise ValueError("holdout_fraction must be in [0, 0.5)")
        if not 0.0 < self.clip_floor < 1.0:
            raise ValueError("clip_floor must be a probability strictly inside (0, 1)")


@dataclass(frozen=True)
class WeightModel:
    """Probabilistic classifier over (hashed features, elapsed-time basis).

    ``degenerate`` marks the single-class fallback: a constant predictor at
    the (clipped) class rate, flagged so callers can surface the anomaly.
    """

    coef: np.ndarray
    intercept: float
    dim: int
    basis: ElapsedBasis
    degenerate: bool = False
    constant: float | None = None

    def predict(self, x: sparse.csr_matrix, e: np.ndarray) -> np.ndarray:
        e = np.asarray(e, dtype=float)
        if x.shape[0] != e.shape[0]:
            raise ValueError("feature/elapsed-time length mismatch")
        if self.degenerate:
            return np.full(e.shape[0], float(self.constant))
        x = append_columns(x, self.basis.transform(e))
        return sigmoid(x @ self.coef + self.intercept)


@dataclass(frozen=True)
class WeightModelPair:
    model_pos: WeightModel
    model_neg: WeightModel
    clip_floor: float = DEFAULT_CLIP_FLOOR


@dataclass(frozen=True)
class WeightedDataset:
    """Training rows (features, snapshot label, elapsed seconds) with aligned
    positive importance weights: at least 1 on positives, at most 1 on
    negatives."""

    x: sparse.csr_matrix
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
    hyper: WeightModelHyper | None = None,
) -> WeightModel:
    """Fit one of the two weight models on a relabeled set.

    Training pairs the hashed click features ``x`` with a basis expansion of
    the *adjusted* elapsed time and targets the s-label. A 10% holdout
    (seeded) drives early stopping. Single-class inputs degrade to a constant
    predictor at the clipped class rate, with a warning.
    """
    hyper = hyper or WeightModelHyper()
    s = np.asarray(s, dtype=float)
    if s.size == 0:
        raise ValueError("cannot fit a weight model on an empty dataset")
    n, dim = x.shape
    if not n == s.size == np.size(e_adj):
        raise ValueError("feature/elapsed-time/label length mismatch")

    n_classes = len(np.unique(s))
    if n_classes == 1:
        rate = float(s[0])
        clipped = min(max(rate, hyper.clip_floor), 1.0)
        warnings.warn(
            f"weight-model data has a single s-class ({int(rate)}); "
            f"falling back to a constant predictor at {clipped}",
            RuntimeWarning,
            stacklevel=2,
        )
        return WeightModel(
            coef=np.zeros(dim + hyper.basis.n_columns),
            intercept=0.0,
            dim=dim,
            basis=hyper.basis,
            degenerate=True,
            constant=clipped,
        )

    x = append_columns(x, hyper.basis.transform(np.asarray(e_adj, dtype=float)))

    validation = None
    train_idx = np.arange(n)
    if hyper.holdout_fraction > 0 and n >= 20:
        rng = np.random.default_rng(np.random.SeedSequence([hyper.seed, 0x77]))
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

    theta, _ = fit_logistic(
        x[train_idx],
        s[train_idx],
        l2=hyper.l2,
        opt=hyper.opt,
        validation=validation,
    )
    return WeightModel(
        coef=theta[:-1],
        intercept=float(theta[-1]),
        dim=dim,
        basis=hyper.basis,
    )


def assign_fsiw(
    models: WeightModelPair, x: sparse.csr_matrix, y: np.ndarray, e: np.ndarray
) -> WeightedDataset:
    """Attach an importance weight to every training row.

    Predictions use each row's original elapsed time ``e`` (not the adjusted
    one the models were trained with). Positives get the reciprocal of the
    pos model's probability; negatives get the neg model's probability
    directly. Probabilities are clipped to [clip_floor, 1] first, which caps
    any weight at 1/clip_floor.
    """
    e_float = np.asarray(e, dtype=float)
    p_pos = np.clip(models.model_pos.predict(x, e_float), models.clip_floor, 1.0)
    p_neg = np.clip(models.model_neg.predict(x, e_float), models.clip_floor, 1.0)
    weights = np.where(np.asarray(y) == 1, 1.0 / p_pos, p_neg)
    return WeightedDataset(x=x, y=y, e=e, weights=weights)


def dump_weights(dataset: WeightedDataset, path: str | Path) -> None:
    """Audit dump: one row per sample (index, y, e, weight)."""
    rows = zip(
        np.asarray(dataset.y).tolist(),
        np.asarray(dataset.e).tolist(),
        np.asarray(dataset.weights, dtype=float).tolist(),
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index\ty\te\tweight\n")
        for i, (y, e, w) in enumerate(rows):
            handle.write(f"{i}\t{y}\t{e}\t{w!r}\n")
