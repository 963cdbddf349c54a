"""Evaluation metrics: log loss, its normalized form, average precision,
percentile-bootstrap confidence intervals, and delay-distribution summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import NO_CONVERSION

PRED_CLIP = 1e-15

DEFAULT_CDF_GRID = (
    1800,
    3600,
    10800,
    21600,
    43200,
    86400,
    172800,
    345600,
    604800,
    1209600,
    2592000,
)


def _as_arrays(labels: Sequence[int], preds: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=float)
    preds = np.asarray(preds, dtype=float)
    if labels.shape != preds.shape:
        raise ValueError(f"length mismatch: {labels.shape} labels vs {preds.shape} predictions")
    if labels.size == 0:
        raise ValueError("empty input")
    return labels, preds


class MetricInputError(ValueError):
    """A label or prediction outside its domain; ``index`` is the first bad sample."""

    def __init__(self, detail: str, index: int):
        super().__init__(f"sample {index}: {detail}")
        self.detail = detail
        self.index = index


def _validate_inputs(labels: np.ndarray, preds: np.ndarray) -> None:
    """Reject labels outside {0, 1} and predictions that are not finite
    probabilities, naming the first offending sample. Call once per
    evaluation, not per bootstrap resample."""
    bad_label = (labels != 0) & (labels != 1)
    bad = bad_label | ~((preds >= 0) & (preds <= 1))  # nan fails both comparisons
    if np.any(bad):
        i = int(np.argmax(bad))
        if bad_label[i]:
            raise MetricInputError(f"label {float(labels[i])!r} is not 0 or 1", i)
        raise MetricInputError(
            f"prediction {float(preds[i])!r} is not a finite probability in [0, 1]", i
        )


def log_loss(labels: Sequence[int], preds: Sequence[float], clip: float = PRED_CLIP) -> float:
    """Mean negative log likelihood; predictions are clipped into
    [clip, 1-clip] so perfectly confident mistakes stay finite."""
    labels, preds = _as_arrays(labels, preds)
    p = np.clip(preds, clip, 1.0 - clip)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)))


def normalized_log_loss(
    labels: Sequence[int], preds: Sequence[float], train_mean_cvr: float
) -> float:
    """Percent improvement in log loss over always predicting the training
    base rate. 0 means no improvement; higher is better."""
    if not 0.0 < train_mean_cvr < 1.0:
        raise ValueError(f"train_mean_cvr must be in (0,1), got {train_mean_cvr}")
    labels, preds = _as_arrays(labels, preds)
    ll = log_loss(labels, preds)
    ll_naive = log_loss(labels, np.full(labels.shape, train_mean_cvr))
    if ll_naive == 0.0:
        raise ValueError("baseline log loss is zero; normalization undefined")
    return 100.0 * (ll_naive - ll) / ll_naive


def pr_auc(labels: Sequence[int], preds: Sequence[float]) -> float:
    """Average precision: mean over positives of precision at that positive's
    rank after a stable descending-score sort (ties keep input order)."""
    labels, preds = _as_arrays(labels, preds)
    n_pos = labels.sum()
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive label")
    order = np.argsort(-preds, kind="stable")
    sorted_labels = labels[order]
    cum_pos = np.cumsum(sorted_labels)
    ranks = np.arange(1, labels.size + 1)
    precision_at_pos = (cum_pos / ranks)[sorted_labels == 1]
    return float(precision_at_pos.mean())


def bootstrap_ci(
    metric: Callable[[np.ndarray, np.ndarray], float],
    labels: Sequence[int],
    preds: Sequence[float],
    b: int,
    seed: int,
) -> tuple[float, float]:
    """95% percentile bootstrap interval for ``metric`` over (label, pred)
    pairs resampled with replacement. Deterministic for a fixed seed."""
    if b < 100:
        raise ValueError(f"need at least 100 resamples, got {b}")
    labels, preds = _as_arrays(labels, preds)
    n = labels.size
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0]))
    values = np.empty(b)
    chunk = max(1, min(b, (1 << 22) // max(n, 1)))
    done = 0
    while done < b:
        take = min(chunk, b - done)
        idx = rng.integers(0, n, size=(take, n))
        for i in range(take):
            values[done + i] = metric(labels[idx[i]], preds[idx[i]])
        done += take
    lo, hi = np.percentile(values, [2.5, 97.5])
    return float(lo), float(hi)


@dataclass(frozen=True)
class DelayStats:
    n_conversions: int
    cdf_grid: tuple[int, ...]
    cdf: tuple[float, ...]
    pdf_bin_width: int
    pdf: tuple[float, ...]
    quantiles: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "n_conversions": self.n_conversions,
            "cdf_grid": list(self.cdf_grid),
            "cdf": list(self.cdf),
            "pdf_bin_width": self.pdf_bin_width,
            "pdf": list(self.pdf),
            "quantiles": self.quantiles,
        }


def delay_stats(
    click_ts: np.ndarray,
    conv_ts: np.ndarray,
    grid: Sequence[int] = DEFAULT_CDF_GRID,
    bin_width: int = 3600,
) -> DelayStats:
    """Empirical delay distribution over the converted clicks of a log
    (``conv_ts`` is NO_CONVERSION for the others).

    CDF is evaluated at the grid points (P(delay <= t)); the PDF is a
    normalized histogram with fixed-width bins covering the observed range.
    """
    converted = conv_ts != NO_CONVERSION
    delays = (conv_ts[converted] - click_ts[converted]).astype(float)
    if delays.size == 0:
        raise ValueError("no converted records; delay distribution undefined")
    cdf = tuple(float(np.mean(delays <= t)) for t in grid)
    n_bins = int(delays.max() // bin_width) + 1
    hist, _ = np.histogram(delays, bins=n_bins, range=(0, n_bins * bin_width))
    pdf = tuple((hist / delays.size).tolist())
    qs = {f"p{int(q * 100)}": float(np.quantile(delays, q)) for q in (0.1, 0.25, 0.5, 0.75, 0.9)}
    return DelayStats(
        n_conversions=int(delays.size),
        cdf_grid=tuple(int(t) for t in grid),
        cdf=cdf,
        pdf_bin_width=bin_width,
        pdf=pdf,
        quantiles=qs,
    )


@dataclass(frozen=True)
class EvalReport:
    ll: float
    ll_ci: tuple[float, float]
    nll: float
    nll_ci: tuple[float, float]
    pr_auc: float
    pr_auc_ci: tuple[float, float]
    n_test: int
    mean_pred: float
    mean_label: float
    train_mean_cvr: float

    def __post_init__(self):
        if self.ll < 0 or not 0.0 <= self.pr_auc <= 1.0:
            raise ValueError("metric out of range")
        for point, (lo, hi) in (
            (self.ll, self.ll_ci),
            (self.nll, self.nll_ci),
            (self.pr_auc, self.pr_auc_ci),
        ):
            if not lo <= point <= hi:
                raise ValueError(f"CI ({lo}, {hi}) does not bracket point {point}")

    def to_flat_dict(self) -> dict:
        return {
            "ll": self.ll,
            "ll_lo": self.ll_ci[0],
            "ll_hi": self.ll_ci[1],
            "nll": self.nll,
            "nll_lo": self.nll_ci[0],
            "nll_hi": self.nll_ci[1],
            "pr_auc": self.pr_auc,
            "pr_auc_lo": self.pr_auc_ci[0],
            "pr_auc_hi": self.pr_auc_ci[1],
            "n_test": self.n_test,
            "mean_pred": self.mean_pred,
            "mean_label": self.mean_label,
            "train_mean_cvr": self.train_mean_cvr,
        }


def evaluate_predictions(
    labels: Sequence[int],
    preds: Sequence[float],
    train_mean_cvr: float,
    *,
    bootstrap_b: int = 200,
    seed: int = 0,
) -> EvalReport:
    """Full per-split report with bootstrap CIs for every metric.

    Raises MetricInputError for a label outside {0, 1} or a prediction that
    is not a finite probability.

    Bootstrap resamples that lose all positives fall back to the point
    estimate for average precision (keeps the CI well-defined on skewed
    data). Percentile intervals are widened, if necessary, to bracket the
    point estimate.
    """
    labels_arr, preds_arr = _as_arrays(labels, preds)
    _validate_inputs(labels_arr, preds_arr)
    ll = log_loss(labels_arr, preds_arr)
    nll = normalized_log_loss(labels_arr, preds_arr, train_mean_cvr)
    ap = pr_auc(labels_arr, preds_arr)

    def nll_metric(lab: np.ndarray, pr: np.ndarray) -> float:
        return normalized_log_loss(lab, pr, train_mean_cvr)

    def ap_metric(lab: np.ndarray, pr: np.ndarray) -> float:
        if lab.sum() == 0:
            return ap
        return pr_auc(lab, pr)

    ll_ci = bootstrap_ci(log_loss, labels_arr, preds_arr, bootstrap_b, seed)
    nll_ci = bootstrap_ci(nll_metric, labels_arr, preds_arr, bootstrap_b, seed + 1)
    ap_ci = bootstrap_ci(ap_metric, labels_arr, preds_arr, bootstrap_b, seed + 2)

    def bracket(point: float, ci: tuple[float, float]) -> tuple[float, float]:
        return (min(ci[0], point), max(ci[1], point))

    return EvalReport(
        ll=ll,
        ll_ci=bracket(ll, ll_ci),
        nll=nll,
        nll_ci=bracket(nll, nll_ci),
        pr_auc=ap,
        pr_auc_ci=bracket(ap, ap_ci),
        n_test=int(labels_arr.size),
        mean_pred=float(preds_arr.mean()),
        mean_label=float(labels_arr.mean()),
        train_mean_cvr=float(train_mean_cvr),
    )
