"""Evaluation metrics: log loss, its normalized form, average precision,
percentile-bootstrap confidence intervals, and delay-distribution summaries.

Average precision ranks rows by a stable descending sort of the scores, so
rows with equal scores keep their input order (in a bootstrap resample: the
order in which they were drawn).

The bootstrap CIs of ``evaluate_predictions`` are exact: every resample's
statistic is the value ``log_loss``, ``normalized_log_loss`` and ``pr_auc``
return on the resampled rows, bit for bit, but it comes from per-row columns
prepared once per call, and each statistic gathers only the columns it reads.
The log losses gather each row's log likelihood. Average precision gathers
one small slot number per row (see ``_Ranking``), counts the draws per slot
and ranks them with one cumulative sum; only the draws that land in a tie
group holding both labels are ordered, by a stable radix sort. The draws
come in blocks of at most ``_BLOCK_DRAWS`` indices, so memory stays bounded
whatever the number of rows and resamples.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

PRED_CLIP = 1e-15
NO_POSITIVE = "average precision needs at least one positive label"
# the most bootstrap indices drawn at once: 2 MiB of int64
_BLOCK_DRAWS = 1 << 18

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


def _as_arrays(
    labels: Sequence[int], preds: Sequence[float], dtype: type | None = float
) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=dtype)
    preds = np.asarray(preds, dtype=dtype)
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


def _log_terms(labels: np.ndarray, preds: np.ndarray, clip: float = PRED_CLIP) -> np.ndarray:
    """Each row's log likelihood; log loss is minus their mean."""
    p = np.clip(preds, clip, 1.0 - clip)
    return labels * np.log(p) + (1.0 - labels) * np.log1p(-p)


def _mean_loss(terms: np.ndarray) -> float:
    return float(-np.mean(terms))


def log_loss(labels: Sequence[int], preds: Sequence[float], clip: float = PRED_CLIP) -> float:
    """Mean negative log likelihood; predictions are clipped into
    [clip, 1-clip] so perfectly confident mistakes stay finite."""
    labels, preds = _as_arrays(labels, preds)
    return _mean_loss(_log_terms(labels, preds, clip))


def _check_base_rate(train_mean_cvr: float) -> None:
    if not 0.0 < train_mean_cvr < 1.0:
        raise ValueError(f"train_mean_cvr must be in (0,1), got {train_mean_cvr}")


def _normalized_loss(terms: np.ndarray, base_terms: np.ndarray) -> float:
    """``normalized_log_loss`` of the rows whose log likelihoods under the
    model and under the base rate are ``terms`` and ``base_terms``."""
    ll_naive = _mean_loss(base_terms)
    return 100.0 * (ll_naive - _mean_loss(terms)) / ll_naive


def normalized_log_loss(
    labels: Sequence[int], preds: Sequence[float], train_mean_cvr: float
) -> float:
    """Percent improvement in log loss over always predicting the training
    base rate. 0 means no improvement; higher is better."""
    _check_base_rate(train_mean_cvr)
    labels, preds = _as_arrays(labels, preds)
    ll = log_loss(labels, preds)
    ll_naive = log_loss(labels, np.full(labels.shape, train_mean_cvr))
    if ll_naive == 0.0:
        raise ValueError("baseline log loss is zero; normalization undefined")
    return 100.0 * (ll_naive - ll) / ll_naive


def pr_auc(labels: Sequence[int], preds: Sequence[float]) -> float:
    """Average precision: mean over positives of precision at that positive's
    rank after a stable descending-score sort. Ties keep input order, so
    within a group of equal scores that holds both labels the value depends
    on the order of the rows."""
    labels, preds = _as_arrays(labels, preds)
    n_pos = labels.sum()
    if n_pos == 0:
        raise ValueError(NO_POSITIVE)
    order = np.argsort(-preds, kind="stable")
    sorted_labels = labels[order]
    cum_pos = np.cumsum(sorted_labels)
    ranks = np.arange(1, labels.size + 1)
    precision_at_pos = (cum_pos / ranks)[sorted_labels == 1]
    return float(precision_at_pos.mean())


def _resamples(n: int, b: int, seed: int) -> Iterator[np.ndarray]:
    """The ``b`` index rows of the bootstrap over ``n`` rows seeded by
    ``seed``, drawn in blocks of at most ``_BLOCK_DRAWS`` indices (one row
    per block once a row is longer).

    The rows are those of one ``integers(0, n, size=(b, n))`` call on the
    same generator: below 2**32 each index comes from the bit generator's
    stream of 32-bit values, which carries on from one call to the next, so
    the block size bounds memory and changes no draw."""
    if b < 100:
        raise ValueError(f"need at least 100 resamples, got {b}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0]))
    per_block = max(1, _BLOCK_DRAWS // n)
    blocks = (
        rng.integers(0, n, size=(min(per_block, b - done), n)) for done in range(0, b, per_block)
    )
    return (row for block in blocks for row in block)


def _interval(values: Iterable[float]) -> tuple[float, float]:
    """95% percentile interval of the resample statistics."""
    lo, hi = np.percentile(np.fromiter(values, float), [2.5, 97.5])
    return float(lo), float(hi)


def bootstrap_ci(
    metric: Callable[[np.ndarray, np.ndarray], float],
    labels: Sequence[int],
    preds: Sequence[float],
    b: int,
    seed: int,
) -> tuple[float, float]:
    """95% percentile bootstrap interval for ``metric`` over (label, pred)
    pairs resampled with replacement. Deterministic for a fixed seed.

    ``labels`` and ``preds`` may be any two per-row columns, of any dtype;
    each resample passes ``metric`` the rows it drew of both, in draw order.
    ``evaluate_predictions`` draws the same rows for its three intervals but
    computes each statistic from prepared columns, which equal the metrics
    on the drawn (label, pred) rows bit for bit."""
    labels, preds = _as_arrays(labels, preds, dtype=None)
    return _interval(metric(labels[r], preds[r]) for r in _resamples(labels.size, b, seed))


class _Ranking:
    """The rows in one stable descending sort of their scores, from which the
    average precision of any resample of them follows without a sort.

    The same sort of a resample lists the rows' places in ascending order,
    each as often as it was drawn, except inside a tie group (rows of equal
    score), where the stable sort keeps the order of the draws. That only
    matters where the group holds both labels ("mixed"), and a positive's
    rank is the positives ranked at or above it plus the negatives above it.

    So each row gets a ``slot``, in place order. The places are cut into
    pairs of slots: a gap of negatives outside mixed groups, then a run of
    positives outside them (either may be empty). Each mixed group has a pair
    of its own, its negatives then its positives; its rows' slots sit above
    ``cut``, one pair per group in place order, so that one comparison finds
    a resample's tied draws, and their counts are moved into the group's
    empty pair below ``cut`` before the cumulative sums. Slots are stored in
    the smallest unsigned dtype that holds them all; a resample's tied draws
    are put in group order by a stable argsort on their slot pair, which
    numpy runs as a radix sort while slots fit 16 bits and as a timsort
    beyond.
    """

    def __init__(self, labels: np.ndarray, preds: np.ndarray):
        order = np.argsort(-preds, kind="stable")
        n = order.size
        hit = labels[order] == 1
        scores = preds[order]
        starts = np.flatnonzero(np.r_[True, scores[1:] != scores[:-1]])
        sizes = np.diff(np.r_[starts, n])
        n_hits = np.add.reduceat(hit, starts, dtype=np.intp)
        is_mixed = (n_hits > 0) & (n_hits < sizes)
        mixed = np.repeat(is_mixed, sizes)
        opens_group = np.zeros(n, dtype=bool)
        opens_group[starts[is_mixed]] = True
        gap = ~hit & ~mixed
        # a place opens a pair where a gap begins, where a run of positives
        # follows a mixed group, and where a mixed group begins
        opens = gap & ~np.r_[False, gap[:-1]]
        opens |= hit & ~mixed & np.r_[False, mixed[:-1]]
        opens |= opens_group
        opens[0] = True
        pair = np.cumsum(opens) - 1
        self.cut = 2 * int(pair[-1] + 1)
        self.group_pair = pair[opens_group]
        self.home = (2 * self.group_pair[:, None] + np.arange(2)).ravel()
        self.n_slots = self.cut + self.home.size
        slot = 2 * pair + hit
        slot[mixed] = self.cut + 2 * (np.cumsum(opens_group)[mixed] - 1) + hit[mixed]
        self.slot = np.empty(n, dtype=np.min_scalar_type(self.n_slots - 1))
        self.slot[order] = slot
        # k[j] = j + 1: the positives ranked at or above the j-th positive copy
        self.k = np.arange(1, n + 1)

    def average_precision(self, slots: np.ndarray, fallback: float) -> float:
        """``pr_auc`` of the resample whose rows have these ``slots``, in draw
        order; ``fallback`` if it has no positive."""
        cut = self.cut
        counts = np.bincount(slots, minlength=self.n_slots)
        counts[self.home] = counts[cut:]
        hits = counts[1:cut:2]
        n_pos = int(hits.sum())
        if n_pos == 0:
            return fallback
        negs = np.cumsum(counts[0:cut:2])  # negatives at or above each pair
        # negatives ranked above each positive copy, in rank order
        above = np.repeat(negs, hits)
        if counts[cut:].any():
            # In a mixed group the draws keep their order, so a positive there
            # has above it the negatives above its group and the group's
            # negatives drawn before it. With the tied draws sorted by group,
            # the ``at[j] - j`` negatives before the j-th tied positive are
            # those, plus the negatives of the groups above it.
            drawn = slots[slots >= cut]
            drawn = drawn[np.argsort(drawn >> 1, kind="stable")]
            at = np.flatnonzero(drawn & 1)
            j = np.arange(at.size)
            group_negs, group_hits = counts[cut::2], counts[cut + 1 :: 2]
            # the j-th tied positive's index among all positive copies is j
            # plus, for its group, the positives above it that are not tied
            first = np.cumsum(hits)[self.group_pair] - np.cumsum(group_hits)
            # and the negatives above its group that are not tied
            outside = negs[self.group_pair] - np.cumsum(group_negs)
            above[np.repeat(first, group_hits) + j] = np.repeat(outside, group_hits) + at - j
        k = self.k[:n_pos]
        return float((k / (k + above)).mean())


def delay_stats(
    click_ts: np.ndarray,
    conv_ts: np.ndarray,
    grid: Sequence[int] = DEFAULT_CDF_GRID,
    bin_width: int = 3600,
) -> dict:
    """Empirical delay distribution over the converted clicks of a log
    (``conv_ts`` is NO_CONVERSION for the others), as a JSON-ready dict.

    ``cdf`` is P(delay <= t) at each ``cdf_grid`` point; ``pdf`` is a
    normalized histogram with ``pdf_bin_width``-second bins covering the
    observed range; ``quantiles`` maps p10, p25, p50, p75 and p90 to seconds.
    """
    from .data import NO_CONVERSION  # here, so that fsiw eval loads no scipy

    converted = conv_ts != NO_CONVERSION
    delays = (conv_ts[converted] - click_ts[converted]).astype(float)
    if delays.size == 0:
        raise ValueError("no converted records; delay distribution undefined")
    n_bins = int(delays.max() // bin_width) + 1
    hist, _ = np.histogram(delays, bins=n_bins, range=(0, n_bins * bin_width))
    return {
        "n_conversions": int(delays.size),
        "cdf_grid": [int(t) for t in grid],
        "cdf": [float(np.mean(delays <= t)) for t in grid],
        "pdf_bin_width": bin_width,
        "pdf": (hist / delays.size).tolist(),
        "quantiles": {
            f"p{int(q * 100)}": float(np.quantile(delays, q)) for q in (0.1, 0.25, 0.5, 0.75, 0.9)
        },
    }


@dataclass(frozen=True)
class EvalReport:
    """One test set's scores, each with the ends of its 95% bootstrap interval;
    the fields, in order, are the columns of a report row after its split,
    trainer and tau."""

    ll: float
    ll_lo: float
    ll_hi: float
    nll: float
    nll_lo: float
    nll_hi: float
    pr_auc: float
    pr_auc_lo: float
    pr_auc_hi: float
    n_test: int
    mean_pred: float
    mean_label: float
    train_mean_cvr: float

    def __post_init__(self):
        if self.ll < 0 or not 0.0 <= self.pr_auc <= 1.0:
            raise ValueError("metric out of range")
        for name in ("ll", "nll", "pr_auc"):
            point, lo, hi = (getattr(self, name + end) for end in ("", "_lo", "_hi"))
            if not lo <= point <= hi:
                raise ValueError(f"CI ({lo}, {hi}) does not bracket point {point}")

    def to_flat_dict(self) -> dict:
        return asdict(self)


def evaluate_predictions(
    labels: Sequence[int],
    preds: Sequence[float],
    train_mean_cvr: float,
    *,
    bootstrap_b: int = 200,
    seed: int = 0,
) -> EvalReport:
    """Full per-split report: each metric with the ends of its 95% bootstrap
    interval.

    Raises MetricInputError for a label outside {0, 1} or a prediction that
    is not a finite probability.

    Bootstrap resamples that lose all positives fall back to the point
    estimate for average precision (keeps the CI well-defined on skewed
    data). Percentile intervals are widened, if necessary, to bracket the
    point estimate.

    The point estimates and every resample's statistic come from columns
    prepared once: each row's log likelihood under the model (``terms``) and
    under the base rate (``base_terms``), and its ``_Ranking`` slot. The three
    intervals draw the rows ``bootstrap_ci`` would draw with seeds ``seed``,
    ``seed + 1`` and ``seed + 2``, one block of at most ``_BLOCK_DRAWS``
    indices at a time, and gather only the columns their statistic reads.
    """
    labels_arr, preds_arr = _as_arrays(labels, preds)
    _validate_inputs(labels_arr, preds_arr)
    _check_base_rate(train_mean_cvr)
    if not labels_arr.any():
        raise ValueError(NO_POSITIVE)
    n = labels_arr.size
    terms = _log_terms(labels_arr, preds_arr)
    base_terms = _log_terms(labels_arr, np.full(n, train_mean_cvr, dtype=float))
    ranking = _Ranking(labels_arr, preds_arr)
    ll = _mean_loss(terms)
    nll = _normalized_loss(terms, base_terms)
    ap = ranking.average_precision(ranking.slot, 0.0)  # the identity draw has a positive
    slot = ranking.slot

    def interval(point: float, statistic: Callable[[np.ndarray], float], offset: int):
        lo, hi = _interval(map(statistic, _resamples(n, bootstrap_b, seed + offset)))
        return point, min(lo, point), max(hi, point)

    return EvalReport(
        *interval(ll, lambda r: _mean_loss(terms[r]), 0),
        *interval(nll, lambda r: _normalized_loss(terms[r], base_terms[r]), 1),
        *interval(ap, lambda r: ranking.average_precision(slot[r], ap), 2),
        n_test=n,
        mean_pred=float(preds_arr.mean()),
        mean_label=float(labels_arr.mean()),
        train_mean_cvr=float(train_mean_cvr),
    )
