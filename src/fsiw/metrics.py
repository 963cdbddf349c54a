"""Test-set metrics with percentile-bootstrap confidence intervals, and
delay-distribution summaries (``delay_stats``, read on the fixed
``CDF_GRID`` and ``PDF_BIN_WIDTH`` bins).

A report scores a prediction column against 0/1 labels three ways:

* log loss, the mean negative log likelihood, with predictions clipped
  into [PRED_CLIP, 1 - PRED_CLIP] so that a confident mistake stays finite;
* normalized log loss, the percent improvement in log loss over always
  predicting the training base rate: 0 means none, higher is better;
* average precision, the mean over positives of the precision at each
  positive's rank, after a stable descending sort of the scores: rows with
  equal scores keep their input order.

``evaluate_columns`` scores several prediction columns of the same test rows
(a split's trainers, or its deadlines) from one stream of bootstrap
resamples, and ``evaluate_predictions`` is its one-column case; every column
gets the report ``evaluate_predictions`` gives it alone, bit for bit. All
three statistics of a resample come from per-row columns prepared once per
call. A resample is a multiset of rows: its log losses are those of its
rows, and its average precision is that of its rows listed in row order, so
the order of the draws plays no part.

The draws come in blocks of index rows, each drawn once for all columns.
While a block is scored, one helper thread draws the next (the draws release
the GIL, so on a second core they overlap the scoring); the draws are the same
values in the same order as drawn inline. The two blocks in flight and what
one of them gathers for all columns at once fill at most ``_BLOCK_DRAWS``
values, so memory stays bounded whatever the number of rows, columns and
resamples. A block's log losses under the models are row means of one
gather of every column's log likelihoods. Average precision gathers one small
slot number per row (see ``_Ranking``): one ``bincount`` counts the draws per
slot for every column and resample of the block, and one cumulative sum ranks
them; no resample is sorted. Only each resample's final mean of precisions is
a call of its own. A resample's log loss under the base rate follows from its
number of drawn positives alone (``_base_rate_loss``), which those counts
hold, so it needs no gather.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

PRED_CLIP = 1e-15
# the most bootstrap indices in flight at once (the block being scored and the
# one being drawn), together with the values gathered with the first from
# every prediction column: 2 MiB of int64 or float64
_BLOCK_DRAWS = 1 << 18

# delay_stats: the delays (s) its CDF is read at, and the width (s) of its PDF bins
CDF_GRID = (
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
PDF_BIN_WIDTH = 3600
# the most PDF bins delay_stats allocates: 2^20 hours, about 120 years
PDF_MAX_BINS = 1 << 20


def _as_arrays(labels: Sequence[int], preds: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=float)
    preds = np.asarray(preds, dtype=float)
    if labels.ndim != 1 or preds.ndim != 1:
        raise ValueError(f"expected 1-D inputs, got shapes {labels.shape} and {preds.shape}")
    if labels.shape != preds.shape:
        raise ValueError(f"length mismatch: {labels.shape} labels vs {preds.shape} predictions")
    if labels.size == 0:
        raise ValueError("empty input")
    return labels, preds


class MetricInputError(ValueError):
    """A label or prediction outside its domain; ``index`` is the first bad
    sample of the first prediction column, ``column``, that has one."""

    def __init__(self, detail: str, index: int, column: int = 0):
        super().__init__(f"sample {index}: {detail}")
        self.detail = detail
        self.index = index
        self.column = column


def _validate_inputs(labels: np.ndarray, preds: np.ndarray) -> None:
    """Reject labels outside {0, 1} and predictions (one row per column) that
    are not finite probabilities, naming the first offending sample of the
    first column that has one. Call once per evaluation, not per bootstrap
    resample."""
    bad_label = (labels != 0) & (labels != 1)
    bad = bad_label | ~((preds >= 0) & (preds <= 1))  # nan fails both comparisons
    if np.any(bad):
        column, i = divmod(int(np.argmax(bad)), labels.size)
        if bad_label[i]:
            raise MetricInputError(f"label {float(labels[i])!r} is not 0 or 1", i, column)
        raise MetricInputError(
            f"prediction {float(preds[column, i])!r} is not a finite probability in [0, 1]",
            i,
            column,
        )


def _log_terms(labels: np.ndarray, preds: np.ndarray) -> np.ndarray:
    """Each row's log likelihood; log loss is minus their mean."""
    p = np.clip(preds, PRED_CLIP, 1.0 - PRED_CLIP)
    return labels * np.log(p) + (1.0 - labels) * np.log1p(-p)


def _mean_loss(terms: np.ndarray) -> float:
    return float(-np.mean(terms))


def _base_rate_loss(positives: int | np.ndarray, n: int, base_rate: float) -> float | np.ndarray:
    """Log loss of predicting ``base_rate`` for each of ``n`` rows of which
    ``positives`` (a count, or an array of counts) are positive: the mean of
    their ``_log_terms``, which take only two values, from the count alone."""
    c = np.clip(base_rate, PRED_CLIP, 1.0 - PRED_CLIP)
    return -(positives * np.log(c) + (n - positives) * np.log1p(-c)) / n


def _normalized_loss(loss: float | np.ndarray, base_loss: float | np.ndarray) -> float | np.ndarray:
    """Normalized log loss of rows whose log loss is ``loss`` under the model
    and ``base_loss`` under the base rate (floats, or arrays of them)."""
    return 100.0 * (base_loss - loss) / base_loss


def _resample_blocks(n: int, b: int, seed: int, columns: int = 0) -> Iterator[np.ndarray]:
    """The ``b`` index rows of the bootstrap over ``n`` rows seeded by
    ``seed``, drawn in blocks of at most ``_BLOCK_DRAWS // (2 + columns)``
    indices (one row per block once a row is longer), so that two blocks and
    a gather of one from ``columns`` columns fit in ``_BLOCK_DRAWS`` values.

    The rows are those of one ``integers(0, n, size=(b, n))`` call on the
    same generator: below 2**32 each index comes from the bit generator's
    stream of 32-bit values, which carries on from one call to the next, so
    the block size bounds memory and changes no draw. When there is more
    than one block, a helper thread draws each next block while the caller
    holds the current one (``_drawn_ahead``)."""
    if b < 100:
        raise ValueError(f"need at least 100 resamples, got {b}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0]))
    per_block = max(1, _BLOCK_DRAWS // (n * (2 + columns)))
    sizes = [min(per_block, b - done) for done in range(0, b, per_block)]
    if len(sizes) == 1:
        return (rng.integers(0, n, size=(b, n)) for _ in sizes)
    return _drawn_ahead(rng, n, sizes)


def _drawn_ahead(rng: np.random.Generator, n: int, sizes: list[int]) -> Iterator[np.ndarray]:
    """``rng.integers(0, n, size=(size, n))`` for each of ``sizes`` in turn,
    each drawn by one worker thread while the caller holds the one before.

    The caller asks for a block (``requests``) and the worker answers with
    it or with the exception its draw raised (``answers``), so at most two
    blocks exist at once and only the worker touches ``rng``. The worker is
    stopped and joined when the blocks run out, on ``close()``, and when an
    exception in the caller finalizes this generator."""
    requests: queue.SimpleQueue = queue.SimpleQueue()
    answers: queue.SimpleQueue = queue.SimpleQueue()

    def draw() -> None:
        for size in iter(requests.get, None):
            try:
                answers.put(rng.integers(0, n, size=(size, n)))
            except BaseException as exc:  # raised again in the caller
                answers.put(exc)
                return

    worker = threading.Thread(target=draw, name="fsiw-bootstrap-draws", daemon=True)
    worker.start()
    try:
        requests.put(sizes[0])
        for ahead in [*sizes[1:], None]:
            block = answers.get()
            if isinstance(block, BaseException):
                raise block
            if ahead is not None:
                requests.put(ahead)
            yield block
    finally:
        requests.put(None)
        worker.join()


class _Ranking:
    """The rows in one stable descending sort of their scores, from which the
    average precision of any resample of them follows without a sort.

    A resample's rows, listed in row order and sorted the same way, take the
    rows' places in ascending order, each as often as it was drawn: rows of
    equal score keep their row order, so the order of the draws plays no part.
    A positive's rank is the positives ranked at or above it plus the
    negatives above it.

    So each row gets a ``slot``, in place order. The places are cut into
    pairs of slots, a run of negatives then a run of positives (either may be
    empty): a pair opens at the first place and wherever a negative follows a
    positive, and a row's slot is ``2 * pair + hit``. Slots are stored in the
    smallest unsigned dtype that holds them all.
    """

    def __init__(self, labels: np.ndarray, preds: np.ndarray):
        order = np.argsort(-preds, kind="stable")
        n = order.size
        hit = labels[order] == 1
        opens = np.r_[True, hit[:-1] & ~hit[1:]]
        pair = np.cumsum(opens) - 1
        self.n_slots = 2 * int(pair[-1] + 1)
        self.slot = np.empty(n, dtype=np.min_scalar_type(self.n_slots - 1))
        self.slot[order] = 2 * pair + hit

    def average_precision(self, slots: np.ndarray, fallback: float) -> float:
        """Average precision of the resample whose rows have these ``slots``,
        listed in row order; ``fallback`` if it has no positive."""
        counts = np.bincount(slots, minlength=self.n_slots)
        return float(self.average_precisions(counts[None], fallback)[0])

    def average_precisions(self, counts: np.ndarray, fallback: float) -> np.ndarray:
        """``average_precision`` of each resample whose draws per slot are a
        row of ``counts``.

        The precisions at every positive copy of all the resamples are one
        array, resample after resample; each resample's mean of its own part
        is the only call per resample (``np.add.reduce`` over the count: the
        arithmetic of ``mean`` without its overhead)."""
        hits = counts[:, 1::2]
        n_pos = hits.sum(axis=1)
        ends = np.cumsum(n_pos)
        # negatives ranked above each positive copy, in rank order
        above = np.repeat(np.cumsum(counts[:, 0::2], axis=1), hits.ravel())
        # positives ranked at or above it: 1, 2, ... within each resample
        k = np.arange(1, ends[-1] + 1)
        k -= np.repeat(ends - n_pos, n_pos)
        above += k
        precision = k / above
        return np.array(
            [
                np.add.reduce(precision[end - m : end]) / m if m else fallback
                for end, m in zip(ends.tolist(), n_pos.tolist())
            ]
        )


def delay_stats(click_ts: np.ndarray, conv_ts: np.ndarray) -> dict:
    """Empirical delay distribution over the converted clicks of a log
    (``conv_ts`` is NO_CONVERSION for the others), as a JSON-ready dict.

    ``cdf`` is P(delay <= t) at each point t of ``cdf_grid`` (``CDF_GRID``);
    ``pdf`` is a normalized histogram with ``pdf_bin_width``-second bins
    (``PDF_BIN_WIDTH``) covering the observed range; ``quantiles`` maps p10,
    p25, p50, p75 and p90 to seconds. A delay that would need more than
    ``PDF_MAX_BINS`` bins is a ValueError that names it.
    """
    from .data import NO_CONVERSION  # here, so that fsiw eval loads no scipy

    converted = conv_ts != NO_CONVERSION
    raw = conv_ts[converted] - click_ts[converted]
    if raw.size == 0:
        raise ValueError("no converted records; delay distribution undefined")
    longest = int(raw.max())
    n_bins = longest // PDF_BIN_WIDTH + 1
    if n_bins > PDF_MAX_BINS:
        raise ValueError(
            f"longest delay {longest}s needs {n_bins} pdf bins of {PDF_BIN_WIDTH}s, "
            f"more than {PDF_MAX_BINS}"
        )
    delays = raw.astype(float)
    hist, _ = np.histogram(delays, bins=n_bins, range=(0, n_bins * PDF_BIN_WIDTH))
    return {
        "n_conversions": int(delays.size),
        "cdf_grid": list(CDF_GRID),
        "cdf": [float(np.mean(delays <= t)) for t in CDF_GRID],
        "pdf_bin_width": PDF_BIN_WIDTH,
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


def _slot_counts(slot: np.ndarray, block: np.ndarray, width: int) -> np.ndarray:
    """The draws per slot of each resample of ``block``, one row each: one
    ``bincount`` of the slots (``slot``, one row per column, offset so that
    the columns fill ``width`` slots) that the block draws, offset by
    ``width`` per resample. A function of its own, so that the gathered
    slots are freed before the block is ranked."""
    drawn = np.take(slot, block, axis=1)
    drawn += (np.arange(len(block)) * width)[:, None]
    return np.bincount(drawn.ravel(), minlength=len(block) * width).reshape(len(block), width)


def evaluate_columns(
    labels: Sequence[int],
    columns: Sequence[Sequence[float]],
    train_mean_cvr: float,
    *,
    bootstrap_b: int = 200,
    seed: int = 0,
) -> list[EvalReport]:
    """``evaluate_predictions`` of each prediction column in ``columns``
    against the same ``labels``, bit for bit, from one pass over the
    resamples (see the module docstring): the models' log losses of a block
    come from one gather, and the base rate's from each resample's drawn
    positives.

    Raises MetricInputError, whose ``column`` is the first column with a
    label or prediction outside its domain.
    """
    if not len(columns):
        raise ValueError("no prediction column to score")
    labels_arr, _ = _as_arrays(labels, columns[0])
    preds = np.stack([_as_arrays(labels_arr, column)[1] for column in columns])
    _validate_inputs(labels_arr, preds)
    if not 0.0 < train_mean_cvr < 1.0:
        raise ValueError(f"train_mean_cvr must be in (0,1), got {train_mean_cvr}")
    if not labels_arr.any():
        raise ValueError("average precision needs at least one positive label")
    n_cols, n = preds.shape
    terms = _log_terms(labels_arr, preds)
    base_ll = _mean_loss(_log_terms(labels_arr, np.full(n, train_mean_cvr, dtype=float)))
    rankings = [_Ranking(labels_arr, column) for column in preds]
    lls = [_mean_loss(column_terms) for column_terms in terms]
    # the identity draw has a positive
    aps = [ranking.average_precision(ranking.slot, 0.0) for ranking in rankings]
    starts = np.cumsum([0] + [ranking.n_slots for ranking in rankings]).tolist()
    width = starts[-1]
    slot = np.stack([r.slot.astype(np.intp) + start for r, start in zip(rankings, starts)])

    stats = np.empty((n_cols, 3, bootstrap_b))
    done = 0
    for block in _resample_blocks(n, bootstrap_b, seed, n_cols):
        rows = slice(done, done + len(block))
        # take, not terms[:, block], whose rows would not be contiguous: a
        # strided row mean does not sum in the pairs of the 1-D mean
        loss = -np.take(terms, block, axis=1).mean(axis=-1)
        stats[:, 0, rows] = loss
        counts = _slot_counts(slot, block, width)
        # column 0's hit slots count each resample's drawn positives
        positives = counts[:, 1 : starts[1] : 2].sum(axis=1)
        stats[:, 1, rows] = _normalized_loss(loss, _base_rate_loss(positives, n, train_mean_cvr))
        for j, ranking in enumerate(rankings):
            column_counts = counts[:, starts[j] : starts[j + 1]]
            stats[j, 2, rows] = ranking.average_precisions(column_counts, aps[j])
        done += len(block)

    lows, highs = np.percentile(stats, [2.5, 97.5], axis=-1).tolist()
    reports = []
    for j in range(n_cols):
        points = (lls[j], _normalized_loss(lls[j], base_ll), aps[j])
        ends = zip(points, lows[j], highs[j])
        reports.append(
            EvalReport(
                *(v for point, lo, hi in ends for v in (point, min(lo, point), max(hi, point))),
                n_test=n,
                mean_pred=float(preds[j].mean()),
                mean_label=float(labels_arr.mean()),
                train_mean_cvr=float(train_mean_cvr),
            )
        )
    return reports


def evaluate_predictions(
    labels: Sequence[int],
    preds: Sequence[float],
    train_mean_cvr: float,
    *,
    bootstrap_b: int = 200,
    seed: int = 0,
) -> EvalReport:
    """Full per-split report: log loss, normalized log loss against the base
    rate ``train_mean_cvr`` and average precision (see the module
    docstring), each with the ends of its 95% percentile interval over
    ``bootstrap_b`` bootstrap resamples of the rows, drawn from ``seed``.

    Raises MetricInputError for a label outside {0, 1} or a prediction that
    is not a finite probability, and ValueError for columns that are not 1-D
    or not of one non-zero length, a base rate outside (0, 1), labels without
    a positive, or fewer than 100 resamples.

    Bootstrap resamples that lose all positives fall back to the point
    estimate for average precision (keeps the CI well-defined on skewed
    data). Percentile intervals are widened, if necessary, to bracket the
    point estimate.

    The three intervals share one stream of resamples (``_resample_blocks``).
    Each resample's log losses are those of its rows, and its average
    precision is that of its rows listed in row order. This is
    ``evaluate_columns`` of one column.
    """
    return evaluate_columns(
        labels, [preds], train_mean_cvr, bootstrap_b=bootstrap_b, seed=seed
    )[0]
