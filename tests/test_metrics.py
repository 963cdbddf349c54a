"""Metric hand-checks, invariance properties and bootstrap behavior, all
read from the reports of the shipping scorer, and the delay-distribution
summary."""

from __future__ import annotations

import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fsiw.metrics
from fsiw.data import NO_CONVERSION
from fsiw.metrics import (
    CDF_GRID,
    PDF_BIN_WIDTH,
    PDF_MAX_BINS,
    EvalReport,
    MetricInputError,
    _log_terms,
    _mean_loss,
    _normalized_loss,
    _Ranking,
    _resample_blocks,
    delay_stats,
    evaluate_columns,
    evaluate_predictions,
)

DAY = 86400


def _report(labels, preds, base: float = 0.5, *, bootstrap_b: int = 100, seed: int = 0):
    return evaluate_predictions(labels, preds, base, bootstrap_b=bootstrap_b, seed=seed)


def test_log_loss_single_positive_at_half() -> None:
    assert _report([1], [0.5]).ll == pytest.approx(math.log(2), abs=1e-12)


def test_log_loss_single_negative() -> None:
    # average precision needs a positive; at 0.75 it costs what the
    # negative at 0.25 costs
    assert _report([0, 1], [0.25, 0.75]).ll == pytest.approx(-math.log(0.75), abs=1e-12)


def test_log_loss_clips_confident_predictions_finite() -> None:
    loss = _report([1], [1.0]).ll
    assert math.isfinite(loss)
    assert loss == pytest.approx(0.0, abs=1e-12)
    # symmetric case: certain-and-wrong is finite too
    assert math.isfinite(_report([1], [0.0]).ll)


def test_log_loss_rejects_bad_shapes() -> None:
    with pytest.raises(ValueError, match="mismatch"):
        _report([1, 0], [0.5])
    with pytest.raises(ValueError, match="empty"):
        _report([], [])


def test_log_loss_is_permutation_invariant() -> None:
    rng = np.random.default_rng(0)
    labels = (rng.random(200) < 0.3).astype(int)
    preds = rng.uniform(0.01, 0.99, 200)
    perm = rng.permutation(200)
    assert _report(labels, preds).ll == pytest.approx(
        _report(labels[perm], preds[perm]).ll, abs=1e-12
    )


def test_metric_inputs_must_be_one_dimensional() -> None:
    with pytest.raises(ValueError, match=r"1-D inputs, got shapes \(3, 1\) and \(3, 1\)"):
        evaluate_predictions([[1], [0], [1]], [[0.9], [0.1], [0.5]], 0.5)
    with pytest.raises(ValueError, match=r"shapes \(\) and \(\)"):
        evaluate_predictions(1, 0.5, 0.5)


def test_nll_zero_when_matching_the_baseline() -> None:
    labels = [1, 0, 0, 1, 0]
    base = sum(labels) / len(labels)
    assert _report(labels, [base] * 5, base).nll == pytest.approx(0.0, abs=1e-12)


def test_nll_is_percent_improvement() -> None:
    # baseline loss ln 2; predictions engineered so the model loss is
    # exactly 80% of it, i.e. a 20.0 improvement score
    a = 2 ** -0.8
    got = _report([1, 0], [a, 1 - a], 0.5).nll
    assert got == pytest.approx(20.0, abs=1e-9)


def test_nll_validates_base_rate() -> None:
    with pytest.raises(ValueError, match="train_mean_cvr"):
        _report([1, 0], [0.5, 0.5], 0.0)
    with pytest.raises(ValueError, match="train_mean_cvr"):
        _report([1, 0], [0.5, 0.5], 1.0)


def test_nll_ordering_reverses_log_loss_ordering() -> None:
    rng = np.random.default_rng(3)
    labels = (rng.random(500) < 0.25).astype(int)
    base = float(labels.mean())
    sharp = np.clip(0.25 + 0.5 * (labels - 0.25) + rng.normal(0, 0.05, 500), 0.01, 0.99)
    mild = np.clip(0.25 + 0.2 * (labels - 0.25) + rng.normal(0, 0.05, 500), 0.01, 0.99)
    flat = np.full(500, base)

    reports = evaluate_columns(labels, [sharp, mild, flat], base, bootstrap_b=100)
    lls = [report.ll for report in reports]
    nlls = [report.nll for report in reports]
    assert lls[0] < lls[1] < lls[2]
    assert nlls[0] > nlls[1] > nlls[2]


def test_pr_auc_hand_examples() -> None:
    assert _report([1, 0], [0.9, 0.1]).pr_auc == pytest.approx(1.0)
    assert _report([0, 1], [0.9, 0.1]).pr_auc == pytest.approx(0.5)
    assert _report([1, 1, 0, 0], [0.9, 0.8, 0.7, 0.6]).pr_auc == pytest.approx(1.0)


def test_pr_auc_mixed_ranking_hand_enumeration() -> None:
    # ranks by score: pos, neg, pos, neg -> precisions 1/1 and 2/3
    got = _report([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.6]).pr_auc
    assert got == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)


def test_pr_auc_needs_a_positive() -> None:
    with pytest.raises(ValueError, match="positive"):
        _report([0, 0], [0.4, 0.6])


def _pr_auc_ends(report: EvalReport) -> tuple[float, float, float]:
    return report.pr_auc, report.pr_auc_lo, report.pr_auc_hi


def test_pr_auc_invariant_under_monotone_transform() -> None:
    # the point and both interval ends: every resample keeps its ranking
    rng = np.random.default_rng(5)
    labels = (rng.random(300) < 0.2).astype(int)
    preds = rng.uniform(0.001, 0.999, 300)
    before = _pr_auc_ends(_report(labels, preds))
    assert _pr_auc_ends(_report(labels, np.sqrt(preds))) == before
    assert _pr_auc_ends(_report(labels, preds ** 3)) == before


def test_pr_auc_ties_keep_input_order() -> None:
    # all scores equal: precision after k-th listed positive depends only on
    # input order, so the value is reproducible and order-sensitive
    a = _report([1, 0, 0, 1], [0.5, 0.5, 0.5, 0.5]).pr_auc
    b = _report([0, 0, 1, 1], [0.5, 0.5, 0.5, 0.5]).pr_auc
    assert a == pytest.approx((1.0 + 0.5) / 2.0)
    assert b == pytest.approx((1.0 / 3.0 + 0.5) / 2.0)


def test_bootstrap_zero_width_on_identical_pairs() -> None:
    report = _report([1] * 50, [0.7] * 50, bootstrap_b=200, seed=0)
    assert report.ll_lo == report.ll == report.ll_hi == pytest.approx(-math.log(0.7))


def test_bootstrap_is_deterministic_per_seed() -> None:
    rng = np.random.default_rng(9)
    labels = (rng.random(400) < 0.3).astype(int)
    preds = rng.uniform(0.05, 0.95, 400)
    first = _report(labels, preds, 0.3, bootstrap_b=1000, seed=42)
    second = _report(labels, preds, 0.3, bootstrap_b=1000, seed=42)
    other = _report(labels, preds, 0.3, bootstrap_b=1000, seed=43)
    assert first == second
    assert (first.ll_lo, first.ll_hi) != (other.ll_lo, other.ll_hi)
    assert first.ll_lo < first.ll < first.ll_hi


def test_bootstrap_rejects_too_few_resamples() -> None:
    with pytest.raises(ValueError, match="100"):
        _report([1, 0], [0.6, 0.4], bootstrap_b=99)


def _clicks(delays, ts: int = 1000) -> tuple[np.ndarray, np.ndarray]:
    """(click_ts, conv_ts) of clicks at ``ts``; a delay of None never converts."""
    conv = [NO_CONVERSION if d is None else ts + int(d) for d in delays]
    return np.full(len(conv), ts, dtype=np.int64), np.array(conv, dtype=np.int64)


def test_delay_stats_all_instant_conversions() -> None:
    stats = delay_stats(*_clicks([0] * 10))
    assert stats["n_conversions"] == 10
    assert all(v == 1.0 for v in stats["cdf"])
    assert stats["quantiles"]["p50"] == 0.0


def test_delay_stats_ignores_unconverted_and_requires_some_conversion() -> None:
    stats = delay_stats(*_clicks([0, None, None]))
    assert stats["n_conversions"] == 1
    with pytest.raises(ValueError, match="no converted"):
        delay_stats(*_clicks([None]))


def test_delay_stats_matches_exponential_closed_form() -> None:
    rng = np.random.default_rng(17)
    n = 100_000
    delays = rng.exponential(scale=DAY, size=n)
    stats = delay_stats(*_clicks(delays))
    expected = 1.0 - math.exp(-1.0)
    band = 4 * math.sqrt(expected * (1 - expected) / n)
    assert abs(stats["cdf"][CDF_GRID.index(DAY)] - expected) < band
    # median of an exponential is scale * ln 2
    assert stats["quantiles"]["p50"] == pytest.approx(DAY * math.log(2), rel=0.02)
    # PDF sums to 1 over its bins
    assert sum(stats["pdf"]) == pytest.approx(1.0, abs=1e-9)


def test_delay_stats_rejects_a_delay_past_its_last_pdf_bin() -> None:
    last = PDF_MAX_BINS * PDF_BIN_WIDTH - 1  # the last second of the last bin
    assert len(delay_stats(*_clicks([0, last]))["pdf"]) == PDF_MAX_BINS
    message = (
        f"longest delay {last + 1}s needs {PDF_MAX_BINS + 1} pdf bins of {PDF_BIN_WIDTH}s, "
        f"more than {PDF_MAX_BINS}"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        delay_stats(*_clicks([0, last + 1]))
    # a delay near the int64 limit: 17.8 PiB of bins, never allocated
    with pytest.raises(ValueError, match="^longest delay 9000000000000000000s needs "):
        delay_stats(*_clicks([9_000_000_000_000_000_000], ts=0))


def test_delay_stats_default_grid_is_monotone() -> None:
    rng = np.random.default_rng(23)
    stats = delay_stats(*_clicks(rng.exponential(scale=2 * DAY, size=5000)))
    assert stats["cdf_grid"] == list(CDF_GRID)
    assert all(a <= b for a, b in zip(stats["cdf"], stats["cdf"][1:]))


def test_evaluate_predictions_report_contents() -> None:
    rng = np.random.default_rng(31)
    labels = (rng.random(500) < 0.3).astype(int)
    preds = np.clip(labels * 0.5 + rng.uniform(0.05, 0.45, 500), 0.01, 0.99)
    report = evaluate_predictions(labels, preds, 0.3, bootstrap_b=200, seed=7)
    assert report.ll == pytest.approx(_reference_log_loss(labels, preds))
    assert report.nll == pytest.approx(_reference_nll(labels, preds, 0.3))
    assert report.pr_auc == pytest.approx(_reference_pr_auc(labels, preds))
    assert report.n_test == 500
    assert report.mean_label == pytest.approx(labels.mean())
    assert report.mean_pred == pytest.approx(preds.mean())
    assert report.ll_lo <= report.ll <= report.ll_hi
    assert report.nll_lo <= report.nll <= report.nll_hi
    assert report.pr_auc_lo <= report.pr_auc <= report.pr_auc_hi

    flat = report.to_flat_dict()
    assert set(flat) == {
        "ll", "ll_lo", "ll_hi", "nll", "nll_lo", "nll_hi",
        "pr_auc", "pr_auc_lo", "pr_auc_hi",
        "n_test", "mean_pred", "mean_label", "train_mean_cvr",
    }


def test_evaluate_predictions_survives_rare_positives() -> None:
    # resamples may drop the lone positive; the CI must stay defined
    labels = np.zeros(120, dtype=int)
    labels[7] = 1
    preds = np.full(120, 0.1)
    preds[7] = 0.6
    report = evaluate_predictions(labels, preds, 0.05, bootstrap_b=150, seed=3)
    assert report.pr_auc_lo <= report.pr_auc <= report.pr_auc_hi


def test_eval_report_rejects_nonbracketing_ci() -> None:
    with pytest.raises(ValueError, match="bracket"):
        EvalReport(
            ll=0.5, ll_lo=0.6, ll_hi=0.7,
            nll=1.0, nll_lo=0.5, nll_hi=1.5,
            pr_auc=0.5, pr_auc_lo=0.4, pr_auc_hi=0.6,
            n_test=10, mean_pred=0.2, mean_label=0.25, train_mean_cvr=0.2,
        )


@pytest.mark.parametrize(
    ("labels", "preds", "message"),
    [
        # each of these used to pass or fail far from the cause: the first
        # gave ll = 8.75, the others "CI (nan, nan) does not bracket point ..."
        ([0, 1, 0, 1], [0.1, 1.7, 0.3, -0.2], "sample 1: prediction 1.7 is not a finite"),
        ([0, 1, 0, 1], [0.1, 0.7, float("nan"), 0.2], "sample 2: prediction nan is not"),
        ([0, 2, 0, 1], [0.1, 0.7, 0.3, 0.2], "sample 1: label 2.0 is not 0 or 1"),
    ],
)
def test_evaluate_predictions_rejects_inputs_outside_their_domain(labels, preds, message) -> None:
    with pytest.raises(MetricInputError, match=message):
        evaluate_predictions(labels, preds, 0.3, bootstrap_b=100, seed=0)


BAD_PREDICTIONS = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -1e-12, 1.0 + 1e-12, 7.0]
)
BAD_LABELS = st.sampled_from([2.0, -1.0, 0.5, float("nan")])


@settings(deadline=None, max_examples=100)
@given(
    st.integers(3, 40),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_validation_accepts_probabilities_and_names_the_first_bad_sample(n, seed, data) -> None:
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.5).astype(float)
    labels[:2] = [0.0, 1.0]
    preds = rng.random(n)
    preds[:2] = [0.0, 1.0]  # the closed interval's ends are valid
    evaluate_predictions(labels, preds, 0.5, bootstrap_b=100, seed=0)
    bad_at = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)))
    for i in bad_at:
        if data.draw(st.booleans()):
            labels[i] = data.draw(BAD_LABELS)
        else:
            preds[i] = data.draw(BAD_PREDICTIONS)
    with pytest.raises(MetricInputError) as info:
        evaluate_predictions(labels, preds, 0.5, bootstrap_b=100, seed=0)
    assert info.value.index == bad_at[0]
    assert str(info.value).startswith(f"sample {bad_at[0]}: ")


# The per-resample metric calls that evaluate_predictions made before its
# resample statistics were computed from per-row columns; kept as the
# reference that those statistics must match bit for bit.


def _reference_log_loss(labels: np.ndarray, preds: np.ndarray) -> float:
    p = np.clip(preds, 1e-15, 1.0 - 1e-15)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)))


def _reference_nll(labels: np.ndarray, preds: np.ndarray, base: float) -> float:
    ll = _reference_log_loss(labels, preds)
    ll_naive = _reference_log_loss(labels, np.full(labels.shape, base))
    return 100.0 * (ll_naive - ll) / ll_naive


def _reference_pr_auc(labels: np.ndarray, preds: np.ndarray) -> float:
    order = np.argsort(-preds, kind="stable")
    sorted_labels = labels[order]
    cum_pos = np.cumsum(sorted_labels)
    ranks = np.arange(1, labels.size + 1)
    return float((cum_pos / ranks)[sorted_labels == 1].mean())


def _reference_resample_pr_auc(labels: np.ndarray, preds: np.ndarray, r: np.ndarray) -> float:
    """Average precision of the resample ``r``: its rows listed in row order."""
    rows = np.sort(r)
    return _reference_pr_auc(labels[rows], preds[rows])


def _reference_bootstrap_ci(metric, n: int, b: int, seed: int) -> tuple[float, float]:
    """95% percentile interval of ``metric`` over the ``b`` bootstrap
    resamples of ``n`` rows seeded by ``seed``, one call per resample, each
    given the row indices it drew, in draw order."""
    stats = [metric(r) for block in _resample_blocks(n, b, seed) for r in block]
    lo, hi = np.percentile(stats, [2.5, 97.5])
    return float(lo), float(hi)


def _reference_evaluate(labels, preds, base: float, b: int, seed: int) -> dict:
    # every interval resamples the same rows: the metrics get the drawn row
    # indices, so that average precision can list them in row order
    labels, preds = np.asarray(labels, dtype=float), np.asarray(preds, dtype=float)
    ap = _reference_pr_auc(labels, preds)

    def ap_metric(r: np.ndarray) -> float:
        return ap if labels[r].sum() == 0 else _reference_resample_pr_auc(labels, preds, r)

    points = {
        "ll": _reference_log_loss(labels, preds),
        "nll": _reference_nll(labels, preds, base),
        "pr_auc": ap,
    }
    metrics = {
        "ll": lambda r: _reference_log_loss(labels[r], preds[r]),
        "nll": lambda r: _reference_nll(labels[r], preds[r], base),
        "pr_auc": ap_metric,
    }
    flat = {"n_test": labels.size, "mean_pred": float(preds.mean()),
            "mean_label": float(labels.mean()), "train_mean_cvr": base}
    for name, metric in metrics.items():
        lo, hi = _reference_bootstrap_ci(metric, labels.size, b, seed)
        flat[name] = points[name]
        flat[f"{name}_lo"] = min(lo, points[name])
        flat[f"{name}_hi"] = max(hi, points[name])
    return flat


def _bits(value: float) -> str:
    return float(value).hex()


# few distinct scores, so tie groups holding both labels are common; 0 and 1
# are clipped by the log losses, and -0.0 ties with 0.0
TIED_SCORES = st.sampled_from([0.0, -0.0, 1e-16, 0.01, 0.2, 0.5, 0.99, 1.0])
ANY_SCORE = st.one_of(TIED_SCORES, st.floats(0.0, 1.0))


@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 60).flatmap(
        lambda n: st.tuples(
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.lists(ANY_SCORE, min_size=n, max_size=n),
        )
    ),
    st.floats(1e-6, 1.0 - 1e-6),
    st.integers(0, 2**32 - 1),
)
def test_resample_statistics_match_the_metrics_bit_for_bit(rows, base, seed) -> None:
    labels = np.array(rows[0], dtype=float)
    preds = np.array(rows[1], dtype=float)
    n = labels.size
    terms = _log_terms(labels, preds)
    base_terms = _log_terms(labels, np.full(n, base))
    ranking = _Ranking(labels, preds)
    fallback = 0.123
    rng = np.random.default_rng(seed)
    draws = [rng.integers(0, n, n) for _ in range(20)]
    draws.append(np.arange(n))
    negatives = np.flatnonzero(labels == 0)
    if negatives.size:
        draws.append(np.resize(negatives, n))  # no positive: the fallback
    for r in draws:
        lab, pr = labels[r], preds[r]
        loss = _mean_loss(terms[r])
        assert _bits(loss) == _bits(_reference_log_loss(lab, pr))
        assert _bits(_normalized_loss(loss, base_terms[r])) == _bits(
            _reference_nll(lab, pr, base)
        )
        want = _reference_resample_pr_auc(labels, preds, r) if lab.sum() > 0 else fallback
        got = ranking.average_precision(ranking.slot[r], fallback)
        assert _bits(got) == _bits(want)
        # a resample is a multiset of rows: the order of its draws plays no part
        shuffled = rng.permutation(r)
        assert _bits(ranking.average_precision(ranking.slot[shuffled], fallback)) == _bits(got)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.lists(ANY_SCORE, min_size=n, max_size=n),
        )
    ),
    st.floats(1e-6, 1.0 - 1e-6),
    st.integers(0, 2**31),
)
def test_evaluate_predictions_matches_the_per_resample_metrics(rows, base, seed) -> None:
    labels, preds = rows
    assume(any(labels))  # the point estimate of average precision needs a positive
    got = evaluate_predictions(labels, preds, base, bootstrap_b=100, seed=seed).to_flat_dict()
    want = _reference_evaluate(labels, preds, base, 100, seed)
    assert {k: _bits(v) for k, v in got.items()} == {k: _bits(v) for k, v in want.items()}


@settings(deadline=None, max_examples=80)
@given(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.lists(st.lists(ANY_SCORE, min_size=n, max_size=n), min_size=1, max_size=5),
        )
    ),
    st.floats(1e-6, 1.0 - 1e-6),
    st.integers(0, 2**31),
)
# one row; and one positive among tied negatives, so that most resamples
# draw no positive
@example(([True], [[0.5], [0.0], [1.0]]), 0.3, 7)
@example(([True] + [False] * 11, [[0.2] * 12, [0.5] + [0.2] * 11, [0.0] * 12]), 0.1, 3)
def test_split_scorer_matches_per_column_evaluation_bit_for_bit(rows, base, seed) -> None:
    labels, columns = rows
    assume(any(labels))
    got = evaluate_columns(labels, columns, base, bootstrap_b=100, seed=seed)
    assert len(got) == len(columns)
    for report, column in zip(got, columns):
        want = evaluate_predictions(labels, column, base, bootstrap_b=100, seed=seed)
        assert {k: _bits(v) for k, v in report.to_flat_dict().items()} == {
            k: _bits(v) for k, v in want.to_flat_dict().items()
        }


def test_split_scorer_names_the_first_column_with_a_bad_prediction() -> None:
    labels = [0, 1, 0, 1]
    columns = [[0.1, 0.7, 0.3, 0.2], [0.1, 0.7, 0.3, 1.5], [0.1, float("nan"), 0.3, 0.2]]
    with pytest.raises(MetricInputError, match="^sample 3: prediction 1.5 ") as info:
        evaluate_columns(labels, columns, 0.3, bootstrap_b=100, seed=0)
    assert (info.value.column, info.value.index) == (1, 3)


@pytest.mark.parametrize(("n_mixed", "key"), [(300, np.uint16), (70_000, np.uint32)])
def test_many_mixed_tie_groups_match_the_reference_bit_for_bit(n_mixed, key) -> None:
    # each mixed tie group has a positive and a negative, among all-negative
    # pairs and untied rows, so there are more slots than a uint8 (then a
    # uint16) holds
    rng = np.random.default_rng(n_mixed)
    scores = rng.permutation(np.linspace(0.01, 0.99, n_mixed + 50))
    preds = np.r_[np.repeat(scores, 2), rng.uniform(0.0, 1.0, 100)]
    labels = np.r_[np.tile([1.0, 0.0], n_mixed), np.zeros(100), rng.random(100) < 0.5]
    shuffle = rng.permutation(preds.size)
    labels, preds = labels[shuffle], preds[shuffle]
    ranking = _Ranking(labels, preds)
    assert ranking.slot.dtype == key
    n = labels.size
    for r in [rng.integers(0, n, n) for _ in range(3)]:
        got = ranking.average_precision(ranking.slot[r], 0.0)
        assert _bits(got) == _bits(_reference_resample_pr_auc(labels, preds, r))


@pytest.mark.parametrize(
    ("labels", "preds", "draws"),
    [
        # a mixed group at the first place, then untied rows
        (
            [1, 0, 1, 0, 1, 0],
            [0.9, 0.9, 0.9, 0.5, 0.4, 0.1],
            [[2, 1, 0, 3, 4, 5], [1, 1, 2, 0, 5, 4]],
        ),
        # untied rows, then a mixed group at the last place
        (
            [1, 0, 1, 0, 1, 0],
            [0.9, 0.7, 0.5, 0.2, 0.2, 0.2],
            [[5, 4, 3, 2, 1, 0], [4, 5, 4, 0, 3, 3]],
        ),
        # a mixed group between two others, with an untied negative above it
        (
            [1, 0, 0, 1, 1, 0, 1, 0],
            [0.8, 0.8, 0.6, 0.5, 0.5, 0.5, 0.3, 0.3],
            [[2, 2, 0, 1, 2, 2, 0, 1], [2, 0, 2, 2, 1, 2, 2, 2], [3, 5, 4, 3, 5, 4, 7, 6]],
        ),
        # every row in one mixed group
        ([0, 1, 1, 0, 1], [0.4] * 5, [[4, 3, 2, 1, 0], [0, 0, 0, 1, 1], [1, 0, 3, 3, 4]]),
    ],
)
def test_slot_layout_edges_match_the_reference_bit_for_bit(labels, preds, draws) -> None:
    labels, preds = np.array(labels, dtype=float), np.array(preds, dtype=float)
    ranking = _Ranking(labels, preds)
    n = labels.size
    for r in [np.arange(n), *map(np.array, draws)]:
        got = ranking.average_precision(ranking.slot[r], 0.0)
        assert _bits(got) == _bits(_reference_resample_pr_auc(labels, preds, r))


def test_a_resample_that_draws_no_tied_row() -> None:
    # one mixed group at 0.5 (rows 2 and 3); the draws miss it
    labels = np.array([1, 0, 1, 0, 1, 0], dtype=float)
    preds = np.array([0.9, 0.8, 0.5, 0.5, 0.3, 0.1])
    ranking = _Ranking(labels, preds)
    r = np.array([0, 1, 4, 5, 0, 4])
    got = ranking.average_precision(ranking.slot[r], 0.0)
    assert _bits(got) == _bits(_reference_resample_pr_auc(labels, preds, r))
    # in row order the resample ranks rows 0, 0, 1, 4, 4, 5: the positives
    # are at ranks 1, 2, 4 and 5
    assert got == pytest.approx((1 + 1 + 3 / 4 + 4 / 5) / 4)


@pytest.mark.parametrize("n", [1, 2, 7, 401, 30_000, 2**18 + 1])
@pytest.mark.parametrize("b", [100, 139, 201])
def test_block_resampler_draws_the_rows_of_one_call(n, b) -> None:
    # the bootstrap intervals depend on the draws only; the block size must
    # not change them. The reference is drawn as uint32 to halve its memory,
    # which gives the same values as the default int64 (checked on a prefix).
    seed = 5
    one_call = np.random.default_rng(np.random.SeedSequence([seed, 0xB0]))
    want = one_call.integers(0, n, size=(b, n), dtype=np.uint32)
    prefix = np.random.default_rng(np.random.SeedSequence([seed, 0xB0]))
    assert np.array_equal(prefix.integers(0, n, size=(1, n)), want[:1])
    rows = 0
    rows_drawn = (row for block in _resample_blocks(n, b, seed) for row in block)
    for got, expected in zip(rows_drawn, want):
        assert np.array_equal(got, expected)
        rows += 1
    assert rows == b


@pytest.mark.parametrize(
    ("per_block", "b"),
    [(1, 100), (7, 139), (None, 201)],
    ids=["one-row-blocks", "short-last-block", "one-block"],
)
def test_blocks_drawn_ahead_are_the_rows_of_one_call(monkeypatch, per_block, b) -> None:
    # per_block rows of n = 50 indices, plus a gather from one column; None
    # keeps the default budget, which holds every row in one block
    n, seed = 50, 3
    if per_block is not None:
        monkeypatch.setattr(fsiw.metrics, "_BLOCK_DRAWS", per_block * n * 3)
    blocks = list(_resample_blocks(n, b, seed, columns=1))
    want = np.random.default_rng(np.random.SeedSequence([seed, 0xB0])).integers(0, n, (b, n))
    assert [len(block) for block in blocks[:-1]] == [per_block or b] * (len(blocks) - 1)
    assert np.array_equal(np.concatenate(blocks), want)


def _draw_all(blocks) -> int:
    return sum(len(block) for block in blocks)


def test_one_block_starts_no_thread() -> None:
    start = threading.active_count()
    blocks = _resample_blocks(407, 100, 0, columns=3)
    next(blocks)
    assert threading.active_count() == start
    assert _draw_all(blocks) == 0


def test_the_draw_thread_ends_after_a_full_pass_and_after_close(monkeypatch) -> None:
    monkeypatch.setattr(fsiw.metrics, "_BLOCK_DRAWS", 2 * 40 * 2)
    start = threading.active_count()
    blocks = _resample_blocks(40, 100, 1)
    assert threading.active_count() == start  # nothing runs before the first block
    assert len(next(blocks)) == 2
    assert threading.active_count() == start + 1
    assert 2 + _draw_all(blocks) == 100
    assert threading.active_count() == start
    blocks = _resample_blocks(40, 100, 1)
    next(blocks)
    next(blocks)
    blocks.close()
    assert threading.active_count() == start


def test_the_draw_thread_ends_when_the_caller_raises(monkeypatch) -> None:
    # 30k rows: many blocks, so the exception comes while a draw is ahead
    rng = np.random.default_rng(4)
    labels = (rng.random(30_000) < 0.3).astype(np.int64)
    preds = rng.random(30_000)
    threads = []

    def failing(self, counts, fallback):
        threads.append(threading.active_count())
        if len(threads) == 3:
            raise RuntimeError("scoring failed")
        return np.full(len(counts), fallback)

    monkeypatch.setattr(_Ranking, "average_precisions", failing)
    start = threading.active_count()
    with pytest.raises(RuntimeError, match="scoring failed"):
        evaluate_predictions(labels, preds, 0.3, bootstrap_b=200, seed=1)
    # the point estimate is scored before the first block is drawn
    assert threads == [start, start + 1, start + 1]
    assert threading.active_count() == start


def test_an_exception_in_a_draw_reaches_the_caller(monkeypatch) -> None:
    real = np.random.default_rng

    class FailingGenerator:
        def __init__(self, seed):
            self.rng, self.draws = real(seed), 0

        def integers(self, *args, **kwargs):
            self.draws += 1
            if self.draws == 3:
                raise MemoryError("no room for a block")
            return self.rng.integers(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", FailingGenerator)
    monkeypatch.setattr(fsiw.metrics, "_BLOCK_DRAWS", 2 * 40 * 2)
    start = threading.active_count()
    blocks = _resample_blocks(40, 100, 1)
    assert len(next(blocks)) == len(next(blocks)) == 2
    with pytest.raises(MemoryError, match="no room for a block"):
        next(blocks)
    assert threading.active_count() == start


def test_evaluate_predictions_memory_stays_bounded() -> None:
    # the benchmark's scorer at 30k rows and 200 resamples; drawing each
    # interval's indices at once held about 47 MB
    rng = np.random.default_rng(21)
    logit = rng.normal(-1.5, 1.0, 30_000)
    labels = (rng.random(logit.size) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    preds = np.clip(1.0 / (1.0 + np.exp(-(logit + rng.normal(0.0, 0.5, logit.size)))), 0.01, 0.99)
    tracemalloc.start()
    try:
        evaluate_predictions(labels, preds, 0.2, bootstrap_b=200, seed=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8_000_000


def test_split_scorer_memory_stays_bounded() -> None:
    # three noisy scorers of the same 30k rows: each block draws a third as
    # many indices, so the gathers stay as small as for one column
    rng = np.random.default_rng(21)
    logit = rng.normal(-1.5, 1.0, 30_000)
    labels = (rng.random(logit.size) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    columns = [
        np.clip(1.0 / (1.0 + np.exp(-(logit + rng.normal(0.0, 0.5, logit.size)))), 0.01, 0.99)
        for _ in range(3)
    ]
    tracemalloc.start()
    try:
        evaluate_columns(labels, columns, 0.2, bootstrap_b=200, seed=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8_000_000


def _smooth_scores() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(2024)
    labels = (rng.random(300) < 0.3).astype(int)
    preds = np.clip(0.3 * labels + rng.uniform(0.02, 0.7, 300), 0.0, 1.0)
    return labels, preds


def _tied_scores() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(7)
    preds = rng.choice([0.0, 0.01, 0.2, 0.5, 0.99, 1.0], 250)
    labels = (rng.random(250) < 0.2 + 0.6 * preds).astype(int)
    return labels, preds


@pytest.mark.parametrize(
    ("inputs", "base", "b", "seed", "want"),
    [
        (
            _smooth_scores, 0.25, 200, 11,
            {
                "ll": 0.5026689689786261, "ll_lo": 0.46176284312400395,
                "ll_hi": 0.5381185220387423, "nll": 26.025925345355766,
                "nll_lo": 17.409770076635567, "nll_hi": 33.212952588527266,
                "pr_auc": 0.7858764265209758, "pr_auc_lo": 0.7188685643258084,
                "pr_auc_hi": 0.8410758104329644, "n_test": 300,
                "mean_pred": 0.47778467853222367, "mean_label": 0.3566666666666667,
                "train_mean_cvr": 0.25,
            },
        ),
        (
            _tied_scores, 0.3, 300, 4,
            {
                "ll": 3.3823995397759528, "ll_lo": 2.391052309498082,
                "ll_hi": 4.860515334225121, "nll": -347.0528182469723,
                "nll_lo": -528.2757102175367, "nll_hi": -219.39109890754804,
                "pr_auc": 0.6918136340287067, "pr_auc_lo": 0.5976178528212713,
                "pr_auc_hi": 0.7862641401820593, "n_test": 250,
                "mean_pred": 0.48475999999999997, "mean_label": 0.472,
                "train_mean_cvr": 0.3,
            },
        ),
    ],
)
def test_evaluate_predictions_reproduces_pinned_reports(inputs, base, b, seed, want) -> None:
    # values written by evaluate_predictions, whose resample statistics the
    # per-resample reference above checks; any change to a CI's bytes shows up
    # here
    labels, preds = inputs()
    report = evaluate_predictions(labels, preds, base, bootstrap_b=b, seed=seed)
    assert report.to_flat_dict() == want
