"""Metric hand-checks, invariance properties, bootstrap behavior, and the
delay-distribution summary."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsiw.data import NO_CONVERSION
from fsiw.metrics import (
    DEFAULT_CDF_GRID,
    EvalReport,
    MetricInputError,
    bootstrap_ci,
    delay_stats,
    evaluate_predictions,
    log_loss,
    normalized_log_loss,
    pr_auc,
)

DAY = 86400


def test_log_loss_single_positive_at_half() -> None:
    assert log_loss([1], [0.5]) == pytest.approx(math.log(2), abs=1e-12)


def test_log_loss_single_negative() -> None:
    assert log_loss([0], [0.25]) == pytest.approx(-math.log(0.75), abs=1e-12)


def test_log_loss_clips_confident_predictions_finite() -> None:
    loss = log_loss([1], [1.0])
    assert math.isfinite(loss)
    assert loss == pytest.approx(0.0, abs=1e-12)
    # symmetric case: certain-and-wrong is finite too
    assert math.isfinite(log_loss([1], [0.0]))


def test_log_loss_rejects_bad_shapes() -> None:
    with pytest.raises(ValueError, match="mismatch"):
        log_loss([1, 0], [0.5])
    with pytest.raises(ValueError, match="empty"):
        log_loss([], [])


def test_log_loss_is_permutation_invariant() -> None:
    rng = np.random.default_rng(0)
    labels = (rng.random(200) < 0.3).astype(int)
    preds = rng.uniform(0.01, 0.99, 200)
    perm = rng.permutation(200)
    assert log_loss(labels, preds) == pytest.approx(
        log_loss(labels[perm], preds[perm]), abs=1e-12
    )


def test_nll_zero_when_matching_the_baseline() -> None:
    labels = [1, 0, 0, 1, 0]
    base = sum(labels) / len(labels)
    assert normalized_log_loss(labels, [base] * 5, base) == pytest.approx(0.0, abs=1e-12)


def test_nll_is_percent_improvement() -> None:
    # baseline loss ln 2; predictions engineered so the model loss is
    # exactly 80% of it, i.e. a 20.0 improvement score
    a = 2 ** -0.8
    got = normalized_log_loss([1, 0], [a, 1 - a], 0.5)
    assert got == pytest.approx(20.0, abs=1e-9)


def test_nll_validates_base_rate() -> None:
    with pytest.raises(ValueError, match="train_mean_cvr"):
        normalized_log_loss([1, 0], [0.5, 0.5], 0.0)
    with pytest.raises(ValueError, match="train_mean_cvr"):
        normalized_log_loss([1, 0], [0.5, 0.5], 1.0)


def test_nll_ordering_reverses_log_loss_ordering() -> None:
    rng = np.random.default_rng(3)
    labels = (rng.random(500) < 0.25).astype(int)
    base = float(labels.mean())
    sharp = np.clip(0.25 + 0.5 * (labels - 0.25) + rng.normal(0, 0.05, 500), 0.01, 0.99)
    mild = np.clip(0.25 + 0.2 * (labels - 0.25) + rng.normal(0, 0.05, 500), 0.01, 0.99)
    flat = np.full(500, base)

    lls = [log_loss(labels, p) for p in (sharp, mild, flat)]
    nlls = [normalized_log_loss(labels, p, base) for p in (sharp, mild, flat)]
    assert lls[0] < lls[1] < lls[2]
    assert nlls[0] > nlls[1] > nlls[2]


def test_pr_auc_hand_examples() -> None:
    assert pr_auc([1, 0], [0.9, 0.1]) == pytest.approx(1.0)
    assert pr_auc([0, 1], [0.9, 0.1]) == pytest.approx(0.5)
    assert pr_auc([1, 1, 0, 0], [0.9, 0.8, 0.7, 0.6]) == pytest.approx(1.0)


def test_pr_auc_mixed_ranking_hand_enumeration() -> None:
    # ranks by score: pos, neg, pos, neg -> precisions 1/1 and 2/3
    got = pr_auc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.6])
    assert got == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)


def test_pr_auc_needs_a_positive() -> None:
    with pytest.raises(ValueError, match="positive"):
        pr_auc([0, 0], [0.4, 0.6])


def test_pr_auc_invariant_under_monotone_transform() -> None:
    rng = np.random.default_rng(5)
    labels = (rng.random(300) < 0.2).astype(int)
    preds = rng.uniform(0.001, 0.999, 300)
    before = pr_auc(labels, preds)
    assert pr_auc(labels, np.log(preds / (1 - preds))) == pytest.approx(before, abs=1e-12)
    assert pr_auc(labels, preds ** 3) == pytest.approx(before, abs=1e-12)


def test_pr_auc_ties_keep_input_order() -> None:
    # all scores equal: precision after k-th listed positive depends only on
    # input order, so the value is reproducible and order-sensitive
    a = pr_auc([1, 0, 0, 1], [0.5, 0.5, 0.5, 0.5])
    b = pr_auc([0, 0, 1, 1], [0.5, 0.5, 0.5, 0.5])
    assert a == pytest.approx((1.0 + 0.5) / 2.0)
    assert b == pytest.approx((1.0 / 3.0 + 0.5) / 2.0)


def test_bootstrap_zero_width_on_identical_pairs() -> None:
    labels = [1] * 50
    preds = [0.7] * 50
    lo, hi = bootstrap_ci(log_loss, labels, preds, 200, seed=0)
    assert lo == hi == pytest.approx(-math.log(0.7))


def test_bootstrap_is_deterministic_per_seed() -> None:
    rng = np.random.default_rng(9)
    labels = (rng.random(400) < 0.3).astype(int)
    preds = rng.uniform(0.05, 0.95, 400)
    first = bootstrap_ci(log_loss, labels, preds, 1000, seed=42)
    second = bootstrap_ci(log_loss, labels, preds, 1000, seed=42)
    other = bootstrap_ci(log_loss, labels, preds, 1000, seed=43)
    assert first == second
    assert first != other
    assert first[0] < log_loss(labels, preds) < first[1]


def test_bootstrap_rejects_too_few_resamples() -> None:
    with pytest.raises(ValueError, match="100"):
        bootstrap_ci(log_loss, [1, 0], [0.6, 0.4], 99, seed=0)


def _clicks(delays, ts: int = 1000) -> tuple[np.ndarray, np.ndarray]:
    """(click_ts, conv_ts) of clicks at ``ts``; a delay of None never converts."""
    conv = [NO_CONVERSION if d is None else ts + int(d) for d in delays]
    return np.full(len(conv), ts, dtype=np.int64), np.array(conv, dtype=np.int64)


def test_delay_stats_all_instant_conversions() -> None:
    stats = delay_stats(*_clicks([0] * 10))
    assert stats.n_conversions == 10
    assert all(v == 1.0 for v in stats.cdf)
    assert stats.quantiles["p50"] == 0.0


def test_delay_stats_ignores_unconverted_and_requires_some_conversion() -> None:
    stats = delay_stats(*_clicks([0, None, None]))
    assert stats.n_conversions == 1
    with pytest.raises(ValueError, match="no converted"):
        delay_stats(*_clicks([None]))


def test_delay_stats_matches_exponential_closed_form() -> None:
    rng = np.random.default_rng(17)
    n = 100_000
    delays = rng.exponential(scale=DAY, size=n)
    stats = delay_stats(*_clicks(delays), grid=(DAY,))
    expected = 1.0 - math.exp(-1.0)
    band = 4 * math.sqrt(expected * (1 - expected) / n)
    assert abs(stats.cdf[0] - expected) < band
    # median of an exponential is scale * ln 2
    assert stats.quantiles["p50"] == pytest.approx(DAY * math.log(2), rel=0.02)
    # PDF sums to 1 over its bins
    assert sum(stats.pdf) == pytest.approx(1.0, abs=1e-9)


def test_delay_stats_default_grid_is_monotone() -> None:
    rng = np.random.default_rng(23)
    stats = delay_stats(*_clicks(rng.exponential(scale=2 * DAY, size=5000)))
    assert stats.cdf_grid == DEFAULT_CDF_GRID
    assert all(a <= b for a, b in zip(stats.cdf, stats.cdf[1:]))


def test_evaluate_predictions_report_contents() -> None:
    rng = np.random.default_rng(31)
    labels = (rng.random(500) < 0.3).astype(int)
    preds = np.clip(labels * 0.5 + rng.uniform(0.05, 0.45, 500), 0.01, 0.99)
    report = evaluate_predictions(labels, preds, 0.3, bootstrap_b=200, seed=7)
    assert report.ll == pytest.approx(log_loss(labels, preds))
    assert report.nll == pytest.approx(normalized_log_loss(labels, preds, 0.3))
    assert report.pr_auc == pytest.approx(pr_auc(labels, preds))
    assert report.n_test == 500
    assert report.mean_label == pytest.approx(labels.mean())
    assert report.mean_pred == pytest.approx(preds.mean())
    assert report.ll_ci[0] <= report.ll <= report.ll_ci[1]
    assert report.nll_ci[0] <= report.nll <= report.nll_ci[1]
    assert report.pr_auc_ci[0] <= report.pr_auc <= report.pr_auc_ci[1]

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
    assert report.pr_auc_ci[0] <= report.pr_auc <= report.pr_auc_ci[1]


def test_eval_report_rejects_nonbracketing_ci() -> None:
    with pytest.raises(ValueError, match="bracket"):
        EvalReport(
            ll=0.5, ll_ci=(0.6, 0.7),
            nll=1.0, nll_ci=(0.5, 1.5),
            pr_auc=0.5, pr_auc_ci=(0.4, 0.6),
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
