"""Metric hand-checks, invariance properties, bootstrap behavior, and the
delay-distribution summary."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fsiw.data import NO_CONVERSION
from fsiw.metrics import (
    DEFAULT_CDF_GRID,
    EvalReport,
    MetricInputError,
    _log_terms,
    _Ranking,
    _resampled_ll,
    _resampled_nll,
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


def _reference_evaluate(labels, preds, base: float, b: int, seed: int) -> dict:
    labels, preds = np.asarray(labels, dtype=float), np.asarray(preds, dtype=float)
    ap = _reference_pr_auc(labels, preds)

    def ap_metric(lab: np.ndarray, pr: np.ndarray) -> float:
        return ap if lab.sum() == 0 else _reference_pr_auc(lab, pr)

    points = {
        "ll": _reference_log_loss(labels, preds),
        "nll": _reference_nll(labels, preds, base),
        "pr_auc": ap,
    }
    metrics = {
        "ll": _reference_log_loss,
        "nll": lambda lab, pr: _reference_nll(lab, pr, base),
        "pr_auc": ap_metric,
    }
    flat = {"n_test": labels.size, "mean_pred": float(preds.mean()),
            "mean_label": float(labels.mean()), "train_mean_cvr": base}
    for offset, (name, metric) in enumerate(metrics.items()):
        lo, hi = bootstrap_ci(metric, labels, preds, b, seed + offset)
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
        assert _bits(_resampled_ll(terms[r], base_terms[r])) == _bits(
            _reference_log_loss(lab, pr)
        )
        assert _bits(_resampled_nll(terms[r], base_terms[r])) == _bits(
            _reference_nll(lab, pr, base)
        )
        want = _reference_pr_auc(lab, pr) if lab.sum() > 0 else fallback
        got = ranking.average_precision(ranking.place[r], ranking.tied[r], fallback)
        assert _bits(got) == _bits(want)


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
                "nll_lo": 16.06058363564487, "nll_hi": 32.99326981451845,
                "pr_auc": 0.7858764265209758, "pr_auc_lo": 0.7208188769371486,
                "pr_auc_hi": 0.8421304241671302, "n_test": 300,
                "mean_pred": 0.47778467853222367, "mean_label": 0.3566666666666667,
                "train_mean_cvr": 0.25,
            },
        ),
        (
            _tied_scores, 0.3, 300, 4,
            {
                "ll": 3.3823995397759528, "ll_lo": 2.391052309498082,
                "ll_hi": 4.860515334225121, "nll": -347.0528182469723,
                "nll_lo": -533.3087836838059, "nll_hi": -207.6773444828918,
                "pr_auc": 0.6918136340287067, "pr_auc_lo": 0.6199697540518575,
                "pr_auc_hi": 0.795731633501275, "n_test": 250,
                "mean_pred": 0.48475999999999997, "mean_label": 0.472,
                "train_mean_cvr": 0.3,
            },
        ),
    ],
)
def test_evaluate_predictions_reproduces_pinned_reports(inputs, base, b, seed, want) -> None:
    # values written by the per-resample implementation; any change to a CI's
    # bytes shows up here
    labels, preds = inputs()
    report = evaluate_predictions(labels, preds, base, bootstrap_b=b, seed=seed)
    assert report.to_flat_dict() == want
