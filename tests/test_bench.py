"""Microbenchmarks (pytest-benchmark). The default test run deselects them;
run them with ``python -m pytest -m bench``."""

from __future__ import annotations

import numpy as np
import pytest

from fsiw.metrics import evaluate_predictions

pytestmark = pytest.mark.bench


def test_evaluate_predictions_30k_rows_200_resamples(benchmark) -> None:
    # a noisy but calibrated scorer whose predictions are clipped into
    # [0.01, 0.99], so both clip values form tie groups holding both labels
    rng = np.random.default_rng(21)
    logit = rng.normal(-1.5, 1.0, 30_000)
    labels = (rng.random(logit.size) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    preds = np.clip(1.0 / (1.0 + np.exp(-(logit + rng.normal(0.0, 0.5, logit.size)))), 0.01, 0.99)
    report = benchmark(evaluate_predictions, labels, preds, 0.2, bootstrap_b=200, seed=21)
    assert report.n_test == 30_000
