"""Optimizer kernel: line-searched descent and CSR assembly."""

from __future__ import annotations

import numpy as np
import pytest

from fsiw.data import FeatureVector
from fsiw.optim import (
    OptConfig,
    append_columns,
    features_to_csr,
    minimize_batch,
    softplus,
)


def test_features_to_csr_layout() -> None:
    fvs = [FeatureVector(indices=(0, 3), dim=8), FeatureVector(indices=(5,), dim=8)]
    m = features_to_csr(fvs).toarray()
    assert m.tolist() == [
        [1, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
    ]


def test_features_to_csr_rejects_mixed_dims() -> None:
    fvs = [FeatureVector(indices=(0,), dim=8), FeatureVector(indices=(0,), dim=16)]
    with pytest.raises(ValueError, match="dim mismatch"):
        features_to_csr(fvs)


def test_append_columns_attaches_dense_block() -> None:
    base = features_to_csr([FeatureVector(indices=(1,), dim=4)])
    out = append_columns(base, np.array([[2.5, -1.0]]))
    assert out.toarray().tolist() == [[0, 1, 0, 0, 2.5, -1.0]]


def test_softplus_is_stable_for_large_arguments() -> None:
    assert softplus(1000.0) == pytest.approx(1000.0)
    assert softplus(-1000.0) == pytest.approx(0.0, abs=1e-12)


def test_minimize_batch_solves_quadratic_exactly() -> None:
    a = np.array([[3.0, 0.5], [0.5, 1.0]])
    b = np.array([1.0, -2.0])
    target = np.linalg.solve(a, b)

    def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
        return 0.5 * float(x @ a @ x) - float(b @ x), a @ x - b

    def f(x: np.ndarray) -> float:
        return fg(x)[0]

    res = minimize_batch(fg, f, np.zeros(2), OptConfig(max_iter=500, tol=1e-14))
    assert res.converged
    assert np.allclose(res.theta, target, atol=1e-6)


def test_minimize_batch_never_increases_loss() -> None:
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5))
    a = a @ a.T + np.eye(5)
    losses = []

    def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
        val = 0.5 * float(x @ a @ x)
        losses.append(val)
        return val, a @ x

    minimize_batch(fg, lambda x: 0.5 * float(x @ a @ x), np.ones(5), OptConfig(max_iter=60))
    assert all(losses[i + 1] <= losses[i] + 1e-12 for i in range(len(losses) - 1))


def test_minimize_batch_early_stopping_returns_best_validation_iterate() -> None:
    # validation deliberately prefers a point away from the training optimum
    def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
        return float((x[0] - 4.0) ** 2), np.array([2.0 * (x[0] - 4.0)])

    def val(x: np.ndarray) -> float:
        return float((x[0] - 1.0) ** 2)

    res = minimize_batch(
        fg,
        lambda x: fg(x)[0],
        np.zeros(1),
        OptConfig(max_iter=200, eval_every=1, patience=3, step0=0.05),
        validation=val,
    )
    assert res.stopped_early
    assert abs(res.theta[0] - 1.0) < 0.5  # kept an iterate near the validation optimum


def test_opt_config_validation() -> None:
    for bad in ({"max_iter": 0}, {"step0": 0.0}, {"tol": -1.0}):
        with pytest.raises(ValueError):
            OptConfig(**bad)
