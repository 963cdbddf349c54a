"""Optimizer kernel: line-searched descent and design-matrix assembly."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from fsiw.optim import (
    OptConfig,
    append_columns,
    minimize_batch,
    softplus,
)
from fsiw.training import dfm_nll_grad


def test_append_columns_attaches_dense_block() -> None:
    base = sparse.csr_matrix(np.array([[0.0, 1.0, 0.0, 0.0]]))
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
    for bad in (
        {"max_iter": 0},
        {"step0": 0.0},
        {"tol": -1.0},
        {"eval_every": 0},
        {"patience": 0},
    ):
        ((name, value),) = bad.items()
        with pytest.raises(ValueError, match=f"bad optimizer config: {name} = {value}"):
            OptConfig(**bad)


def test_minimize_batch_stops_unconverged_at_a_nan_gradient() -> None:
    # λ = exp(800) overflows on the negative row: the loss stays finite but
    # its gradient is nan there, which leaves no direction to descend along
    x = sparse.identity(2, format="csr")
    xt = x.T.tocsr()
    y, d, e = np.array([1.0, 0.0]), np.array([0.5, 0.0]), np.array([1.0, 1.0])
    theta0 = np.zeros(6)
    theta0[4] = 800.0

    def fg(theta: np.ndarray) -> tuple[float, np.ndarray]:
        return dfm_nll_grad(theta, x, xt, y, d, e, 0.0, 2.0)

    def f(theta: np.ndarray) -> float:
        return dfm_nll_grad(theta, x, xt, y, d, e, 0.0, 2.0, want_grad=False)[0]

    with np.errstate(invalid="ignore"):
        loss0, grad0 = fg(theta0)
        res = minimize_batch(fg, f, theta0, OptConfig(max_iter=50))
    assert loss0 == pytest.approx(0.943, abs=1e-3)
    assert np.isnan(grad0).any()
    assert not res.converged
    assert res.n_iter == 1
    assert np.array_equal(res.theta, theta0)
    assert res.loss == loss0

    # the same stop after finite steps keeps the last (finite) iterate
    calls = []

    def fg_late_nan(theta: np.ndarray) -> tuple[float, np.ndarray]:
        calls.append(theta.copy())
        grad = 2.0 * (theta - 3.0)
        return float((theta - 3.0) @ (theta - 3.0)), grad if len(calls) < 3 else grad * np.nan

    res = minimize_batch(
        fg_late_nan,
        lambda t: float((t - 3.0) @ (t - 3.0)),
        np.zeros(2),
        OptConfig(max_iter=50, step0=0.1),
    )
    assert not res.converged
    assert res.n_iter == 3
    assert np.array_equal(res.theta, calls[-1])
    assert np.isfinite(res.loss)
