"""Optimizer kernel: L-BFGS with a backtracking line search."""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest
from scipy import sparse

from fsiw.optim import (
    _DOT_CHUNK,
    MEMORY,
    OptConfig,
    _lbfgs_direction,
    dot,
    minimize_batch,
    softplus_sigmoid,
)

from simworld import dfm_nll_grad


def test_softplus_is_stable_for_large_arguments() -> None:
    sp, _ = softplus_sigmoid(np.array([1000.0, -1000.0]))
    assert sp[0] == pytest.approx(1000.0)
    assert sp[1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1, _DOT_CHUNK - 1, _DOT_CHUNK])
def test_dot_up_to_one_block_is_the_plain_product(n) -> None:
    rng = np.random.default_rng(n)
    a, b = rng.normal(size=n), rng.normal(size=n)
    result = dot(a, b)
    assert type(result) is float
    assert np.float64(result).tobytes() == np.float64(a @ b).tobytes()


@pytest.mark.parametrize("n", [_DOT_CHUNK + 1, 2 * _DOT_CHUNK, 5 * _DOT_CHUNK + 7, 131073])
def test_dot_past_one_block_adds_the_block_products_in_order(n) -> None:
    rng = np.random.default_rng(n)
    a = rng.normal(size=n) * rng.uniform(1e-3, 1e3, size=n)
    b = rng.normal(size=n)
    expected = 0.0
    for i in range(0, n, _DOT_CHUNK):
        expected += float(a[i : i + _DOT_CHUNK] @ b[i : i + _DOT_CHUNK])
    assert np.float64(dot(a, b)).tobytes() == np.float64(expected).tobytes()
    assert dot(a, b) == pytest.approx(math.fsum(a * b), rel=1e-12)


@pytest.mark.parametrize("n", [100, _DOT_CHUNK + 1, 3 * _DOT_CHUNK + 5])
def test_dot_of_a_view_equals_that_of_its_contiguous_copy(n) -> None:
    # as a fit's coefficient slices of theta: the value does not follow
    # where the vectors start in memory
    rng = np.random.default_rng(n)
    theta = rng.normal(size=2 * n + 3)
    a, b = theta[1 : n + 1], theta[n + 3 :]
    assert a.base is theta and b.base is theta
    assert np.float64(dot(a, b)).tobytes() == np.float64(dot(a.copy(), b.copy())).tobytes()


def test_minimize_batch_solves_quadratic_exactly() -> None:
    a = np.array([[3.0, 0.5], [0.5, 1.0]])
    b = np.array([1.0, -2.0])
    target = np.linalg.solve(a, b)

    def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
        return 0.5 * float(x @ a @ x) - float(b @ x), a @ x - b

    theta, meta = minimize_batch(fg, np.zeros(2), OptConfig(max_iter=500, tol=1e-14))
    assert meta.converged
    assert np.allclose(theta, target, atol=1e-6)

    # tol 0 stops at the first accepted step that leaves the loss unchanged
    theta, meta = minimize_batch(fg, np.zeros(2), OptConfig(max_iter=500, tol=0.0))
    assert meta.converged and meta.n_iter < 20
    assert np.allclose(theta, target, atol=1e-8)


@pytest.mark.parametrize("n", [10, 20])
@pytest.mark.parametrize("seed", range(5))
def test_minimize_batch_converges_on_a_quadratic_within_n_plus_5_iterations(n, seed) -> None:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = q @ np.diag(np.linspace(1.0, 10.0, n)) @ q.T
    b = rng.normal(size=n)

    def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
        return 0.5 * float(x @ a @ x) - float(b @ x), a @ x - b

    theta, meta = minimize_batch(fg, np.zeros(n), OptConfig(max_iter=500, tol=1e-9))
    assert meta.converged
    assert meta.n_iter <= n + 5
    assert np.allclose(theta, np.linalg.solve(a, b), atol=1e-4)


def test_minimize_batch_never_increases_loss() -> None:
    # the validation hook sees every accepted iterate; rejected trial points
    # may cost more, accepted ones never do
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5))
    a = a @ a.T + np.eye(5)
    accepted = []

    def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
        return 0.5 * float(x @ a @ x), a @ x

    def watch(x: np.ndarray) -> float:
        accepted.append(fg(x)[0])
        return 0.0

    minimize_batch(
        fg, np.ones(5), OptConfig(max_iter=60, eval_every=1, patience=60), validation=watch
    )
    assert len(accepted) > 5
    assert all(accepted[i + 1] <= accepted[i] for i in range(len(accepted) - 1))


def test_minimize_batch_costs_one_evaluation_per_trial_point() -> None:
    # every fun_grad call is the start point, an accepted step or one halving;
    # all values below are exact in binary, so the trial points are too
    points = []

    def quadratic(a: float, c: float):
        def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
            points.append(float(x[0]))
            return 0.5 * a * float((x[0] - c) ** 2), np.array([a * (x[0] - c)])

        return fg

    # steepest descent of length 1/|g| = 1/6 reaches 1; the L-BFGS step is
    # then the Newton step to 3, accepted at unit length: no halving at all
    theta, meta = minimize_batch(quadratic(2.0, 3.0), np.zeros(1), OptConfig(max_iter=50))
    assert points == [0.0, 1.0, 3.0]
    assert meta.converged and theta[0] == 3.0 and meta.n_iter == 3

    # |g| = 1 gives a first trial at 1, which fails Armijo; three halvings
    # reach the minimum at 1/8
    points.clear()
    theta, meta = minimize_batch(quadratic(8.0, 0.125), np.zeros(1), OptConfig(max_iter=50))
    assert points == [0.0, 1.0, 0.5, 0.25, 0.125]
    assert meta.converged and theta[0] == 0.125 and meta.n_iter == 2


@pytest.mark.parametrize("wall", [np.inf, -np.inf, np.nan])
def test_minimize_batch_backtracks_over_a_non_finite_trial_loss(wall) -> None:
    # (x - 3)^2 behind a wall at 2.5: beyond it the loss is non-finite and the
    # gradient nan. The Newton step from 1 and from 2 lands on 3, beyond the
    # wall; each time one halving brings the trial back inside.
    points = []

    def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
        points.append(float(x[0]))
        if x[0] > 2.5:
            return wall, np.array([np.nan])
        return float((x[0] - 3.0) ** 2), np.array([2.0 * (x[0] - 3.0)])

    theta, meta = minimize_batch(fg, np.zeros(1), OptConfig(max_iter=3))
    assert points == [0.0, 1.0, 3.0, 2.0, 3.0, 2.5]
    assert theta[0] == 2.5 and meta.final_loss == 0.25
    assert meta.n_iter == 3 and not meta.converged


def test_minimize_batch_early_stopping_returns_best_validation_iterate() -> None:
    # Rosenbrock from (-1.2, 1) takes dozens of iterations to reach (1, 1);
    # validation prefers (-1, 1), near the start, so its score turns early
    def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
        r, v = 1.0 - x[0], x[1] - x[0] ** 2
        return float(r**2 + 100.0 * v**2), np.array([-2.0 * r - 400.0 * x[0] * v, 200.0 * v])

    scored = []

    def val(x: np.ndarray) -> float:
        score = float((x[0] + 1.0) ** 2 + (x[1] - 1.0) ** 2)
        scored.append((score, x.copy()))
        return score

    theta, meta = minimize_batch(
        fg,
        np.array([-1.2, 1.0]),
        OptConfig(max_iter=200, tol=0.0, eval_every=1, patience=3),
        validation=val,
    )
    assert meta.stopped_early and not meta.converged
    assert meta.n_iter < 20
    best_score, best_theta = min(scored, key=lambda item: item[0])
    assert np.array_equal(theta, best_theta)  # the best iterate validation saw
    assert best_score < min(score for score, _ in scored[-3:])
    assert meta.final_loss == fg(theta)[0]


def test_opt_config_validation() -> None:
    for bad in (
        {"max_iter": 0},
        {"tol": -1.0},
        {"tol": float("nan")},
        {"tol": float("inf")},
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

    with np.errstate(invalid="ignore"):
        loss0, grad0 = fg(theta0)
        theta, meta = minimize_batch(fg, theta0, OptConfig(max_iter=50))
    assert loss0 == pytest.approx(0.943, abs=1e-3)
    assert np.isnan(grad0).any()
    assert not meta.converged
    assert meta.n_iter == 1
    assert np.array_equal(theta, theta0)
    assert meta.final_loss == loss0

    # the same stop after finite steps keeps the last (finite) iterate
    calls = []

    def fg_late_nan(theta: np.ndarray) -> tuple[float, np.ndarray]:
        calls.append(theta.copy())
        grad = 2.0 * (theta - 3.0)
        return float((theta - 3.0) @ (theta - 3.0)), grad if len(calls) < 3 else grad * np.nan

    theta, meta = minimize_batch(fg_late_nan, np.zeros(2), OptConfig(max_iter=50))
    assert not meta.converged
    assert meta.n_iter == 3
    assert np.array_equal(theta, calls[-1])
    assert np.isfinite(meta.final_loss)


def _reference_lbfgs_direction(grad: np.ndarray, pairs: deque) -> np.ndarray:
    """The two-loop recursion as written before it reused a work vector: the
    same operations in the same order, each product a fresh array."""
    q = grad.copy()
    alphas = []
    for s, y, rho, _ in reversed(pairs):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    s, y, rho, _ = pairs[-1]
    q *= 1.0 / (rho * float(y @ y))
    for (s, y, rho, _), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return -q


@pytest.mark.parametrize("dim", [1, 7, 1034])
@pytest.mark.parametrize("memory", range(1, MEMORY + 1))
def test_the_two_loop_recursion_matches_its_reference_bit_for_bit(dim, memory) -> None:
    rng = np.random.default_rng(1000 * dim + memory)
    for _ in range(5):
        pairs: deque = deque(maxlen=MEMORY)
        for _ in range(memory):
            s = rng.normal(size=dim) * rng.uniform(1e-3, 10.0)
            y = s * rng.uniform(0.1, 10.0, size=dim) + 0.1 * rng.normal(size=dim)
            pairs.append((s, y, 1.0 / float(s @ y), float(y @ y)))
        grad = rng.normal(size=dim) * rng.uniform(1e-6, 1e3)
        before = grad.copy()
        work = np.full(dim, np.nan)  # what the work vector held before plays no part
        direction = _lbfgs_direction(grad, pairs, work)
        expected = _reference_lbfgs_direction(grad, pairs)
        assert direction.tobytes() == expected.tobytes()
        assert grad.tobytes() == before.tobytes()
