"""Trainer correctness: reference optima, algebraic identities, gradients,
model recovery on synthetic ground truth, and serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.special import expit

from fsiw.data import Snapshot
from fsiw.optim import OptConfig
from fsiw.simulate import generate_arrays
from fsiw.training import (
    DfmModel,
    LinearCvrModel,
    TrainingError,
    TrainingMeta,
    dfm_nll_grad,
    fit_logistic,
    load_model,
    predict_cvr_batch,
    predict_delay_rate,
    save_model,
    train_dfm,
    train_naive_logistic,
    train_weighted_logistic,
)
from fsiw.weights import WeightedDataset

from test_simulate import _config, _onehot_snapshot

OPT = OptConfig(max_iter=2000, tol=1e-13)


def _newton_logistic_reference(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    """Independent dense Newton solver for the same weighted-mean objective.

    Model: sigmoid(x@beta + intercept); the intercept is the last coordinate
    and is unregularized.
    """
    n, d = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    beta = np.zeros(d + 1)
    wsum = w.sum()
    reg = np.append(np.full(d, l2), 0.0)
    for _ in range(100):
        z = xa @ beta
        p = expit(z)
        grad = xa.T @ (w * (p - y)) / wsum + reg * beta
        hess = (xa * (w * p * (1 - p))[:, None]).T @ xa / wsum + np.diag(reg)
        step = np.linalg.solve(hess, grad)
        beta = beta - step
        if np.max(np.abs(step)) < 1e-14:
            break
    z = xa @ beta
    loss = float(w @ (np.logaddexp(0, z) - y * z)) / wsum + 0.5 * l2 * float(
        beta[:d] @ beta[:d]
    )
    return beta, loss


def _make_samples(n: int, seed: int, dim: int = 16) -> Snapshot:
    """Random snapshot rows with three active features each."""
    rng = np.random.default_rng(seed)
    cols, y, e, d = [], [], [], []
    for _ in range(n):
        cols.append(sorted(rng.choice(dim, size=3, replace=False).tolist()))
        y.append(int(rng.random() < 0.4))
        e.append(int(rng.integers(100, 10_000)))
        d.append(int(rng.integers(0, e[-1] + 1)) if y[-1] else 0)
    x = sparse.csr_matrix(
        (np.ones(3 * n), np.array(cols, dtype=np.int64).ravel(), np.arange(0, 3 * n + 1, 3)),
        shape=(n, dim),
    )
    return Snapshot(
        x=x,
        y=np.array(y, dtype=np.int8),
        e=np.array(e, dtype=np.int64),
        d=np.array(d, dtype=np.int64),
        click_ts=np.zeros(n, dtype=np.int64),
    )


def _rows(snap: Snapshot, idx) -> Snapshot:
    return Snapshot(*(a[idx] for a in snap))


def _unit_weights(snap: Snapshot) -> WeightedDataset:
    return WeightedDataset(x=snap.x, y=snap.y, e=snap.e, weights=np.ones(len(snap.y)))


def test_fit_logistic_matches_independent_newton_reference() -> None:
    rng = np.random.default_rng(0)
    n = 50
    x_dense = (rng.random((n, 2)) < 0.5).astype(float)
    y = (rng.random(n) < expit(1.5 * x_dense[:, 0] - x_dense[:, 1] - 0.3)).astype(float)
    w = rng.uniform(0.5, 3.0, n)
    l2 = 0.01

    ref_beta, ref_loss = _newton_logistic_reference(x_dense, y, w, l2)
    theta, result = fit_logistic(
        sparse.csr_matrix(x_dense), y, sample_weight=w, l2=l2, opt=OPT
    )
    assert result.loss == pytest.approx(ref_loss, abs=1e-3)
    assert np.allclose(theta, ref_beta, atol=1e-3)


def test_unit_weights_coincide_with_naive_trainer() -> None:
    samples = _make_samples(300, seed=1)
    weighted = train_weighted_logistic(_unit_weights(samples), 0.01, OPT)
    naive = train_naive_logistic(samples.x, samples.y, 0.01, OPT)
    assert np.allclose(weighted.coef, naive.coef, atol=1e-6)
    assert weighted.intercept == pytest.approx(naive.intercept, abs=1e-6)


def test_duplicated_sample_equals_weight_two() -> None:
    samples = _make_samples(120, seed=2)
    dup = _rows(samples, np.append(np.arange(120), 0))
    weights = np.ones(120)
    weights[0] = 2.0

    m_dup = train_weighted_logistic(_unit_weights(dup), 0.05, OPT)
    m_w2 = train_weighted_logistic(
        WeightedDataset(x=samples.x, y=samples.y, e=samples.e, weights=weights), 0.05, OPT
    )
    assert m_dup.meta.final_loss == pytest.approx(m_w2.meta.final_loss, abs=1e-8)


def test_sum_normalization_is_supported_and_differs() -> None:
    samples = _make_samples(100, seed=3)
    mean_model = train_naive_logistic(samples.x, samples.y, 0.5, OPT, normalization="mean")
    sum_model = train_naive_logistic(samples.x, samples.y, 0.5, OPT, normalization="sum")
    # same l2 bites much harder relative to a mean loss than a sum loss
    assert np.linalg.norm(sum_model.coef) > np.linalg.norm(mean_model.coef)


def test_empty_training_set_raises() -> None:
    empty = _rows(_make_samples(5, seed=8), slice(0, 0))
    with pytest.raises(TrainingError, match="empty"):
        train_naive_logistic(empty.x, empty.y, 0.1, OPT)
    with pytest.raises(TrainingError, match="empty"):
        train_weighted_logistic(_unit_weights(empty), 0.1, OPT)
    with pytest.raises(TrainingError, match="empty"):
        train_dfm(empty.x, empty.y, empty.d, empty.e, 0.1, OPT)


def test_bad_weight_names_offending_sample() -> None:
    samples = _make_samples(10, seed=4)
    w = np.ones(10)
    w[7] = np.inf
    with pytest.raises(TrainingError, match="sample index 7"):
        fit_logistic(samples.x, samples.y, sample_weight=w, l2=0.1)


def test_l2_path_shrinks_coefficients() -> None:
    samples = _make_samples(250, seed=5)
    norms = [
        float(np.linalg.norm(train_naive_logistic(samples.x, samples.y, l2, OPT).coef))
        for l2 in (1e-4, 1e-2, 1.0)
    ]
    assert norms[0] >= norms[1] >= norms[2]


def test_predict_cvr_examples() -> None:
    meta = TrainingMeta(seed=0, n_iter=0, final_loss=0.0, converged=True)
    zero = LinearCvrModel(coef=np.zeros(8), intercept=0.0, dim=8, l2=0.0, meta=meta)
    x = sparse.csr_matrix(np.eye(8)[[2, 5]])
    assert predict_cvr_batch(zero, x) == pytest.approx([0.5, 0.5])

    bias_only = LinearCvrModel(
        coef=np.zeros(8), intercept=math.log(0.2 / 0.8), dim=8, l2=0.0, meta=meta
    )
    assert predict_cvr_batch(bias_only, x) == pytest.approx([0.2, 0.2])

    bumped = LinearCvrModel(
        coef=np.eye(8)[2] * 0.7, intercept=0.0, dim=8, l2=0.0, meta=meta
    )
    p_bumped, p_other = predict_cvr_batch(bumped, x)
    assert 0.5 < p_bumped < 1.0
    assert p_other == pytest.approx(0.5)


def test_predict_cvr_rejects_dim_mismatch() -> None:
    meta = TrainingMeta(seed=0, n_iter=0, final_loss=0.0, converged=True)
    model = LinearCvrModel(coef=np.zeros(8), intercept=0.0, dim=8, l2=0.0, meta=meta)
    with pytest.raises(ValueError, match="feature dim 16 != model dim 8"):
        predict_cvr_batch(model, sparse.csr_matrix((1, 16)))


def test_dfm_single_positive_sample_nll_closed_form() -> None:
    # p=0.5, rate=1/day, delay=2 days: -(ln 0.5 + ln 1 - 2) = 2.6931...
    x = sparse.csr_matrix(np.zeros((1, 1)))
    theta = np.array([0.0, 0.0, 0.0, 0.0])  # sigmoid(0)=0.5, exp(0)=1/day
    loss, _ = dfm_nll_grad(
        theta,
        x,
        x.T.tocsr(),
        np.array([1.0]),
        np.array([2.0]),
        np.array([2.0]),
        l2=0.0,
        denom=1.0,
        want_grad=False,
    )
    assert loss == pytest.approx(-(math.log(0.5) - 2.0), abs=1e-12)
    assert round(loss, 4) == 2.6931


def test_dfm_negative_contribution_vanishing_censoring() -> None:
    # elapsed time huge: contribution tends to -log(1-p)
    x = sparse.csr_matrix(np.zeros((1, 1)))
    theta = np.array([0.4, 0.3, 0.0, 0.0])
    e_days = np.array([1e6])
    loss, _ = dfm_nll_grad(
        theta, x, x.T.tocsr(), np.array([0.0]), np.array([0.0]), e_days,
        l2=0.0, denom=1.0, want_grad=False,
    )
    p = expit(0.3)
    assert loss == pytest.approx(-math.log(1 - p), abs=1e-9)


def test_dfm_requires_positive_samples() -> None:
    samples = _make_samples(50, seed=6)
    neg = _rows(samples, samples.y == 0)
    with pytest.raises(TrainingError, match="positive"):
        train_dfm(neg.x, neg.y, neg.d, neg.e, 0.1, OPT)


def test_gradients_match_central_differences() -> None:
    rng = np.random.default_rng(12)
    n, dim = 60, 5
    x = sparse.csr_matrix((rng.random((n, dim)) < 0.4).astype(float))
    xt = x.T.tocsr()
    y = (rng.random(n) < 0.5).astype(float)
    w = rng.uniform(0.5, 4.0, n)
    d_days = np.where(y == 1, rng.uniform(0.1, 3.0, n), 0.0)
    e_days = rng.uniform(0.2, 10.0, n)
    l2 = 0.3
    wsum = w.sum()

    def logistic_obj(theta: np.ndarray) -> float:
        z = x @ theta[:dim] + theta[dim]
        return float(w @ (np.logaddexp(0, z) - y * z)) / wsum + 0.5 * l2 * float(
            theta[:dim] @ theta[:dim]
        )

    def logistic_grad(theta: np.ndarray) -> np.ndarray:
        z = x @ theta[:dim] + theta[dim]
        dz = w * (expit(z) - y) / wsum
        g = np.empty(dim + 1)
        g[:dim] = xt @ dz + l2 * theta[:dim]
        g[dim] = dz.sum()
        return g

    def dfm_obj(theta: np.ndarray) -> float:
        return dfm_nll_grad(theta, x, xt, y, d_days, e_days, l2, float(n), want_grad=False)[0]

    def dfm_grad(theta: np.ndarray) -> np.ndarray:
        return dfm_nll_grad(theta, x, xt, y, d_days, e_days, l2, float(n))[1]

    h = 1e-6
    for trial in range(20):
        point_rng = np.random.default_rng(100 + trial)
        for obj, grad, size in (
            (logistic_obj, logistic_grad, dim + 1),
            (dfm_obj, dfm_grad, 2 * dim + 2),
        ):
            theta = point_rng.normal(0, 0.8, size)
            analytic = grad(theta)
            numeric = np.empty(size)
            for j in range(size):
                up, down = theta.copy(), theta.copy()
                up[j] += h
                down[j] -= h
                numeric[j] = (obj(up) - obj(down)) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-5


def test_dfm_recovers_ground_truth_on_well_specified_data() -> None:
    cfg = _config(
        n=40_000, seed=21, cards=(8,), cvr_bias=-1.2, cvr_spread=0.9,
        mean_delay=2 * 86400, rate_spread=0.5, time_span=12 * 86400,
    )
    arrays = generate_arrays(cfg)
    snap = _onehot_snapshot(arrays, cfg.time_span)

    model = train_dfm(
        snap.x, snap.y, snap.d, snap.e, 1e-6, OptConfig(max_iter=1500, tol=1e-12)
    )
    p_hat = predict_cvr_batch(model, snap.x)
    mae = float(np.mean(np.abs(p_hat - arrays.true_p)))
    assert mae <= 0.02

    rate_hat = predict_delay_rate(model, snap.x, per="second")
    rel = float(np.mean(np.abs(rate_hat - arrays.true_rate) / arrays.true_rate))
    assert rel <= 0.10


def test_naive_trainer_underestimates_on_censored_data() -> None:
    cfg = _config(n=20_000, seed=33, cards=(8,), mean_delay=5 * 86400, time_span=10 * 86400)
    arrays = generate_arrays(cfg)
    snap = _onehot_snapshot(arrays, cfg.time_span)
    model = train_naive_logistic(snap.x, snap.y, 1e-5, OptConfig(max_iter=400))
    mean_pred = float(np.mean(predict_cvr_batch(model, snap.x)))
    assert mean_pred < arrays.true_p.mean()


def test_model_save_load_round_trip(tmp_path) -> None:
    samples = _make_samples(150, seed=7)
    linear = train_naive_logistic(samples.x, samples.y, 0.01, OptConfig(max_iter=200))
    save_model(linear, tmp_path / "linear.json")
    loaded = load_model(tmp_path / "linear.json")
    assert isinstance(loaded, LinearCvrModel)
    assert np.array_equal(loaded.coef, linear.coef)
    assert loaded.intercept == linear.intercept
    assert loaded.meta == linear.meta

    dfm = train_dfm(samples.x, samples.y, samples.d, samples.e, 0.01, OptConfig(max_iter=100))
    save_model(dfm, tmp_path / "dfm.json")
    loaded_dfm = load_model(tmp_path / "dfm.json")
    assert isinstance(loaded_dfm, DfmModel)
    assert np.array_equal(loaded_dfm.delay_coef, dfm.delay_coef)
    assert np.array_equal(predict_cvr_batch(loaded_dfm, samples.x), predict_cvr_batch(dfm, samples.x))


def test_load_model_rejects_unknown_format(tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else/9"}', encoding="utf-8")
    with pytest.raises(ValueError, match="format"):
        load_model(path)
