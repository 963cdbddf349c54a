"""Weight-model fitting and weight assignment: basis features, closed-form
calibration, clipping, degenerate fallbacks, and bias correction end to end."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import sparse

from fsiw.optim import OptConfig
from fsiw.relabel import RelabelConfig, build_artificial_datasets
from fsiw.simulate import generate_arrays, oracle_fsiw_array, snapshot_arrays
from fsiw.training import predict_cvr_batch, train_naive_logistic, train_weighted_logistic
from fsiw.weights import (
    DEFAULT_EDGES,
    ElapsedBasis,
    WeightedDataset,
    WeightModel,
    WeightModelHyper,
    WeightModelPair,
    assign_fsiw,
    dump_weights,
    fit_weight_model,
)

from test_simulate import _config, _onehot_snapshot

DAY = 86400


def _onehot(cols, dim: int = 8) -> sparse.csr_matrix:
    """One active feature per row, in column ``cols[i]``."""
    cols = np.asarray(cols)
    return sparse.csr_matrix(
        (np.ones(cols.size), cols, np.arange(cols.size + 1)), shape=(cols.size, dim)
    )


def _constant_model(value: float, dim: int = 8) -> WeightModel:
    basis = ElapsedBasis()
    return WeightModel(
        coef=np.zeros(dim + basis.n_columns),
        intercept=0.0,
        dim=dim,
        basis=basis,
        degenerate=True,
        constant=value,
    )


def test_basis_shape_and_bin_placement() -> None:
    basis = ElapsedBasis()
    assert basis.n_columns == len(DEFAULT_EDGES) + 2
    out = basis.transform(np.array([1800.0, 3600.0, 3601.0, 1e7]))
    # 1800 and 3600 fall in the first bucket, 3601 in the second,
    # anything past the last edge in the overflow bucket
    assert out[0, 0] == 1.0 and out[1, 0] == 1.0
    assert out[2, 1] == 1.0
    assert out[3, len(DEFAULT_EDGES)] == 1.0
    # exactly one indicator per row
    assert np.array_equal(out[:, :-1].sum(axis=1), np.ones(4))
    # last column is log of elapsed days
    assert out[3, -1] == pytest.approx(math.log(1e7 / 86400.0))


def test_basis_rejects_nonpositive_elapsed() -> None:
    with pytest.raises(ValueError, match="positive"):
        ElapsedBasis().transform(np.array([3600.0, 0.0]))


def test_basis_rejects_bad_edges() -> None:
    with pytest.raises(ValueError):
        ElapsedBasis(edges=(3600, 3600, 7200))
    with pytest.raises(ValueError):
        ElapsedBasis(edges=(7200, 3600))
    with pytest.raises(ValueError):
        ElapsedBasis(edges=(0, 3600))


def test_hyper_validation() -> None:
    with pytest.raises(ValueError, match="holdout"):
        WeightModelHyper(holdout_fraction=0.5)
    with pytest.raises(ValueError, match="clip_floor"):
        WeightModelHyper(clip_floor=0.0)
    with pytest.raises(ValueError, match="clip_floor"):
        WeightModelHyper(clip_floor=1.0)


def test_fit_rejects_empty_input() -> None:
    with pytest.raises(ValueError, match="empty"):
        fit_weight_model(_onehot([]), np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError, match="length mismatch"):
        fit_weight_model(_onehot([0, 1]), np.ones(2), np.array([0, 1, 1]))


def test_single_class_falls_back_to_constant_with_warning() -> None:
    x = _onehot(np.arange(30) % 4)
    e_adj = 3600 * (np.arange(30) + 1)
    with pytest.warns(RuntimeWarning, match="single s-class"):
        model = fit_weight_model(x, e_adj, np.ones(30))
    assert model.degenerate
    assert np.all(model.predict(x, 2.0 * e_adj) == 1.0)

    with pytest.warns(RuntimeWarning):
        model = fit_weight_model(x, e_adj, np.zeros(30))
    # constant sits at the clip floor rather than at an exact zero
    assert np.all(model.predict(x[:1], np.array([3600.0])) == WeightModelHyper().clip_floor)


def test_fit_is_invariant_to_duplicating_every_row() -> None:
    rng = np.random.default_rng(4)
    cols, e_adj, s = [], [], []
    for _ in range(400):
        cols.append(int(rng.integers(0, 8)))
        e_adj.append(int(rng.integers(600, 5 * DAY)))
        s.append(int(rng.random() < 0.5))
    x, e_adj, s = _onehot(cols), np.array(e_adj), np.array(s)
    hyper = WeightModelHyper(holdout_fraction=0.0, opt=OptConfig(max_iter=500, tol=1e-12))
    single = fit_weight_model(x, e_adj, s, hyper)
    doubled = fit_weight_model(
        sparse.vstack([x, x], format="csr"), np.tile(e_adj, 2), np.tile(s, 2), hyper
    )
    grid_x = _onehot(np.arange(8))
    grid_e = np.full(8, float(DAY))
    assert np.allclose(
        single.predict(grid_x, grid_e), doubled.predict(grid_x, grid_e), atol=1e-6
    )


def test_fit_calibrates_against_closed_form_probabilities() -> None:
    rng = np.random.default_rng(7)
    n_cells, n = 8, 30_000
    lam = np.exp(rng.uniform(-1.5, 0.5, n_cells)) / (2 * DAY)
    cell = rng.integers(0, n_cells, n)
    e_adj = rng.uniform(0.05 * DAY, 6 * DAY, n).astype(int)
    p_true = 1.0 - np.exp(-lam[cell] * e_adj)
    s = (rng.random(n) < p_true).astype(int)
    x = _onehot(cell, dim=n_cells)
    model = fit_weight_model(x, e_adj, s, WeightModelHyper(l2=1e-4))
    pred = model.predict(x, e_adj.astype(float))
    assert float(np.mean(np.abs(pred - p_true))) < 0.05


def test_assign_reciprocal_and_clip_examples() -> None:
    x, y, e = _onehot([0, 0]), np.array([1, 0]), np.array([7200, 7200])
    pair = WeightModelPair(model_pos=_constant_model(0.5), model_neg=_constant_model(0.8))
    out = assign_fsiw(pair, x, y, e)
    assert out.weights[0] == pytest.approx(2.0)
    assert out.weights[1] == pytest.approx(0.8)

    # a probability of 0.001 hits the 0.01 floor, capping the weight at 100
    pair_tiny = WeightModelPair(model_pos=_constant_model(0.001), model_neg=_constant_model(0.001))
    out = assign_fsiw(pair_tiny, x, y, e)
    assert out.weights[0] == pytest.approx(100.0)
    assert out.weights[1] == pytest.approx(0.01)


def test_assign_uses_original_elapsed_time() -> None:
    seen: list[np.ndarray] = []

    class _Spy:
        def predict(self, x, e):
            seen.append(np.asarray(e, dtype=float).copy())
            return np.full(x.shape[0], 0.5)

    pair = WeightModelPair(model_pos=_Spy(), model_neg=_Spy())
    assign_fsiw(pair, _onehot([0, 0]), np.array([1, 0]), np.array([9000, 123456]))
    for arr in seen:
        assert np.array_equal(arr, np.array([9000.0, 123456.0]))


def test_assign_empty_input() -> None:
    pair = WeightModelPair(model_pos=_constant_model(0.5), model_neg=_constant_model(0.5))
    out = assign_fsiw(pair, _onehot([]), np.zeros(0, dtype=np.int8), np.zeros(0, dtype=np.int64))
    assert len(out) == 0


def test_oracle_probability_stubs_reproduce_oracle_weights() -> None:
    cfg = _config(n=4000, seed=11)
    arrays = generate_arrays(cfg)
    snap = _onehot_snapshot(arrays, cfg.time_span)
    y, e = snapshot_arrays(arrays, cfg.time_span)

    class _TrueObserved:
        def predict(self, x, e_arr):
            return -np.expm1(-arrays.true_rate[: x.shape[0]] * np.asarray(e_arr))

    class _TrueStillNegative:
        def predict(self, x, e_arr):
            p = arrays.true_p[: x.shape[0]]
            surv = np.exp(-arrays.true_rate[: x.shape[0]] * np.asarray(e_arr))
            return (1 - p) / ((1 - p) + p * surv)

    pair = WeightModelPair(
        model_pos=_TrueObserved(), model_neg=_TrueStillNegative(), clip_floor=1e-9
    )
    got = assign_fsiw(pair, snap.x, snap.y, snap.e).weights
    want = oracle_fsiw_array(arrays.true_p, arrays.true_rate, e.astype(float), y)
    assert np.allclose(got, want, atol=1e-9)


def _weighted(y, weights, e=None) -> WeightedDataset:
    y = np.asarray(y, dtype=np.int8)
    e = np.full(y.size, 7200) if e is None else np.asarray(e)
    return WeightedDataset(x=_onehot(np.zeros(y.size, dtype=int)), y=y, e=e, weights=np.asarray(weights))


def test_weighted_dataset_invariants() -> None:
    with pytest.raises(ValueError, match="negative sample 0 has weight 1.5 > 1"):
        _weighted([0], [1.5])
    with pytest.raises(ValueError, match="positive sample 0 has weight 0.5 < 1"):
        _weighted([1], [0.5])
    with pytest.raises(ValueError, match="mismatch"):
        _weighted([1], [1.0, 2.0])
    with pytest.raises(ValueError, match="mismatch"):
        WeightedDataset(x=_onehot([0, 0]), y=np.array([1]), e=np.array([1]), weights=np.ones(1))
    with pytest.raises(ValueError, match="positive and finite"):
        _weighted([1], [np.nan])
    # the first offending row is named, whatever its class
    with pytest.raises(ValueError, match="positive sample 2 has weight"):
        _weighted([1, 0, 1, 0], [1.0, 1.0, 0.9, 1.5])
    # boundary weight 1.0 is legal on both classes
    _weighted([1, 0], [1.0, 1.0])


def test_dump_weights_round_trips_exact_floats(tmp_path) -> None:
    data = _weighted([1, 0], [1.0 / 3.0 + 1.0, 0.7], e=[7200, 3600])
    path = tmp_path / "weights.tsv"
    dump_weights(data, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "index\ty\te\tweight"
    fields = [line.split("\t") for line in lines[1:]]
    assert [f[0] for f in fields] == ["0", "1"]
    assert [f[1] for f in fields] == ["1", "0"]
    assert [f[2] for f in fields] == ["7200", "3600"]
    assert [float(f[3]) for f in fields] == [1.0 / 3.0 + 1.0, 0.7]


def test_fitted_weights_shrink_the_downward_bias_gap() -> None:
    cfg = _config(
        n=30_000, seed=2, cvr_bias=-1.5, cvr_spread=1.0,
        mean_delay=4 * DAY, rate_spread=0.5, time_span=10 * DAY,
    )
    arrays = generate_arrays(cfg)
    training_end = cfg.time_span
    snap = _onehot_snapshot(arrays, training_end)

    frac_censored_pos = 1.0 - snap.y.sum() / arrays.c.sum()
    assert frac_censored_pos >= 0.30  # the regime this test is about

    d1, d0 = build_artificial_datasets(
        snap, RelabelConfig(tau=4 * DAY, training_end=training_end)
    )
    hyper = WeightModelHyper(l2=1e-4)
    pair = WeightModelPair(
        model_pos=fit_weight_model(snap.x[d1.idx], d1.e_adj, d1.s, hyper),
        model_neg=fit_weight_model(snap.x[d0.idx], d0.e_adj, d0.s, hyper),
    )
    weighted = assign_fsiw(pair, snap.x, snap.y, snap.e)

    opt = OptConfig(max_iter=400, tol=1e-10)
    naive = train_naive_logistic(snap.x, snap.y, 1e-4, opt)
    corrected = train_weighted_logistic(weighted, 1e-4, opt)
    true_mean = float(arrays.true_p.mean())
    mean_naive = float(np.mean(predict_cvr_batch(naive, snap.x)))
    mean_corrected = float(np.mean(predict_cvr_batch(corrected, snap.x)))

    assert mean_naive < true_mean * 0.9  # >10% relative underestimate
    gap_ratio = abs(mean_corrected - true_mean) / abs(mean_naive - true_mean)
    assert gap_ratio <= 0.5
