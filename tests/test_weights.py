"""Weight-model fitting and weight assignment: elapsed-time features, closed-form
calibration, clipping, degenerate fallbacks, and bias correction end to end."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from fsiw.optim import OptConfig
from fsiw.relabel import build_artificial_datasets
from fsiw.simulate import generate_arrays
from fsiw.training import predict_cvr_batch, train_naive_logistic, train_weighted_logistic
from fsiw.weights import (
    DEFAULT_EDGES,
    DesignRows,
    WeightedDataset,
    WeightModel,
    WeightModelHyper,
    assign_fsiw,
    dump_weights,
    fit_weight_model,
    weight_design,
)

from simworld import onehot_snapshot, oracle_fsiw_array, snapshot_arrays
from test_simulate import _config

DAY = 86400


def _onehot(cols, dim: int = 8) -> sparse.csr_matrix:
    """One active feature per row, in column ``cols[i]``."""
    cols = np.asarray(cols)
    return sparse.csr_matrix(
        (np.ones(cols.size), cols, np.arange(cols.size + 1)), shape=(cols.size, dim)
    )


def _constant_model(value: float, dim: int = 8) -> WeightModel:
    return WeightModel(
        coef=np.zeros(dim + len(DEFAULT_EDGES) + 2),
        intercept=0.0,
        edges=DEFAULT_EDGES,
        degenerate=True,
        constant=value,
    )


def _elapsed_columns(e) -> np.ndarray:
    """The design's columns after the hashed features, as a dense block."""
    e = np.asarray(e, dtype=float)
    return weight_design(sparse.csr_matrix((e.size, 0)), e, DEFAULT_EDGES).toarray()


def test_basis_shape_and_bin_placement() -> None:
    out = _elapsed_columns([1800.0, 3600.0, 3601.0, 1e7])
    assert out.shape == (4, len(DEFAULT_EDGES) + 2)
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
        _elapsed_columns([3600.0, 0.0])


def _hstack_design(x: sparse.csr_matrix, e: np.ndarray, edges) -> sparse.csr_matrix:
    """The design as it was built before: the dense bin and log-day block,
    converted to CSR and stacked beside ``x``."""
    e = np.asarray(e, dtype=float)
    block = np.zeros((e.size, len(edges) + 2))
    block[np.arange(e.size), np.searchsorted(np.asarray(edges, dtype=float), e)] = 1.0
    block[:, -1] = np.log(e / DAY)
    return sparse.hstack([x, sparse.csr_matrix(block)], format="csr")


# elapsed times on and around the default edges, including exactly one day,
# whose log-day entry is zero and so not stored
ELAPSED = st.one_of(
    st.sampled_from([1.0, 3599.0, 3600.0, 3601.0, 86399.0, 86400.0, 86401.0, 604800.0]),
    st.floats(1e-3, 1e8),
)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(0, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.5]), min_size=5, max_size=5),
                     min_size=n, max_size=n),
            st.lists(ELAPSED, min_size=n, max_size=n),
        )
    ),
    st.sampled_from([DEFAULT_EDGES, (86400,), (3600, 86400, 172800)]),
)
def test_weight_design_matches_the_hstack_reference(rows, edges) -> None:
    dense, e = rows
    x = sparse.csr_matrix(np.array(dense, dtype=float).reshape(len(e), 5))
    e = np.array(e)
    got, want = weight_design(x, e, edges), _hstack_design(x, e, edges)
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
    one_day = e == 86400.0
    assert np.array_equal(np.diff(got.indptr)[one_day], np.diff(x.indptr)[one_day] + 1)


def test_basis_rejects_bad_edges() -> None:
    message = "^edges must be strictly increasing positive durations$"
    with pytest.raises(ValueError, match=message):
        WeightModelHyper(edges=(3600, 3600, 7200))
    with pytest.raises(ValueError, match=message):
        WeightModelHyper(edges=(7200, 3600))
    with pytest.raises(ValueError, match=message):
        WeightModelHyper(edges=(0, 3600))


def test_hyper_validation() -> None:
    with pytest.raises(ValueError, match="holdout"):
        WeightModelHyper(holdout_fraction=0.5)
    model = _constant_model(0.5)
    x, y, e = _onehot([0]), np.array([1]), np.array([3600])
    with pytest.raises(ValueError, match="clip_floor"):
        assign_fsiw(model, model, DesignRows(x, e), y, clip_floor=0.0)
    with pytest.raises(ValueError, match="clip_floor"):
        assign_fsiw(model, model, DesignRows(x, e), y, clip_floor=1.0)


def test_edges_given_as_a_list_predict_like_a_tuple() -> None:
    rng = np.random.default_rng(3)
    x = _onehot(rng.integers(0, 8, 200))
    e_adj, s = rng.integers(600, 5 * DAY, 200), (rng.random(200) < 0.5).astype(int)
    as_list = fit_weight_model(x, e_adj, s, WeightModelHyper(edges=[3600, 86400]))
    as_tuple = fit_weight_model(x, e_adj, s, WeightModelHyper(edges=(3600, 86400)))
    rows = DesignRows(x, e_adj)
    assert np.array_equal(as_list.predict_rows(rows), as_tuple.predict_rows(rows))
    # and from a design each builds for itself
    assert np.array_equal(
        as_list.predict_rows(DesignRows(x, e_adj)), as_tuple.predict_rows(DesignRows(x, e_adj))
    )


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
    assert np.all(model.predict_rows(DesignRows(x, 2.0 * e_adj)) == 1.0)

    with pytest.warns(RuntimeWarning):
        model = fit_weight_model(x, e_adj, np.zeros(30))
    # the constant is the raw class rate; assign_fsiw lifts it to the clip floor
    assert np.all(model.predict_rows(DesignRows(x[:1], np.array([3600.0]))) == 0.0)
    weighted = assign_fsiw(
        model, model, DesignRows(x[:2], np.array([3600, 3600])), np.array([0, 1]), clip_floor=0.05
    )
    assert weighted.weights.tolist() == [0.05, 1 / 0.05]


def test_fit_is_invariant_to_duplicating_every_row() -> None:
    rng = np.random.default_rng(4)
    cols, e_adj, s = [], [], []
    for _ in range(400):
        cols.append(int(rng.integers(0, 8)))
        e_adj.append(int(rng.integers(600, 5 * DAY)))
        s.append(int(rng.random() < 0.5))
    x, e_adj, s = _onehot(cols), np.array(e_adj), np.array(s)
    hyper = WeightModelHyper(holdout_fraction=0.0, max_iter=500)
    single = fit_weight_model(x, e_adj, s, hyper)
    doubled = fit_weight_model(
        sparse.vstack([x, x], format="csr"), np.tile(e_adj, 2), np.tile(s, 2), hyper
    )
    grid = DesignRows(_onehot(np.arange(8)), np.full(8, float(DAY)))
    assert np.allclose(single.predict_rows(grid), doubled.predict_rows(grid), atol=1e-6)


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
    pred = model.predict_rows(DesignRows(x, e_adj.astype(float)))
    assert float(np.mean(np.abs(pred - p_true))) < 0.05


def test_assign_reciprocal_and_clip_examples() -> None:
    x, y, e = _onehot([0, 0]), np.array([1, 0]), np.array([7200, 7200])
    out = assign_fsiw(_constant_model(0.5), _constant_model(0.8), DesignRows(x, e), y)
    assert out.weights[0] == pytest.approx(2.0)
    assert out.weights[1] == pytest.approx(0.8)

    # a probability of 0.001 hits the 0.01 floor, capping the weight at 100
    out = assign_fsiw(_constant_model(0.001), _constant_model(0.001), DesignRows(x, e), y)
    assert out.weights[0] == pytest.approx(100.0)
    assert out.weights[1] == pytest.approx(0.01)


def test_assign_uses_original_elapsed_time() -> None:
    seen: list[np.ndarray] = []

    class _Spy:
        def predict_rows(self, rows):
            seen.append(np.asarray(rows.e, dtype=float).copy())
            return np.full(rows.x.shape[0], 0.5)

    rows = DesignRows(_onehot([0, 0]), np.array([9000, 123456]))
    assign_fsiw(_Spy(), _Spy(), rows, np.array([1, 0]))
    for arr in seen:
        assert np.array_equal(arr, np.array([9000.0, 123456.0]))


def test_assign_empty_input() -> None:
    model = _constant_model(0.5)
    rows = DesignRows(_onehot([]), np.zeros(0, dtype=np.int64))
    out = assign_fsiw(model, model, rows, np.zeros(0, dtype=np.int8))
    assert len(out) == 0


def test_oracle_probability_stubs_reproduce_oracle_weights() -> None:
    cfg = _config(n=4000, seed=11)
    arrays = generate_arrays(cfg)
    snap = onehot_snapshot(arrays, cfg.time_span)
    y, e = snapshot_arrays(arrays, cfg.time_span)

    class _TrueObserved:
        def predict_rows(self, rows):
            return -np.expm1(-arrays.true_rate[: rows.x.shape[0]] * np.asarray(rows.e))

    class _TrueStillNegative:
        def predict_rows(self, rows):
            p = arrays.true_p[: rows.x.shape[0]]
            surv = np.exp(-arrays.true_rate[: rows.x.shape[0]] * np.asarray(rows.e))
            return (1 - p) / ((1 - p) + p * surv)

    got = assign_fsiw(
        _TrueObserved(), _TrueStillNegative(), DesignRows(snap.x, snap.e), snap.y, clip_floor=1e-9
    ).weights
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
    snap = onehot_snapshot(arrays, training_end)

    frac_censored_pos = 1.0 - snap.y.sum() / arrays.c.sum()
    assert frac_censored_pos >= 0.30  # the regime this test is about

    d1, d0 = build_artificial_datasets(snap, 4 * DAY)
    hyper = WeightModelHyper(l2=1e-4)
    weighted = assign_fsiw(
        fit_weight_model(snap.x[d1.idx], d1.e_adj, d1.s, hyper),
        fit_weight_model(snap.x[d0.idx], d0.e_adj, d0.s, hyper),
        DesignRows(snap.x, snap.e),
        snap.y,
    )

    opt = OptConfig(max_iter=400, tol=1e-10)
    naive = train_naive_logistic(snap.x, snap.y, 1e-4, opt)
    corrected = train_weighted_logistic(weighted, 1e-4, opt)
    true_mean = float(arrays.true_p.mean())
    mean_naive = float(np.mean(predict_cvr_batch(naive, snap.x)))
    mean_corrected = float(np.mean(predict_cvr_batch(corrected, snap.x)))

    assert mean_naive < true_mean * 0.9  # >10% relative underestimate
    gap_ratio = abs(mean_corrected - true_mean) / abs(mean_naive - true_mean)
    assert gap_ratio <= 0.5
