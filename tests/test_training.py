"""Trainer correctness: reference optima, algebraic identities, gradients,
model recovery on synthetic ground truth, and serialization."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import expit

from fsiw.data import Snapshot, snapshot_labels
from fsiw.experiment import SimulatorSpec
from fsiw.optim import OptConfig, TrainingMeta, minimize_batch, softplus_sigmoid
from fsiw.simulate import generate_arrays, to_click_log
from fsiw.training import (
    MODEL_FORMAT,
    SECONDS_PER_DAY,
    DfmModel,
    LinearCvrModel,
    RowGroups,
    TrainingError,
    _distinct_rows,
    _fit_distinct,
    fit_logistic,
    predict_cvr_batch,
    save_model,
    train_dfm,
    train_naive_logistic,
    train_weighted_logistic,
)
from fsiw.weights import WeightedDataset, WeightModelHyper, fit_weight_model

from simworld import dfm_nll_grad, onehot_snapshot, predict_delay_rate
from test_simulate import _config

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
    theta, meta = fit_logistic(sparse.csr_matrix(x_dense), y, sample_weight=w, l2=l2, opt=OPT)
    assert meta.final_loss == pytest.approx(ref_loss, abs=1e-3)
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
    assert np.array_equal(m_dup.coef, m_w2.coef)
    assert m_dup.intercept == m_w2.intercept
    assert m_dup.meta == m_w2.meta


# --- fits over distinct rows -------------------------------------------------


@st.composite
def _csr_with_repeats(draw) -> sparse.csr_matrix:
    """A CSR matrix drawn from a few row templates, so rows repeat; templates
    vary in length (empty included), and stored values are not all 1.0."""
    dim = draw(st.integers(1, 6))
    entry = st.tuples(st.integers(0, dim - 1), st.sampled_from([1.0, 2.0, -0.5, 0.25]))
    template = st.lists(entry, max_size=4, unique_by=lambda e: e[0])
    templates = draw(st.lists(template, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(templates) - 1), max_size=30))
    rows = [templates[i] for i in picks]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([c for r in rows for c, _ in r], dtype=np.int32)
    data = np.array([v for r in rows for _, v in r], dtype=np.float64)
    return sparse.csr_matrix((data, indices, indptr), shape=(len(rows), dim))


@settings(max_examples=200, deadline=None)
@given(_csr_with_repeats())
def test_distinct_rows_give_back_the_matrix(x) -> None:
    first, inverse = _distinct_rows(x)
    back = x[first][inverse]
    assert np.array_equal(back.indptr, x.indptr)
    assert np.array_equal(back.indices, x.indices)
    assert np.array_equal(back.data, x.data)
    # representatives are first occurrences, in row order, and all differ
    assert np.array_equal(first, np.sort(first))
    assert np.array_equal(inverse[first], np.arange(first.size))
    reps = x[first]
    keys = {
        (tuple(reps.indices[a:b]), reps.data[a:b].tobytes())
        for a, b in zip(reps.indptr[:-1], reps.indptr[1:])
    }
    assert len(keys) == first.size


def _per_row_fit(
    x: sparse.csr_matrix, y: np.ndarray, w: np.ndarray, l2: float, opt: OptConfig
) -> tuple[np.ndarray, TrainingMeta]:
    """The logistic fit with one objective term per row of ``x``: the
    objective the trainers minimized before they grouped repeated rows."""
    dim = x.shape[1]
    y = np.asarray(y, dtype=float)
    denom = float(w.sum())
    xt = x.T.tocsr()

    def value_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        coef = theta[:dim]
        z = x @ coef + theta[dim]
        sp, p = softplus_sigmoid(z)
        loss = float(w @ (sp - y * z)) / denom + 0.5 * l2 * float(coef @ coef)
        dz = w * (p - y) / denom
        grad = np.empty(dim + 1)
        grad[:dim] = xt @ dz + l2 * coef
        grad[dim] = dz.sum()
        return loss, grad

    return minimize_batch(value_grad, np.zeros(dim + 1), opt)


def _distinct_samples(n: int, seed: int) -> Snapshot:
    """Snapshot rows with no repeated feature row: row i stores 1 + i // 16 in
    column i % 16, and 1.0 in one of the columns 16-23 and one of 24-31."""
    rng = np.random.default_rng(seed)
    rows = np.arange(n)
    cols = np.column_stack([rows % 16, rng.integers(16, 24, n), rng.integers(24, 32, n)])
    data = np.column_stack([1.0 + rows // 16, np.ones((n, 2))])
    x = sparse.csr_matrix((data.ravel(), cols.ravel(), np.arange(0, 3 * n + 1, 3)), shape=(n, 32))
    y = (rng.random(n) < 0.3).astype(np.int8)
    return Snapshot(x=x, y=y, e=np.full(n, 100), d=np.zeros(n, dtype=np.int64))


def _fsiw_like_weights(y: np.ndarray, seed: int) -> np.ndarray:
    """Weights as assign_fsiw gives them: above 1 on positives, at most 1 on
    negatives."""
    rng = np.random.default_rng(seed)
    return np.where(y == 1, rng.uniform(1.0, 5.0, y.size), rng.uniform(0.2, 1.0, y.size))


def test_a_fit_without_repeated_rows_runs_the_per_row_arithmetic() -> None:
    samples = _distinct_samples(300, seed=3)
    assert _distinct_rows(samples.x)[0].size == 300
    w = _fsiw_like_weights(samples.y, seed=4)
    opt = OptConfig(max_iter=60, tol=0.0)

    for model, weights in (
        (train_naive_logistic(samples.x, samples.y, 0.01, opt), np.ones(300)),
        (
            train_weighted_logistic(
                WeightedDataset(x=samples.x, y=samples.y, e=samples.e, weights=w), 0.01, opt
            ),
            w,
        ),
    ):
        theta, meta = _per_row_fit(samples.x, samples.y, weights, 0.01, opt)
        assert np.array_equal(model.coef, theta[:-1])
        assert model.intercept == theta[-1]
        assert model.meta == meta


def _readme_world_split(n_samples: int, seed: int) -> Snapshot:
    """The README world (two 8-value fields, hash dim 1024), snapshot-labeled
    at the end of its 7-day training window."""
    spec = SimulatorSpec(
        n_samples=n_samples,
        field_cardinalities=(8, 8),
        time_span=10 * 86400,
        cvr_bias=-1.5,
        mean_delay=86400,
        rate_spread=0.4,
    )
    log = to_click_log(generate_arrays(spec.build(seed)), dim=1024, seed=0)
    return snapshot_labels(log, 7 * 86400)


def test_a_fit_over_distinct_rows_matches_the_per_row_fit_on_the_readme_world() -> None:
    snap = _readme_world_split(3000, seed=5)
    assert _distinct_rows(snap.x)[0].size <= 64
    w = _fsiw_like_weights(snap.y, seed=6)
    weighted = WeightedDataset(x=snap.x, y=snap.y, e=snap.e, weights=w)

    for model, weights in (
        (train_naive_logistic(snap.x, snap.y, 1e-4, OPT), np.ones(snap.y.size)),
        (train_weighted_logistic(weighted, 1e-4, OPT), w),
    ):
        theta, meta = _per_row_fit(snap.x, snap.y, weights, 1e-4, OPT)
        assert np.max(np.abs(model.coef - theta[:-1])) <= 1e-8
        assert model.intercept == pytest.approx(theta[-1], abs=1e-8)
        assert model.meta.final_loss == pytest.approx(meta.final_loss, abs=1e-8)


def _per_row_dfm_fit(
    x: sparse.csr_matrix, y: np.ndarray, d: np.ndarray, e: np.ndarray, l2: float, opt: OptConfig
) -> tuple[np.ndarray, TrainingMeta]:
    """train_dfm's fit with the per-row objective (``dfm_nll_grad`` on
    ``x`` itself) from train_dfm's data-dependent start, over the columns
    some row touches; theta comes back laid out over all of x's columns,
    0.0 on the others."""
    dim = x.shape[1]
    cols = np.unique(x.indices)
    k = cols.size
    x = sparse.csr_matrix(
        (x.data, np.searchsorted(cols, x.indices), x.indptr), shape=(x.shape[0], k)
    )
    y = np.asarray(y, dtype=float)
    d_days, e_days = d / SECONDS_PER_DAY, e / SECONDS_PER_DAY
    theta0 = np.zeros(2 * k + 2)
    base = min(max(float(y.mean()), 1e-6), 1.0 - 1e-6)
    theta0[k] = np.log(base / (1.0 - base))
    theta0[2 * k + 1] = -np.log(max(float(d_days[y == 1].mean()), 1e-6))
    xt = x.T.tocsr()

    def value_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        return dfm_nll_grad(theta, x, xt, y, d_days, e_days, l2, float(y.size))

    fitted, meta = minimize_batch(value_grad, theta0, opt)
    theta = np.zeros(2 * dim + 2)
    theta[cols], theta[dim] = fitted[:k], fitted[k]
    theta[dim + 1 + cols], theta[-1] = fitted[k + 1 : -1], fitted[-1]
    return theta, meta


def _distinct_delayed_samples(n: int, seed: int) -> Snapshot:
    """``_distinct_samples`` with a delay of 40 s on every positive."""
    snap = _distinct_samples(n, seed)
    return Snapshot(x=snap.x, y=snap.y, e=snap.e, d=np.where(snap.y == 1, 40, 0))


@pytest.mark.parametrize(
    ("world", "distinct"),
    [
        # at most 64 distinct rows of about 2k: the objective gathers
        (lambda: _readme_world_split(3000, seed=5), lambda n: n <= 64),
        # 300 rows drawn from 560 feature sets: some repeat, most do not
        (lambda: _make_samples(300, seed=7), lambda n: 150 < n < 300),
        # no row repeats
        (lambda: _distinct_delayed_samples(300, seed=8), lambda n: n == 300),
    ],
    ids=["readme_world", "mostly_distinct", "all_distinct"],
)
def test_dfm_on_row_groups_is_the_per_row_fit_bit_for_bit(world, distinct) -> None:
    snap = world()
    opt = OptConfig(max_iter=60, tol=0.0)
    groups = RowGroups(snap.x)
    assert distinct(groups.first.size)
    theta, meta = _per_row_dfm_fit(snap.x, snap.y, snap.d, snap.e, 1e-4, opt)
    for x in (groups, snap.x):
        model = train_dfm(x, snap.y, snap.d, snap.e, 1e-4, opt)
        assert model.cvr_coef.tobytes() == theta[: snap.x.shape[1]].tobytes()
        assert model.cvr_intercept == theta[snap.x.shape[1]]
        assert model.delay_coef.tobytes() == theta[snap.x.shape[1] + 1 : -1].tobytes()
        assert model.delay_intercept == theta[-1]
        assert model.meta == meta


# --- fits over the columns their rows touch ----------------------------------

# the default hashing.dim
_WIDE = 1 << 17


def _stored_at(x: sparse.csr_matrix, dim: int) -> sparse.csr_matrix:
    """The rows of ``x``, the same stored entries, in a matrix of ``dim`` columns."""
    return sparse.csr_matrix((x.data, x.indices, x.indptr), shape=(x.shape[0], dim))


def _with_entry(x: sparse.csr_matrix, cols: np.ndarray) -> sparse.csr_matrix:
    """``x`` with 1.0 in column ``cols[i]`` appended to the end of row i."""
    ends = x.indptr[1:]
    indptr = x.indptr + np.arange(x.shape[0] + 1)
    return sparse.csr_matrix(
        (np.insert(x.data, ends, 1.0), np.insert(x.indices, ends, cols), indptr), shape=x.shape
    )


def _assert_spread(narrow: np.ndarray, wide: np.ndarray, touched: np.ndarray) -> None:
    """``wide`` holds the bits of ``narrow`` on its first columns and +0.0
    beyond, and both are +0.0 on every column outside ``touched``."""
    assert wide[: narrow.size].tobytes() == narrow.tobytes()
    assert wide[narrow.size :].tobytes() == bytes(8 * (wide.size - narrow.size))
    untouched = np.setdiff1d(np.arange(narrow.size), touched)
    assert narrow[untouched].tobytes() == bytes(8 * untouched.size)


def test_a_logistic_fit_does_not_depend_on_untouched_columns() -> None:
    snap = _readme_world_split(3000, seed=5)
    touched = np.unique(snap.x.indices)
    plain_val = _readme_world_split(600, seed=6)
    # every validation row also touches a column that no training row does
    spare = np.setdiff1d(np.arange(1024), touched)
    rows = np.arange(plain_val.y.size)
    val = plain_val._replace(x=_with_entry(plain_val.x, spare[rows % spare.size]))
    w = _fsiw_like_weights(snap.y, seed=7)
    opt = OptConfig(max_iter=300, tol=0.0, eval_every=2, patience=3)
    fits = {}
    for dim in (1024, _WIDE):
        x, xv = _stored_at(snap.x, dim), _stored_at(val.x, dim)
        weighted = WeightedDataset(x=x, y=snap.y, e=snap.e, weights=w)
        validation = WeightedDataset(x=xv, y=val.y, e=val.e, weights=np.ones(val.y.size))
        fits[dim] = (
            train_naive_logistic(x, snap.y, 1e-4, opt),
            train_weighted_logistic(weighted, 1e-4, opt, validation=validation),
        )
    for narrow, wide in zip(fits[1024], fits[_WIDE]):
        _assert_spread(narrow.coef, wide.coef, touched)
        assert narrow.intercept == wide.intercept
        assert narrow.meta == wide.meta
    # a validation entry off the training columns is scored at coefficient 0
    weighted = WeightedDataset(x=snap.x, y=snap.y, e=snap.e, weights=w)
    validation = WeightedDataset(plain_val.x, plain_val.y, plain_val.e, np.ones(rows.size))
    plain = train_weighted_logistic(weighted, 1e-4, opt, validation=validation)
    assert plain.coef.tobytes() == fits[1024][1].coef.tobytes()
    assert plain.meta == fits[1024][1].meta


@pytest.mark.parametrize(
    "world",
    [lambda: _readme_world_split(3000, seed=5), lambda: _distinct_delayed_samples(300, seed=8)],
    ids=["grouped", "per_row"],
)
def test_dfm_does_not_depend_on_untouched_columns(world) -> None:
    snap = world()
    touched = np.unique(snap.x.indices)
    opt = OptConfig(max_iter=60, tol=0.0)
    narrow_x = _stored_at(snap.x, 1024)
    for x in (narrow_x, RowGroups(narrow_x)):
        narrow = train_dfm(x, snap.y, snap.d, snap.e, 1e-4, opt)
        wide = train_dfm(_stored_at(snap.x, _WIDE), snap.y, snap.d, snap.e, 1e-4, opt)
        _assert_spread(narrow.cvr_coef, wide.cvr_coef, touched)
        _assert_spread(narrow.delay_coef, wide.delay_coef, touched)
        assert (narrow.cvr_intercept, narrow.delay_intercept) == (
            wide.cvr_intercept,
            wide.delay_intercept,
        )
        assert narrow.meta == wide.meta


def test_a_weight_model_does_not_depend_on_untouched_columns() -> None:
    snap = _readme_world_split(800, seed=9)
    n = snap.y.size
    # one column of its own per row, so every holdout row touches a column
    # that no training row does
    own = np.setdiff1d(np.arange(1024), snap.x.indices)[:n]
    x = _with_entry(snap.x, own)
    hyper = WeightModelHyper(l2=1e-3, max_iter=300)
    narrow = fit_weight_model(x, snap.e + 1, snap.y, hyper, seed=3)
    wide = fit_weight_model(_stored_at(x, _WIDE), snap.e + 1, snap.y, hyper, seed=3)
    # the elapsed-time columns follow the hashed ones
    tail = len(hyper.edges) + 2
    assert wide.coef[-tail:].tobytes() == narrow.coef[-tail:].tobytes()
    touched = np.append(np.unique(x.indices), np.arange(1024, 1024 + tail))
    _assert_spread(narrow.coef[:-tail], wide.coef[:-tail], touched)
    assert narrow.intercept == wide.intercept
    # the holdout rows' own columns keep 0.0; the training rows' do not
    held = int(n * hyper.holdout_fraction)
    assert np.count_nonzero(narrow.coef[own]) == n - held


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_a_bad_weight_on_a_repeated_row_names_its_own_sample_index(bad) -> None:
    # rows 1, 4 and 6 are one distinct row; weights are checked before grouping
    samples = _make_samples(10, seed=4)
    dup = _rows(samples, np.array([0, 1, 2, 3, 1, 5, 1, 0]))
    w = np.ones(8)
    w[6] = bad
    with pytest.raises(TrainingError, match=r"\(sample index 6\)$"):
        _fit_distinct(dup.x, dup.y, w, 0.1, OPT)


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


@pytest.mark.parametrize(
    "l2, shown", [(-1, "-1"), (-1e-9, "-1e-09"), (float("nan"), "nan"), (float("inf"), "inf")]
)
def test_trainers_reject_a_bad_l2_on_entry(l2, shown) -> None:
    # without the check a negative l2 drove the delay model's objective
    # without bound, and nan failed only inside the fit
    samples = _make_samples(20, seed=9)
    message = f"^l2 must be finite and non-negative, got {shown}$"
    with pytest.raises(ValueError, match=message):
        fit_logistic(samples.x, samples.y, l2=l2)
    with pytest.raises(ValueError, match=message):
        train_dfm(samples.x, samples.y, samples.d, samples.e, l2, OPT)


def test_l2_path_shrinks_coefficients() -> None:
    samples = _make_samples(250, seed=5)
    norms = [
        float(np.linalg.norm(train_naive_logistic(samples.x, samples.y, l2, OPT).coef))
        for l2 in (1e-4, 1e-2, 1.0)
    ]
    assert norms[0] >= norms[1] >= norms[2]


def test_predict_cvr_examples() -> None:
    meta = TrainingMeta(n_iter=0, final_loss=0.0, converged=True)
    zero = LinearCvrModel(coef=np.zeros(8), intercept=0.0, l2=0.0, meta=meta)
    x = sparse.csr_matrix(np.eye(8)[[2, 5]])
    assert predict_cvr_batch(zero, x) == pytest.approx([0.5, 0.5])

    bias_only = LinearCvrModel(
        coef=np.zeros(8), intercept=math.log(0.2 / 0.8), l2=0.0, meta=meta
    )
    assert predict_cvr_batch(bias_only, x) == pytest.approx([0.2, 0.2])

    bumped = LinearCvrModel(
        coef=np.eye(8)[2] * 0.7, intercept=0.0, l2=0.0, meta=meta
    )
    p_bumped, p_other = predict_cvr_batch(bumped, x)
    assert 0.5 < p_bumped < 1.0
    assert p_other == pytest.approx(0.5)


def test_predict_cvr_rejects_dim_mismatch() -> None:
    meta = TrainingMeta(n_iter=0, final_loss=0.0, converged=True)
    model = LinearCvrModel(coef=np.zeros(8), intercept=0.0, l2=0.0, meta=meta)
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
        l2=0.0, denom=1.0,
    )
    p = expit(0.3)
    assert loss == pytest.approx(-math.log(1 - p), abs=1e-9)


def test_dfm_requires_positive_samples() -> None:
    samples = _make_samples(50, seed=6)
    neg = _rows(samples, samples.y == 0)
    with pytest.raises(TrainingError, match="positive"):
        train_dfm(neg.x, neg.y, neg.d, neg.e, 0.1, OPT)


@pytest.mark.parametrize(
    ("column", "message"),
    [
        ("y", "label count 7 != sample count 8"),
        ("d", "delay count 7 != sample count 8"),
        ("e", "elapsed-time count 7 != sample count 8"),
    ],
)
def test_dfm_rejects_a_column_of_the_wrong_length(column, message) -> None:
    # one element short used to fail inside numpy, with an IndexError or a
    # broadcasting ValueError
    samples = _make_samples(8, seed=3)
    args = {"y": samples.y, "d": samples.d, "e": samples.e}
    args[column] = args[column][:7]
    with pytest.raises(TrainingError, match=f"^{message}$"):
        train_dfm(samples.x, l2=0.1, opt=OPT, **args)


@pytest.mark.parametrize(
    ("column", "bad", "message"),
    [
        # labels of 2 used to fail as "without positive samples"
        ("y", 2, "label must be 0 or 1, got 2.0"),
        ("y", -1, "label must be 0 or 1, got -1.0"),
        ("y", np.nan, "label must be 0 or 1, got nan"),
        # a negative elapsed time gave a loss without a lower bound
        ("e", -5, "elapsed time must be a finite non-negative number of seconds, got -5.0"),
        ("e", np.inf, "elapsed time must be a finite non-negative number of seconds, got inf"),
        ("d", -1, "delay must be a finite non-negative number of seconds, got -1.0"),
        ("d", np.nan, "delay must be a finite non-negative number of seconds, got nan"),
    ],
)
def test_dfm_rejects_a_bad_value_naming_its_sample_index(column, bad, message) -> None:
    samples = _make_samples(8, seed=3)
    args = {"y": samples.y, "d": samples.d, "e": samples.e}
    args = {k: v.astype(float) for k, v in args.items()}
    args[column][5] = bad
    with pytest.raises(TrainingError, match=f"^{re.escape(message)} \\(sample index 5\\)$"):
        train_dfm(samples.x, l2=0.1, opt=OPT, **args)


@pytest.mark.parametrize("bad", [2.0, -1.0, 0.5, np.nan])
def test_logistic_trainers_reject_a_label_outside_zero_and_one(bad) -> None:
    # a label of 2 used to fit silently
    samples = _make_samples(10, seed=4)
    y = samples.y.astype(float)
    y[6] = bad
    message = f"^label must be 0 or 1, got {bad} \\(sample index 6\\)$"
    with pytest.raises(TrainingError, match=message):
        train_naive_logistic(samples.x, y, 0.1, OPT)
    with pytest.raises(TrainingError, match=message):
        fit_logistic(samples.x, y, l2=0.1)
    weighted = WeightedDataset(x=samples.x, y=y, e=samples.e, weights=np.ones(10))
    with pytest.raises(TrainingError, match=message):
        train_weighted_logistic(weighted, 0.1, OPT)


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
        return dfm_nll_grad(theta, x, xt, y, d_days, e_days, l2, float(n))[0]

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
    snap = onehot_snapshot(arrays, cfg.time_span)

    model = train_dfm(
        snap.x, snap.y, snap.d, snap.e, 1e-6, OptConfig(max_iter=1500, tol=1e-12)
    )
    p_hat = predict_cvr_batch(model, snap.x)
    mae = float(np.mean(np.abs(p_hat - arrays.true_p)))
    assert mae <= 0.02

    rate_hat = predict_delay_rate(model, snap.x)
    rel = float(np.mean(np.abs(rate_hat - arrays.true_rate) / arrays.true_rate))
    assert rel <= 0.10


def test_naive_trainer_underestimates_on_censored_data() -> None:
    cfg = _config(n=20_000, seed=33, cards=(8,), mean_delay=5 * 86400, time_span=10 * 86400)
    arrays = generate_arrays(cfg)
    snap = onehot_snapshot(arrays, cfg.time_span)
    model = train_naive_logistic(snap.x, snap.y, 1e-5, OptConfig(max_iter=400))
    mean_pred = float(np.mean(predict_cvr_batch(model, snap.x)))
    assert mean_pred < arrays.true_p.mean()


def _load_model(path: str | Path) -> LinearCvrModel | DfmModel:
    """Read back a model that save_model wrote."""
    blob = json.loads(Path(path).read_text(encoding="utf-8"))
    if blob.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {blob.get('format')!r}")
    meta = TrainingMeta(**blob["meta"])
    dim = blob["dim"]
    if blob["kind"] == "linear":
        coef = np.zeros(dim)
        coef[blob["coef_idx"]] = blob["coef_val"]
        return LinearCvrModel(
            coef=coef, intercept=blob["intercept"], l2=blob["l2"], meta=meta
        )
    cvr = np.zeros(dim)
    cvr[blob["cvr_idx"]] = blob["cvr_val"]
    delay = np.zeros(dim)
    delay[blob["delay_idx"]] = blob["delay_val"]
    return DfmModel(
        cvr_coef=cvr,
        cvr_intercept=blob["cvr_intercept"],
        delay_coef=delay,
        delay_intercept=blob["delay_intercept"],
        l2=blob["l2"],
        meta=meta,
    )


def test_model_save_load_round_trip(tmp_path) -> None:
    samples = _make_samples(150, seed=7)
    linear = train_naive_logistic(samples.x, samples.y, 0.01, OptConfig(max_iter=200))
    save_model(linear, tmp_path / "linear.json")
    meta = json.loads((tmp_path / "linear.json").read_text(encoding="utf-8"))["meta"]
    assert sorted(meta) == ["converged", "final_loss", "n_iter", "stopped_early"]
    loaded = _load_model(tmp_path / "linear.json")
    assert isinstance(loaded, LinearCvrModel)
    assert np.array_equal(loaded.coef, linear.coef)
    assert loaded.intercept == linear.intercept
    assert loaded.meta == linear.meta

    dfm = train_dfm(samples.x, samples.y, samples.d, samples.e, 0.01, OptConfig(max_iter=100))
    save_model(dfm, tmp_path / "dfm.json")
    loaded_dfm = _load_model(tmp_path / "dfm.json")
    assert isinstance(loaded_dfm, DfmModel)
    assert np.array_equal(loaded_dfm.delay_coef, dfm.delay_coef)
    assert np.array_equal(predict_cvr_batch(loaded_dfm, samples.x), predict_cvr_batch(dfm, samples.x))


def test_load_model_rejects_unknown_format(tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else/9"}', encoding="utf-8")
    with pytest.raises(ValueError, match="format"):
        _load_model(path)
