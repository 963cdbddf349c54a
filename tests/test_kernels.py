"""Objective kernels against the formulations they replace.

The link functions are checked against ``np.logaddexp`` and scipy's ``expit``,
which the package no longer imports: ``sigmoid`` is the kernel's own sigmoid;
``dfm``'s objective (``training._dfm_objective``, called through
``simworld.dfm_nll_grad``) against the masked log-space formulation kept
below as the reference. Neither kernel may raise a RuntimeWarning the reference does not.
"""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import expit

from fsiw.optim import sigmoid, softplus_sigmoid

from simworld import dfm_nll_grad

RTOL = 1e-12


def _reference_dfm_nll_grad(theta, x, xt, y, d_days, e_days, l2, denom):
    """The masked formulation: 4 logaddexp softplus calls, a logaddexp of the
    negative branch, and boolean gathers and scatters per label."""
    dim = x.shape[1]
    wc, bc = theta[:dim], theta[dim]
    wd, bd = theta[dim + 1 : 2 * dim + 1], theta[2 * dim + 1]
    z = x @ wc + bc
    u = x @ wd + bd
    pos = y == 1

    with np.errstate(over="ignore", under="ignore"):
        lam = np.exp(u)
        ll = np.empty_like(z)
        ll[pos] = np.logaddexp(0.0, -z[pos]) - u[pos] + lam[pos] * d_days[pos]
        neg = ~pos
        log_1mp = -np.logaddexp(0.0, z[neg])
        log_p_surv = -np.logaddexp(0.0, -z[neg]) - lam[neg] * e_days[neg]
        l0 = np.logaddexp(log_1mp, log_p_surv)
        ll[neg] = -l0
        loss = float(ll.sum()) / denom + 0.5 * l2 * (float(wc @ wc) + float(wd @ wd))

    dz = np.empty_like(z)
    du = np.empty_like(z)
    p = expit(z)
    dz[pos] = p[pos] - 1.0
    du[pos] = lam[pos] * d_days[pos] - 1.0
    with np.errstate(over="ignore", under="ignore"):
        r1 = np.exp(log_1mp - l0)
        r2 = np.exp(log_p_surv - l0)
    dz[neg] = p[neg] * r1 - (1.0 - p[neg]) * r2
    du[neg] = r2 * lam[neg] * e_days[neg]
    dz /= denom
    du /= denom

    grad = np.empty_like(theta)
    grad[:dim] = xt @ dz + l2 * wc
    grad[dim] = dz.sum()
    grad[dim + 1 : 2 * dim + 1] = xt @ du + l2 * wd
    grad[2 * dim + 1] = du.sum()
    return loss, grad


def _run_recording(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, {str(w.message) for w in caught}


def _run_raising_new_warnings(fn, allowed: set[str]):
    """Run fn with every RuntimeWarning an error, except those in allowed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for message in allowed:
            warnings.filterwarnings("ignore", message=re.escape(message))
        return fn()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """How many doubles apart a and b are, for a, b >= 0."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


LINK_POINTS = st.one_of(
    st.floats(-800.0, 800.0),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300, 36.7, -36.7, 709.0, -745.0]),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(LINK_POINTS, min_size=1, max_size=40))
def test_softplus_sigmoid_match_logaddexp_and_expit(values) -> None:
    z = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sp, sig = softplus_sigmoid(z)
    # expit(z) for z < -709 is 1/(1 + inf) = 0 where the true value is a
    # subnormal; atol covers that and nothing coarser
    np.testing.assert_allclose(sp, np.logaddexp(0.0, z), rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(sig, expit(z), rtol=RTOL, atol=1e-300)
    near = expit(z) >= 1e-300
    assert np.all(_ulps(sig[near], expit(z[near])) <= 4)
    assert np.all((sig >= 0.0) & (sig <= 1.0))


def test_softplus_sigmoid_limits_and_nan() -> None:
    sp, sig = softplus_sigmoid(np.array([-np.inf, 0.0, np.inf, np.nan]))
    assert sp[0] == 0.0 and sp[1] == np.log(2.0) and sp[2] == np.inf and np.isnan(sp[3])
    assert sig[0] == 0.0 and sig[1] == 0.5 and sig[2] == 1.0 and np.isnan(sig[3])


# z in [-746, -708] spans the edge where exp(-|z|) turns subnormal and then 0
SIGMOID_EDGE = np.concatenate(
    [np.linspace(-746.0, -708.0, 3001), [-np.inf, -0.0, 0.0, np.inf, np.nan]]
)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_sigmoid_is_the_kernels_sigmoid_bit_for_bit(values) -> None:
    z = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _same_bits(sigmoid(z), softplus_sigmoid(z)[1])


def test_sigmoid_is_the_kernels_sigmoid_at_the_edges() -> None:
    assert _same_bits(sigmoid(SIGMOID_EDGE), softplus_sigmoid(SIGMOID_EDGE)[1])


def test_sigmoid_is_within_4_ulps_of_expit() -> None:
    rng = np.random.default_rng(14)
    z = np.concatenate(
        [
            rng.normal(0.0, 5.0, 200_000),
            rng.uniform(-700.0, 40.0, 200_000),
            rng.standard_cauchy(200_000),
            SIGMOID_EDGE[np.isfinite(SIGMOID_EDGE)],
        ]
    )
    ref = expit(z)
    near = ref >= 1e-300
    assert near.sum() > 590_000
    assert _ulps(sigmoid(z[near]), ref[near]).max() <= 4


def test_sigmoid_keeps_the_subnormal_tail_that_expit_rounds_to_zero() -> None:
    # below z ≈ -709.78, exp(-z) overflows inside expit, which returns 0.0;
    # the kernel's t = exp(z) is the subnormal value itself, and 1 + t = 1
    z = np.linspace(-745.0, -709.8, 500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig = sigmoid(z)
        tail = sigmoid(np.array([-746.0, -1e4]))
    assert np.all(expit(z) == 0.0)
    assert np.all((sig > 0.0) & (sig < np.finfo(float).tiny))
    assert _same_bits(sig, np.exp(z))
    assert tail.tolist() == [0.0, 0.0]


PARAM = st.one_of(st.floats(-3.0, 3.0), st.floats(-40.0, 40.0))
# delay intercepts that push λ = exp(u) past overflow (u > 709.8) and into
# underflow (u < -745) as well as ordinary rates
DELAY_INTERCEPT = st.one_of(
    st.floats(-5.0, 5.0), st.floats(700.0, 900.0), st.floats(-900.0, -700.0)
)


@st.composite
def dfm_problems(draw):
    n = draw(st.integers(2, 30))
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = sparse.csr_matrix((rng.random((n, dim)) < 0.5).astype(float))
    y = (rng.random(n) < 0.4).astype(float)
    y[0] = 1.0
    # zero delays and zero elapsed times are legal inputs and meet λ = inf
    d_days = np.where(y == 1, rng.exponential(2.0, n) * (rng.random(n) < 0.9), 0.0)
    e_days = d_days + rng.exponential(5.0, n) * (rng.random(n) < 0.9)
    theta = np.array(draw(st.lists(PARAM, min_size=2 * dim + 2, max_size=2 * dim + 2)))
    theta[2 * dim + 1] = draw(DELAY_INTERCEPT)
    if draw(st.booleans()):  # a wide spread of λ across rows
        theta[dim + 1 : 2 * dim + 1] *= draw(st.floats(1.0, 400.0))
    l2 = draw(st.sampled_from([0.0, 0.1]))
    return theta, x, x.T.tocsr(), y, d_days, e_days, l2, float(n)


def _assert_close(new: float | np.ndarray, ref: float | np.ndarray) -> None:
    new, ref = np.asarray(new), np.asarray(ref)
    # same pattern of finite, inf and nan entries as the reference
    assert np.array_equal(np.isnan(new), np.isnan(ref))
    assert np.array_equal(np.isposinf(new), np.isposinf(ref))
    assert np.array_equal(np.isneginf(new), np.isneginf(ref))
    ok = np.isfinite(ref)
    scale = max(1.0, float(np.max(np.abs(ref[ok]), initial=0.0)))
    np.testing.assert_allclose(new[ok], ref[ok], rtol=RTOL, atol=RTOL * scale)


@settings(deadline=None, max_examples=300)
@given(dfm_problems())
def test_dfm_nll_grad_matches_masked_reference(problem) -> None:
    (ref_loss, ref_grad), ref_warnings = _run_recording(
        lambda: _reference_dfm_nll_grad(*problem)
    )
    loss, grad = _run_raising_new_warnings(lambda: dfm_nll_grad(*problem), ref_warnings)
    _assert_close(loss, ref_loss)
    _assert_close(grad, ref_grad)


def test_dfm_loss_with_overflowing_rate_raises_no_warning() -> None:
    # a positive and a negative whose d is 0, both with λ = inf: a branch
    # term λ·d on the negative would be inf·0, and so is its du = r2·λ·e,
    # with r2 = 0
    x = sparse.csr_matrix(np.ones((2, 1)))
    y = np.array([1.0, 0.0])
    d_days = np.array([1.5, 0.0])
    e_days = np.array([2.0, 3.0])
    theta = np.array([0.2, -1.0, 0.0, 800.0])
    args = (theta, x, x.T.tocsr(), y, d_days, e_days, 0.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, _ = dfm_nll_grad(*args)
    (ref_loss, _), _ = _run_recording(lambda: _reference_dfm_nll_grad(*args))
    assert loss == np.inf == ref_loss


def test_dfm_grad_where_only_the_rate_times_elapsed_time_overflows() -> None:
    # λ = exp(709) is finite, but λ·e is not: the negative's r2 is 0, and its
    # du is r2·λ·e = 0 as in the reference, not 0·inf = nan with a warning
    x = sparse.csr_matrix(np.zeros((2, 1)))
    y = np.array([1.0, 0.0])
    d_days = np.array([6.5, 0.0])
    e_days = np.array([11.9, 4.2])
    theta = np.array([0.0, 0.0, 0.0, 709.0])
    args = (theta, x, x.T.tocsr(), y, d_days, e_days, 0.0, 2.0)
    (ref_loss, ref_grad), ref_warnings = _run_recording(lambda: _reference_dfm_nll_grad(*args))
    loss, grad = _run_raising_new_warnings(lambda: dfm_nll_grad(*args), ref_warnings)
    _assert_close(loss, ref_loss)
    _assert_close(grad, ref_grad)
    assert not np.isnan(grad).any()


@st.composite
def grouped_dfm_problems(draw):
    """A dfm problem whose rows repeat: a matrix of distinct rows (the first
    one empty, stored values other than 1) and a row map that uses each of
    them at least once."""
    n_distinct = draw(st.integers(1, 8))
    n = draw(st.integers(n_distinct, 40))
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.choice([1.0, 0.5, 3.0, -2.0, 1e-3], (n_distinct, dim))
    dense = (rng.random((n_distinct, dim)) < 0.6) * values
    dense[0] = 0.0
    distinct = sparse.csr_matrix(dense)
    extra = rng.integers(0, n_distinct, n - n_distinct)
    rows = rng.permutation(np.concatenate([np.arange(n_distinct), extra]))
    y = (rng.random(n) < 0.4).astype(float)
    d_days = np.where(y == 1, rng.exponential(2.0, n) * (rng.random(n) < 0.9), 0.0)
    e_days = d_days + rng.exponential(5.0, n) * (rng.random(n) < 0.9)
    theta = np.array(draw(st.lists(PARAM, min_size=2 * dim + 2, max_size=2 * dim + 2)))
    theta[2 * dim + 1] = draw(DELAY_INTERCEPT)
    if draw(st.booleans()):
        theta[dim + 1 : 2 * dim + 1] *= draw(st.floats(1.0, 400.0))
    l2 = draw(st.sampled_from([0.0, 0.1]))
    return theta, distinct, rows, y, d_days, e_days, l2


def _assert_same_bits(new: tuple[float, np.ndarray], ref: tuple[float, np.ndarray]) -> None:
    for a, b in zip(new, ref):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _grouped_and_per_row(problem):
    """The problem's objective through its row map, its objective on the
    expanded rows, and the masked reference on those rows, each with the
    set of warnings it raised."""
    theta, distinct, rows, y, d_days, e_days, l2 = problem
    x = distinct[rows]
    args = (y, d_days, e_days, l2, float(rows.size))
    xt = x.T.tocsr()
    return (
        _run_recording(lambda: dfm_nll_grad(theta, distinct, xt, *args, rows=rows)),
        _run_recording(lambda: dfm_nll_grad(theta, x, xt, *args)),
        _run_recording(lambda: _reference_dfm_nll_grad(theta, x, xt, *args)),
    )


@settings(deadline=None, max_examples=300)
@given(grouped_dfm_problems())
def test_dfm_nll_grad_through_a_row_map_is_the_per_row_objective_bit_for_bit(problem) -> None:
    (grouped, grouped_warnings), (per_row, per_row_warnings), (ref, ref_warnings) = (
        _grouped_and_per_row(problem)
    )
    _assert_same_bits(grouped, per_row)
    assert grouped_warnings == per_row_warnings
    assert grouped_warnings <= ref_warnings
    _assert_close(grouped[0], ref[0])
    _assert_close(grouped[1], ref[1])


@pytest.mark.parametrize("delay_intercept", [709.0, 800.0])
def test_dfm_nll_grad_through_a_row_map_where_the_rate_overflows(delay_intercept) -> None:
    # rows 0, 2 and 4 are the empty row, rows 1 and 3 store 0.5. At intercept
    # 709, λ is finite on every row but λ·e overflows on row 1 (the du
    # fix-up); at 800, λ itself is inf and so is the loss
    distinct = sparse.csr_matrix(np.array([[0.0], [0.5]]))
    rows = np.array([0, 1, 0, 1, 0])
    y = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
    d_days = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
    e_days = np.array([11.9, 4.2, 0.5, 3.0, 2.0])
    theta = np.array([0.3, -0.2, -0.4, delay_intercept])
    (grouped, grouped_warnings), (per_row, per_row_warnings), (ref, ref_warnings) = (
        _grouped_and_per_row((theta, distinct, rows, y, d_days, e_days, 0.0))
    )
    _assert_same_bits(grouped, per_row)
    assert grouped_warnings == per_row_warnings <= ref_warnings
    _assert_close(grouped[0], ref[0])
    _assert_close(grouped[1], ref[1])
    if delay_intercept == 709.0:
        assert np.isfinite(grouped[0]) and not np.isnan(grouped[1]).any()
    else:
        assert grouped[0] == np.inf
