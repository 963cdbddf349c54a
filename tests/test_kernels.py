"""Objective kernels against the formulations they replace.

The link functions are checked against ``np.logaddexp`` and scipy's ``expit``;
``dfm_nll_grad`` against the masked log-space formulation kept below as the
reference. Neither kernel may raise a RuntimeWarning the reference does not.
"""

from __future__ import annotations

import re
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import expit

from fsiw.optim import softplus, softplus_sigmoid
from fsiw.training import dfm_nll_grad

RTOL = 1e-12


def _reference_dfm_nll_grad(theta, x, xt, y, d_days, e_days, l2, denom, want_grad=True):
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

    if not want_grad:
        return loss, None

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
        sp_alone = softplus(z)
    # expit(z) for z < -709 is 1/(1 + inf) = 0 where the true value is a
    # subnormal; atol covers that and nothing coarser
    np.testing.assert_allclose(sp, np.logaddexp(0.0, z), rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(sig, expit(z), rtol=RTOL, atol=1e-300)
    assert np.array_equal(sp, sp_alone)
    assert np.all((sig >= 0.0) & (sig <= 1.0))


def test_softplus_sigmoid_limits_and_nan() -> None:
    sp, sig = softplus_sigmoid(np.array([-np.inf, 0.0, np.inf, np.nan]))
    assert sp[0] == 0.0 and sp[1] == np.log(2.0) and sp[2] == np.inf and np.isnan(sp[3])
    assert sig[0] == 0.0 and sig[1] == 0.5 and sig[2] == 1.0 and np.isnan(sig[3])


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
@given(dfm_problems(), st.booleans())
def test_dfm_nll_grad_matches_masked_reference(problem, want_grad) -> None:
    (ref_loss, ref_grad), ref_warnings = _run_recording(
        lambda: _reference_dfm_nll_grad(*problem, want_grad=want_grad)
    )
    loss, grad = _run_raising_new_warnings(
        lambda: dfm_nll_grad(*problem, want_grad=want_grad), ref_warnings
    )
    _assert_close(loss, ref_loss)
    if want_grad:
        _assert_close(grad, ref_grad)
    else:
        assert grad is None


def test_dfm_loss_with_overflowing_rate_raises_no_warning() -> None:
    # one negative with zero elapsed time and a positive, both with λ = inf:
    # a branch term λ·d on the negative would be inf·0
    x = sparse.csr_matrix(np.ones((2, 1)))
    y = np.array([1.0, 0.0])
    d_days = np.array([1.5, 0.0])
    e_days = np.array([2.0, 3.0])
    theta = np.array([0.2, -1.0, 0.0, 800.0])
    args = (theta, x, x.T.tocsr(), y, d_days, e_days, 0.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, _ = dfm_nll_grad(*args, want_grad=False)
    assert loss == np.inf == _reference_dfm_nll_grad(*args, want_grad=False)[0]


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
