"""Oracle views of a simulated world that only tests need: the exact
importance weights, snapshot labels taken straight from the latent
conversion times, exact one-hot features, the latent delays, a joint model's
predicted delay rates in the simulator's unit, and its objective from
labels and both observed times."""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from fsiw.data import Snapshot
from fsiw.simulate import SimArrays
from fsiw.training import SECONDS_PER_DAY, DfmModel, _dfm_objective


def oracle_fsiw_array(
    true_p: np.ndarray,
    true_rate: np.ndarray,
    e: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Exact importance weight of each simulator sample.

    For y=1 this is 1/P(observed by e | converts); for y=0 it is
    P(never converts)/P(not observed by e), under exponential delays.
    """
    true_p = np.asarray(true_p, dtype=float)
    e = np.asarray(e, dtype=float)
    if np.any(e <= 0):
        raise ValueError("elapsed times must be positive")
    rate = np.asarray(true_rate, dtype=float)
    # the already-observed probability comes from an expm1-accurate CDF so the
    # reciprocal stays exact even when the censoring window is tiny
    observed = -np.expm1(-rate * e)
    surv = np.exp(-rate * e)
    w_pos = 1.0 / observed
    w_neg = (1.0 - true_p) / ((1.0 - true_p) + true_p * surv)
    return np.where(np.asarray(y) == 1, w_pos, w_neg)


def snapshot_arrays(arrays: SimArrays, training_end: float) -> tuple[np.ndarray, np.ndarray]:
    """Snapshot labels (y, e) at ``training_end`` for the whole array set.

    Requires every click to precede the snapshot (the array path is meant for
    oracle math on complete windows; use data.snapshot_labels for filtering).
    """
    if np.any(arrays.click_ts >= training_end):
        raise ValueError("snapshot_arrays requires all clicks before training_end")
    with np.errstate(invalid="ignore"):
        y = (arrays.conv_ts <= training_end).astype(np.int8)
    e = training_end - arrays.click_ts.astype(float)
    return y, e


def delays(arrays: SimArrays) -> np.ndarray:
    """Latent delays in seconds (NaN where c=0)."""
    return arrays.conv_ts - arrays.click_ts


def onehot_matrix(values: np.ndarray, cardinalities: Sequence[int]) -> sparse.csr_matrix:
    """CSR one-hot encoding, columns grouped field-by-field."""
    n, k = values.shape
    offsets = np.concatenate([[0], np.cumsum(cardinalities)[:-1]]).astype(np.int64)
    cols = (offsets[None, :] + values).ravel()
    rows = np.repeat(np.arange(n), k)
    data = np.ones(n * k, dtype=np.float64)
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, int(sum(cardinalities))))


def onehot_snapshot(arrays: SimArrays, training_end: float) -> Snapshot:
    """The simulated clicks snapshot-labeled at ``training_end``, with exact
    one-hot features (one column per field value) in place of hashed ones."""
    y, e = snapshot_arrays(arrays, training_end)
    return Snapshot(
        x=onehot_matrix(arrays.values, arrays.config.field_cardinalities),
        y=y,
        e=e.astype(np.int64),
        d=np.where(y == 1, delays(arrays), 0).astype(np.int64),
    )


def predict_delay_rate(model: DfmModel, x: sparse.csr_matrix) -> np.ndarray:
    """Predicted delay rate for every row of ``x``, per second (the
    simulator's unit)."""
    return np.exp(x @ model.delay_coef + model.delay_intercept) / SECONDS_PER_DAY


def dfm_nll_grad(
    theta: np.ndarray,
    x: sparse.csr_matrix,
    xt: sparse.csr_matrix,
    y: np.ndarray,
    d_days: np.ndarray,
    e_days: np.ndarray,
    l2: float,
    denom: float,
    rows: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """The joint model's objective and gradient (``training._dfm_objective``)
    at ``theta``, from labels and both observed times in days, as
    ``train_dfm`` computes it: positives read ``d_days``, negatives
    ``e_days``."""
    pos = y == 1
    return _dfm_objective(theta, x, xt, pos, np.where(pos, d_days, e_days), l2, denom, rows)
