"""Oracle views of a simulated world that only tests need: snapshot labels
taken straight from the latent conversion times, exact one-hot features, the
latent delays, and a joint model's predicted delay rates in the simulator's
unit."""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from fsiw.data import Snapshot
from fsiw.simulate import SimArrays
from fsiw.training import SECONDS_PER_DAY, DfmModel


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
