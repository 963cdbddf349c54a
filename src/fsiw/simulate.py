"""Synthetic delayed-feedback generator with closed-form ground truth.

Samples are (click_ts, categorical features, latent conversion, latent delay).
The true conversion probability is logistic in a one-hot encoding of the
features and the delay is exponential with a rate log-linear in the same
encoding, so every censoring probability has a closed form and importance
weights can be computed exactly (``oracle_fsiw_array``). Arrays are generated
in fixed-size chunks, each on its own seed substream, so output is
reproducible and chunk-parallelizable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.special import expit

from .data import NO_CONVERSION, ClickLog, hash_csr

CHUNK_SIZE = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """A simulated world. ``cvr_weights`` and ``rate_weights`` each hold a
    bias and one coefficient per one-hot column: a click converts with
    probability sigmoid(cvr_weights · onehot(x)), after an exponential delay
    of rate exp(rate_weights · onehot(x)) per second."""

    n_samples: int
    field_cardinalities: tuple[int, ...]
    cvr_weights: tuple[float, ...]
    rate_weights: tuple[float, ...]
    time_span: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 0:
            raise ValueError("n_samples must be non-negative")
        if not self.field_cardinalities or any(c < 1 for c in self.field_cardinalities):
            raise ValueError("field cardinalities must be positive")
        n_cols = 1 + sum(self.field_cardinalities)
        if len(self.cvr_weights) != n_cols:
            raise ValueError(
                f"cvr_weights must have length {n_cols} (bias + one-hot columns), "
                f"got {len(self.cvr_weights)}"
            )
        if len(self.rate_weights) != n_cols:
            raise ValueError(
                f"delay rate_weights must have length {n_cols}, "
                f"got {len(self.rate_weights)}"
            )
        if self.time_span <= 0:
            raise ValueError("time_span must be positive")

    @property
    def onehot_offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for card in self.field_cardinalities:
            out.append(acc)
            acc += card
        return tuple(out)


@dataclass
class SimArrays:
    """Column-oriented dataset: index i across all arrays is one sample.

    ``conv_ts`` is float with NaN for never-converting clicks (kept exact; it
    is rounded up only when written as a TSV or turned into a ClickLog).
    """

    config: SimConfig
    click_ts: np.ndarray
    values: np.ndarray
    conv_ts: np.ndarray
    c: np.ndarray
    true_p: np.ndarray
    true_rate: np.ndarray

    @property
    def n(self) -> int:
        return self.click_ts.shape[0]

    def delays(self) -> np.ndarray:
        """Latent delays in seconds (NaN where c=0)."""
        return self.conv_ts - self.click_ts


def _linear_columns(values: np.ndarray, offsets: Sequence[int]) -> np.ndarray:
    return np.asarray(offsets, dtype=np.int64)[None, :] + values


def linear_score(values: np.ndarray, weights: Sequence[float], offsets: Sequence[int]) -> np.ndarray:
    """bias + sum of one coefficient per active one-hot column."""
    w = np.asarray(weights, dtype=float)
    cols = _linear_columns(values, offsets)
    return w[0] + w[1 + cols].sum(axis=1)


def onehot_matrix(values: np.ndarray, cardinalities: Sequence[int]) -> sparse.csr_matrix:
    """CSR one-hot encoding, columns grouped field-by-field."""
    n, k = values.shape
    offsets, acc = [], 0
    for card in cardinalities:
        offsets.append(acc)
        acc += card
    cols = _linear_columns(values, offsets).ravel()
    rows = np.repeat(np.arange(n), k)
    data = np.ones(n * k, dtype=np.float64)
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, acc))


def generate_arrays(config: SimConfig, chunk_size: int = CHUNK_SIZE) -> SimArrays:
    """Generate the dataset as flat arrays.

    Chunk i uses the i-th spawn of SeedSequence(seed), so the output depends
    only on (config, chunk_size), not on how chunks are scheduled.
    """
    n = config.n_samples
    cards = config.field_cardinalities
    offsets = config.onehot_offsets
    n_chunks = max(1, -(-n // chunk_size))
    streams = np.random.SeedSequence(config.seed).spawn(n_chunks)

    parts: list[tuple[np.ndarray, ...]] = []
    for i in range(n_chunks):
        size = min(chunk_size, n - i * chunk_size)
        rng = np.random.Generator(np.random.PCG64(streams[i]))
        click = rng.integers(0, config.time_span, size=size, dtype=np.int64)
        values = np.empty((size, len(cards)), dtype=np.int64)
        for j, card in enumerate(cards):
            values[:, j] = rng.integers(0, card, size=size)
        p = expit(linear_score(values, config.cvr_weights, offsets))
        # a huge rate_spread sends some rates to inf (delay 0) and others to 0
        # (delay inf); _integer_conv_ts rejects an inf delay naming the keys
        with np.errstate(over="ignore", divide="ignore"):
            rate = np.exp(linear_score(values, config.rate_weights, offsets))
            c = (rng.random(size) < p).astype(np.int8)
            delay = rng.exponential(1.0, size=size) / rate
        conv = np.where(c == 1, click + delay, np.nan)
        parts.append((click, values, conv, c, p, rate))

    return SimArrays(
        config=config,
        click_ts=np.concatenate([p[0] for p in parts]) if parts else np.empty(0, np.int64),
        values=np.concatenate([p[1] for p in parts]) if parts else np.empty((0, len(cards)), np.int64),
        conv_ts=np.concatenate([p[2] for p in parts]),
        c=np.concatenate([p[3] for p in parts]),
        true_p=np.concatenate([p[4] for p in parts]),
        true_rate=np.concatenate([p[5] for p in parts]),
    )


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


def _integer_conv_ts(arrays: SimArrays) -> np.ndarray:
    """Conversion times rounded up to whole seconds, so that they never
    precede their click; NO_CONVERSION where c=0. Raises ValueError if one
    does not fit below NO_CONVERSION."""
    conv = np.where(arrays.c == 1, np.ceil(arrays.conv_ts), -1.0)
    late = ~(conv < NO_CONVERSION)  # also where a delay overflowed to inf or nan
    if np.any(late):
        i = int(np.argmax(late))
        raise ValueError(
            f"row {i}: conversion time {float(arrays.conv_ts[i])!r} does not fit in int64 "
            "seconds; lower data.simulator.mean_delay or rate_spread"
        )
    return np.where(arrays.c == 1, conv.astype(np.int64), NO_CONVERSION)


def to_click_log(arrays: SimArrays, *, dim: int, seed: int) -> ClickLog:
    """The simulated clicks as a ClickLog, with the features and timestamps
    that reading their TSV (write_sim_tsv) would give. Each field value v is
    the token ``v{v}``; the Σcardinalities tokens are hashed once and
    gathered by value."""
    tokens = [[f"v{v}" for v in range(card)] for card in arrays.config.field_cardinalities]
    return ClickLog(
        click_ts=arrays.click_ts,
        conv_ts=_integer_conv_ts(arrays),
        x=hash_csr(arrays.values, tokens, dim=dim, seed=seed),
    )


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


def sample_weight_vector(
    field_cardinalities: Sequence[int],
    bias: float,
    spread: float,
    rng: np.random.Generator,
) -> tuple[float, ...]:
    """Random coefficient vector: given bias, per-column coefficients drawn
    uniformly from [-spread, spread] and centered within each field (so the
    bias alone sets the average score)."""
    coeffs = []
    for card in field_cardinalities:
        block = rng.uniform(-spread, spread, size=card)
        coeffs.append(block - block.mean())
    flat = np.concatenate(coeffs) if coeffs else np.empty(0)
    return (float(bias), *map(float, flat))


def write_sim_tsv(arrays: SimArrays, path: str | Path) -> None:
    """Write the simulated clicks in the standard TSV layout."""
    conv_int = _integer_conv_ts(arrays)
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(arrays.n):
            conv = "" if arrays.c[i] == 0 else str(int(conv_int[i]))
            tokens = [f"v{arrays.values[i, j]}" for j in range(arrays.values.shape[1])]
            handle.write("\t".join([str(int(arrays.click_ts[i])), conv, *tokens]) + "\n")


def write_truth(arrays: SimArrays, path: str | Path) -> None:
    """Sidecar ground-truth table: sample index, c, true_p, true_rate."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index\tc\ttrue_p\ttrue_rate\n")
        for i in range(arrays.n):
            handle.write(
                f"{i}\t{int(arrays.c[i])}\t{float(arrays.true_p[i])!r}\t{float(arrays.true_rate[i])!r}\n"
            )
