"""Synthetic delayed-feedback generator with closed-form ground truth.

Samples are (click_ts, categorical features, latent conversion, latent delay).
The true conversion probability is logistic in a one-hot encoding of the
features and the delay is exponential with a rate log-linear in the same
encoding, so every censoring probability, and with it each click's exact
importance weight, has a closed form. Arrays are generated in chunks of
``CHUNK_SIZE`` rows, each on its own seed substream, so output is
reproducible and chunk-parallelizable.

``write_sim_tsv`` and ``write_truth`` write the arrays as text column by
column, in blocks of ``WRITE_BLOCK`` rows: the bytes are those of formatting
one row at a time, and their memory is bounded by the block, not by n.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .data import NO_CONVERSION, ClickLog, hash_csr
from .optim import sigmoid

CHUNK_SIZE = 1 << 16
# rows the TSV writers format at a time; their memory grows with it, not with n
WRITE_BLOCK = 1 << 12


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


def linear_score(values: np.ndarray, weights: Sequence[float], offsets: Sequence[int]) -> np.ndarray:
    """bias + sum of one coefficient per active one-hot column."""
    w = np.asarray(weights, dtype=float)
    cols = np.asarray(offsets, dtype=np.int64)[None, :] + values
    return w[0] + w[1 + cols].sum(axis=1)


def generate_arrays(config: SimConfig) -> SimArrays:
    """Generate the dataset as flat arrays.

    Chunk i, rows i·CHUNK_SIZE onwards, uses the i-th spawn of
    SeedSequence(seed), so the output depends only on the config, not on
    how chunks are scheduled.
    """
    n = config.n_samples
    cards = config.field_cardinalities
    offsets = config.onehot_offsets
    n_chunks = max(1, -(-n // CHUNK_SIZE))
    streams = np.random.SeedSequence(config.seed).spawn(n_chunks)

    parts: list[tuple[np.ndarray, ...]] = []
    for i in range(n_chunks):
        size = min(CHUNK_SIZE, n - i * CHUNK_SIZE)
        rng = np.random.Generator(np.random.PCG64(streams[i]))
        click = rng.integers(0, config.time_span, size=size, dtype=np.int64)
        values = np.empty((size, len(cards)), dtype=np.int64)
        for j, card in enumerate(cards):
            values[:, j] = rng.integers(0, card, size=size)
        p = sigmoid(linear_score(values, config.cvr_weights, offsets))
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


def _integer_conv_ts(arrays: SimArrays, rows: slice = slice(None)) -> np.ndarray:
    """Conversion times of ``rows`` rounded up to whole seconds, so that they
    never precede their click; NO_CONVERSION where c=0. Raises ValueError if
    one does not fit below NO_CONVERSION."""
    c = arrays.c[rows]
    conv = np.where(c == 1, np.ceil(arrays.conv_ts[rows]), -1.0)
    late = ~(conv < NO_CONVERSION)  # also where a delay overflowed to inf or nan
    if np.any(late):
        i = (rows.start or 0) + int(np.argmax(late))
        raise ValueError(
            f"row {i}: conversion time {float(arrays.conv_ts[i])!r} does not fit in int64 "
            "seconds; lower data.simulator.mean_delay or rate_spread"
        )
    return np.where(c == 1, conv.astype(np.int64), NO_CONVERSION)


def _field_tokens(config: SimConfig) -> list[list[str]]:
    """The token ``v{v}`` of each value v of each field."""
    return [[f"v{v}" for v in range(card)] for card in config.field_cardinalities]


def to_click_log(arrays: SimArrays, *, dim: int, seed: int) -> ClickLog:
    """The simulated clicks as a ClickLog, with the features and timestamps
    that reading their TSV (write_sim_tsv) would give. Each field value v is
    the token ``v{v}``; the Σcardinalities tokens are hashed once and
    gathered by value."""
    return ClickLog(
        click_ts=arrays.click_ts,
        conv_ts=_integer_conv_ts(arrays),
        x=hash_csr(arrays.values, _field_tokens(arrays.config), dim=dim, seed=seed),
    )


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


def _blocks(n: int) -> Iterator[slice]:
    """Consecutive row slices of at most WRITE_BLOCK rows that cover range(n)."""
    for lo in range(0, n, WRITE_BLOCK):
        yield slice(lo, min(lo + WRITE_BLOCK, n))


def check_conv_ts(arrays: SimArrays) -> None:
    """Raise the ValueError that writing or hashing ``arrays`` would raise if
    a conversion time does not fit in int64 seconds, block by block."""
    for rows in _blocks(arrays.n):
        _integer_conv_ts(arrays, rows)


def _float_reprs(a: np.ndarray) -> list[str]:
    """``repr`` of each float64 in ``a``, computed once per distinct bit
    pattern (not per value: -0.0 == 0.0, but their reprs differ)."""
    a = np.asarray(a, dtype=np.float64)
    bits = a.view(np.int64).tolist()
    reprs = {b: repr(v) for b, v in dict(zip(bits, a.tolist())).items()}
    return list(map(reprs.__getitem__, bits))


def write_sim_tsv(arrays: SimArrays, path: str | Path) -> None:
    """Write the simulated clicks in the standard TSV layout: click time, the
    conversion time ("" for none), then each field's token ``v{v}``. Raises
    before opening ``path`` if a conversion time does not fit in int64."""
    check_conv_ts(arrays)
    tables = [np.array(tokens, dtype=object) for tokens in _field_tokens(arrays.config)]
    fmt = "\t".join(["{}"] * (2 + len(tables))) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        for rows in _blocks(arrays.n):
            conv = _integer_conv_ts(arrays, rows).astype(object)
            conv[arrays.c[rows] == 0] = ""
            tokens = [table[arrays.values[rows, j]].tolist() for j, table in enumerate(tables)]
            handle.writelines(
                map(fmt.format, arrays.click_ts[rows].tolist(), conv.tolist(), *tokens)
            )


def write_truth(arrays: SimArrays, path: str | Path) -> None:
    """Sidecar ground-truth table: sample index, c, true_p, true_rate."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index\tc\ttrue_p\ttrue_rate\n")
        for rows in _blocks(arrays.n):
            handle.writelines(
                map(
                    "{}\t{}\t{}\t{}\n".format,
                    range(rows.start, rows.stop),
                    arrays.c[rows].tolist(),
                    _float_reprs(arrays.true_p[rows]),
                    _float_reprs(arrays.true_rate[rows]),
                )
            )
