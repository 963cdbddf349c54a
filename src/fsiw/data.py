"""Click-log data model: TSV ingestion, feature hashing, snapshot labeling.

A click log row is ``click_ts <TAB> conv_ts <TAB> feature columns...`` where an
empty conversion column means the click never converted (as far as the log
knows). Labels are assigned relative to a snapshot time ``T``: a click counts
as positive only if its conversion was already observable at ``T``.

A loaded log is one ``ClickLog``: two int64 timestamp arrays and one binary
CSR feature matrix, row i of each being click i. Windows, snapshot labels and
relabeled sets are masks, index arrays and row slices over it.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from scipy import sparse

DEFAULT_HASH_DIM = 2**17
DEFAULT_HASH_SEED = 0

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400

# ``conv_ts`` of a click without a logged conversion. It sorts after every
# real timestamp, so ``conv_ts <= t`` is False for it at any snapshot t.
NO_CONVERSION = int(np.iinfo(np.int64).max)
_MIN_TS = int(np.iinfo(np.int64).min)


class ParseError(ValueError):
    """A TSV line could not be parsed into a click."""

    def __init__(self, message: str, *, line_no: int | None = None, column: int | None = None):
        where = []
        if line_no is not None:
            where.append(f"line {line_no}")
        if column is not None:
            where.append(f"column {column}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)
        self.line_no = line_no
        self.column = column


@dataclass(frozen=True)
class FieldSpec:
    """One feature column: categorical tokens pass through, numeric values
    are binned into categorical tokens using the declared ascending edges."""

    name: str
    kind: str = "categorical"
    bins: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("categorical", "numeric"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "numeric":
            if not self.bins:
                raise ValueError(f"numeric field {self.name!r} needs bin edges")
            if list(self.bins) != sorted(self.bins):
                raise ValueError(f"bin edges for {self.name!r} must be ascending")

    def tokenize(self, raw: str) -> str:
        if self.kind == "categorical":
            return raw
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"non-numeric value {raw!r} for field {self.name!r}") from None
        return f"b{bisect_right(self.bins, value)}"


def categorical_schema(n_fields: int, prefix: str = "f") -> list[FieldSpec]:
    """All-categorical schema with generated names, used for simulator output
    and for logs whose numeric columns were binned upstream."""
    return [FieldSpec(name=f"{prefix}{i}") for i in range(n_fields)]


@dataclass(frozen=True)
class ClickLog:
    """A click log in columns: row i of every field is click i.

    ``click_ts`` and ``conv_ts`` are int64 seconds; ``conv_ts`` is
    NO_CONVERSION where no conversion was logged. ``x`` is the (n, dim) binary
    CSR feature matrix, with sorted, deduplicated indices in every row.
    """

    click_ts: np.ndarray
    conv_ts: np.ndarray
    x: sparse.csr_matrix

    def __post_init__(self):
        n = self.click_ts.shape[0]
        if self.conv_ts.shape != (n,) or self.x.shape[0] != n:
            raise ValueError("click_ts, conv_ts and x need one row per click")
        early = self.conv_ts < self.click_ts
        if np.any(early):
            i = int(np.argmax(early))
            raise ValueError(
                f"conversion at {self.conv_ts[i]} precedes click at {self.click_ts[i]} (row {i})"
            )

    def __len__(self) -> int:
        return self.click_ts.shape[0]

    def rows(self, idx: np.ndarray) -> ClickLog:
        """The clicks at ``idx`` (indices or a mask), in that order."""
        return ClickLog(self.click_ts[idx], self.conv_ts[idx], self.x[idx])


def parse_record(
    line: str, schema: Sequence[FieldSpec], *, line_no: int | None = None
) -> tuple[int, int, list[str]]:
    """Parse one tab-separated row into (click_ts, conv_ts, tokens).

    Columns: click timestamp, conversion timestamp (empty means none, returned
    as NO_CONVERSION), then one column per schema field, returned as its
    token. Raises ParseError pointing at the offending line/column on
    malformed or out-of-range timestamps, wrong column counts, or a
    conversion preceding its click.
    """
    parts = line.rstrip("\n").split("\t")
    expected = 2 + len(schema)
    if len(parts) != expected:
        raise ParseError(
            f"expected {expected} columns, got {len(parts)}", line_no=line_no
        )

    try:
        click_ts = int(parts[0])
    except ValueError:
        raise ParseError(f"bad click timestamp {parts[0]!r}", line_no=line_no, column=1) from None
    if not _MIN_TS <= click_ts < NO_CONVERSION:
        raise ParseError(f"click timestamp {click_ts} out of range", line_no=line_no, column=1)

    conv_raw = parts[1]
    if conv_raw == "":
        conv_ts = NO_CONVERSION
    else:
        try:
            conv_ts = int(conv_raw)
        except ValueError:
            raise ParseError(
                f"bad conversion timestamp {conv_raw!r}", line_no=line_no, column=2
            ) from None
        if conv_ts < click_ts:
            raise ParseError(
                f"conversion timestamp {conv_ts} precedes click {click_ts}",
                line_no=line_no,
                column=2,
            )
        if conv_ts >= NO_CONVERSION:
            raise ParseError(
                f"conversion timestamp {conv_ts} out of range", line_no=line_no, column=2
            )

    tokens = []
    for field_id, (spec, raw) in enumerate(zip(schema, parts[2:])):
        try:
            tokens.append(spec.tokenize(raw))
        except ValueError as exc:
            raise ParseError(str(exc), line_no=line_no, column=3 + field_id) from None
    return click_ts, conv_ts, tokens


def read_tsv(
    path: str | Path,
    schema: Sequence[FieldSpec],
    *,
    dim: int = DEFAULT_HASH_DIM,
    seed: int = DEFAULT_HASH_SEED,
) -> ClickLog:
    """Load a TSV click log, hashing its features into ``dim`` columns.

    Each field's tokens get codes in order of first appearance, so hash_csr
    hashes every distinct (field, token) pair once. Blank lines are skipped.
    """
    vocabs: list[dict[str, int]] = [{} for _ in schema]
    clicks, convs, codes = [], [], []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            click_ts, conv_ts, tokens = parse_record(line, schema, line_no=line_no)
            clicks.append(click_ts)
            convs.append(conv_ts)
            for vocab, token in zip(vocabs, tokens):
                codes.append(vocab.setdefault(token, len(vocab)))
    code_matrix = np.array(codes, dtype=np.int64).reshape(len(clicks), len(schema))
    return ClickLog(
        click_ts=np.array(clicks, dtype=np.int64),
        conv_ts=np.array(convs, dtype=np.int64),
        x=hash_csr(code_matrix, [list(vocab) for vocab in vocabs], dim=dim, seed=seed),
    )


def stable_feature_hash(field_id: int, token: str, seed: int) -> int:
    """Platform-stable 64-bit hash of a (field_id, token) pair.

    Keyed blake2b so different seeds give independent index layouts.
    """
    if not 0 <= seed < 2**64:
        raise ValueError("hash seed must fit in an unsigned 64-bit integer")
    key = seed.to_bytes(8, "little")
    payload = f"{field_id}\x1f{token}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


def hash_csr(
    codes: np.ndarray,
    tokens: Sequence[Sequence[str]],
    *,
    dim: int = DEFAULT_HASH_DIM,
    seed: int = DEFAULT_HASH_SEED,
) -> sparse.csr_matrix:
    """Binary (n, dim) feature matrix of hashed (field, token) pairs.

    ``codes[i, j]`` indexes ``tokens[j]``, the distinct tokens of field j.
    Each distinct pair is hashed once and its column is gathered by code.
    Pairs that collide within a row are deduplicated (presence encoding, no
    sign trick), and every row's column indices are sorted.
    """
    n, n_fields = codes.shape
    if len(tokens) != n_fields:
        raise ValueError(f"{len(tokens)} token lists for {n_fields} code columns")
    cols = np.empty((n, n_fields), dtype=np.int64)
    for j, field_tokens in enumerate(tokens):
        table = np.array(
            [stable_feature_hash(j, token, seed) % dim for token in field_tokens], dtype=np.int64
        )
        cols[:, j] = table[codes[:, j]]
    cols.sort(axis=1)
    keep = np.ones((n, n_fields), dtype=bool)
    keep[:, 1:] = cols[:, 1:] != cols[:, :-1]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    indices = cols[keep]
    return sparse.csr_matrix(
        (np.ones(indices.size), indices, indptr), shape=(n, dim)
    )


class Snapshot(NamedTuple):
    """Snapshot-labeled rows of a click log, in log order.

    ``y`` is the label as of the snapshot, ``e`` the elapsed seconds between
    the click and the snapshot, and ``d`` the observed delay on positives
    (0 on negatives).
    """

    x: sparse.csr_matrix
    y: np.ndarray
    e: np.ndarray
    d: np.ndarray
    click_ts: np.ndarray


def snapshot_labels(log: ClickLog, training_end: int) -> Snapshot:
    """Label a log as of snapshot time ``training_end``.

    Clicks at or after the snapshot are dropped. A kept click is positive iff
    its conversion timestamp exists and is <= the snapshot; conversions that
    land later are (mis)labeled negative, which is exactly the censoring this
    package corrects for. Order-preserving and idempotent.
    """
    kept = log.click_ts < training_end
    click_ts, conv_ts = log.click_ts[kept], log.conv_ts[kept]
    y = conv_ts <= training_end
    return Snapshot(
        x=log.x[kept],
        y=y.astype(np.int8),
        e=training_end - click_ts,
        d=np.where(y, conv_ts, click_ts) - click_ts,
        click_ts=click_ts,
    )


def full_observation_labels(
    log: ClickLog, *, observational_period: int | None = None
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Features and final outcome ``c`` of every click in the log.

    When ``observational_period`` is set, only conversions within that many
    seconds of the click count; this mirrors logs whose labels are frozen
    after a fixed tracking window.
    """
    c = log.conv_ts != NO_CONVERSION
    if observational_period is not None:
        c &= np.where(c, log.conv_ts, log.click_ts) - log.click_ts <= observational_period
    return log.x, c.astype(np.int8)
