"""Parsing, hashing, and snapshot-labeling behavior."""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from fsiw.data import (
    NO_CONVERSION,
    ClickLog,
    FieldSpec,
    ParseError,
    categorical_schema,
    full_observation_labels,
    hash_csr,
    parse_record,
    read_tsv,
    snapshot_labels,
    stable_feature_hash,
)


def _reference_hash(field_id: int, token: str, seed: int, dim: int) -> int:
    """Second, independently written implementation of the feature hash."""
    digest = hashlib.blake2b(
        f"{field_id}\x1f{token}".encode("utf-8"),
        digest_size=8,
        key=struct.pack("<Q", seed),
    ).digest()
    (value,) = struct.unpack("<Q", digest)
    return value % dim


def _reference_rows(rows: list[list[str]], dim: int, seed: int) -> list[list[int]]:
    """The per-row hashing the columnar path replaced: the sorted set of
    hashed (field, token) pairs of each click."""
    return [
        sorted({stable_feature_hash(j, tok, seed) % dim for j, tok in enumerate(row)})
        for row in rows
    ]


def _encode(rows: list[list[str]], n_fields: int) -> tuple[np.ndarray, list[list[str]]]:
    """Per-field codes in order of first appearance, as read_tsv assigns them."""
    vocabs: list[dict[str, int]] = [{} for _ in range(n_fields)]
    codes = [[vocab.setdefault(tok, len(vocab)) for vocab, tok in zip(vocabs, row)] for row in rows]
    return np.array(codes, dtype=np.int64).reshape(len(rows), n_fields), [list(v) for v in vocabs]


def _csr_rows(x: sparse.csr_matrix) -> list[list[int]]:
    return [x.indices[x.indptr[i] : x.indptr[i + 1]].tolist() for i in range(x.shape[0])]


def _corpus(n: int, seed: int = 13) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    return [[f"tok{rng.integers(0, 400)}" for _ in range(6)] for _ in range(n)]


def _log(clicks: list[int], convs: list[int | None]) -> ClickLog:
    """A one-feature-per-click log (click i has column i % 64)."""
    n = len(clicks)
    conv = [NO_CONVERSION if c is None else c for c in convs]
    x = sparse.csr_matrix(
        (np.ones(n), np.arange(n) % 64, np.arange(n + 1)), shape=(n, 64)
    )
    return ClickLog(np.array(clicks, dtype=np.int64), np.array(conv, dtype=np.int64), x)


def _write_tsv(path, rows: list[tuple[int, int | None, list[str]]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for click, conv, tokens in rows:
            handle.write("\t".join([str(click), "" if conv is None else str(conv), *tokens]) + "\n")


def test_parse_record_maps_fields_directly() -> None:
    schema = categorical_schema(2)
    assert parse_record("100\t150\tA\tB", schema) == (100, 150, ["A", "B"])


def test_parse_record_empty_conversion_column_means_no_conversion() -> None:
    _, conv_ts, _ = parse_record("100\t\tA\tB", categorical_schema(2))
    assert conv_ts == NO_CONVERSION


def test_parse_record_rejects_conversion_before_click() -> None:
    with pytest.raises(ParseError) as err:
        parse_record("100\t50\tA\tB", categorical_schema(2), line_no=7)
    assert "precedes" in str(err.value)
    assert "line 7" in str(err.value)
    assert err.value.column == 2


def test_parse_record_rejects_wrong_column_count_and_bad_timestamps() -> None:
    schema = categorical_schema(2)
    with pytest.raises(ParseError, match="columns"):
        parse_record("100\t150\tA", schema)
    with pytest.raises(ParseError, match="click timestamp"):
        parse_record("oops\t150\tA\tB", schema)
    with pytest.raises(ParseError, match="conversion timestamp"):
        parse_record("100\txx\tA\tB", schema)
    # timestamps must fit the int64 columns, below the no-conversion sentinel
    with pytest.raises(ParseError, match="out of range") as err:
        parse_record(f"{-(2**63) - 1}\t\tA\tB", schema)
    assert err.value.column == 1
    with pytest.raises(ParseError, match="out of range") as err:
        parse_record(f"100\t{NO_CONVERSION}\tA\tB", schema)
    assert err.value.column == 2


def test_numeric_fields_are_binned_via_schema_edges() -> None:
    schema = [FieldSpec(name="price", kind="numeric", bins=(1.0, 5.0, 20.0))]
    assert parse_record("0\t\t0.5", schema)[2] == ["b0"]
    assert parse_record("0\t\t3", schema)[2] == ["b1"]
    assert parse_record("0\t\t100", schema)[2] == ["b3"]
    with pytest.raises(ParseError, match="non-numeric"):
        parse_record("0\t\tcheap", schema)


def test_click_record_invariants() -> None:
    with pytest.raises(ValueError, match="precedes click at 10"):
        _log([0, 10], [None, 5])
    log = _log([0, 10], [None, 15])
    with pytest.raises(ValueError, match="one row per click"):
        ClickLog(log.click_ts, log.conv_ts[:1], log.x)
    with pytest.raises(ValueError, match="one row per click"):
        ClickLog(log.click_ts, log.conv_ts, log.x[:1])


def test_hash_features_is_deterministic() -> None:
    codes, tokens = _encode([["A", "B", "C"]], 3)
    first = hash_csr(codes, tokens, dim=256, seed=4)
    second = hash_csr(codes, tokens, dim=256, seed=4)
    assert _csr_rows(first) == _csr_rows(second)


def test_hash_features_indices_in_range_sorted_and_binary() -> None:
    rows = _corpus(50)
    x = hash_csr(*_encode(rows, 6), dim=512, seed=9)
    assert x.shape == (50, 512)
    assert np.all(x.data == 1.0)
    for idx in _csr_rows(x):
        assert all(0 <= i < 512 for i in idx)
        assert idx == sorted(set(idx))


def test_hash_collision_count_matches_independent_reimplementation() -> None:
    # oracle: recount collisions with the second implementation, per click
    rows = _corpus(1000)
    dim, seed = 1 << 10, 3
    expected_collisions = 0
    for row in rows:
        ref = {_reference_hash(fid, tok, seed, dim) for fid, tok in enumerate(row)}
        expected_collisions += len(row) - len(ref)
    got_collisions = 0
    x = hash_csr(*_encode(rows, 6), dim=dim, seed=seed)
    for row, idx in zip(rows, _csr_rows(x)):
        got_collisions += len(row) - len(idx)
        assert idx == sorted({_reference_hash(fid, tok, seed, dim) for fid, tok in enumerate(row)})
    assert got_collisions == expected_collisions
    assert expected_collisions > 0  # 6 tokens into 1024 buckets over 1000 clicks must collide


def test_different_seeds_give_different_layouts() -> None:
    codes, tokens = _encode(_corpus(1), 6)
    zero = _csr_rows(hash_csr(codes, tokens, dim=1 << 16, seed=0))
    one = _csr_rows(hash_csr(codes, tokens, dim=1 << 16, seed=1))
    assert zero != one


_token_grids = st.integers(1, 5).flatmap(
    lambda k: st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "dd", "é", ""]), min_size=k, max_size=k),
        max_size=30,
    ).map(lambda rows: (k, rows))
)


@settings(max_examples=200, deadline=None)
@given(
    grid=_token_grids,
    dim=st.sampled_from([2, 4, 8, 16, 1024]),
    seed=st.integers(0, 2**64 - 1),
)
def test_csr_matches_per_row_reference(grid, dim, seed) -> None:
    # small dims make (field, token) pairs collide inside a row
    n_fields, rows = grid
    x = hash_csr(*_encode(rows, n_fields), dim=dim, seed=seed)
    assert x.shape == (len(rows), dim)
    assert np.all(x.data == 1.0)
    assert _csr_rows(x) == _reference_rows(rows, dim, seed)


@settings(max_examples=100, deadline=None)
@given(grid=_token_grids, log2_dim=st.integers(1, 12))
def test_feature_vector_validation(grid, log2_dim) -> None:
    # every CSR row is a valid sparse binary vector: strictly increasing
    # indices inside [0, dim)
    n_fields, rows = grid
    dim = 2**log2_dim
    x = hash_csr(*_encode(rows, n_fields), dim=dim, seed=7)
    for idx in _csr_rows(x):
        assert all(a < b for a, b in zip(idx, idx[1:]))
        assert all(0 <= i < dim for i in idx)


def test_read_tsv_hashes_each_distinct_token_once(tmp_path, hash_calls) -> None:
    rows = _corpus(300)
    path = tmp_path / "clicks.tsv"
    _write_tsv(path, [(i, None, row) for i, row in enumerate(rows)])
    log = read_tsv(path, categorical_schema(6), dim=1 << 10, seed=3)
    distinct = {(j, tok) for row in rows for j, tok in enumerate(row)}
    assert len(hash_calls) == len(set(hash_calls)) == len(distinct)
    assert _csr_rows(log.x) == _reference_rows(rows, 1 << 10, 3)


def test_snapshot_labels_conversion_before_snapshot_is_positive() -> None:
    snap = snapshot_labels(_log([100], [150]), 200)
    assert (snap.y.tolist(), snap.e.tolist(), snap.d.tolist()) == ([1], [100], [50])


def test_snapshot_labels_late_conversion_is_mislabeled_negative() -> None:
    snap = snapshot_labels(_log([100], [250]), 200)
    assert (snap.y.tolist(), snap.e.tolist(), snap.d.tolist()) == ([0], [100], [0])


def test_snapshot_labels_excludes_clicks_at_or_after_snapshot() -> None:
    snap = snapshot_labels(_log([250, 200, 199], [None, None, None]), 200)
    assert snap.e.tolist() == [1]
    assert _csr_rows(snap.x) == [[2]]  # the features of the kept click


def test_snapshot_positive_count_monotone_in_observation_time() -> None:
    rng = np.random.default_rng(2)
    clicks, convs = [], []
    for _ in range(400):
        click = int(rng.integers(0, 1000))
        clicks.append(click)
        convs.append(click + int(rng.integers(0, 2000)) if rng.random() < 0.5 else None)
    log = _log(clicks, convs)
    counts = []
    for t_snap in (1000, 1500, 2000, 3500):
        snap = snapshot_labels(log, t_snap)
        assert len(snap.y) == len(log)  # same kept clicks at every snapshot
        counts.append(int(snap.y.sum()))
    assert counts == sorted(counts)


def test_snapshot_labels_is_idempotent_and_order_preserving() -> None:
    rng = np.random.default_rng(13)
    clicks = rng.integers(0, 10**6, 100).tolist()
    log = _log(clicks, [None] * 100)
    first = snapshot_labels(log, 10**6 + 1)
    second = snapshot_labels(log, 10**6 + 1)
    assert _csr_rows(first.x) == _csr_rows(second.x)
    for name in ("y", "e", "d", "click_ts"):
        assert np.array_equal(getattr(first, name), getattr(second, name))
    assert first.click_ts.tolist() == [c for c in clicks if c < 10**6 + 1]
    assert _csr_rows(first.x) == _csr_rows(log.x)


def test_snapshot_mean_label_never_exceeds_full_observation_mean() -> None:
    rng = np.random.default_rng(5)
    clicks, convs = [], []
    for _ in range(600):
        click = int(rng.integers(0, 5000))
        clicks.append(click)
        convs.append(click + int(rng.integers(1, 20000)) if rng.random() < 0.4 else None)
    log = _log(clicks, convs)
    snap = snapshot_labels(log, 5000)
    _, c = full_observation_labels(log)
    assert snap.y.mean() <= c.mean()


_clicks = st.lists(
    st.tuples(st.integers(-50, 1200), st.one_of(st.none(), st.integers(0, 1500))),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(clicks=_clicks, training_end=st.integers(-20, 1000))
def test_labeled_sample_invariants(clicks, training_end) -> None:
    # what LabeledSample once checked per row, as properties of the arrays
    log = _log([c for c, _ in clicks], [None if d is None else c + d for c, d in clicks])
    snap = snapshot_labels(log, training_end)
    kept = [(c, d) for c, d in clicks if c < training_end]
    assert snap.click_ts.tolist() == [c for c, _ in kept]
    assert snap.x.shape[0] == len(kept)
    assert set(snap.y.tolist()) <= {0, 1}
    assert np.all(snap.e > 0)
    pos = snap.y == 1
    assert np.all((snap.d[pos] >= 0) & (snap.d[pos] <= snap.e[pos]))
    assert np.all(snap.d[~pos] == 0)
    expected_y = [int(d is not None and c + d <= training_end) for c, d in kept]
    assert snap.y.tolist() == expected_y


def test_tsv_round_trip(tmp_path) -> None:
    rows = [(100, 250, ["a", "b", "c"]), (110, None, ["x", "y", "z"]), (120, 120, ["a", "y", "c"])]
    path = tmp_path / "roundtrip.tsv"
    _write_tsv(path, rows)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n")  # blank lines are skipped
    log = read_tsv(path, categorical_schema(3), dim=64, seed=2)
    assert log.click_ts.tolist() == [100, 110, 120]
    assert log.conv_ts.tolist() == [250, NO_CONVERSION, 120]
    assert log.click_ts.dtype == log.conv_ts.dtype == np.int64
    assert _csr_rows(log.x) == _reference_rows([r[2] for r in rows], 64, 2)


def test_read_tsv_keeps_line_and_column_of_bad_rows(tmp_path) -> None:
    path = tmp_path / "bad.tsv"
    path.write_text("1\t\ta\n\n5\t3\tb\n", encoding="utf-8")
    with pytest.raises(ParseError, match="precedes") as err:
        read_tsv(path, categorical_schema(1))
    assert (err.value.line_no, err.value.column) == (3, 2)


def test_full_observation_respects_observational_period() -> None:
    log = _log([0, 5], [100, None])
    _, within = full_observation_labels(log, observational_period=100)
    _, outside = full_observation_labels(log, observational_period=99)
    _, unbounded = full_observation_labels(log)
    assert within.tolist() == [1, 0]
    assert outside.tolist() == [0, 0]
    assert unbounded.tolist() == [1, 0]
