"""Counterfactual-deadline relabeling rules and set-level properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from fsiw.data import Snapshot
from fsiw.relabel import build_artificial_datasets


def _snapshot(rows: list[tuple[int, int, int | None]], training_end: int = 1000) -> Snapshot:
    """Snapshot rows from (click_ts, y, d); click i has feature column i % 64."""
    n = len(rows)
    click = np.array([c for c, _, _ in rows], dtype=np.int64)
    return Snapshot(
        x=sparse.csr_matrix((np.ones(n), np.arange(n) % 64, np.arange(n + 1)), shape=(n, 64)),
        y=np.array([y for _, y, _ in rows], dtype=np.int8),
        e=training_end - click,
        d=np.array([d or 0 for _, _, d in rows], dtype=np.int64),
    )


def _rows(a) -> list[tuple[int, int, int]]:
    """(row, e_adj, s) triples of one artificial set."""
    return list(zip(a.idx.tolist(), a.e_adj.tolist(), a.s.tolist()))


TAU, END = 200, 1000
CUTOFF = END - TAU  # 800


def test_early_converter_goes_to_d1_with_s1() -> None:
    d1, d0 = build_artificial_datasets(_snapshot([(500, 1, 100)]), TAU)
    assert _rows(d0) == []
    assert _rows(d1) == [(0, 300, 1)]


def test_late_converter_lands_in_both_sets_with_s0() -> None:
    d1, d0 = build_artificial_datasets(_snapshot([(700, 1, 200)]), TAU)
    assert _rows(d1) == [(0, 100, 0)]
    assert _rows(d0) == [(0, 100, 0)]


def test_negative_goes_to_d0_with_s1() -> None:
    d1, d0 = build_artificial_datasets(_snapshot([(500, 0, None)]), TAU)
    assert _rows(d1) == []
    assert _rows(d0) == [(0, 300, 1)]


def test_click_past_cutoff_is_excluded_from_both() -> None:
    d1, d0 = build_artificial_datasets(
        _snapshot([(900, 1, 50), (900, 0, None), (800, 0, None)]), TAU
    )
    assert _rows(d1) == [] and _rows(d0) == []  # 800 is the cutoff itself: excluded too


def test_conversion_exactly_at_cutoff_counts_as_not_yet_converted() -> None:
    # click 600 + delay 200 = 800 = cutoff; "before" is strict
    d1, d0 = build_artificial_datasets(_snapshot([(600, 1, 200)]), TAU)
    assert d1.s.tolist() == [0]
    assert len(d0.idx) == 1


def test_adjusted_elapsed_time_is_original_minus_tau_and_positive() -> None:
    snap = _snapshot([(c, 0, None) for c in (0, 100, 750, 799)])
    _, d0 = build_artificial_datasets(snap, TAU)
    assert d0.e_adj.tolist() == [800, 700, 50, 1]
    assert np.array_equal(snap.e[d0.idx], d0.e_adj + 200)


def test_config_rejects_bad_tau() -> None:
    with pytest.raises(ValueError, match="tau must be positive, got 0"):
        build_artificial_datasets(_snapshot([(10, 0, None)]), 0)
    with pytest.raises(ValueError, match="tau must be positive, got -5"):
        build_artificial_datasets(_snapshot([(10, 0, None)]), -5)


def test_non_positive_elapsed_time_is_rejected() -> None:
    # e = END - click: a click at or after the snapshot has no positive e
    for late in (END, 1200):
        with pytest.raises(ValueError, match=f"elapsed times must be positive, got {END - late}$"):
            build_artificial_datasets(_snapshot([(10, 0, None), (late, 0, None)]), TAU)


def _random_rows(n: int, seed: int, training_end: int = 1000) -> list[tuple[int, int, int | None]]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        click = int(rng.integers(0, training_end))
        e = training_end - click
        if rng.random() < 0.5:
            out.append((click, 1, int(rng.integers(0, e + 1))))
        else:
            out.append((click, 0, None))
    return out


def test_set_level_membership_properties() -> None:
    rows = _random_rows(500, seed=1)
    d1, d0 = build_artificial_datasets(_snapshot(rows), TAU)
    kept = [r for r in rows if r[0] < CUTOFF]
    kept_pos = [r for r in kept if r[1] == 1]

    assert len(d1.idx) == len(kept_pos)
    # every kept row shows up somewhere, and only late converters twice
    assert len(d0.idx) + len(d1.idx) == len(kept) + sum(
        1 for c, _, d in kept_pos if c + d >= CUTOFF
    )
    late = {(i, e) for i, e, s in _rows(d1) if s == 0}
    d0_s0 = {(i, e) for i, e, s in _rows(d0) if s == 0}
    assert late == d0_s0  # the s=0 part of D1 is exactly D0's s=0 part


def test_long_deadline_makes_d1_pure_s1() -> None:
    # all converters finish within 100s of the click; tau=500 >= that
    rng = np.random.default_rng(3)
    rows = []
    for _ in range(200):
        click = int(rng.integers(0, 400))
        if rng.random() < 0.5:
            rows.append((click, 1, int(rng.integers(0, 100))))
        else:
            rows.append((click, 0, None))
    d1, _ = build_artificial_datasets(_snapshot(rows), 500)
    assert len(d1.idx) and np.all(d1.s == 1)


def test_output_preserves_input_order() -> None:
    d1, d0 = build_artificial_datasets(_snapshot(_random_rows(300, seed=9)), TAU)
    for group in (d1, d0):
        assert np.all(np.diff(group.idx) > 0)


_worlds = st.integers(2, 1000).flatmap(
    lambda end: st.tuples(
        st.just(end),
        st.integers(1, end - 1),
        st.lists(
            st.integers(0, end - 1).flatmap(
                lambda click: st.one_of(
                    st.just((click, 0, None)),
                    st.integers(0, end - click).map(lambda d: (click, 1, d)),
                )
            ),
            max_size=60,
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(world=_worlds)
def test_artificial_sample_validation(world) -> None:
    # what ArtificialSample once checked per row, plus the D1/D0 membership
    # rules, as properties of the index arrays
    training_end, tau, rows = world
    cutoff = training_end - tau
    d1, d0 = build_artificial_datasets(_snapshot(rows, training_end), tau)
    expect_d1, expect_d0 = [], []
    for i, (click, y, d) in enumerate(rows):
        if click >= cutoff:
            continue
        e_adj = training_end - click - tau
        if y == 1:
            early = click + d < cutoff
            expect_d1.append((i, e_adj, int(early)))
            if not early:
                expect_d0.append((i, e_adj, 0))
        else:
            expect_d0.append((i, e_adj, 1))
    assert _rows(d1) == expect_d1
    assert _rows(d0) == expect_d0
    for group in (d1, d0):
        assert np.all(group.e_adj > 0)
        assert set(group.s.tolist()) <= {0, 1}
        assert np.all(np.diff(group.idx) > 0)
