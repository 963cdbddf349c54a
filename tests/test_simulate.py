"""Generator determinism, oracle weights, the exponential delay sampler, and
the TSV writers against their row-by-row reference."""

from __future__ import annotations

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fsiw.data import NO_CONVERSION, FieldSpec, read_tsv
from fsiw.simulate import (
    CHUNK_SIZE,
    WRITE_BLOCK,
    SimArrays,
    SimConfig,
    generate_arrays,
    sample_weight_vector,
    to_click_log,
    write_sim_tsv,
    write_truth,
)

from simworld import delays, onehot_matrix, oracle_fsiw_array, snapshot_arrays

DAY = 86400


def _config(
    n: int = 2000,
    seed: int = 0,
    cvr_bias: float = -1.5,
    cvr_spread: float = 1.0,
    mean_delay: float = 2 * DAY,
    rate_spread: float = 0.4,
    cards: tuple[int, ...] = (8, 8),
    time_span: int = 14 * DAY,
) -> SimConfig:
    rng = np.random.default_rng(seed + 1000)
    cvr_w = sample_weight_vector(cards, cvr_bias, cvr_spread, rng)
    rate_w = sample_weight_vector(cards, -math.log(mean_delay), rate_spread, rng)
    return SimConfig(
        n_samples=n,
        field_cardinalities=cards,
        cvr_weights=cvr_w,
        rate_weights=rate_w,
        time_span=time_span,
        seed=seed,
    )


def _oracle_one(true_p: float, rate: float, e: float, y: int) -> float:
    """oracle_fsiw_array on a one-element input."""
    (w,) = oracle_fsiw_array(np.array([true_p]), np.array([rate]), np.array([e]), np.array([y]))
    return float(w)


def test_oracle_weight_positive_example() -> None:
    # independent closed form: 1 / (1 - e^{-lambda e})
    expected = 1.0 / (1.0 - math.exp(-1.0))
    assert _oracle_one(0.5, 1.0, 1.0, 1) == pytest.approx(expected, abs=1e-12)
    assert round(expected, 4) == 1.5820


def test_oracle_weight_negative_example() -> None:
    expected = 0.5 / (0.5 + 0.5 * math.exp(-1.0))
    assert _oracle_one(0.5, 1.0, 1.0, 0) == pytest.approx(expected, abs=1e-12)
    assert round(expected, 4) == 0.7311


def test_oracle_weights_approach_one_without_censoring() -> None:
    assert abs(_oracle_one(0.5, 1.0, 1e9, 1) - 1.0) < 1e-12
    assert abs(_oracle_one(0.5, 1.0, 1e9, 0) - 1.0) < 1e-12


def test_oracle_weight_rejects_nonpositive_elapsed_time() -> None:
    with pytest.raises(ValueError):
        _oracle_one(0.5, 1.0, 0.0, 1)
    with pytest.raises(ValueError):
        oracle_fsiw_array(np.array([0.5]), np.array([1.0]), np.array([-1.0]), np.array([1]))


def test_oracle_weight_algebraic_identities_to_machine_precision() -> None:
    rng = np.random.default_rng(42)
    n = 10_000
    p = rng.uniform(0.01, 0.99, n)
    lam = np.exp(rng.uniform(-16, 1, n))
    e = np.exp(rng.uniform(0, 16, n))
    observed = -np.expm1(-lam * e)  # P(label already 1 | converts, elapsed e)
    p_y1 = p * observed
    w1 = oracle_fsiw_array(p, lam, e, np.ones(n, dtype=int))
    w0 = oracle_fsiw_array(p, lam, e, np.zeros(n, dtype=int))
    assert np.all(np.abs(w1 * p_y1 - p) < 1e-12)
    assert np.all(np.abs(w0 * (1.0 - p_y1) - (1.0 - p)) < 1e-12)


def test_oracle_weight_ranges() -> None:
    rng = np.random.default_rng(7)
    n = 2000
    p = rng.uniform(0.01, 0.99, n)
    lam = np.exp(rng.uniform(-14, 0, n))
    e = np.exp(rng.uniform(0, 14, n))
    w1 = oracle_fsiw_array(p, lam, e, np.ones(n, dtype=int))
    w0 = oracle_fsiw_array(p, lam, e, np.zeros(n, dtype=int))
    assert np.all(w1 >= 1.0)
    assert np.all((w0 > 0.0) & (w0 <= 1.0))


def test_generate_is_deterministic_for_fixed_seed() -> None:
    cfg = _config(n=3000, seed=11)
    a, b = generate_arrays(cfg), generate_arrays(cfg)
    assert np.array_equal(a.click_ts, b.click_ts)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.conv_ts, b.conv_ts, equal_nan=True)
    assert np.array_equal(a.c, b.c)


def test_generation_is_chunked_by_independent_substreams() -> None:
    # re-derive both chunks by hand from the same top-level seed sequence
    cfg = _config(n=CHUNK_SIZE + 1000, seed=23)
    merged = generate_arrays(cfg)
    streams = np.random.SeedSequence(cfg.seed).spawn(2)
    for stream, start, size in zip(streams, (0, CHUNK_SIZE), (CHUNK_SIZE, 1000)):
        expected = np.random.Generator(np.random.PCG64(stream)).integers(
            0, cfg.time_span, size=size, dtype=np.int64
        )
        assert np.array_equal(merged.click_ts[start : start + size], expected)


def test_degenerate_cvr_produces_no_conversions() -> None:
    cards = (4,)
    cfg = SimConfig(
        n_samples=5000,
        field_cardinalities=cards,
        cvr_weights=(-20.0, 0.0, 0.0, 0.0, 0.0),
        rate_weights=(-11.0, 0.0, 0.0, 0.0, 0.0),
        time_span=10 * DAY,
        seed=3,
    )
    arrays = generate_arrays(cfg)
    assert arrays.c.sum() == 0


def test_bias_only_cvr_matches_binomial_concentration() -> None:
    target = 0.2
    bias = math.log(target / (1 - target))
    cfg = SimConfig(
        n_samples=1_000_000,
        field_cardinalities=(2,),
        cvr_weights=(bias, 0.0, 0.0),
        rate_weights=(-11.0, 0.0, 0.0),
        time_span=10 * DAY,
        seed=17,
    )
    arrays = generate_arrays(cfg)
    sigma = math.sqrt(target * (1 - target) / cfg.n_samples)
    assert abs(arrays.c.mean() - target) < 3 * sigma


def test_mixing_check_per_cell_label_rate_matches_closed_form() -> None:
    # law of total probability at (almost) fixed elapsed time, per feature cell
    cfg = _config(n=200_000, seed=29, cards=(4,), cvr_spread=0.8, rate_spread=0.3)
    arrays = generate_arrays(cfg)
    t_snap = cfg.time_span + 12 * 3600
    y, e = snapshot_arrays(arrays, t_snap)
    cell = arrays.values[:, 0]
    for v in range(4):
        pick = (cell == v) & (e > 5 * DAY) & (e < 6 * DAY)
        n = int(pick.sum())
        assert n > 2000
        p_cell = arrays.true_p[pick][0]
        lam_cell = arrays.true_rate[pick][0]
        expect = np.mean(p_cell * -np.expm1(-lam_cell * e[pick]))
        sigma = math.sqrt(expect * (1 - expect) / n)
        assert abs(y[pick].mean() - expect) < 4 * sigma


def test_snapshot_arrays_weighted_loss_identity_holds_in_expectation() -> None:
    cfg = _config(n=100_000, seed=31)
    arrays = generate_arrays(cfg)
    y, e = snapshot_arrays(arrays, cfg.time_span + 6 * 3600)
    w = oracle_fsiw_array(arrays.true_p, arrays.true_rate, e, y)
    assert abs((y * w).mean() - arrays.c.mean()) < 0.005


def test_exponential_sampler_matches_cdf() -> None:
    # every click converts (p = 1 in float), at time 0, at rate 1/DAY
    cfg = SimConfig(
        n_samples=200_000,
        field_cardinalities=(1,),
        cvr_weights=(50.0, 0.0),
        rate_weights=(-math.log(DAY), 0.0),
        time_span=1,
        seed=5,
    )
    draws = delays(generate_arrays(cfg))
    for t in (0.5 * DAY, DAY, 3 * DAY):
        expected = -math.expm1(-t / DAY)
        got = (draws <= t).mean()
        assert abs(got - expected) < 0.005


def test_sim_click_log_is_consistent() -> None:
    arrays = generate_arrays(_config(n=500, seed=4))
    log = to_click_log(arrays, dim=64, seed=0)
    converted = log.conv_ts != NO_CONVERSION
    assert np.array_equal(converted, arrays.c == 1)
    assert np.all(log.conv_ts[converted] >= log.click_ts[converted])
    # integer conversion times are the simulated ones rounded up
    assert np.all(log.conv_ts[converted] - arrays.conv_ts[converted] < 1.0)
    assert np.array_equal(log.click_ts, arrays.click_ts)
    assert np.all((arrays.true_p > 0.0) & (arrays.true_p < 1.0))
    assert np.all(arrays.true_rate > 0)


def test_sim_click_log_hashes_each_field_value_once(hash_calls) -> None:
    to_click_log(generate_arrays(_config(n=2000, seed=3, cards=(8, 3))), dim=64, seed=0)
    assert sorted(hash_calls) == sorted(
        [(0, f"v{v}") for v in range(8)] + [(1, f"v{v}") for v in range(3)]
    )


def _read_truth(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a write_truth sidecar back as (c, true_p, true_rate) arrays."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "index\tc\ttrue_p\ttrue_rate"
    rows = [line.split("\t") for line in lines[1:]]
    return (
        np.array([int(r[1]) for r in rows], np.int8),
        np.array([float(r[2]) for r in rows]),
        np.array([float(r[3]) for r in rows]),
    )


def test_records_round_trip_through_tsv_and_truth_sidecar(tmp_path) -> None:
    cfg = _config(n=300, seed=8)
    arrays = generate_arrays(cfg)
    write_sim_tsv(arrays, tmp_path / "data.tsv")
    write_truth(arrays, tmp_path / "truth.tsv")

    # the TSV path and the simulator path give the same log, hashes included
    schema = [FieldSpec(name="f0"), FieldSpec(name="f1")]
    read = read_tsv(tmp_path / "data.tsv", schema, dim=64, seed=5)
    direct = to_click_log(arrays, dim=64, seed=5)
    assert np.array_equal(read.click_ts, direct.click_ts)
    assert np.array_equal(read.conv_ts, direct.conv_ts)
    assert np.array_equal(read.x.indptr, direct.x.indptr)
    assert np.array_equal(read.x.indices, direct.x.indices)
    c, p, rate = _read_truth(tmp_path / "truth.tsv")
    assert np.array_equal(c, arrays.c)
    assert np.array_equal(p, arrays.true_p)
    assert np.array_equal(rate, arrays.true_rate)


def _write_sim_tsv_rowwise(arrays: SimArrays, path: Path) -> None:
    """Reference for write_sim_tsv: one row at a time."""
    conv_int = to_click_log(arrays, dim=1, seed=0).conv_ts
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(arrays.n):
            conv = "" if arrays.c[i] == 0 else str(int(conv_int[i]))
            tokens = [f"v{arrays.values[i, j]}" for j in range(arrays.values.shape[1])]
            handle.write("\t".join([str(int(arrays.click_ts[i])), conv, *tokens]) + "\n")


def _write_truth_rowwise(arrays: SimArrays, path: Path) -> None:
    """Reference for write_truth: one row at a time."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index\tc\ttrue_p\ttrue_rate\n")
        for i in range(arrays.n):
            handle.write(
                f"{i}\t{int(arrays.c[i])}\t{float(arrays.true_p[i])!r}\t{float(arrays.true_rate[i])!r}\n"
            )


def _assert_writers_match_reference(arrays: SimArrays, tmp_path: Path) -> None:
    for write, reference in (
        (write_sim_tsv, _write_sim_tsv_rowwise),
        (write_truth, _write_truth_rowwise),
    ):
        write(arrays, tmp_path / "got.tsv")
        reference(arrays, tmp_path / "want.tsv")
        assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()


WRITER_WORLDS = {
    "no_conversion": dict(cvr_bias=-60.0),
    "readme": dict(mean_delay=DAY, time_span=10 * DAY),
    "4x16": dict(cards=(16, 16, 16, 16), mean_delay=3 * DAY, rate_spread=1.0, time_span=15 * DAY),
}


@pytest.mark.parametrize("world", sorted(WRITER_WORLDS))
@pytest.mark.parametrize("block", [1, 2, 7, WRITE_BLOCK])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_writers_match_the_row_by_row_reference(tmp_path, monkeypatch, world, block, extra) -> None:
    # n one below, equal to and one above a block: the last block is short,
    # whole, or a single row (and n = 0 at block 1)
    monkeypatch.setattr("fsiw.simulate.WRITE_BLOCK", block)
    arrays = generate_arrays(_config(n=block + extra, seed=9, **WRITER_WORLDS[world]))
    assert world != "no_conversion" or arrays.c.sum() == 0
    _assert_writers_match_reference(arrays, tmp_path)


def test_truth_writer_keeps_signed_zeros_and_non_finite_values(tmp_path, monkeypatch) -> None:
    # -0.0 == 0.0 but their reprs differ, so reprs are shared by bit pattern
    monkeypatch.setattr("fsiw.simulate.WRITE_BLOCK", 7)
    arrays = generate_arrays(_config(n=20, seed=3))
    arrays.true_p[[0, 1, 9, 10]] = [-0.0, 0.0, 0.0, -0.0]
    arrays.true_rate[[2, 3, 4, 5]] = [math.nan, math.inf, -math.inf, -0.0]
    _assert_writers_match_reference(arrays, tmp_path)


def test_write_sim_tsv_rejects_a_late_conversion_before_creating_the_file(
    tmp_path, monkeypatch
) -> None:
    monkeypatch.setattr("fsiw.simulate.WRITE_BLOCK", 7)
    arrays = generate_arrays(_config(n=50, seed=2))
    late = int(np.flatnonzero(arrays.c == 1)[-1])
    assert late >= 7  # the message names the row's index in the log, not in its block
    arrays.conv_ts[late] = math.inf
    with pytest.raises(ValueError, match=rf"^row {late}: conversion time inf does not fit"):
        write_sim_tsv(arrays, tmp_path / "data.tsv")
    assert not (tmp_path / "data.tsv").exists()


@pytest.mark.parametrize("write", [write_sim_tsv, write_truth])
def test_writers_memory_does_not_grow_with_the_row_count(tmp_path, write) -> None:
    # 200k clicks, most with a distinct true_p and true_rate; one int64 column
    # of them alone takes 1.6 MB, and the rows as text about 10 MB
    arrays = generate_arrays(_config(n=200_000, seed=10, cards=(16, 16, 16, 16)))
    tracemalloc.start()
    try:
        write(arrays, tmp_path / "out.tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000


def test_onehot_matrix_shape_and_content() -> None:
    values = np.array([[0, 2], [1, 0]])
    m = onehot_matrix(values, (2, 3)).toarray()
    assert m.tolist() == [[1, 0, 0, 0, 1], [0, 1, 1, 0, 0]]


def test_config_validates_weight_lengths() -> None:
    with pytest.raises(ValueError, match="cvr_weights"):
        SimConfig(
            n_samples=10,
            field_cardinalities=(2,),
            cvr_weights=(0.0,),
            rate_weights=(0.0, 0.0, 0.0),
            time_span=100,
            seed=0,
        )
