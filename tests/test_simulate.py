"""Generator determinism, oracle weights, and delay-family correctness."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fsiw.data import NO_CONVERSION, Snapshot, categorical_schema, read_tsv
from fsiw.simulate import (
    ExponentialDelay,
    ModulatedExponentialDelay,
    SimArrays,
    SimConfig,
    generate_arrays,
    onehot_matrix,
    oracle_fsiw,
    oracle_fsiw_array,
    read_truth,
    sample_weight_vector,
    snapshot_arrays,
    to_click_log,
    write_sim_tsv,
    write_truth,
)

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
    modulation: float | None = None,
) -> SimConfig:
    rng = np.random.default_rng(seed + 1000)
    cvr_w = sample_weight_vector(cards, cvr_bias, cvr_spread, rng)
    rate_w = sample_weight_vector(cards, -math.log(mean_delay), rate_spread, rng)
    if modulation is None:
        delay = ExponentialDelay(rate_weights=rate_w)
    else:
        delay = ModulatedExponentialDelay(rate_weights=rate_w, modulation_depth=modulation)
    return SimConfig(
        n_samples=n,
        field_cardinalities=cards,
        cvr_weights=cvr_w,
        delay=delay,
        time_span=time_span,
        seed=seed,
    )


def _onehot_snapshot(arrays: SimArrays, training_end: float) -> Snapshot:
    """The simulated clicks snapshot-labeled at ``training_end``, with exact
    one-hot features (one column per field value) in place of hashed ones."""
    y, e = snapshot_arrays(arrays, training_end)
    return Snapshot(
        x=onehot_matrix(arrays.values, arrays.config.field_cardinalities),
        y=y,
        e=e.astype(np.int64),
        d=np.where(y == 1, arrays.delays(), 0).astype(np.int64),
        click_ts=arrays.click_ts,
    )


def test_oracle_weight_positive_example() -> None:
    # independent closed form: 1 / (1 - e^{-lambda e})
    expected = 1.0 / (1.0 - math.exp(-1.0))
    assert oracle_fsiw(0.5, 1.0, 1.0, 1) == pytest.approx(expected, abs=1e-12)
    assert round(expected, 4) == 1.5820


def test_oracle_weight_negative_example() -> None:
    expected = 0.5 / (0.5 + 0.5 * math.exp(-1.0))
    assert oracle_fsiw(0.5, 1.0, 1.0, 0) == pytest.approx(expected, abs=1e-12)
    assert round(expected, 4) == 0.7311


def test_oracle_weights_approach_one_without_censoring() -> None:
    assert abs(oracle_fsiw(0.5, 1.0, 1e9, 1) - 1.0) < 1e-12
    assert abs(oracle_fsiw(0.5, 1.0, 1e9, 0) - 1.0) < 1e-12


def test_oracle_weight_rejects_nonpositive_elapsed_time() -> None:
    with pytest.raises(ValueError):
        oracle_fsiw(0.5, 1.0, 0.0, 1)
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
    # re-derive two chunks by hand from the same top-level seed sequence
    cfg = _config(n=3000, seed=23)
    merged = generate_arrays(cfg, chunk_size=2048)
    streams = np.random.SeedSequence(cfg.seed).spawn(2)
    first = np.random.Generator(np.random.PCG64(streams[0])).integers(
        0, cfg.time_span, size=2048, dtype=np.int64
    )
    assert np.array_equal(merged.click_ts[:2048], first)


def test_degenerate_cvr_produces_no_conversions() -> None:
    cards = (4,)
    cfg = SimConfig(
        n_samples=5000,
        field_cardinalities=cards,
        cvr_weights=(-20.0, 0.0, 0.0, 0.0, 0.0),
        delay=ExponentialDelay(rate_weights=(-11.0, 0.0, 0.0, 0.0, 0.0)),
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
        delay=ExponentialDelay(rate_weights=(-11.0, 0.0, 0.0)),
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
    fam = ExponentialDelay(rate_weights=(0.0,))
    rng = np.random.default_rng(5)
    rate = np.full(200_000, 1.0 / DAY)
    draws = fam.sample(rate, rng)
    for t in (0.5 * DAY, DAY, 3 * DAY):
        expected = fam.cdf(t, 1.0 / DAY)
        got = (draws <= t).mean()
        assert abs(got - expected) < 0.005


def test_modulated_family_cdf_and_sampler_agree() -> None:
    fam = ModulatedExponentialDelay(rate_weights=(0.0,), modulation_depth=0.7)
    rng = np.random.default_rng(6)
    rate = np.full(200_000, 1.0 / DAY)
    draws = fam.sample(rate, rng)
    assert np.all(draws >= 0)
    for t in (0.25 * DAY, 0.5 * DAY, DAY, 2 * DAY):
        expected = float(fam.cdf(t, 1.0 / DAY))
        got = (draws <= t).mean()
        assert abs(got - expected) < 0.005


def test_modulated_cdf_reduces_to_exponential_at_zero_depth() -> None:
    flat = ModulatedExponentialDelay(rate_weights=(0.0,), modulation_depth=0.0)
    plain = ExponentialDelay(rate_weights=(0.0,))
    t = np.linspace(1.0, 5 * DAY, 50)
    assert np.allclose(flat.cdf(t, 1.0 / DAY), plain.cdf(t, 1.0 / DAY), atol=1e-12)


def test_modulated_depth_must_stay_below_one() -> None:
    with pytest.raises(ValueError):
        ModulatedExponentialDelay(rate_weights=(0.0,), modulation_depth=1.0)


def test_oracle_uses_family_cdf_when_given() -> None:
    fam = ModulatedExponentialDelay(rate_weights=(0.0,), modulation_depth=0.6)
    lam, e = 1.0 / DAY, 0.3 * DAY
    surv = 1.0 - float(fam.cdf(e, lam))
    assert oracle_fsiw(0.4, lam, e, 1, family=fam) == pytest.approx(1.0 / (1.0 - surv))
    assert oracle_fsiw(0.4, lam, e, 0, family=fam) == pytest.approx(0.6 / (0.6 + 0.4 * surv))


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


def test_records_round_trip_through_tsv_and_truth_sidecar(tmp_path) -> None:
    cfg = _config(n=300, seed=8)
    arrays = generate_arrays(cfg)
    write_sim_tsv(arrays, tmp_path / "data.tsv")
    write_truth(arrays, tmp_path / "truth.tsv")

    # the TSV path and the simulator path give the same log, hashes included
    read = read_tsv(tmp_path / "data.tsv", categorical_schema(2), dim=64, seed=5)
    direct = to_click_log(arrays, dim=64, seed=5)
    assert np.array_equal(read.click_ts, direct.click_ts)
    assert np.array_equal(read.conv_ts, direct.conv_ts)
    assert np.array_equal(read.x.indptr, direct.x.indptr)
    assert np.array_equal(read.x.indices, direct.x.indices)
    c, p, rate = read_truth(tmp_path / "truth.tsv")
    assert np.array_equal(c, arrays.c)
    assert np.array_equal(p, arrays.true_p)
    assert np.array_equal(rate, arrays.true_rate)


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
            delay=ExponentialDelay(rate_weights=(0.0, 0.0, 0.0)),
            time_span=100,
            seed=0,
        )
