"""Pipeline harness: config parsing/validation, rolling windows, leakage
protection, determinism, and the deadline sweep."""

from __future__ import annotations

import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from fsiw.experiment import (
    REPORT_COLUMNS,
    SimulatorSpec,
    SplitSpec,
    config_from_dict,
    deadline_sweep,
    parse_duration,
    rolling_splits,
    run_pipeline,
)
from fsiw.relabel import ConfigError
from fsiw.simulate import generate_arrays, write_sim_tsv

DAY = 86400


def _base_dict(**overrides) -> dict:
    raw = {
        "seed": 5,
        "output_dir": "unused",
        "data": {
            "kind": "simulator",
            "simulator": {
                "n_samples": 3000,
                "field_cardinalities": [8, 8],
                "time_span": "10d",
                "cvr_bias": -1.5,
                "cvr_spread": 1.0,
                "mean_delay": "1d",
                "rate_spread": 0.4,
            },
        },
        "hashing": {"dim": 1024, "seed": 0},
        "split": {
            "train_window": "7d",
            "test_window": "1d",
            "stride": "1d",
            "n_splits": 1,
        },
        "tau": "2d",
        "trainers": ["naive_lr", "lr_fsiw"],
        "l2": 1e-4,
        "optimizer": {"max_iter": 150, "tol": 1e-9},
        "metrics": {"bootstrap_b": 100},
    }
    deep = copy.deepcopy(raw)
    for key, value in overrides.items():
        deep[key] = value
    return deep


def _ts(*clicks: int) -> np.ndarray:
    return np.array(clicks, dtype=np.int64)


# --- durations ---------------------------------------------------------------


def test_parse_duration_units() -> None:
    assert parse_duration("21d") == 21 * DAY
    assert parse_duration("36h") == 36 * 3600
    assert parse_duration("90m") == 5400
    assert parse_duration("45s") == 45
    assert parse_duration("2w") == 14 * DAY
    assert parse_duration(3600) == 3600
    assert parse_duration("1.5m") == 90
    assert parse_duration(" 3 d ") == 3 * DAY


def test_parse_duration_rejects_garbage() -> None:
    with pytest.raises(ConfigError):
        parse_duration("three days")
    with pytest.raises(ConfigError):
        parse_duration("4x")
    with pytest.raises(ConfigError):
        parse_duration(True)
    with pytest.raises(ConfigError, match="whole seconds"):
        parse_duration("1.5s")


# --- rolling splits ----------------------------------------------------------


def test_rolling_splits_seven_windows_over_four_weeks() -> None:
    clicks = np.arange(0, 28 * DAY, 6 * 3600)
    spec = SplitSpec(train_window=21 * DAY, test_window=DAY, stride=DAY)
    splits = rolling_splits(clicks, spec, start=0, end=28 * DAY)
    assert len(splits) == 7
    assert splits[0].train_end == 21 * DAY
    assert splits[-1].test_end == 28 * DAY


def test_rolling_splits_exact_span_is_one_split() -> None:
    spec = SplitSpec(train_window=7 * DAY, test_window=DAY, stride=3 * DAY)
    splits = rolling_splits(_ts(0, 8 * DAY - 1), spec)
    assert len(splits) == 1


def test_rolling_splits_insufficient_span_errors() -> None:
    spec = SplitSpec(train_window=7 * DAY, test_window=DAY, stride=DAY)
    with pytest.raises(ConfigError, match="span"):
        rolling_splits(_ts(0, 5 * DAY), spec)
    with pytest.raises(ConfigError, match="no records"):
        rolling_splits(_ts(), spec)


def test_rolling_splits_respects_requested_count() -> None:
    clicks = np.arange(0, 28 * DAY, 3600)
    spec = SplitSpec(train_window=21 * DAY, test_window=DAY, stride=DAY, n_splits=3)
    assert len(rolling_splits(clicks, spec, start=0, end=28 * DAY)) == 3
    too_many = SplitSpec(train_window=21 * DAY, test_window=DAY, stride=DAY, n_splits=8)
    with pytest.raises(ConfigError, match="allows only 7"):
        rolling_splits(clicks, spec=too_many, start=0, end=28 * DAY)


def test_rolling_splits_window_membership_boundaries() -> None:
    # out of order on purpose: windows hold ascending row indices
    marks = _ts(9, 0, 10, 13, 14, 16, 17)
    spec = SplitSpec(train_window=10, validation_window=4, test_window=3, stride=2)
    splits = rolling_splits(marks, spec, start=0, end=20)
    assert len(splits) == 2

    first = splits[0]
    assert first.train_idx.tolist() == [0, 1]
    assert marks[first.train_idx].tolist() == [9, 0]
    assert marks[first.val_idx].tolist() == [10, 13]
    assert marks[first.test_idx].tolist() == [14, 16]

    second = splits[1]
    assert marks[second.train_idx].tolist() == [9, 10]
    assert marks[second.val_idx].tolist() == [13, 14]
    assert marks[second.test_idx].tolist() == [16, 17]


# --- config parsing and validation --------------------------------------------


def test_config_round_trip_from_dict() -> None:
    config = config_from_dict(_base_dict())
    assert config.seed == 5
    assert config.split.train_window == 7 * DAY
    assert config.tau == (2 * DAY,)
    assert config.trainers == ("naive_lr", "lr_fsiw")
    assert config.data.simulator.mean_delay == DAY


def test_config_rejects_unknown_keys_everywhere() -> None:
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict(_base_dict(bogus=1))
    bad_data = _base_dict()
    bad_data["data"]["typo"] = 1
    with pytest.raises(ConfigError, match="typo"):
        config_from_dict(bad_data)
    bad_opt = _base_dict()
    bad_opt["optimizer"]["learning_rate"] = 0.1
    with pytest.raises(ConfigError, match="learning_rate"):
        config_from_dict(bad_opt)


def test_config_rejects_retired_minibatch_keys() -> None:
    for key, value in (("mode", "minibatch"), ("batch_size", 256)):
        raw = _base_dict()
        raw["optimizer"][key] = value
        with pytest.raises(ConfigError, match=f"unknown key\\(s\\) in optimizer: {key}"):
            config_from_dict(raw)


def test_config_tau_must_sit_inside_training_window() -> None:
    with pytest.raises(ConfigError, match="tau"):
        config_from_dict(_base_dict(tau="7d"))  # == train_window
    with pytest.raises(ConfigError, match="tau"):
        config_from_dict(_base_dict(tau="10d"))


def test_config_requires_known_trainers() -> None:
    with pytest.raises(ConfigError, match="at least one"):
        config_from_dict(_base_dict(trainers=[]))
    with pytest.raises(ConfigError, match="unknown trainer"):
        config_from_dict(_base_dict(trainers=["gradient_boost"]))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("dim", 1000, "hashing.dim must be a power of two >= 2, got 1000"),
        ("dim", 0, "hashing.dim must be a power of two >= 2, got 0"),
        ("dim", -4, "hashing.dim must be a power of two >= 2, got -4"),
        ("dim", 1, "hashing.dim must be a power of two >= 2, got 1"),
        ("seed", 2**64, "hashing.seed must fit in an unsigned 64-bit integer"),
        ("seed", -1, "hashing.seed must fit in an unsigned 64-bit integer"),
    ],
)
def test_config_validates_hashing(key, value, message) -> None:
    raw = _base_dict()
    raw["hashing"][key] = value
    with pytest.raises(ConfigError, match=message):
        config_from_dict(raw)


def test_config_hash_ignores_output_dir_only() -> None:
    a = config_from_dict(_base_dict(output_dir="/tmp/a"))
    b = config_from_dict(_base_dict(output_dir="/tmp/b"))
    c = config_from_dict(_base_dict(seed=6))
    assert a.sha256() == b.sha256()
    assert a.sha256() != c.sha256()


def test_simulator_spec_build_is_seed_deterministic() -> None:
    spec = SimulatorSpec(n_samples=100, field_cardinalities=(4, 4))
    one = spec.build(3)
    two = spec.build(3)
    other = spec.build(4)
    assert one.cvr_weights == two.cvr_weights
    assert one.seed == two.seed
    assert one.cvr_weights != other.cvr_weights


# --- pipeline behavior ---------------------------------------------------------


def test_run_pipeline_rows_and_artifacts(tmp_path) -> None:
    config = config_from_dict(_base_dict())
    rows = run_pipeline(config, out_dir=tmp_path)
    assert [(r.split, r.trainer) for r in rows] == [(0, "naive_lr"), (0, "lr_fsiw")]
    assert (tmp_path / "reports.csv").exists()
    assert (tmp_path / "reports.json").exists()
    assert (tmp_path / "weights_split0.tsv").exists()
    assert (tmp_path / "model_split0_naive_lr.json").exists()
    assert (tmp_path / "model_split0_lr_fsiw.json").exists()
    assert (tmp_path / "config_resolved.yaml").exists()

    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_sha256"] == config.sha256()
    assert manifest["seed"] == 5
    assert manifest["n_splits"] == 1
    assert set(manifest["versions"]) == {"fsiw", "numpy", "scipy"}

    header = (tmp_path / "reports.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(REPORT_COLUMNS)


def test_run_pipeline_is_deterministic(tmp_path) -> None:
    config = config_from_dict(_base_dict())
    first = run_pipeline(config, out_dir=tmp_path / "a")
    second = run_pipeline(config, out_dir=tmp_path / "b")
    assert [r.to_flat_dict() for r in first] == [r.to_flat_dict() for r in second]
    for name in ("reports.csv", "reports.json", "weights_split0.tsv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_report_schema_is_stable_across_trainer_subsets(tmp_path) -> None:
    lone = config_from_dict(_base_dict(trainers=["naive_lr"]))
    both = config_from_dict(_base_dict())
    run_pipeline(lone, out_dir=tmp_path / "one")
    run_pipeline(both, out_dir=tmp_path / "two")
    head_one = (tmp_path / "one" / "reports.csv").read_text(encoding="utf-8").splitlines()[0]
    head_two = (tmp_path / "two" / "reports.csv").read_text(encoding="utf-8").splitlines()[0]
    assert head_one == head_two == ",".join(REPORT_COLUMNS)


def test_zero_delay_world_makes_weighting_a_no_op(tmp_path) -> None:
    raw = _base_dict()
    raw["data"]["simulator"]["mean_delay"] = 1  # conversions land ~instantly
    config = config_from_dict(raw)
    with pytest.warns(RuntimeWarning):
        rows = run_pipeline(config, write_outputs=False)
    by_trainer = {r.trainer: r.report for r in rows}
    assert by_trainer["lr_fsiw"].ll == pytest.approx(by_trainer["naive_lr"].ll, abs=1e-3)


def test_run_and_sweep_hash_each_token_once(hash_calls) -> None:
    # 8 + 8 simulator tokens; the sweep reuses its hashed log for every tau
    config = config_from_dict(_base_dict())
    run_pipeline(config, write_outputs=False)
    assert len(hash_calls) == len(set(hash_calls)) == 16
    hash_calls.clear()
    deadline_sweep(config, [DAY, 2 * DAY, 3 * DAY], write_outputs=False)
    assert len(hash_calls) == len(set(hash_calls)) == 16


def test_run_pipeline_rejects_out_of_range_tau_override() -> None:
    config = config_from_dict(_base_dict())
    with pytest.raises(ConfigError, match="tau"):
        run_pipeline(config, tau=config.split.train_window, write_outputs=False)


# --- TSV sources and label finality ---------------------------------------------


def _records_on_disk(tmp_path, n: int = 1500, seed: int = 9):
    """A simulated click log written as TSV; returns its lines and path."""
    sim = SimulatorSpec(
        n_samples=n,
        field_cardinalities=(8, 8),
        time_span=10 * DAY,
        cvr_bias=-1.2,
        mean_delay=DAY,
        rate_spread=0.4,
    )
    path = tmp_path / "clicks.tsv"
    write_sim_tsv(generate_arrays(sim.build(seed)), path)
    return path.read_text(encoding="utf-8").splitlines(), path


def _tsv_dict(path, tracked_until: int, **overrides) -> dict:
    raw = _base_dict(**overrides)
    raw["data"] = {
        "kind": "tsv",
        "path": str(path),
        "schema": [{"name": "f0"}, {"name": "f1"}],
        "observational_period": "30d",
        "tracked_until": tracked_until,
    }
    return raw


def test_tsv_pipeline_runs_when_labels_are_final(tmp_path) -> None:
    _, path = _records_on_disk(tmp_path)
    raw = _tsv_dict(path, tracked_until=100 * DAY)
    rows = run_pipeline(config_from_dict(raw), write_outputs=False)
    assert {r.trainer for r in rows} == {"naive_lr", "lr_fsiw"}


def test_tsv_pipeline_refuses_unfinalized_test_labels(tmp_path) -> None:
    _, path = _records_on_disk(tmp_path)
    raw = _tsv_dict(path, tracked_until=12 * DAY)  # needs test_end + 30d
    with pytest.raises(ConfigError, match="not final"):
        run_pipeline(config_from_dict(raw), write_outputs=False)


def test_tsv_requires_declared_tracking_metadata(tmp_path) -> None:
    _, path = _records_on_disk(tmp_path)
    raw = _tsv_dict(path, tracked_until=100 * DAY)
    del raw["data"]["observational_period"]
    with pytest.raises(ConfigError, match="observational_period"):
        config_from_dict(raw)


def test_test_window_conversions_cannot_touch_training_artifacts(tmp_path) -> None:
    lines, path_a = _records_on_disk(tmp_path)
    rows = [line.split("\t") for line in lines]
    t0 = min(int(r[0]) for r in rows)
    test_start = t0 + 7 * DAY  # split 0's training+nothing boundary

    # every test-window click that never converted now converts 50s later
    scrambled = [
        [r[0], str(int(r[0]) + 50), *r[2:]] if int(r[0]) >= test_start and r[1] == "" else r
        for r in rows
    ]
    path_b = tmp_path / "scrambled.tsv"
    path_b.write_text("".join("\t".join(r) + "\n" for r in scrambled), encoding="utf-8")

    out_a, out_b = tmp_path / "out_a", tmp_path / "out_b"
    run_pipeline(config_from_dict(_tsv_dict(path_a, tracked_until=100 * DAY)), out_dir=out_a)
    run_pipeline(config_from_dict(_tsv_dict(path_b, tracked_until=100 * DAY)), out_dir=out_b)

    for name in ("weights_split0.tsv", "model_split0_naive_lr.json", "model_split0_lr_fsiw.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # sanity: the scramble actually changed what the models were scored on
    assert (out_a / "reports.csv").read_bytes() != (out_b / "reports.csv").read_bytes()


def test_leakage_gate_rejects_training_rows_inside_the_test_window() -> None:
    from fsiw.experiment import PipelineError, Split, _label_split, load_source

    config = config_from_dict(_base_dict())
    log, truth, (start, end) = load_source(config)
    (split,) = rolling_splits(log.click_ts, config.split, start=start, end=end)
    _label_split(config, log, truth, split)  # the real window passes
    leaky = Split(
        k=0,
        train_idx=np.append(split.train_idx, split.test_idx[0]),
        val_idx=split.val_idx,
        test_idx=split.test_idx,
        train_end=split.train_end,
        val_end=split.val_end,
        test_end=split.test_end,
    )
    clicked = log.click_ts[split.test_idx[0]]
    with pytest.raises(PipelineError, match=f"leakage — training record clicked at {clicked}"):
        _label_split(config, log, truth, leaky)


# --- sweep ----------------------------------------------------------------------


def test_sweep_singleton_matches_run_pipeline() -> None:
    config = config_from_dict(_base_dict())
    sweep_rows = deadline_sweep(config, [2 * DAY], write_outputs=False)
    run_rows = run_pipeline(
        replace(config, trainers=("lr_fsiw",)), tau=2 * DAY, write_outputs=False
    )
    assert [r.to_flat_dict() for r in sweep_rows] == [r.to_flat_dict() for r in run_rows]


def test_sweep_rejects_tau_outside_training_window() -> None:
    config = config_from_dict(_base_dict())
    with pytest.raises(ConfigError, match="tau"):
        deadline_sweep(config, [7 * DAY], write_outputs=False)
    with pytest.raises(ConfigError, match="at least one"):
        deadline_sweep(config, [], write_outputs=False)


def test_sweep_writes_per_tau_table(tmp_path) -> None:
    config = config_from_dict(_base_dict())
    rows = deadline_sweep(config, [DAY, 2 * DAY], out_dir=tmp_path)
    assert [r.tau for r in rows] == [DAY, 2 * DAY]
    body = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert body[0] == ",".join(REPORT_COLUMNS)
    assert len(body) == 3
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["taus"] == [DAY, 2 * DAY]
