"""Pipeline harness: config parsing/validation, rolling windows, leakage
protection, determinism, and the deadline sweep."""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import re
import threading
import warnings
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml

from fsiw.cli import _set_dotted
from fsiw.experiment import (
    REPORT_COLUMNS,
    TRAINERS,
    ConfigError,
    PipelineError,
    SimulatorSpec,
    SplitSpec,
    config_from_dict,
    deadline_sweep,
    parse_duration,
    rolling_splits,
    run_pipeline,
)
from fsiw.metrics import MetricInputError
from fsiw.simulate import generate_arrays, write_sim_tsv
from fsiw.training import TrainingError

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
    bad_field = _tsv_dict("clicks.tsv", tracked_until=100 * DAY)
    bad_field["data"]["schema"] = [{"name": "a", "typo": 1}]
    with pytest.raises(ConfigError, match=re.escape("unknown key(s) in data.schema[0]: typo")):
        config_from_dict(bad_field)


def test_config_rejects_retired_minibatch_keys() -> None:
    for key, value in (("mode", "minibatch"), ("batch_size", 256)):
        raw = _base_dict()
        raw["optimizer"][key] = value
        with pytest.raises(ConfigError, match=f"unknown key\\(s\\) in optimizer: {key}"):
            config_from_dict(raw)
    # every loss is a weighted mean: there is no normalization mode to choose
    with pytest.raises(ConfigError, match=re.escape("unknown key(s) in config: normalization")):
        config_from_dict(_base_dict(normalization="mean"))


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
    # a scalar is a one-element list, as for every list key
    assert config_from_dict(_base_dict(trainers="dfm")).trainers == ("dfm",)
    with pytest.raises(ConfigError, match="unknown trainer 'gradient_boost'"):
        config_from_dict(_base_dict(trainers="gradient_boost"))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("hashing", 5, "hashing: expected a mapping, got 5"),
        ("weight_model_pos", 3, "weight_model_pos: expected a mapping, got 3"),
        ("data", None, "data: expected a mapping, got None"),
        ("data.schema", [{"kind": "categorical"}], "missing key(s) in data.schema[0]: name"),
        (
            "data.simulator.field_cardinalities",
            ["a", 4],
            "data.simulator.field_cardinalities[0]: expected int, got 'a'",
        ),
        ("split.n_splits", "abc", "split.n_splits: expected int, got 'abc'"),
        ("data.tracked_until", "2d", "data.tracked_until: expected int, got '2d'"),
        ("seed", 1.7, "seed: expected int, got 1.7"),
        ("seed", True, "seed: expected int, got True"),
        ("data.simulator.n_samples", 1.9, "data.simulator.n_samples: expected int, got 1.9"),
        ("metrics.bootstrap_b", 150.5, "metrics.bootstrap_b: expected int, got 150.5"),
        ("output_dir", None, "output_dir: expected str, got None"),
        ("data.path", 5, "data.path: expected str, got 5"),
        ("split.stride", "soon", "split.stride: cannot parse duration 'soon'"),
        ("optimizer.seed", 3, "unknown key(s) in optimizer: seed"),
        ("optimizer.step0", 1.0, "unknown key(s) in optimizer: step0"),
        # a spec's own check is prefixed with the spec's dotted key
        (
            "data.schema",
            [{"name": "p", "kind": "nummeric"}],
            "data.schema[0]: unknown field kind 'nummeric'",
        ),
        ("optimizer.eval_every", 0, "optimizer: bad optimizer config: eval_every = 0"),
        (
            "split.train_window",
            0,
            "split: train_window, test_window, stride must be positive",
        ),
        ("clip_floor", 2, "clip_floor must be a probability strictly inside (0, 1)"),
        # fit floats that would otherwise fail only inside the first fit, or never
        ("l2", -1, "l2 must be finite and non-negative, got -1.0"),
        ("l2", float("nan"), "l2 must be finite and non-negative, got nan"),
        ("l2", float("inf"), "l2 must be finite and non-negative, got inf"),
        ("optimizer.tol", -1e-9, "optimizer: bad optimizer config: tol = -1e-09"),
        ("optimizer.tol", float("nan"), "optimizer: bad optimizer config: tol = nan"),
        ("optimizer.tol", float("inf"), "optimizer: bad optimizer config: tol = inf"),
        (
            "data.simulator.delay_family",
            "exponential",
            "unknown key(s) in data.simulator: delay_family",
        ),
        (
            "data.simulator.modulation_depth",
            0.0,
            "unknown key(s) in data.simulator: modulation_depth",
        ),
        # values that would otherwise fail inside numpy or the first split
        ("seed", -1, "seed must be non-negative, got -1"),
        (
            "data.observational_period",
            -86400,
            "data.observational_period must be non-negative, got -86400",
        ),
        (
            "data.simulator.field_cardinalities",
            [0, 4],
            "data.simulator.field_cardinalities must be a non-empty list of values >= 1, "
            "got [0, 4]",
        ),
        (
            "data.simulator.field_cardinalities",
            [],
            "data.simulator.field_cardinalities must be a non-empty list of values >= 1, got []",
        ),
        # non-finite numbers, which would otherwise end in an OverflowError
        # traceback, a message without a key, or a degenerate first split
        (
            "data.simulator.rate_spread",
            float("inf"),
            "data.simulator.rate_spread must be finite, got inf",
        ),
        (
            "data.simulator.cvr_spread",
            float("nan"),
            "data.simulator.cvr_spread must be finite, got nan",
        ),
        (
            "data.simulator.cvr_bias",
            float("nan"),
            "data.simulator.cvr_bias must be finite, got nan",
        ),
        ("tau", float("inf"), "tau: duration must be finite, got inf"),
        ("tau", float("nan"), "tau: duration must be finite, got nan"),
        ("split.stride", float("inf"), "split.stride: duration must be finite, got inf"),
        # finite values too large for int64 seconds, or for the simulator's
        # uniform(-spread, spread) draws, which ended the same way
        pytest.param(
            "tau",
            10**400,
            f"tau: duration must fit in int64 seconds, got {10**400}",
            id="tau-400-digits",
        ),
        pytest.param(
            "split.stride",
            10**400,
            f"split.stride: duration must fit in int64 seconds, got {10**400}",
            id="split.stride-400-digits",
        ),
        pytest.param(
            "tau",
            "9" * 400 + "d",
            f"tau: duration must fit in int64 seconds, got '{'9' * 400}d'",
            id="tau-400-digit-days",
        ),
        (
            "data.simulator.time_span",
            10**30,
            f"data.simulator.time_span: duration must fit in int64 seconds, got {10**30}",
        ),
        (
            "data.simulator.rate_spread",
            1.0e308,
            "data.simulator.rate_spread must be non-negative with a finite range "
            "2*rate_spread, got 1e+308",
        ),
        (
            "data.simulator.cvr_spread",
            -1,
            "data.simulator.cvr_spread must be non-negative with a finite range "
            "2*cvr_spread, got -1.0",
        ),
        # each simulator size names its own key
        ("data.simulator.n_samples", 0, "data.simulator.n_samples must be positive, got 0"),
        ("data.simulator.time_span", 0, "data.simulator.time_span must be positive, got 0"),
        (
            "data.simulator.mean_delay",
            -86400,
            "data.simulator.mean_delay must be positive, got -86400",
        ),
        # a repeated deadline or trainer was fitted twice and reported twice
        ("tau", ["2d", "2d"], "tau lists 172800 more than once"),
        ("tau", ["1d", "2d", "48h"], "tau lists 172800 more than once"),
        ("trainers", ["naive_lr", "naive_lr"], "trainers lists 'naive_lr' more than once"),
        ("trainers", ["dfm", "lr_fsiw", "dfm"], "trainers lists 'dfm' more than once"),
    ],
)
def test_config_rejects_malformed_values_naming_the_key(key, value, message) -> None:
    raw = _tsv_dict("clicks.tsv", tracked_until=100 * DAY)
    raw["data"]["simulator"] = _base_dict()["data"]["simulator"]
    _set_dotted(raw, key, value)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("clip_floor", 2, "clip_floor must be a probability strictly inside (0, 1)"),
        (
            "weight_model_pos.holdout_fraction",
            0.7,
            "weight_model_pos: holdout_fraction must be in [0, 0.5)",
        ),
        (
            "weight_model_neg.edges",
            [5, 3],
            "weight_model_neg: edges must be strictly increasing positive durations",
        ),
        ("weight_model_neg.max_iter", 0, "weight_model_neg: bad optimizer config: max_iter = 0"),
        (
            "weight_model_pos.l2",
            -1e-3,
            "weight_model_pos: l2 must be finite and non-negative, got -0.001",
        ),
        (
            "weight_model_neg.l2",
            float("nan"),
            "weight_model_neg: l2 must be finite and non-negative, got nan",
        ),
    ],
)
def test_config_checks_weight_model_hyperparameters_on_entry(key, value, message) -> None:
    raw = _base_dict(trainers=["naive_lr"])  # no weight model would ever be fit
    _set_dotted(raw, key, value)
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(raw)


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


def _golden_configs() -> dict[str, dict]:
    crit10 = _base_dict(trainers=list(TRAINERS))
    readme = _base_dict(output_dir="out", trainers=list(TRAINERS))
    readme["data"]["simulator"]["n_samples"] = 30000
    battery = _base_dict(
        seed=1,
        split={
            "train_window": "12d",
            "validation_window": "1d",
            "test_window": "1d",
            "stride": "1d",
            "n_splits": 1,
        },
        tau="8d",
        trainers=list(TRAINERS),
        optimizer={"max_iter": 400, "tol": 0.0, "patience": 400},
        weight_model_pos={"max_iter": 40},
        weight_model_neg={"max_iter": 40},
    )
    del battery["output_dir"]
    battery["data"]["simulator"] = {
        "n_samples": 6000,
        "field_cardinalities": [16, 16, 16, 16],
        "time_span": "15d",
        "cvr_bias": -1.5,
        "cvr_spread": 1.0,
        "mean_delay": "3d",
        "rate_spread": 1.0,
    }
    tsv = {
        "seed": 3,
        "output_dir": "out/tsv",
        "data": {
            "kind": "tsv",
            "path": "clicks.tsv",
            "schema": [
                {"name": "f0"},
                {"name": "price", "kind": "numeric", "bins": [0.5, 2.5, 10.0]},
            ],
            "observational_period": "30d",
            "tracked_until": 100 * DAY,
        },
        "split": {
            "train_window": "7d",
            "validation_window": "1d",
            "test_window": "1d",
            "stride": "1d",
        },
        "tau": ["1d", "2d"],
        "trainers": ["lr_fsiw"],
        "weight_model_neg": {"edges": ["1h", "1d"], "holdout_fraction": 0.2},
        "clip_floor": 0.05,
    }
    return {"crit10": crit10, "readme": readme, "battery": battery, "tsv": tsv}


# (config_sha256, sha256 of config_resolved.yaml). Recorded before the config
# reader and writer were derived from the dataclasses, and re-recorded each
# time a key was removed, after checking that the resolved YAML lost exactly
# that key's line: optimizer.step0, then normalization (the tsv config, which
# set it to sum, no longer sets it), then data.simulator.delay_family and
# data.simulator.modulation_depth (two lines; the tsv config records no
# simulator keys).
_GOLDEN_CONFIG_HASHES = {
    "crit10": (
        "6be34015389368beb350834674de10a73d598b47d318b24feeab97fad92b9dc8",
        "765c16277a389a0ea89da685097edafca22f292293c410dd666c124ac53c2e23",
    ),
    "readme": (
        "38d90f641856f119ca7cb4b7251b832530446e944978979a867dc4b9297a732f",
        "0871b33dc8873f4c4cee3a771df7bac57027707aeb30d40d38d48e0ffad6c4a8",
    ),
    "battery": (
        "6b229d5c8dc1fab845648daa438d31103c0c1ed10557574dffde5fc860524664",
        "6fccc59ac383f3a8737bfe3e3be20bdf84828430827e7905cb0fbbb5d1b0a3dd",
    ),
    "tsv": (
        "3d91107d24466d477a4f93230c231ddb540afc771dc9a6b762adae4a6690c2f4",
        "e5b2c9b0dab2e334ac6ad3a4a06afca9e5d3d9b0eedab0dbc22d663a3770c303",
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_CONFIG_HASHES))
def test_config_writer_bytes_are_pinned_and_round_trip(name) -> None:
    config = config_from_dict(_golden_configs()[name])
    resolved = config.to_yaml()
    got = (config.sha256(), hashlib.sha256(resolved.encode("utf-8")).hexdigest())
    assert got == _GOLDEN_CONFIG_HASHES[name]
    assert config_from_dict(yaml.safe_load(resolved)) == config


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"), reason="PyYAML is built without libyaml")
@pytest.mark.parametrize("name", sorted(_GOLDEN_CONFIG_HASHES))
def test_config_writer_bytes_are_pyyamls_under_libyaml(monkeypatch, name) -> None:
    import fsiw.experiment

    config = config_from_dict(_golden_configs()[name])
    assert fsiw.experiment._YAML_DUMPER is yaml.CSafeDumper
    with_libyaml = config.to_yaml()
    monkeypatch.setattr(fsiw.experiment, "_YAML_DUMPER", yaml.SafeDumper)
    assert config.to_yaml() == with_libyaml


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
    rows = run_pipeline(replace(config, output_dir=str(tmp_path)))
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
    assert header == (
        "split,trainer,tau,ll,ll_lo,ll_hi,nll,nll_lo,nll_hi,pr_auc,pr_auc_lo,pr_auc_hi,"
        "n_test,mean_pred,mean_label,train_mean_cvr"
    )


# SHA-256 of what the criterion-10 config writes: a refactor must leave these
# bytes as they are. Re-record them only after a numpy or scipy upgrade, or in
# a change that sets out to move reported numbers, with a note in CHANGES.md.
_CRITERION_10_OUTPUT_HASHES = {
    "reports.csv": "ce967bde6a04e6bda5b208cbb65ef7aa5770214148da90a8d40aa4e4f11e6cd0",
    "reports.json": "c92207331ededf60e0ae5fe99eceaa6288e47e949e4368254eae0ea5acaf15ca",
    "weights_split0.tsv": "ba212142c5f2d42636ec39c0b1bd5287a3d3bd56d0782f47179986b924fc6eb6",
}


def _output_hashes(out_dir) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in _CRITERION_10_OUTPUT_HASHES
    }


def test_criterion_10_outputs_are_pinned(tmp_path, monkeypatch) -> None:
    config = config_from_dict(_base_dict(trainers=list(TRAINERS)))
    run_pipeline(replace(config, output_dir=str(tmp_path / "run")))
    assert _output_hashes(tmp_path / "run") == _CRITERION_10_OUTPUT_HASHES

    # the pin would catch a lost weight-model seed: with every holdout drawn
    # from seed 0 the weights change
    import fsiw.experiment

    fit = fsiw.experiment.fit_weight_model
    monkeypatch.setattr(
        fsiw.experiment,
        "fit_weight_model",
        lambda *args, **kwargs: fit(*args, **{**kwargs, "seed": 0}),
    )
    run_pipeline(replace(config, trainers=("lr_fsiw",), output_dir=str(tmp_path / "seed0")))
    pinned = _CRITERION_10_OUTPUT_HASHES["weights_split0.tsv"]
    assert _output_hashes(tmp_path / "seed0")["weights_split0.tsv"] != pinned


_TWO_SPLITS_WITH_VALIDATION = {
    "train_window": "7d",
    "validation_window": "1d",
    "test_window": "1d",
    "stride": "1d",
    "n_splits": 2,
}


# SHA-256 of what a 3-tau, 2-split sweep with a validation window writes; the
# same rules as the criterion-10 pins apply
_SWEEP_OUTPUT_HASHES = {
    "sweep.csv": "f0fa7628476394b73fb96725ae69f3c3a705a0c26b90db5f0c839817d3374bfd",
    "sweep.json": "6a64cb0b72db2557a42fb5f146987af59cdf8c8c055d7fe2681e67d0b812cbc9",
}


def _sweep_config(out_dir, tau=("1d", "2d", "3d")):
    """The pinned sweep's config: 2 splits with a validation window, 3 taus."""
    raw = _base_dict(split=_TWO_SPLITS_WITH_VALIDATION, tau=list(tau), output_dir=str(out_dir))
    return config_from_dict(raw)


def _sweep_hashes(out_dir) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in _SWEEP_OUTPUT_HASHES
    }


def _check_sweep_pins(tmp_path) -> None:
    rows = deadline_sweep(_sweep_config(tmp_path))
    assert [(r.tau, r.split) for r in rows] == [
        (tau, k) for tau in (DAY, 2 * DAY, 3 * DAY) for k in (0, 1)
    ]
    assert _sweep_hashes(tmp_path) == _SWEEP_OUTPUT_HASHES


def test_sweep_outputs_are_pinned(tmp_path) -> None:
    _check_sweep_pins(tmp_path)


def test_run_pipeline_is_deterministic(tmp_path) -> None:
    config = config_from_dict(_base_dict())
    first = run_pipeline(replace(config, output_dir=str(tmp_path / "a")))
    second = run_pipeline(replace(config, output_dir=str(tmp_path / "b")))
    assert [r.to_flat_dict() for r in first] == [r.to_flat_dict() for r in second]
    for name in ("reports.csv", "reports.json", "weights_split0.tsv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_report_schema_is_stable_across_trainer_subsets(tmp_path) -> None:
    lone = config_from_dict(_base_dict(trainers=["naive_lr"], output_dir=str(tmp_path / "one")))
    both = config_from_dict(_base_dict(output_dir=str(tmp_path / "two")))
    run_pipeline(lone)
    run_pipeline(both)
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


# final objective of each fit on the criterion-04 world at 3000 clicks, as the
# Armijo gradient descent that L-BFGS replaced left it: after its 400
# iterations, unconverged
_ARMIJO_OBJECTIVES = {
    1: {"naive_lr": 0.356349358278586, "dfm": 0.5243304210482054},
    2: {"naive_lr": 0.3614485086019483, "dfm": 0.5209800455102737},
}


@pytest.mark.parametrize("seed", sorted(_ARMIJO_OBJECTIVES))
def test_cvr_fits_converge_on_a_criterion_04_world(seed) -> None:
    raw = _base_dict(
        seed=seed,
        split={
            "train_window": "12d",
            "validation_window": "1d",
            "test_window": "1d",
            "stride": "1d",
            "n_splits": 1,
        },
        tau="8d",
        trainers=["naive_lr", "dfm"],
        optimizer={"max_iter": 400, "tol": 1e-10},
    )
    raw["data"]["simulator"] = {
        "n_samples": 3000,
        "field_cardinalities": [16, 16, 16, 16],
        "time_span": "15d",
        "cvr_bias": -1.5,
        "cvr_spread": 1.0,
        "mean_delay": "3d",
        "rate_spread": 1.0,
    }
    rows = run_pipeline(config_from_dict(raw), write_outputs=False)
    fits = {row.trainer: row.fit for row in rows}
    for trainer, armijo in _ARMIJO_OBJECTIVES[seed].items():
        assert fits[trainer].converged, trainer
        assert fits[trainer].n_iter < 400
        assert fits[trainer].final_loss <= armijo, trainer


def test_run_and_sweep_hash_each_token_once(hash_calls) -> None:
    # 8 + 8 simulator tokens; the sweep reuses its hashed log for every tau
    config = config_from_dict(_base_dict())
    run_pipeline(config, write_outputs=False)
    assert len(hash_calls) == len(set(hash_calls)) == 16
    hash_calls.clear()
    deadline_sweep(replace(config, tau=(DAY, 2 * DAY, 3 * DAY)), write_outputs=False)
    assert len(hash_calls) == len(set(hash_calls)) == 16


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_sweep_builds_each_design_and_draws_each_split_once(monkeypatch, verb) -> None:
    import fsiw.experiment
    import fsiw.metrics
    import fsiw.weights

    # in process: the designs are counted in this process's memory, which no
    # child's count reaches
    monkeypatch.setattr(fsiw.experiment, "_FIT_FORK_MIN_ROWS", math.inf)
    designs, draws = [], []
    build, draw = fsiw.weights.weight_design, fsiw.metrics._resample_blocks

    def counting_build(x, e, edges):
        designs.append(x)  # kept, so that no two calls see the same id
        return build(x, e, edges)

    def counting_draw(n, b, seed, columns=0):
        draws.append(columns)
        return draw(n, b, seed, columns)

    monkeypatch.setattr(fsiw.weights, "weight_design", counting_build)
    monkeypatch.setattr(fsiw.metrics, "_resample_blocks", counting_draw)
    config = config_from_dict(
        _base_dict(
            split=_TWO_SPLITS_WITH_VALIDATION, tau=["1d", "2d", "3d"], trainers=list(TRAINERS)
        )
    )
    # a run fits lr_fsiw at the first tau and every trainer; a sweep
    # fits lr_fsiw alone at all three taus
    pipeline, weight_fits = {"run": (run_pipeline, 2), "sweep": (deadline_sweep, 2 * 3)}[verb]
    pipeline(config, write_outputs=False)
    # per split: one design of its training rows and one of its validation
    # rows, and one per weight-model fit
    assert len(designs) == 2 * (2 + weight_fits)
    assert len({id(x) for x in designs}) == len(designs)
    # per split: one stream of resamples scores all three fits
    assert draws == [3, 3]


def test_a_metric_error_names_the_trainer_of_its_column(monkeypatch) -> None:
    import fsiw.experiment

    predict = fsiw.experiment.predict_cvr_batch
    calls = []

    def nan_for_the_second_trainer(model, x):
        calls.append(model)
        preds = predict(model, x)
        return np.full_like(preds, np.nan) if len(calls) == 2 else preds

    monkeypatch.setattr(fsiw.experiment, "predict_cvr_batch", nan_for_the_second_trainer)
    config = config_from_dict(_base_dict(trainers=list(TRAINERS)))
    message = (
        "split 0, trainer lr_fsiw, tau 172800s: "
        "sample 0: prediction nan is not a finite probability"
    )
    with pytest.raises(PipelineError, match=f"^{re.escape(message)}"):
        run_pipeline(config, write_outputs=False)


def test_the_weight_prediction_designs_are_freed_before_dfm_fits(monkeypatch) -> None:
    import fsiw.experiment
    import fsiw.weights

    design, train_dfm = fsiw.weights.DesignRows.design, fsiw.experiment.train_dfm
    designs, alive_at_dfm = [], []

    def recording_design(rows, edges):
        built = design(rows, edges)
        if all(ref() is not built for ref in designs):  # both weight models read it
            designs.append(weakref.ref(built))
        return built

    def checking_train_dfm(*args, **kwargs):
        alive_at_dfm.append([ref() is not None for ref in designs])
        return train_dfm(*args, **kwargs)

    monkeypatch.setattr(fsiw.weights.DesignRows, "design", recording_design)
    monkeypatch.setattr(fsiw.experiment, "train_dfm", checking_train_dfm)
    config = config_from_dict(
        _base_dict(split=_TWO_SPLITS_WITH_VALIDATION, trainers=list(TRAINERS))
    )
    run_pipeline(config, write_outputs=False)
    # per split: the training and the validation rows' design, each freed
    # when its split's lr_fsiw fit is done
    assert alive_at_dfm == [[False, False], [False, False, False, False]]


def test_the_training_rows_grouping_lives_until_its_split_is_fitted(monkeypatch) -> None:
    import fsiw.experiment

    row_groups = fsiw.experiment.RowGroups
    train_dfm, evaluate = fsiw.experiment.train_dfm, fsiw.experiment.evaluate_columns
    groupings, alive_at_dfm, alive_at_scoring = [], [], []

    def recording_row_groups(x):
        built = row_groups(x)
        groupings.append(weakref.ref(built))
        return built

    def checking_train_dfm(*args, **kwargs):
        alive_at_dfm.append([ref() is not None for ref in groupings])
        return train_dfm(*args, **kwargs)

    def checking_evaluate(*args, **kwargs):
        alive_at_scoring.append([ref() is not None for ref in groupings])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(fsiw.experiment, "RowGroups", recording_row_groups)
    monkeypatch.setattr(fsiw.experiment, "train_dfm", checking_train_dfm)
    monkeypatch.setattr(fsiw.experiment, "evaluate_columns", checking_evaluate)
    config = config_from_dict(
        _base_dict(split=_TWO_SPLITS_WITH_VALIDATION, trainers=list(TRAINERS))
    )
    run_pipeline(config, write_outputs=False)
    # one grouping per split: dfm fits on it, and it is freed once the
    # split's last task is fitted, before the split is scored
    assert alive_at_dfm == [[True], [False, True]]
    assert alive_at_scoring == [[False], [False, False]]


@pytest.mark.parametrize(
    ("verb", "trainers"),
    [
        pytest.param("run", list(TRAINERS), id="run"),
        pytest.param("sweep", list(TRAINERS), id="sweep"),
        pytest.param("run", ["dfm"], id="run_dfm_only"),
    ],
)
def test_each_split_groups_its_training_rows_once(monkeypatch, verb, trainers) -> None:
    import fsiw.training

    distinct_rows, grouped = fsiw.training._distinct_rows, []

    def counting_distinct_rows(x):
        grouped.append(x.shape[0])
        return distinct_rows(x)

    monkeypatch.setattr(fsiw.training, "_distinct_rows", counting_distinct_rows)
    config = config_from_dict(
        _base_dict(split=_TWO_SPLITS_WITH_VALIDATION, tau=["1d", "2d", "3d"], trainers=trainers)
    )
    # a run fits each of its trainers on each split's training rows, a sweep
    # lr_fsiw at three taus: both group those rows once per split
    {"run": run_pipeline, "sweep": deadline_sweep}[verb](config, write_outputs=False)
    assert len(grouped) == 2


def test_a_weight_model_fallback_warns_under_its_task_label() -> None:
    # 200 clicks at a low CVR: every conversion in D1 lands after the
    # deadline (s = 0 throughout), so the pos model falls back to a constant
    raw = _base_dict(seed=4)
    raw["data"]["simulator"].update(n_samples=200, cvr_bias=-4)
    with pytest.warns(RuntimeWarning) as caught:
        run_pipeline(config_from_dict(raw), write_outputs=False)
    assert [str(w.message) for w in caught] == [
        "split 0, trainer lr_fsiw, tau 172800s, weight model pos: weight-model data has a "
        "single s-class (0); falling back to a constant predictor at 0.0"
    ]


# --- the split's child process ------------------------------------------------

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="a task forks only where at least 2 CPUs are usable",
)


def _fork_every_fit(monkeypatch) -> list[int]:
    """Set ``_FIT_FORK_MIN_ROWS`` to 0, so that every split forks a share of
    its fits (a run's dfm, a sweep's later deadlines); returns the list that
    every forked child's pid is appended to."""
    import fsiw.experiment

    monkeypatch.setattr(fsiw.experiment, "_FIT_FORK_MIN_ROWS", 0)
    fork, pids = os.fork, []

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _check_criterion_10_pins(tmp_path, forks: list[int]) -> None:
    config = config_from_dict(_base_dict(trainers=list(TRAINERS)))
    run_pipeline(replace(config, output_dir=str(tmp_path)))
    assert len(forks) == 1
    assert _output_hashes(tmp_path) == _CRITERION_10_OUTPUT_HASHES


@needs_two_cpus
def test_criterion_10_pins_hold_when_dfm_is_forked(tmp_path, monkeypatch) -> None:
    _check_criterion_10_pins(tmp_path, _fork_every_fit(monkeypatch))


def _check_outputs_as_in_process(tmp_path, monkeypatch, fork, trainers: list[str]) -> None:
    """Every output byte and report row of a 2-split run whose splits each
    fork a task (``fork``) equals the run's in process."""
    config = config_from_dict(
        _base_dict(split=_TWO_SPLITS_WITH_VALIDATION, trainers=trainers, output_dir=str(tmp_path))
    )
    expected = run_pipeline(config)
    in_process = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for path in tmp_path.iterdir():
        path.unlink()

    forks = fork(monkeypatch)
    rows = run_pipeline(config)
    assert len(forks) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == in_process
    assert {"weights_split0.tsv", "weights_split1.tsv", "model_split1_dfm.json"} <= set(in_process)
    # the rows a library caller gets, the fits' meta included
    assert rows == expected


@needs_two_cpus
def test_a_forked_dfm_leaves_every_output_byte_as_in_process(tmp_path, monkeypatch) -> None:
    # dfm first: its result goes back to its place in task order
    _check_outputs_as_in_process(tmp_path, monkeypatch, _fork_every_fit, ["dfm", *TRAINERS[:2]])


def _check_one_child_at_a_time(tmp_path, monkeypatch, forks: list[int], verb="run") -> None:
    """A 2-split run (or 3-tau sweep) forks one child per split, each reaped
    before the next fork and before reports.csv (sweep.csv) is written."""
    fork, waitpid = os.fork, os.waitpid
    reaped, alive_at_fork = [], []
    report = tmp_path / ("reports.csv" if verb == "run" else "sweep.csv")

    def counting_fork():
        alive_at_fork.append(len(forks) - len(reaped))
        return fork()

    def checking_waitpid(pid, options):
        assert not report.exists()
        result = waitpid(pid, options)
        reaped.append(result[0])
        return result

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "waitpid", checking_waitpid)
    if verb == "run":
        config = config_from_dict(
            _base_dict(split=_TWO_SPLITS_WITH_VALIDATION, trainers=list(TRAINERS))
        )
        run_pipeline(replace(config, output_dir=str(tmp_path)))
    else:
        deadline_sweep(_sweep_config(tmp_path))
    assert alive_at_fork == [0, 0]
    assert reaped == forks and len(forks) == 2
    assert report.exists()


@needs_two_cpus
def test_one_dfm_child_at_a_time_each_reaped_before_the_reports(tmp_path, monkeypatch) -> None:
    _check_one_child_at_a_time(tmp_path, monkeypatch, _fork_every_fit(monkeypatch))


@needs_two_cpus
def test_one_sweep_child_at_a_time_each_reaped_before_the_sweep_table(
    tmp_path, monkeypatch
) -> None:
    _check_one_child_at_a_time(tmp_path, monkeypatch, _fork_every_fit(monkeypatch), "sweep")


def _failing_dfm(*args, **kwargs):
    raise TrainingError("dfm cannot be fitted")


def _failing_naive(*args, **kwargs):
    raise TrainingError("naive_lr cannot be fitted")


@needs_two_cpus
def test_a_forked_dfm_raises_its_warnings_again_in_the_parent_in_order(monkeypatch) -> None:
    import fsiw.experiment

    train_dfm = fsiw.experiment.train_dfm

    def warning_dfm(*args, **kwargs):
        warnings.warn("first", RuntimeWarning)
        warnings.warn("second", UserWarning)
        return train_dfm(*args, **kwargs)

    monkeypatch.setattr(fsiw.experiment, "train_dfm", warning_dfm)
    config = config_from_dict(_base_dict(trainers=["dfm", "naive_lr"]))
    caught = {}
    for how in ("in process", "forked"):
        forks = _fork_every_fit(monkeypatch) if how == "forked" else []
        with pytest.warns(Warning) as caught[how]:
            run_pipeline(config, write_outputs=False)
    assert len(forks) == 1
    assert [(w.category, str(w.message)) for w in caught["forked"]] == [
        (RuntimeWarning, "first"),
        (UserWarning, "second"),
    ]
    assert [(w.category, str(w.message), w.filename) for w in caught["forked"]] == [
        (w.category, str(w.message), w.filename) for w in caught["in process"]
    ]


@needs_two_cpus
def test_a_dfm_fit_under_the_row_floor_runs_in_process(tmp_path, monkeypatch) -> None:
    import fsiw.experiment

    forks = _fork_every_fit(monkeypatch)
    config = config_from_dict(_base_dict(trainers=list(TRAINERS)))
    run_pipeline(replace(config, output_dir=str(tmp_path / "a")))
    n_rows = len((tmp_path / "a" / "weights_split0.tsv").read_bytes().splitlines()) - 1
    forked = []
    for rows, out in ((n_rows + 1, "b"), (n_rows, "c")):
        monkeypatch.setattr(fsiw.experiment, "_FIT_FORK_MIN_ROWS", rows)
        run_pipeline(replace(config, output_dir=str(tmp_path / out)))
        forked.append(len(forks))
    assert forked == [1, 2]  # the run at the floor forks, the run under it does not


def _no_process_to_spare():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("why", ["one_cpu", "another_thread", "fork_fails"])
def test_a_dfm_fit_runs_in_process_without_a_fork_that_pays(tmp_path, monkeypatch, why) -> None:
    # with one usable CPU, another thread alive or no process to spare, a run
    # forks nothing and writes the criterion-10 bytes
    forks = _fork_every_fit(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if why == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif why == "fork_fails":
        monkeypatch.setattr(os, "fork", _no_process_to_spare)
    else:
        thread.start()
    try:
        config = config_from_dict(_base_dict(trainers=list(TRAINERS)))
        run_pipeline(replace(config, output_dir=str(tmp_path)))
    finally:
        stop.set()
        if thread.ident is not None:
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert _output_hashes(tmp_path) == _CRITERION_10_OUTPUT_HASHES


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


def _run_counting_descriptors(tmp_path, trainers, pipeline=run_pipeline, tau="2d") -> str | None:
    """Run (or sweep) the criterion-10 config into ``tmp_path``; returns its
    error, if any, having checked that it left no descriptor open."""
    config = config_from_dict(_base_dict(trainers=trainers, tau=tau))
    before = _open_descriptors()
    try:
        pipeline(replace(config, output_dir=str(tmp_path)))
    except PipelineError as exc:
        error = str(exc)
    else:
        error = None
    assert _open_descriptors() == before
    return error


@needs_two_cpus
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize(
    "outcome", ["fitted", "dfm_fails", "earlier_task_fails", "dump_fails", "fork_fails"]
)
def test_a_forked_dfm_leaves_no_descriptor_open(tmp_path, monkeypatch, outcome) -> None:
    import fsiw.experiment

    forks = _fork_every_fit(monkeypatch)
    path = tmp_path / "weights_split0.tsv"
    if outcome == "dump_fails":  # a directory where the parent writes the dump
        path.mkdir()
    elif outcome == "dfm_fails":
        monkeypatch.setattr(fsiw.experiment, "train_dfm", _failing_dfm)
    elif outcome == "earlier_task_fails":
        monkeypatch.setattr(fsiw.experiment, "train_naive_logistic", _failing_naive)
    elif outcome == "fork_fails":
        monkeypatch.setattr(os, "fork", _no_process_to_spare)
    error = _run_counting_descriptors(tmp_path, list(TRAINERS))
    assert len(forks) == (0 if outcome == "fork_fails" else 1)
    assert error == {
        "fitted": None,
        "dfm_fails": "split 0, trainer dfm: dfm cannot be fitted",
        "earlier_task_fails": "split 0, trainer naive_lr: naive_lr cannot be fitted",
        "dump_fails": f"split 0: could not write {path}: [Errno 21] Is a directory: '{path}'",
        "fork_fails": None,
    }[outcome]
    for pid in forks:
        with pytest.raises(ChildProcessError):  # already reaped
            os.waitpid(pid, os.WNOHANG)


def _failing_evaluate(*args, **kwargs):
    raise MetricInputError("cannot be scored", 0)


@needs_two_cpus
@pytest.mark.parametrize("dfm_fails", [False, True], ids=["alone", "dfm_fails_too"])
@pytest.mark.parametrize("step", ["dump", "scoring"])
def test_a_failing_dump_or_scoring_gives_way_to_a_forked_dfms_error(
    tmp_path, monkeypatch, step, dfm_fails
) -> None:
    import fsiw.experiment

    # dfm forked, the dump written in process with lr_fsiw
    forks = _fork_every_fit(monkeypatch)
    path = tmp_path / "weights_split0.tsv"
    if step == "dump":  # a directory where the dump goes
        path.mkdir()
        error = f"split 0: could not write {path}: [Errno 21] Is a directory: '{path}'"
    else:
        monkeypatch.setattr(fsiw.experiment, "evaluate_columns", _failing_evaluate)
        error = "split 0, trainer naive_lr: sample 0: cannot be scored"
    if dfm_fails:  # dfm's task comes after lr_fsiw's dump and before the scoring
        monkeypatch.setattr(fsiw.experiment, "train_dfm", _failing_dfm)
        if step == "scoring":
            error = "split 0, trainer dfm: dfm cannot be fitted"
    config = config_from_dict(_base_dict(trainers=list(TRAINERS)))
    with pytest.raises(PipelineError) as caught:
        run_pipeline(replace(config, output_dir=str(tmp_path)))
    assert str(caught.value) == error
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # already reaped
        os.waitpid(forks[0], os.WNOHANG)


@needs_two_cpus
def test_sweep_pins_hold_when_each_splits_later_deadlines_are_forked(
    tmp_path, monkeypatch
) -> None:
    forks = _fork_every_fit(monkeypatch)
    _check_sweep_pins(tmp_path)
    assert len(forks) == 2


@needs_two_cpus
def test_a_forked_sweep_leaves_every_output_byte_and_row_as_in_process(
    tmp_path, monkeypatch
) -> None:
    config = _sweep_config(tmp_path)
    expected = deadline_sweep(config)
    in_process = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for path in tmp_path.iterdir():
        path.unlink()

    forks = _fork_every_fit(monkeypatch)
    rows = deadline_sweep(config)
    assert len(forks) == 2
    assert set(in_process) == {"sweep.csv", "sweep.json", "manifest.json"}
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == in_process
    # the rows a library caller gets, the fits' meta included
    assert rows == expected


@needs_two_cpus
def test_a_sweep_split_forks_from_the_row_floor_up(tmp_path, monkeypatch) -> None:
    import fsiw.experiment

    forks = _fork_every_fit(monkeypatch)
    config = _sweep_config(tmp_path)
    n_rows = [len(labeled.train.y) for labeled in fsiw.experiment._labeled_splits(config)]
    forked = []
    for floor in (max(n_rows) + 1, max(n_rows), min(n_rows)):
        monkeypatch.setattr(fsiw.experiment, "_FIT_FORK_MIN_ROWS", floor)
        deadline_sweep(config, write_outputs=False)
        forked.append(sum(rows >= floor for rows in n_rows))
    # a split at the floor forks, a split under it does not
    assert len(forks) == sum(forked) and forked[0] == 0 and forked[2] == 2


@pytest.mark.parametrize(
    "why", ["one_tau", "under_the_floor", "one_cpu", "another_thread", "fork_fails"]
)
def test_a_sweep_fits_every_deadline_in_process_without_a_fork_that_pays(
    tmp_path, monkeypatch, why
) -> None:
    import fsiw.experiment

    forks = _fork_every_fit(monkeypatch)
    config = _sweep_config(tmp_path, tau=["1d"] if why == "one_tau" else ["1d", "2d", "3d"])
    if why == "under_the_floor":
        n_rows = [len(labeled.train.y) for labeled in fsiw.experiment._labeled_splits(config)]
        monkeypatch.setattr(fsiw.experiment, "_FIT_FORK_MIN_ROWS", max(n_rows) + 1)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if why == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif why == "fork_fails":
        monkeypatch.setattr(os, "fork", _no_process_to_spare)
    elif why == "another_thread":
        thread.start()
    try:
        rows = deadline_sweep(config)
    finally:
        stop.set()
        if thread.ident is not None:
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    if why == "one_tau":
        assert [(r.tau, r.split) for r in rows] == [(DAY, 0), (DAY, 1)]
    else:
        assert _sweep_hashes(tmp_path) == _SWEEP_OUTPUT_HASHES


@needs_two_cpus
def test_a_forked_sweep_builds_each_design_in_the_parent_and_draws_each_split_once(
    tmp_path, monkeypatch
) -> None:
    import fsiw.metrics
    import fsiw.weights

    log, draws = tmp_path / "designs.log", []
    build, design = fsiw.weights.weight_design, fsiw.weights.DesignRows.design
    draw = fsiw.metrics._resample_blocks

    def note(what):  # in a file, which a child writes to as well
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {what}\n")

    def counting_build(x, e, edges):
        note("design")
        return build(x, e, edges)

    def counting_prediction_design(rows, edges):
        if tuple(edges) not in rows._designs:
            note("prediction")
        return design(rows, edges)

    def counting_draw(n, b, seed, columns=0):
        draws.append(columns)
        return draw(n, b, seed, columns)

    monkeypatch.setattr(fsiw.weights, "weight_design", counting_build)
    monkeypatch.setattr(fsiw.weights.DesignRows, "design", counting_prediction_design)
    monkeypatch.setattr(fsiw.metrics, "_resample_blocks", counting_draw)
    forks = _fork_every_fit(monkeypatch)
    deadline_sweep(_sweep_config(tmp_path), write_outputs=False)
    parent, children = str(os.getpid()), [str(pid) for pid in forks]
    assert len(children) == 2  # one per split
    notes = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    # per split, the parent builds one design of its training rows and one
    # of its validation rows, and its child none
    assert [pid for pid, what in notes if what == "prediction"] == [parent] * 4
    # one design per weight-model fit, two fits per tau: the parent's 1d and
    # each child's 2d and 3d
    designs = [pid for pid, what in notes if what == "design"]
    assert {pid: designs.count(pid) for pid in designs} == {
        parent: 2 * (2 + 2),
        **{child: 2 * 2 for child in children},
    }
    # per split: one stream of resamples scores all three fits
    assert draws == [3, 3]


@needs_two_cpus
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("outcome", ["fitted", "child_tau_fails", "parent_tau_fails", "fork_fails"])
def test_a_forked_sweep_leaves_no_descriptor_open(tmp_path, monkeypatch, outcome) -> None:
    forks = _fork_every_fit(monkeypatch)
    if outcome == "fork_fails":
        monkeypatch.setattr(os, "fork", _no_process_to_spare)
    # 604799 s is one second short of the 7d training window: no conversion
    # is late enough for D1, so the pos model has no rows. The child fits the
    # later two taus, the parent the first
    taus = {
        "child_tau_fails": ["1d", "6d", "604799"],
        "parent_tau_fails": ["604799", "1d", "2d"],
    }.get(outcome, ["1d", "2d", "3d"])
    error = _run_counting_descriptors(tmp_path, ["lr_fsiw"], deadline_sweep, taus)
    assert len(forks) == (0 if outcome == "fork_fails" else 1)
    empty = (
        "split 0, trainer lr_fsiw, tau 604799s, weight model pos: "
        "cannot fit a weight model on an empty dataset"
    )
    assert error == (empty if outcome.endswith("tau_fails") else None)
    for pid in forks:
        with pytest.raises(ChildProcessError):  # already reaped
            os.waitpid(pid, os.WNOHANG)


@needs_two_cpus
def test_a_forked_sweep_share_sends_back_its_models_and_predictions_alone(
    tmp_path, monkeypatch
) -> None:
    import fsiw.experiment

    reap, shares = fsiw.experiment._reap, []

    def recording_reap(child, discard=False):
        shares.append(reap(child, discard))
        return shares[-1]

    monkeypatch.setattr(fsiw.experiment, "_reap", recording_reap)
    forks = _fork_every_fit(monkeypatch)
    deadline_sweep(_sweep_config(tmp_path), write_outputs=False)
    assert len(forks) == 2
    # per split, the child fits 2d and 3d and sends back no weighted rows
    assert [[f.tau for f in share] for share in shares] == [[2 * DAY, 3 * DAY]] * 2
    assert all(len(f.preds) and f.model.meta for share in shares for f in share)
    assert [f.name for f in fields(shares[0][0])] == ["label", "trainer", "tau", "model", "preds"]


def _share(trainers, n_rows: int, n_taus: int = 1) -> range:
    from fsiw.experiment import _child_share, _tasks

    return _child_share(_tasks(trainers, [DAY * (i + 1) for i in range(n_taus)]), n_rows)


def test_a_split_forks_a_share_of_its_fits_from_its_row_floor_up() -> None:
    from fsiw.experiment import _FIT_FORK_MIN_ROWS

    assert _FIT_FORK_MIN_ROWS == 3_000
    for trainers, n_taus, share in ((TRAINERS, 1, range(2, 3)), (["lr_fsiw"], 3, range(1, 3))):
        assert _share(trainers, 2_999, n_taus) == range(0)
        assert _share(trainers, 3_000, n_taus) == share


@pytest.mark.parametrize(
    ("trainers", "share"),
    [
        (["dfm", "naive_lr", "lr_fsiw"], range(0, 1)),
        (["naive_lr", "lr_fsiw", "dfm"], range(2, 3)),
        (["naive_lr", "lr_fsiw"], range(0)),
        (["lr_fsiw"], range(0)),
    ],
    ids=["dfm_first", "dfm_last", "no_dfm", "lr_fsiw_alone"],
)
def test_a_run_gives_its_child_dfms_task(trainers, share) -> None:
    assert _share(trainers, 5_000) == share


@pytest.mark.parametrize(
    ("n_taus", "share"), [(1, range(0)), (2, range(1, 2)), (3, range(1, 3)), (5, range(2, 5))]
)
def test_a_sweep_gives_its_child_the_later_half_of_its_deadlines(n_taus, share) -> None:
    assert _share(["lr_fsiw"], 5_000, n_taus) == share


@needs_two_cpus
def test_a_childs_outcome_larger_than_a_pipe_holds_comes_back_whole() -> None:
    from fsiw.experiment import _fork, _reap

    big = np.arange(200_000, dtype=np.float64)  # 1.6 MB, far past a 64 KB pipe buffer
    assert np.array_equal(_reap(_fork(lambda: big, "label")), big)

    def failing():
        raise PipelineError("split 3, trainer dfm: " + "x" * 100_000)

    with pytest.raises(PipelineError, match=r"^split 3, trainer dfm: x{100000}$"):
        _reap(_fork(failing, "label"))


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
    run_pipeline(config_from_dict(_tsv_dict(path_a, tracked_until=100 * DAY, output_dir=str(out_a))))
    run_pipeline(config_from_dict(_tsv_dict(path_b, tracked_until=100 * DAY, output_dir=str(out_b))))

    for name in ("weights_split0.tsv", "model_split0_naive_lr.json", "model_split0_lr_fsiw.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # sanity: the scramble actually changed what the models were scored on
    assert (out_a / "reports.csv").read_bytes() != (out_b / "reports.csv").read_bytes()


def test_leakage_gate_rejects_training_rows_inside_the_test_window() -> None:
    from fsiw.experiment import Split, _label_split, load_source

    config = config_from_dict(_base_dict())
    log, start, end = load_source(config)
    (split,) = rolling_splits(log.click_ts, config.split, start=start, end=end)
    _label_split(config, log, split)  # the real window passes
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
        _label_split(config, log, leaky)


# --- sweep ----------------------------------------------------------------------


def test_sweep_singleton_matches_run_pipeline() -> None:
    config = config_from_dict(_base_dict())
    sweep_rows = deadline_sweep(replace(config, tau=(2 * DAY,)), write_outputs=False)
    run_rows = run_pipeline(
        replace(config, trainers=("lr_fsiw",), tau=(2 * DAY,)), write_outputs=False
    )
    assert [r.to_flat_dict() for r in sweep_rows] == [r.to_flat_dict() for r in run_rows]


def test_sweep_rejects_tau_outside_training_window() -> None:
    config = config_from_dict(_base_dict())
    with pytest.raises(ConfigError, match="tau"):
        deadline_sweep(replace(config, tau=(7 * DAY,)), write_outputs=False)
    with pytest.raises(ConfigError, match="at least one"):
        deadline_sweep(replace(config, tau=()), write_outputs=False)


def test_run_manifest_records_the_one_tau_it_ran(tmp_path) -> None:
    config = config_from_dict(_base_dict(tau=["2d", "3d"], output_dir=str(tmp_path)))
    rows = run_pipeline(config)
    assert {r.tau for r in rows} == {2 * DAY}
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["taus"] == [2 * DAY]


def test_sweep_writes_per_tau_table(tmp_path) -> None:
    config = config_from_dict(_base_dict(output_dir=str(tmp_path)))
    rows = deadline_sweep(replace(config, tau=(DAY, 2 * DAY)))
    assert [r.tau for r in rows] == [DAY, 2 * DAY]
    body = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert body[0] == ",".join(REPORT_COLUMNS)
    assert len(body) == 3
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["taus"] == [DAY, 2 * DAY]
