"""End-to-end experiment harness.

A single config (YAML-friendly dict) describes the data source (TSV log or
simulator), hashing, rolling splits, the counterfactual deadline, trainer
selection and hyperparameters, and output locations. ``run_pipeline`` walks
every split: snapshot-label the training window, relabel at the deadline, fit
the two weight models, train the selected CVR models, and score them on the
fully observed test window. Everything downstream of the global seed is
deterministic, including the bytes of every report file.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml
from scipy import sparse

from . import data as data_mod
from .data import (
    ClickLog,
    FieldSpec,
    Snapshot,
    full_observation_labels,
    read_tsv,
    snapshot_labels,
)
from .metrics import EvalReport, evaluate_predictions
from .optim import OptConfig
from .relabel import ConfigError, RelabelConfig, build_artificial_datasets
from .simulate import (
    ExponentialDelay,
    ModulatedExponentialDelay,
    SimConfig,
    generate_arrays,
    sample_weight_vector,
    to_click_log,
)
from .training import (
    TrainingMeta,
    predict_cvr_batch,
    save_model,
    train_dfm,
    train_naive_logistic,
    train_weighted_logistic,
)
from .weights import (
    ElapsedBasis,
    WeightedDataset,
    WeightModelHyper,
    WeightModelPair,
    assign_fsiw,
    dump_weights,
    fit_weight_model,
)

TRAINERS = ("naive_lr", "lr_fsiw", "dfm")

# seed-stream roles, combined with the global seed (and split index) so every
# random decision has its own independent substream
ROLE_SIM_DATA = 11
ROLE_SIM_CVR_W = 12
ROLE_SIM_RATE_W = 13
ROLE_WEIGHT_POS = 21
ROLE_WEIGHT_NEG = 22
ROLE_CVR_TRAIN = 23
ROLE_EVAL = 24

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([smhdw]?)\s*$")
_UNIT_SECONDS = {"": 1, "s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}


class PipelineError(RuntimeError):
    """A component failed; the message carries split/trainer context."""


def parse_duration(value: int | float | str, what: str = "duration") -> int:
    """Durations in configs may be integer seconds or strings like 21d, 6h,
    30m, 45s, 2w."""
    if isinstance(value, bool):
        raise ConfigError(f"{what}: booleans are not durations")
    if isinstance(value, (int, float)):
        seconds = float(value)
    else:
        match = _DURATION_RE.match(str(value))
        if not match:
            raise ConfigError(f"{what}: cannot parse duration {value!r}")
        seconds = float(match.group(1)) * _UNIT_SECONDS[match.group(2)]
    if seconds != int(seconds):
        raise ConfigError(f"{what}: duration must be whole seconds, got {value!r}")
    return int(seconds)


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class SimulatorSpec:
    n_samples: int = 20000
    field_cardinalities: tuple[int, ...] = (16, 16, 16, 16)
    time_span: int = 28 * 86400
    cvr_bias: float = -2.0
    cvr_spread: float = 1.0
    delay_family: str = "exponential"
    mean_delay: int = 4 * 86400
    rate_spread: float = 0.5
    modulation_depth: float = 0.0

    def __post_init__(self):
        if self.delay_family not in ("exponential", "exponential_daily"):
            raise ConfigError(f"unknown delay family {self.delay_family!r}")
        if self.n_samples < 1 or self.time_span < 1 or self.mean_delay < 1:
            raise ConfigError("simulator sizes must be positive")

    def build(self, seed: int) -> SimConfig:
        """Materialize a SimConfig; coefficient vectors are drawn from
        substreams of the global seed so the whole world follows from it."""
        rng_cvr = np.random.default_rng(np.random.SeedSequence([seed, ROLE_SIM_CVR_W]))
        rng_rate = np.random.default_rng(np.random.SeedSequence([seed, ROLE_SIM_RATE_W]))
        cvr_weights = sample_weight_vector(
            self.field_cardinalities, self.cvr_bias, self.cvr_spread, rng_cvr
        )
        rate_weights = sample_weight_vector(
            self.field_cardinalities, -np.log(self.mean_delay), self.rate_spread, rng_rate
        )
        if self.delay_family == "exponential":
            delay = ExponentialDelay(rate_weights=rate_weights)
        else:
            delay = ModulatedExponentialDelay(
                rate_weights=rate_weights, modulation_depth=self.modulation_depth
            )
        return SimConfig(
            n_samples=self.n_samples,
            field_cardinalities=self.field_cardinalities,
            cvr_weights=cvr_weights,
            delay=delay,
            time_span=self.time_span,
            seed=_derived_seed(seed, ROLE_SIM_DATA),
        )

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "field_cardinalities": list(self.field_cardinalities),
            "time_span": self.time_span,
            "cvr_bias": self.cvr_bias,
            "cvr_spread": self.cvr_spread,
            "delay_family": self.delay_family,
            "mean_delay": self.mean_delay,
            "rate_spread": self.rate_spread,
            "modulation_depth": self.modulation_depth,
        }


@dataclass(frozen=True)
class DataSpec:
    kind: str = "simulator"
    path: str | None = None
    schema: tuple[FieldSpec, ...] = ()
    observational_period: int | None = None
    tracked_until: int | None = None
    simulator: SimulatorSpec = field(default_factory=SimulatorSpec)

    def __post_init__(self):
        if self.kind not in ("simulator", "tsv"):
            raise ConfigError(f"unknown data kind {self.kind!r}")
        if self.kind == "tsv":
            if not self.path:
                raise ConfigError("tsv data needs a path")
            if not self.schema:
                raise ConfigError("tsv data needs a schema")
            if self.observational_period is None or self.tracked_until is None:
                raise ConfigError(
                    "tsv data needs observational_period and tracked_until so test "
                    "labels can be proven final"
                )

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "tsv":
            out.update(
                {
                    "path": self.path,
                    "schema": [
                        {"name": f.name, "kind": f.kind, "bins": list(f.bins) if f.bins else None}
                        for f in self.schema
                    ],
                    "observational_period": self.observational_period,
                    "tracked_until": self.tracked_until,
                }
            )
        else:
            out["simulator"] = self.simulator.to_dict()
        return out


@dataclass(frozen=True)
class SplitSpec:
    train_window: int = 21 * 86400
    validation_window: int = 0
    test_window: int = 86400
    stride: int = 86400
    n_splits: int | None = None

    def __post_init__(self):
        if min(self.train_window, self.test_window, self.stride) < 1:
            raise ConfigError("train_window, test_window, stride must be positive")
        if self.validation_window < 0:
            raise ConfigError("validation_window must be non-negative")
        if self.n_splits is not None and self.n_splits < 1:
            raise ConfigError("n_splits must be positive when given")

    @property
    def total_window(self) -> int:
        return self.train_window + self.validation_window + self.test_window

    def to_dict(self) -> dict:
        return {
            "train_window": self.train_window,
            "validation_window": self.validation_window,
            "test_window": self.test_window,
            "stride": self.stride,
            "n_splits": self.n_splits,
        }


@dataclass(frozen=True)
class WeightHyperSpec:
    l2: float = 1e-3
    edges: tuple[int, ...] = ElapsedBasis().edges
    max_iter: int = 300
    holdout_fraction: float = 0.1

    def build(self, clip_floor: float, seed: int) -> WeightModelHyper:
        return WeightModelHyper(
            l2=self.l2,
            basis=ElapsedBasis(edges=self.edges),
            opt=OptConfig(max_iter=self.max_iter, tol=1e-10, eval_every=5, patience=5, seed=seed),
            holdout_fraction=self.holdout_fraction,
            clip_floor=clip_floor,
            seed=seed,
        )

    def to_dict(self) -> dict:
        return {
            "l2": self.l2,
            "edges": list(self.edges),
            "max_iter": self.max_iter,
            "holdout_fraction": self.holdout_fraction,
        }


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    output_dir: str = "runs/out"
    data: DataSpec = field(default_factory=DataSpec)
    hash_dim: int = data_mod.DEFAULT_HASH_DIM
    hash_seed: int = 0
    split: SplitSpec = field(default_factory=SplitSpec)
    tau: tuple[int, ...] = (7 * 86400,)
    trainers: tuple[str, ...] = ("naive_lr", "lr_fsiw", "dfm")
    l2: float = 1e-4
    normalization: str = "mean"
    optimizer: OptConfig = field(default_factory=lambda: OptConfig(max_iter=400))
    weight_pos: WeightHyperSpec = field(default_factory=WeightHyperSpec)
    weight_neg: WeightHyperSpec = field(default_factory=WeightHyperSpec)
    clip_floor: float = 0.01
    bootstrap_b: int = 200

    def __post_init__(self):
        if not self.trainers:
            raise ConfigError("select at least one trainer")
        for t in self.trainers:
            if t not in TRAINERS:
                raise ConfigError(f"unknown trainer {t!r} (choose from {TRAINERS})")
        if not self.tau:
            raise ConfigError("tau must contain at least one deadline")
        for t in self.tau:
            if not 0 < t < self.split.train_window:
                raise ConfigError(
                    f"tau {t} must lie strictly inside the training window "
                    f"({self.split.train_window}s)"
                )
        if self.normalization not in ("mean", "sum"):
            raise ConfigError(f"unknown normalization {self.normalization!r}")
        if self.hash_dim < 2 or self.hash_dim & (self.hash_dim - 1):
            raise ConfigError(f"hashing.dim must be a power of two >= 2, got {self.hash_dim}")
        if not 0 <= self.hash_seed < 2**64:
            raise ConfigError(
                f"hashing.seed must fit in an unsigned 64-bit integer, got {self.hash_seed}"
            )
        if self.bootstrap_b < 100:
            raise ConfigError("bootstrap_b must be at least 100")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "output_dir": self.output_dir,
            "data": self.data.to_dict(),
            "hashing": {"dim": self.hash_dim, "seed": self.hash_seed},
            "split": self.split.to_dict(),
            "tau": list(self.tau),
            "trainers": list(self.trainers),
            "l2": self.l2,
            "normalization": self.normalization,
            "optimizer": {
                "max_iter": self.optimizer.max_iter,
                "tol": self.optimizer.tol,
                "step0": self.optimizer.step0,
                "eval_every": self.optimizer.eval_every,
                "patience": self.optimizer.patience,
            },
            "weight_model_pos": self.weight_pos.to_dict(),
            "weight_model_neg": self.weight_neg.to_dict(),
            "clip_floor": self.clip_floor,
            "metrics": {"bootstrap_b": self.bootstrap_b},
        }

    def sha256(self) -> str:
        """Fingerprint of the experiment: everything except where output lands."""
        payload = self.to_dict()
        payload.pop("output_dir", None)
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a plain (YAML) dict."""
    raw = dict(raw or {})
    _require_keys(
        raw,
        {
            "seed",
            "output_dir",
            "data",
            "hashing",
            "split",
            "tau",
            "trainers",
            "l2",
            "normalization",
            "optimizer",
            "weight_model_pos",
            "weight_model_neg",
            "clip_floor",
            "metrics",
        },
        "config",
    )

    data_raw = dict(raw.get("data", {}))
    _require_keys(
        data_raw,
        {"kind", "path", "schema", "observational_period", "tracked_until", "simulator"},
        "data",
    )
    sim_raw = dict(data_raw.get("simulator", {}))
    _require_keys(
        sim_raw,
        {
            "n_samples",
            "field_cardinalities",
            "time_span",
            "cvr_bias",
            "cvr_spread",
            "delay_family",
            "mean_delay",
            "rate_spread",
            "modulation_depth",
        },
        "data.simulator",
    )
    sim_defaults = SimulatorSpec()
    simulator = SimulatorSpec(
        n_samples=int(sim_raw.get("n_samples", sim_defaults.n_samples)),
        field_cardinalities=tuple(
            sim_raw.get("field_cardinalities", sim_defaults.field_cardinalities)
        ),
        time_span=parse_duration(sim_raw.get("time_span", sim_defaults.time_span), "time_span"),
        cvr_bias=float(sim_raw.get("cvr_bias", sim_defaults.cvr_bias)),
        cvr_spread=float(sim_raw.get("cvr_spread", sim_defaults.cvr_spread)),
        delay_family=str(sim_raw.get("delay_family", sim_defaults.delay_family)),
        mean_delay=parse_duration(sim_raw.get("mean_delay", sim_defaults.mean_delay), "mean_delay"),
        rate_spread=float(sim_raw.get("rate_spread", sim_defaults.rate_spread)),
        modulation_depth=float(sim_raw.get("modulation_depth", sim_defaults.modulation_depth)),
    )
    schema = tuple(
        FieldSpec(
            name=f["name"],
            kind=f.get("kind", "categorical"),
            bins=tuple(f["bins"]) if f.get("bins") else None,
        )
        for f in data_raw.get("schema", [])
    )
    data_spec = DataSpec(
        kind=data_raw.get("kind", "simulator"),
        path=data_raw.get("path"),
        schema=schema,
        observational_period=(
            parse_duration(data_raw["observational_period"], "observational_period")
            if data_raw.get("observational_period") is not None
            else None
        ),
        tracked_until=(
            int(data_raw["tracked_until"]) if data_raw.get("tracked_until") is not None else None
        ),
        simulator=simulator,
    )

    hash_raw = dict(raw.get("hashing", {}))
    _require_keys(hash_raw, {"dim", "seed"}, "hashing")

    split_raw = dict(raw.get("split", {}))
    _require_keys(
        split_raw,
        {"train_window", "validation_window", "test_window", "stride", "n_splits"},
        "split",
    )
    split_defaults = SplitSpec()
    split = SplitSpec(
        train_window=parse_duration(
            split_raw.get("train_window", split_defaults.train_window), "train_window"
        ),
        validation_window=parse_duration(
            split_raw.get("validation_window", split_defaults.validation_window),
            "validation_window",
        ),
        test_window=parse_duration(
            split_raw.get("test_window", split_defaults.test_window), "test_window"
        ),
        stride=parse_duration(split_raw.get("stride", split_defaults.stride), "stride"),
        n_splits=(int(split_raw["n_splits"]) if split_raw.get("n_splits") is not None else None),
    )

    tau_raw = raw.get("tau", 7 * 86400)
    if not isinstance(tau_raw, (list, tuple)):
        tau_raw = [tau_raw]
    tau = tuple(parse_duration(t, "tau") for t in tau_raw)

    opt_raw = dict(raw.get("optimizer", {}))
    _require_keys(
        opt_raw,
        {"max_iter", "tol", "step0", "eval_every", "patience"},
        "optimizer",
    )
    optimizer = OptConfig(
        max_iter=int(opt_raw.get("max_iter", 400)),
        tol=float(opt_raw.get("tol", 1e-9)),
        step0=float(opt_raw.get("step0", 1.0)),
        eval_every=int(opt_raw.get("eval_every", 10)),
        patience=int(opt_raw.get("patience", 5)),
    )

    def weight_spec(key: str) -> WeightHyperSpec:
        w_raw = dict(raw.get(key, {}))
        _require_keys(w_raw, {"l2", "edges", "max_iter", "holdout_fraction"}, key)
        defaults = WeightHyperSpec()
        return WeightHyperSpec(
            l2=float(w_raw.get("l2", defaults.l2)),
            edges=tuple(parse_duration(e, f"{key}.edges") for e in w_raw.get("edges", defaults.edges)),
            max_iter=int(w_raw.get("max_iter", defaults.max_iter)),
            holdout_fraction=float(w_raw.get("holdout_fraction", defaults.holdout_fraction)),
        )

    metrics_raw = dict(raw.get("metrics", {}))
    _require_keys(metrics_raw, {"bootstrap_b"}, "metrics")

    return ExperimentConfig(
        seed=int(raw.get("seed", 0)),
        output_dir=str(raw.get("output_dir", "runs/out")),
        data=data_spec,
        hash_dim=int(hash_raw.get("dim", data_mod.DEFAULT_HASH_DIM)),
        hash_seed=int(hash_raw.get("seed", 0)),
        split=split,
        tau=tau,
        trainers=tuple(raw.get("trainers", ("naive_lr", "lr_fsiw", "dfm"))),
        l2=float(raw.get("l2", 1e-4)),
        normalization=str(raw.get("normalization", "mean")),
        optimizer=optimizer,
        weight_pos=weight_spec("weight_model_pos"),
        weight_neg=weight_spec("weight_model_neg"),
        clip_floor=float(raw.get("clip_floor", 0.01)),
        bootstrap_b=int(metrics_raw.get("bootstrap_b", 200)),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        raw = yaml.safe_load(handle)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping")
    return config_from_dict(raw)


@dataclass
class Split:
    """One rolling window: click-log rows of each part, and where each ends."""

    k: int
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    train_end: int
    val_end: int
    test_end: int


def rolling_splits(
    click_ts: np.ndarray,
    spec: SplitSpec,
    *,
    start: int | None = None,
    end: int | None = None,
) -> list[Split]:
    """Cut a log's click timestamps into overlapping train/validation/test
    windows of row indices (ascending, so each window keeps log order).

    Window k starts at start + k·stride; the number of splits is the largest
    count the data span allows unless ``spec.n_splits`` pins it. By default the
    span is the closed extent of click timestamps (so 28 days of clicks with
    a 21d/1d train/test split and 1d stride yield exactly 7 splits); pass
    ``start``/``end`` when the collection window is known exactly, e.g. for
    simulated data.
    """
    ts = np.asarray(click_ts, dtype=np.int64)
    if ts.size == 0:
        raise ConfigError("no records to split")
    t0 = int(ts.min()) if start is None else int(start)
    span = (int(end) - t0) if end is not None else int(ts.max()) - t0 + 1
    if span < spec.total_window:
        raise ConfigError(
            f"data span {span}s is shorter than one full window ({spec.total_window}s)"
        )
    n_possible = (span - spec.total_window) // spec.stride + 1
    n_splits = n_possible if spec.n_splits is None else spec.n_splits
    if n_splits > n_possible:
        raise ConfigError(f"requested {n_splits} splits but the span allows only {n_possible}")

    splits = []
    for k in range(n_splits):
        a = t0 + k * spec.stride
        train_end = a + spec.train_window
        val_end = train_end + spec.validation_window
        test_end = val_end + spec.test_window
        splits.append(
            Split(
                k=k,
                train_idx=np.flatnonzero((ts >= a) & (ts < train_end)),
                val_idx=np.flatnonzero((ts >= train_end) & (ts < val_end)),
                test_idx=np.flatnonzero((ts >= val_end) & (ts < test_end)),
                train_end=train_end,
                val_end=val_end,
                test_end=test_end,
            )
        )
    return splits


@dataclass(frozen=True)
class ReportRow:
    split: int
    trainer: str
    tau: int
    report: EvalReport
    fit: TrainingMeta  # how the trainer's optimizer ended; not written to the reports

    def to_flat_dict(self) -> dict:
        out = {"split": self.split, "trainer": self.trainer, "tau": self.tau}
        out.update(self.report.to_flat_dict())
        return out


REPORT_COLUMNS = (
    "split",
    "trainer",
    "tau",
    "ll",
    "ll_lo",
    "ll_hi",
    "nll",
    "nll_lo",
    "nll_hi",
    "pr_auc",
    "pr_auc_lo",
    "pr_auc_hi",
    "n_test",
    "mean_pred",
    "mean_label",
    "train_mean_cvr",
)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report_csv(rows: Sequence[ReportRow], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(REPORT_COLUMNS) + "\n")
        for row in rows:
            flat = row.to_flat_dict()
            handle.write(",".join(_format_cell(flat[c]) for c in REPORT_COLUMNS) + "\n")


def write_report_json(rows: Sequence[ReportRow], path: Path) -> None:
    payload = [row.to_flat_dict() for row in rows]
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_source(
    config: ExperimentConfig,
) -> tuple[ClickLog, np.ndarray | None, tuple[int | None, int | None]]:
    """Returns (the hashed click log, true labels aligned with it or None,
    and the (start, end) of the collection window, each None unless it is
    known a priori)."""
    if config.data.kind == "simulator":
        arrays = generate_arrays(config.data.simulator.build(config.seed))
        log = to_click_log(arrays, dim=config.hash_dim, seed=config.hash_seed)
        return log, arrays.c, (0, config.data.simulator.time_span)
    schema = list(config.data.schema)
    log = read_tsv(config.data.path, schema, dim=config.hash_dim, seed=config.hash_seed)
    return log, None, (None, None)


def _wrap(split_k: int, trainer: str, exc: Exception) -> PipelineError:
    return PipelineError(f"split {split_k}, trainer {trainer}: {exc}")


@dataclass(frozen=True)
class _LabeledSplit:
    """A split's training and validation snapshots and its fully observed
    test rows; none of them depends on tau."""

    split: Split
    train: Snapshot
    val: Snapshot | None
    x_test: sparse.csr_matrix
    c_test: np.ndarray
    train_mean_cvr: float


def _label_split(
    config: ExperimentConfig, log: ClickLog, truth: np.ndarray | None, split: Split
) -> _LabeledSplit:
    # provenance gate: nothing clicked inside or after the test window may
    # reach a training artifact
    ts = log.click_ts[np.concatenate([split.train_idx, split.val_idx])]
    leaked = ts >= split.val_end
    if np.any(leaked):
        raise PipelineError(
            f"split {split.k}: leakage — training record clicked at "
            f"{ts[np.argmax(leaked)]}, inside the test window"
        )

    train = snapshot_labels(log.rows(split.train_idx), split.train_end)
    if len(train.y) == 0:
        raise PipelineError(f"split {split.k}: empty training window")
    val = (
        snapshot_labels(log.rows(split.val_idx), split.val_end)
        if config.split.validation_window > 0
        else None
    )
    if truth is not None:
        x_test, c_test = log.x[split.test_idx], truth[split.test_idx]
    else:
        if split.test_end + config.data.observational_period > config.data.tracked_until:
            raise ConfigError(
                f"split {split.k}: test labels are not final — conversions are tracked "
                f"until {config.data.tracked_until} but the test window needs "
                f"{split.test_end + config.data.observational_period}"
            )
        x_test, c_test = full_observation_labels(
            log.rows(split.test_idx), observational_period=config.data.observational_period
        )
    if len(c_test) == 0:
        raise PipelineError(f"split {split.k}: empty test window")

    train_mean_cvr = float(train.y.mean())
    if not 0.0 < train_mean_cvr < 1.0:
        raise PipelineError(
            f"split {split.k}: degenerate training labels (mean y = {train_mean_cvr})"
        )
    return _LabeledSplit(split, train, val, x_test, c_test, train_mean_cvr)


def _fit_and_score(
    config: ExperimentConfig, labeled: _LabeledSplit, tau: int, trainers: Sequence[str]
) -> tuple[dict, WeightedDataset | None, list[ReportRow]]:
    """Train ``trainers`` on one labeled split at deadline ``tau`` and score
    them on its test rows. Returns the models, the weighted training set
    (None unless lr_fsiw ran) and one report row per trainer."""
    split, train, val = labeled.split, labeled.train, labeled.val
    models = {}
    weighted = None
    for trainer in trainers:
        opt = replace(config.optimizer, seed=_derived_seed(config.seed, split.k, ROLE_CVR_TRAIN))
        try:
            if trainer == "naive_lr":
                models[trainer] = train_naive_logistic(
                    train.x, train.y, config.l2, opt, normalization=config.normalization
                )
            elif trainer == "dfm":
                models[trainer] = train_dfm(
                    train.x,
                    train.y,
                    train.d,
                    train.e,
                    config.l2,
                    opt,
                    normalization=config.normalization,
                )
            else:
                relabel_cfg = RelabelConfig(tau=tau, training_end=split.train_end)
                d1, d0 = build_artificial_datasets(train, relabel_cfg)
                hyper_pos = config.weight_pos.build(
                    config.clip_floor, _derived_seed(config.seed, split.k, ROLE_WEIGHT_POS)
                )
                hyper_neg = config.weight_neg.build(
                    config.clip_floor, _derived_seed(config.seed, split.k, ROLE_WEIGHT_NEG)
                )
                pair = WeightModelPair(
                    model_pos=fit_weight_model(train.x[d1.idx], d1.e_adj, d1.s, hyper_pos),
                    model_neg=fit_weight_model(train.x[d0.idx], d0.e_adj, d0.s, hyper_neg),
                    clip_floor=config.clip_floor,
                )
                weighted = assign_fsiw(pair, train.x, train.y, train.e)
                weighted_val = (
                    assign_fsiw(pair, val.x, val.y, val.e)
                    if val is not None and len(val.y) > 0
                    else None
                )
                models[trainer] = train_weighted_logistic(
                    weighted,
                    config.l2,
                    opt,
                    normalization=config.normalization,
                    validation=weighted_val,
                )
        except (ValueError, RuntimeError) as exc:
            raise _wrap(split.k, trainer, exc) from exc

    rows = []
    for trainer in trainers:
        try:
            preds = predict_cvr_batch(models[trainer], labeled.x_test)
            report = evaluate_predictions(
                labeled.c_test,
                preds,
                labeled.train_mean_cvr,
                bootstrap_b=config.bootstrap_b,
                seed=_derived_seed(config.seed, split.k, ROLE_EVAL),
            )
        except (ValueError, RuntimeError) as exc:
            raise _wrap(split.k, trainer, exc) from exc
        rows.append(
            ReportRow(
                split=split.k, trainer=trainer, tau=tau, report=report, fit=models[trainer].meta
            )
        )
    return models, weighted, rows


def run_pipeline(
    config: ExperimentConfig,
    *,
    out_dir: str | Path | None = None,
    tau: int | None = None,
    write_outputs: bool = True,
) -> list[ReportRow]:
    """Run every selected trainer over every rolling split and score it.

    ``tau`` overrides the config's (first) counterfactual deadline. With
    ``write_outputs`` the output directory receives reports.csv /
    reports.json, per-split weight dumps and model blobs, the resolved
    config, and a manifest keyed by the config hash.
    """
    the_tau = int(tau if tau is not None else config.tau[0])
    if not 0 < the_tau < config.split.train_window:
        raise ConfigError(f"tau {the_tau} must lie strictly inside the training window")

    log, truth, (start, end) = load_source(config)
    splits = rolling_splits(log.click_ts, config.split, start=start, end=end)

    out_path = Path(out_dir if out_dir is not None else config.output_dir)
    if write_outputs:
        out_path.mkdir(parents=True, exist_ok=True)

    rows: list[ReportRow] = []
    for split in splits:
        labeled = _label_split(config, log, truth, split)
        models, weighted, split_rows = _fit_and_score(config, labeled, the_tau, config.trainers)
        rows.extend(split_rows)
        if write_outputs:
            if weighted is not None:
                dump_weights(weighted, out_path / f"weights_split{split.k}.tsv")
            for trainer, model in models.items():
                save_model(model, out_path / f"model_split{split.k}_{trainer}.json")

    if write_outputs:
        write_report_csv(rows, out_path / "reports.csv")
        write_report_json(rows, out_path / "reports.json")
        write_manifest(config, out_path, n_splits=len(splits))
        (out_path / "config_resolved.yaml").write_text(
            yaml.safe_dump(config.to_dict(), sort_keys=True, default_flow_style=False),
            encoding="utf-8",
        )
    return rows


def deadline_sweep(
    config: ExperimentConfig,
    taus: Sequence[int] | None = None,
    *,
    out_dir: str | Path | None = None,
    write_outputs: bool = True,
) -> list[ReportRow]:
    """Run the weighted pipeline for each counterfactual deadline.

    Everything except tau (data, splits, seeds) is held fixed, so the table
    isolates the deadline's effect. Only the weighted trainer runs. The log
    is loaded and hashed, and every split labeled, once for all taus; rows
    come tau by tau, each in split order, as from one run_pipeline per tau.
    """
    tau_list = [int(t) for t in (taus if taus is not None else config.tau)]
    if not tau_list:
        raise ConfigError("sweep needs at least one tau")
    for t in tau_list:
        if not 0 < t < config.split.train_window:
            raise ConfigError(f"tau {t} must lie strictly inside the training window")

    log, truth, (start, end) = load_source(config)
    splits = rolling_splits(log.click_ts, config.split, start=start, end=end)
    labeled_splits = [_label_split(config, log, truth, split) for split in splits]
    rows: list[ReportRow] = []
    for t in tau_list:
        for labeled in labeled_splits:
            rows.extend(_fit_and_score(config, labeled, t, ("lr_fsiw",))[2])

    if write_outputs:
        out_path = Path(out_dir if out_dir is not None else config.output_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        write_report_csv(rows, out_path / "sweep.csv")
        write_report_json(rows, out_path / "sweep.json")
        write_manifest(config, out_path, n_splits=None, taus=tau_list)
    return rows


def write_manifest(
    config: ExperimentConfig,
    out_path: Path,
    *,
    n_splits: int | None,
    taus: Sequence[int] | None = None,
) -> None:
    import scipy

    from . import __version__

    manifest = {
        "config_sha256": config.sha256(),
        "seed": config.seed,
        "n_splits": n_splits,
        "taus": list(taus) if taus is not None else list(config.tau),
        "versions": {
            "fsiw": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    (out_path / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
