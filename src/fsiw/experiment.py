"""End-to-end experiment harness.

A single config (YAML-friendly dict) describes the data source (TSV log or
simulator), hashing, rolling splits, the counterfactual deadline, trainer
selection and hyperparameters, and output locations. ``run_pipeline`` walks
every split: snapshot-label the training window, relabel at the deadline, fit
the two weight models, train the selected CVR models, and score them on the
fully observed test window. Everything downstream of the global seed is
deterministic, including the bytes of every report file.

``run_pipeline`` and ``deadline_sweep`` share one per-split path: every
split is labeled once (``_labeled_splits``) and run by ``_run_split``, which
fits its list of tasks, each one trainer at one deadline, and scores them all
with one ``evaluate_columns`` pass over its bootstrap resamples. lr_fsiw is a
task at each deadline given, any other trainer one task at the first
(``_tasks``); a run gives the config's trainers and first deadline, a sweep
lr_fsiw and every deadline. ``_fit_task`` fits one task. Every task fits on
one grouping of the split's training rows into distinct rows
(``training.RowGroups``), which lives until the split's last task. lr_fsiw at
every deadline also shares one weight-prediction design of the training rows
and one of the validation rows per distinct ``edges``, from which the weight
models of every deadline predict. They are built once per split and freed
after its last lr_fsiw task, so a later dfm fits without them.

A split may give one share of its fits to a child process on the second
core; ``_child_share`` says which. The parent puts the child's results in
task order, so every output byte is the one the split gives in process.
lr_fsiw's weight dump is written by the process that fits lr_fsiw, right
after it weights its rows.

Every error of a task, in its fit or in its metrics, carries the task's
label: ``split k, trainer T``, with ``, tau Ns`` for lr_fsiw, and ``, weight
model pos`` (or ``neg``) when one of its weight models cannot be fitted. A
weight model's warning, such as its single-class fallback, is raised again
under that label.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import re
import threading
import warnings
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Callable, Sequence, get_args, get_origin, get_type_hints

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
from .metrics import EvalReport, MetricInputError, evaluate_columns
from .optim import OptConfig, TrainingMeta
from .relabel import build_artificial_datasets
from .simulate import SimConfig, generate_arrays, sample_weight_vector, to_click_log
from .training import (
    DfmModel,
    LinearCvrModel,
    RowGroups,
    TrainingError,
    check_l2,
    predict_cvr_batch,
    save_model,
    train_dfm,
    train_naive_logistic,
    train_weighted_logistic,
)
from .weights import (
    DEFAULT_CLIP_FLOOR,
    DesignRows,
    WeightModelHyper,
    assign_fsiw,
    check_clip_floor,
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
ROLE_EVAL = 24

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([smhdw]?)\s*$")
_UNIT_SECONDS = {"": 1, "s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}

# libyaml's emitter where PyYAML has it: it writes the bytes of PyYAML's own
# (a test checks) in under a third of the time
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# field metadata of a config key whose values go through parse_duration
DURATION = {"duration": True}

# a split forks a share of its fits (``_child_share``) when it trains on at
# least this many rows. A fork and reap cost 4-5 ms and both sides slow down
# while both cores are busy. On README worlds, where dfm converges in 20-30
# iterations, forking dfm lost 2-3 ms up to 2.8k rows and won from 3.5k (on
# criterion-04 worlds it won from 0.8k rows); forking a sweep's later
# deadlines gained nothing clear up to 2.1k rows at 2, 3 or 5 deadlines and
# won from 2.8k, so one floor serves both
_FIT_FORK_MIN_ROWS = 3_000


class ConfigError(ValueError):
    """A config value violates its invariants; the message names its key."""


class PipelineError(RuntimeError):
    """A component failed; the message carries split/trainer context."""


def parse_duration(value: int | float | str, what: str = "duration") -> int:
    """Durations in configs may be integer seconds or strings like 21d, 6h,
    30m, 45s, 2w."""
    if isinstance(value, bool):
        raise ConfigError(f"{what}: booleans are not durations")
    if isinstance(value, (int, float)):
        seconds = value
    else:
        match = _DURATION_RE.match(str(value))
        if not match:
            raise ConfigError(f"{what}: cannot parse duration {value!r}")
        number = match.group(1)
        seconds = (float(number) if "." in number else int(number)) * _UNIT_SECONDS[match.group(2)]
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{what}: duration must be finite, got {value!r}")
    if not -(2**63) <= seconds < 2**63:  # also where a literal overflowed float()
        raise ConfigError(f"{what}: duration must fit in int64 seconds, got {value!r}")
    if seconds != int(seconds):
        raise ConfigError(f"{what}: duration must be whole seconds, got {value!r}")
    return int(seconds)


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class SimulatorSpec:
    n_samples: int = 20000
    field_cardinalities: tuple[int, ...] = (16, 16, 16, 16)
    time_span: int = field(default=28 * 86400, metadata=DURATION)
    cvr_bias: float = -2.0
    cvr_spread: float = 1.0
    mean_delay: int = field(default=4 * 86400, metadata=DURATION)
    rate_spread: float = 0.5

    def __post_init__(self):
        if not self.field_cardinalities or min(self.field_cardinalities) < 1:
            raise ConfigError(
                "data.simulator.field_cardinalities must be a non-empty list of "
                f"values >= 1, got {list(self.field_cardinalities)}"
            )
        for key in ("n_samples", "time_span", "mean_delay"):
            value = getattr(self, key)
            if value < 1:
                raise ConfigError(f"data.simulator.{key} must be positive, got {value}")
        for key in ("cvr_bias", "cvr_spread", "rate_spread"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ConfigError(f"data.simulator.{key} must be finite, got {value}")
        for key in ("cvr_spread", "rate_spread"):
            value = getattr(self, key)
            if value < 0 or not math.isfinite(2 * value):
                raise ConfigError(
                    f"data.simulator.{key} must be non-negative with a finite range "
                    f"2*{key}, got {value}"
                )

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
        return SimConfig(
            n_samples=self.n_samples,
            field_cardinalities=self.field_cardinalities,
            cvr_weights=cvr_weights,
            rate_weights=rate_weights,
            time_span=self.time_span,
            seed=_derived_seed(seed, ROLE_SIM_DATA),
        )


@dataclass(frozen=True)
class DataSpec:
    kind: str = "simulator"
    path: str | None = None
    schema: tuple[FieldSpec, ...] = ()
    observational_period: int | None = field(default=None, metadata=DURATION)
    tracked_until: int | None = None
    simulator: SimulatorSpec = field(default_factory=SimulatorSpec)

    def __post_init__(self):
        if self.kind not in ("simulator", "tsv"):
            raise ConfigError(f"unknown data kind {self.kind!r}")
        if self.observational_period is not None and self.observational_period < 0:
            raise ConfigError(
                f"data.observational_period must be non-negative, got {self.observational_period}"
            )
        if self.kind == "simulator":
            for key in ("path", "observational_period", "tracked_until"):
                if getattr(self, key) is not None:
                    raise ConfigError(f"data.{key} is for tsv data, not a simulator")
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


@dataclass(frozen=True)
class HashingSpec:
    dim: int = data_mod.DEFAULT_HASH_DIM
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2 or self.dim & (self.dim - 1):
            raise ConfigError(f"hashing.dim must be a power of two >= 2, got {self.dim}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(
                f"hashing.seed must fit in an unsigned 64-bit integer, got {self.seed}"
            )


@dataclass(frozen=True)
class SplitSpec:
    train_window: int = field(default=21 * 86400, metadata=DURATION)
    validation_window: int = field(default=0, metadata=DURATION)
    test_window: int = field(default=86400, metadata=DURATION)
    stride: int = field(default=86400, metadata=DURATION)
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


@dataclass(frozen=True)
class MetricsSpec:
    bootstrap_b: int = 200

    def __post_init__(self):
        if self.bootstrap_b < 100:
            raise ConfigError("bootstrap_b must be at least 100")


@dataclass(frozen=True)
class ExperimentConfig:
    """The whole experiment; each field is the YAML key of the same name,
    and its default is the value a config that omits the key gets."""

    seed: int = 0
    output_dir: str = "runs/out"
    data: DataSpec = field(default_factory=DataSpec)
    hashing: HashingSpec = field(default_factory=HashingSpec)
    split: SplitSpec = field(default_factory=SplitSpec)
    tau: tuple[int, ...] = field(default=(7 * 86400,), metadata=DURATION)
    trainers: tuple[str, ...] = TRAINERS
    l2: float = 1e-4
    optimizer: OptConfig = field(default_factory=lambda: OptConfig(max_iter=400))
    weight_model_pos: WeightModelHyper = field(default_factory=WeightModelHyper)
    weight_model_neg: WeightModelHyper = field(default_factory=WeightModelHyper)
    clip_floor: float = DEFAULT_CLIP_FLOOR
    metrics: MetricsSpec = field(default_factory=MetricsSpec)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not self.trainers:
            raise ConfigError("select at least one trainer")
        for t in self.trainers:
            if t not in TRAINERS:
                raise ConfigError(f"unknown trainer {t!r} (choose from {TRAINERS})")
        if not self.tau:
            raise ConfigError("tau must contain at least one deadline")
        for key in ("trainers", "tau"):
            values = getattr(self, key)
            repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
            if repeated is not None:
                raise ConfigError(f"{key} lists {repeated!r} more than once")
        for t in self.tau:
            if not 0 < t < self.split.train_window:
                raise ConfigError(
                    f"tau {t} must lie strictly inside the training window "
                    f"({self.split.train_window}s)"
                )
        try:
            check_l2(self.l2)
            check_clip_floor(self.clip_floor)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def sha256(self) -> str:
        """Fingerprint of the experiment: everything except where output lands."""
        payload = _to_plain(self)
        payload.pop("output_dir", None)
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()

    def to_yaml(self) -> str:
        """The resolved config: every key with its value, defaults included."""
        return yaml.dump(
            _to_plain(self), Dumper=_YAML_DUMPER, sort_keys=True, default_flow_style=False
        )


def _to_plain(node):
    """The YAML tree of a config node: dataclasses become mappings of their
    keys, tuples become lists."""
    if isinstance(node, tuple):
        return [_to_plain(v) for v in node]
    if not is_dataclass(node):
        return node
    out = {f.name: _to_plain(getattr(node, f.name)) for f in fields(node)}
    if isinstance(node, DataSpec):  # a source records only its own kind's keys
        is_sim = node.kind == "simulator"
        out = {k: v for k, v in out.items() if k == "kind" or (k == "simulator") == is_sim}
    return out


def _convert(tp, value, default, duration: bool, where: str):
    """``value`` read as type ``tp``: nested dataclasses through _read,
    tuples element by element (a scalar is a one-element list), durations
    through parse_duration, and scalars without loss."""
    if get_origin(tp) is UnionType:  # X | None
        if value is None:
            return None
        (tp,) = [arg for arg in get_args(tp) if arg is not type(None)]
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            return (_convert(get_args(tp)[0], value, None, duration, where),)
        return tuple(
            _convert(get_args(tp)[0], v, None, duration, f"{where}[{i}]")
            for i, v in enumerate(value)
        )
    if is_dataclass(tp):
        return _read(tp, value, default, where)
    if duration:
        return parse_duration(value, where)
    bad = ConfigError(f"{where}: expected {tp.__name__}, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, str if tp is str else (int, float, str)):
        raise bad
    if tp is int and isinstance(value, float) and not value.is_integer():
        raise bad  # never truncate
    try:
        return tp(value)
    except (ValueError, OverflowError):
        raise bad from None


def _read(cls: type, raw, default, where: str):
    """Build a ``cls`` from the mapping ``raw``. Keys absent from ``raw``
    keep their value in ``default`` (the enclosing default instance), or,
    without one, the field's own default."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'config'}: expected a mapping, got {raw!r}")
    keys = fields(cls)
    unknown = set(raw) - {f.name for f in keys}
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where or 'config'}: {', '.join(sorted(map(str, unknown)))}"
        )
    hints = get_type_hints(cls)
    values = {
        f.name: _convert(
            hints[f.name],
            raw[f.name],
            getattr(default, f.name, None),
            "duration" in f.metadata,
            f"{where}.{f.name}" if where else f.name,
        )
        for f in keys
        if f.name in raw
    }
    if default is None:
        required = [f.name for f in keys if f.default is MISSING and f.default_factory is MISSING]
        missing = [name for name in required if name not in raw]
        if missing:
            raise ConfigError(f"missing key(s) in {where}: {', '.join(missing)}")
    try:
        return cls(**values) if default is None else replace(default, **values)
    except ValueError as exc:  # a spec's own check: name the key unless it does
        if not where or str(exc).startswith(where):
            raise
        raise ConfigError(f"{where}: {exc}") from None


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a plain (YAML) dict."""
    return _read(ExperimentConfig, raw or {}, ExperimentConfig(), "")


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


REPORT_COLUMNS = ("split", "trainer", "tau", *(f.name for f in fields(EvalReport)))


def write_report_csv(rows: Sequence[ReportRow], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(REPORT_COLUMNS) + "\n")
        for row in rows:
            flat = row.to_flat_dict()
            handle.write(",".join(str(flat[c]) for c in REPORT_COLUMNS) + "\n")


def write_report_json(rows: Sequence[ReportRow], path: Path) -> None:
    payload = [row.to_flat_dict() for row in rows]
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_source(config: ExperimentConfig) -> tuple[ClickLog, int | None, int | None]:
    """Returns the hashed click log and the start and end of its collection
    window, each None unless it is known a priori. A simulated log holds
    every conversion, however late."""
    if config.data.kind == "simulator":
        arrays = generate_arrays(config.data.simulator.build(config.seed))
        log = to_click_log(arrays, dim=config.hashing.dim, seed=config.hashing.seed)
        return log, 0, config.data.simulator.time_span
    schema = list(config.data.schema)
    log = read_tsv(config.data.path, schema, dim=config.hashing.dim, seed=config.hashing.seed)
    return log, None, None


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


def _label_split(config: ExperimentConfig, log: ClickLog, split: Split) -> _LabeledSplit:
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
    data = config.data
    if data.kind == "tsv" and split.test_end + data.observational_period > data.tracked_until:
        raise ConfigError(
            f"split {split.k}: test labels are not final — conversions are tracked "
            f"until {data.tracked_until} but the test window needs "
            f"{split.test_end + data.observational_period}"
        )
    x_test, c_test = full_observation_labels(
        log.rows(split.test_idx), observational_period=data.observational_period
    )
    if len(c_test) == 0:
        raise PipelineError(f"split {split.k}: empty test window")

    train_mean_cvr = float(train.y.mean())
    if not 0.0 < train_mean_cvr < 1.0:
        raise PipelineError(
            f"split {split.k}: degenerate training labels (mean y = {train_mean_cvr})"
        )
    if not c_test.any():  # average precision needs one
        raise PipelineError(f"split {split.k}: no positive label in the test window")
    return _LabeledSplit(split, train, val, x_test, c_test, train_mean_cvr)


def _labeled_splits(config: ExperimentConfig) -> list[_LabeledSplit]:
    """Load the config's click log, cut it into rolling splits and label
    every one of them."""
    log, start, end = load_source(config)
    splits = rolling_splits(log.click_ts, config.split, start=start, end=end)
    return [_label_split(config, log, split) for split in splits]


@dataclass(frozen=True)
class _Fitted:
    """A fitted task: its error label, model and test predictions."""

    label: str
    trainer: str
    tau: int
    model: LinearCvrModel | DfmModel
    preds: np.ndarray


def _fit_fsiw(
    config: ExperimentConfig,
    labeled: _LabeledSplit,
    tau: int,
    groups: RowGroups,
    designs: tuple[DesignRows, DesignRows | None],
    label: str,
    dump_path: Path | None,
) -> LinearCvrModel:
    """lr_fsiw at deadline ``tau``: relabel, fit both weight models, weight
    the training and validation rows (``designs``, None without validation
    rows), dump the training rows' weights to ``dump_path`` if given, and
    train on the training grouping. A weight model's warning is raised again
    under its label; the dump's error is ``split k: could not write <path>:
    <cause>``."""
    k, train, val = labeled.split.k, labeled.train, labeled.val
    d1, d0 = build_artificial_datasets(train, tau)
    models = []
    for side, d, hyper, seed in (
        ("pos", d1, config.weight_model_pos, _derived_seed(config.seed, k, ROLE_WEIGHT_POS)),
        ("neg", d0, config.weight_model_neg, _derived_seed(config.seed, k, ROLE_WEIGHT_NEG)),
    ):
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                models.append(fit_weight_model(train.x[d.idx], d.e_adj, d.s, hyper, seed=seed))
        except (ValueError, TrainingError) as exc:
            raise PipelineError(f"{label}, weight model {side}: {exc}") from exc
        for w in caught:
            warnings.warn(f"{label}, weight model {side}: {w.message}", w.category)
    weighted, weighted_val = [
        None if design is None else assign_fsiw(*models, design, s.y, config.clip_floor)
        for design, s in zip(designs, (train, val))
    ]
    if dump_path is not None:
        try:
            dump_weights(weighted, dump_path)
        except OSError as exc:
            raise PipelineError(f"split {k}: could not write {dump_path}: {exc}") from exc
    return train_weighted_logistic(
        replace(weighted, x=groups), config.l2, config.optimizer, validation=weighted_val
    )


def _fit_task(
    config: ExperimentConfig,
    labeled: _LabeledSplit,
    trainer: str,
    tau: int,
    groups: RowGroups,
    designs: tuple[DesignRows, DesignRows | None] | None,
    dump_path: Path | None = None,
) -> _Fitted:
    """Fit ``trainer`` at deadline ``tau`` on the grouping of the split's
    training rows and predict its test rows; lr_fsiw weights its rows from
    ``designs`` and, given ``dump_path``, writes the split's weight dump
    there."""
    train, opt = labeled.train, config.optimizer
    label = f"split {labeled.split.k}, trainer {trainer}"
    try:
        if trainer == "lr_fsiw":
            label += f", tau {tau}s"
            model = _fit_fsiw(config, labeled, tau, groups, designs, label, dump_path)
        elif trainer == "naive_lr":
            model = train_naive_logistic(groups, train.y, config.l2, opt)
        else:
            model = train_dfm(groups, train.y, train.d, train.e, config.l2, opt)
        preds = predict_cvr_batch(model, labeled.x_test)
    except (ValueError, TrainingError) as exc:
        raise PipelineError(f"{label}: {exc}") from exc
    return _Fitted(label, trainer, tau, model, preds)


def _tasks(trainers: Sequence[str], taus: Sequence[int]) -> list[tuple[str, int]]:
    """A split's tasks in order: for each of ``trainers``, lr_fsiw at every
    deadline of ``taus``, any other trainer once, at ``taus[0]``."""
    return [(t, tau) for t in trainers for tau in (taus if t == "lr_fsiw" else taus[:1])]


def _share_label(k: int, share: Sequence[tuple[str, int]]) -> str:
    """The label of a child's share, a run of one trainer's tasks: the
    task's own label for one, and every deadline for several."""
    trainer = share[0][0]
    if trainer != "lr_fsiw":
        return f"split {k}, trainer {trainer}"
    taus = ", ".join(f"{tau}s" for _, tau in share)
    return f"split {k}, trainer lr_fsiw, tau{'s' if len(share) > 1 else ''} {taus}"


def _child_share(tasks: Sequence[tuple[str, int]], n_rows: int) -> range:
    """The indices of the run of a split's ``tasks`` (``_tasks``) that its
    one child fits, empty for no child; ``n_rows`` counts the split's
    training rows.

    From ``_FIT_FORK_MIN_ROWS`` training rows the child fits dfm's task, or
    else the later ceil(n/2) of n >= 2 lr_fsiw deadlines. It starts once the
    grouping (and, for lr_fsiw, the weight designs) is built, so that it
    inherits them, while the parent fits the other tasks.

    Where the fork would not pay or fails (``_fork``), the share runs in
    process."""
    trainers = [t for t, _ in tasks]
    n = trainers.count("lr_fsiw")
    if n_rows >= _FIT_FORK_MIN_ROWS and "dfm" in trainers:
        at = trainers.index("dfm")
        return range(at, at + 1)
    if n_rows >= _FIT_FORK_MIN_ROWS and n >= 2:
        at = trainers.index("lr_fsiw")  # the first of a run of n
        return range(at + n // 2, at + n)
    return range(0)


def _score_split(
    config: ExperimentConfig, labeled: _LabeledSplit, fitted: Sequence[_Fitted]
) -> list[ReportRow]:
    """Score a split's fitted tasks, one report row each in order, from one
    pass over its bootstrap resamples; a metric error names its column's task."""
    k = labeled.split.k
    try:
        reports = evaluate_columns(
            labeled.c_test,
            [f.preds for f in fitted],
            labeled.train_mean_cvr,
            bootstrap_b=config.metrics.bootstrap_b,
            seed=_derived_seed(config.seed, k, ROLE_EVAL),
        )
    except MetricInputError as exc:
        raise PipelineError(f"{fitted[exc.column].label}: {exc}") from exc
    return [
        ReportRow(k, f.trainer, f.tau, report, fit=f.model.meta)
        for f, report in zip(fitted, reports)
    ]


def _last_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat), or
    None where that cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as handle:
            stat = handle.read()
        # field 2, the command name, may hold spaces: count from its ")"
        return int(stat[stat.rindex(b")") + 1 :].split()[36])
    except (OSError, ValueError, IndexError):
        return None


@dataclass(frozen=True)
class _Child:
    """A forked child running one task: its pid, the read end of the pipe its
    outcome comes down, and the label of the error raised where it sends
    none: ``{label} (fit exited with status N)``."""

    pid: int
    read_end: int
    label: str


def _fork(task: Callable[[], object], label: str) -> _Child | None:
    """Start ``task`` in a forked child and return it; return None, having
    run nothing, where a fork would not pay or fails.

    It forks where ``os.fork`` and ``os.sched_setaffinity`` exist, at least 2
    CPUs are usable and no other thread is alive. The child pins itself to
    the usable CPUs other than the one the parent last ran on, so that it
    does not take the parent's CPU from the parent's next fit. It runs
    ``task`` with its warnings recorded and pickles them down the pipe, with
    the task's result or error. It leaves with ``os._exit``: it never
    returns into the caller, flushes the parent's stdio buffers or runs
    ``atexit``. Its exit status is 0 once the pipe holds its whole outcome.
    ``_reap`` waits for it."""
    if not (
        hasattr(os, "fork")
        and hasattr(os, "sched_setaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    ):
        return None
    cpu = _last_cpu()
    try:
        read_end, write_end = os.pipe()
    except OSError:  # no descriptor to spare: the caller runs the task
        return None
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller runs the task
        os.close(read_end)
        os.close(write_end)
        return None
    if pid:
        os.close(write_end)
        return _Child(pid, read_end, label)
    code = 1
    try:
        os.close(read_end)
        if cpu is not None:
            os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})
        # the filters are the parent's, so the child records what it would show
        with warnings.catch_warnings(record=True) as caught:
            try:
                outcome = task(), None
            except Exception as exc:  # raised again in the parent
                outcome = None, exc
        shown = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        with open(write_end, "wb") as pipe:
            pickle.dump((*outcome, shown), pipe)
        code = 0
    finally:
        os._exit(code)


def _reap(child: _Child, discard: bool = False):
    """Read ``child``'s pipe to its end, close it and wait for the child;
    then raise the warnings its task recorded again, in order, and return
    the task's result or raise its error. A child that did not exit with
    status 0 (a signal killed it, say) is a PipelineError naming its status.
    With ``discard`` the outcome is dropped and nothing is raised."""
    try:
        # to the end before waiting: the outcome may fill more than the pipe holds
        with open(child.read_end, "rb") as pipe:
            payload = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(child.pid, 0)[1])
    if discard:
        return None
    if code:
        raise PipelineError(f"{child.label} (fit exited with status {code})")
    result, error, shown = pickle.loads(payload)
    for message, category, filename, lineno in shown:
        warnings.warn_explicit(message, category, filename, lineno)
    if error is not None:
        raise error
    return result


def _run_split(
    config: ExperimentConfig,
    labeled: _LabeledSplit,
    tasks: Sequence[tuple[str, int]],
    out_path: Path | None = None,
) -> list[ReportRow]:
    """Fit a labeled split's ``tasks`` (``_tasks``) and score them, one
    report row each in task order. With ``out_path`` the split's weight dump
    (written by the process that fits lr_fsiw) and model files are written
    there.

    Its child (``_child_share``) sends back each task's model and test
    predictions, or its error, and is reaped before the split is scored and
    before this raises. When more than one step fails, the error raised is
    the first in process order: the tasks in order, lr_fsiw's with its dump,
    then the scoring, then the model files."""
    k, train, val = labeled.split.k, labeled.train, labeled.val
    share = _child_share(tasks, len(train.y))
    groups = RowGroups(train.x)
    designs = (  # each built on first use
        DesignRows(train.x, train.e),
        DesignRows(val.x, val.e) if val is not None and len(val.y) else None,
    )
    dump_path = None if out_path is None else out_path / f"weights_split{k}.tsv"
    child, fitted = None, []
    try:
        if share:
            forked = tasks[share.start : share.stop]
            if any(t == "lr_fsiw" for t, _ in forked):  # built for the child to inherit
                for part in filter(None, designs):
                    for hyper in (config.weight_model_pos, config.weight_model_neg):
                        part.design(hyper.edges)
            child = _fork(
                lambda: [
                    _fit_task(config, labeled, t, tau, groups, designs, dump_path)
                    for t, tau in forked
                ],
                _share_label(k, forked),
            )
        own = tasks if child is None else [*tasks[: share.start], *tasks[share.stop :]]
        last = max((i for i, (t, _) in enumerate(own) if t == "lr_fsiw"), default=-1)
        for i, (trainer, tau) in enumerate(own):
            fitted.append(_fit_task(config, labeled, trainer, tau, groups, designs, dump_path))
            if i == last:
                designs = None  # freed before any later dfm fits
        groups = designs = None  # freed before the split is scored
        if child is not None:
            reaped, child = child, None
            fitted[share.start : share.start] = _reap(reaped)
        rows = _score_split(config, labeled, fitted)
        if out_path is not None:
            for f in fitted:
                save_model(f.model, out_path / f"model_split{k}_{f.trainer}.json")
    except BaseException as exc:
        if child is not None:
            # the child's outcome wins where its tasks come before the failed one
            first = isinstance(exc, Exception) and share.start <= len(fitted)
            _reap(child, discard=not first)
        raise
    return rows


def run_pipeline(config: ExperimentConfig, *, write_outputs: bool = True) -> list[ReportRow]:
    """Run every selected trainer over every rolling split and score it, at
    the config's first counterfactual deadline.

    With ``write_outputs`` the config's ``output_dir`` receives reports.csv /
    reports.json, per-split weight dumps and model blobs, the resolved
    config, and a manifest keyed by the config hash.

    Each split runs through ``_run_split``, which says which of a split's
    errors is raised when several steps fail.
    """
    taus = config.tau[:1]
    tasks = _tasks(config.trainers, taus)
    # every split is labeled before output_dir exists, so a split that cannot
    # be labeled leaves no directory behind
    labeled_splits = _labeled_splits(config)
    out_path = Path(config.output_dir)
    if write_outputs:
        out_path.mkdir(parents=True, exist_ok=True)

    rows: list[ReportRow] = []
    for labeled in labeled_splits:
        rows.extend(_run_split(config, labeled, tasks, out_path if write_outputs else None))

    if write_outputs:
        write_report_csv(rows, out_path / "reports.csv")
        write_report_json(rows, out_path / "reports.json")
        write_manifest(config, out_path, n_splits=len(labeled_splits), taus=taus)
        (out_path / "config_resolved.yaml").write_text(config.to_yaml(), encoding="utf-8")
    return rows


def deadline_sweep(config: ExperimentConfig, *, write_outputs: bool = True) -> list[ReportRow]:
    """Run the weighted pipeline at each counterfactual deadline of the
    config's ``tau``.

    Everything except tau (data, splits, seeds) is held fixed, so the table
    isolates the deadline's effect. Only the weighted trainer runs. Each
    split is labeled once and fits every tau before one pass over its
    bootstrap resamples scores them all, so fits run split by split: when
    several fits would fail, the error raised is the first in that order.
    The rows come tau by tau, each in split order, with the bytes one
    run_pipeline per tau would give.

    Each split runs through ``_run_split``. Where its child takes the later
    deadlines (``_child_share``), the parent's warnings print as they are
    raised and the child's follow in order.
    """
    tasks = _tasks(("lr_fsiw",), config.tau)
    by_split = [_run_split(config, labeled, tasks) for labeled in _labeled_splits(config)]
    # tau by tau, each in split order
    rows = [split_rows[i] for i in range(len(config.tau)) for split_rows in by_split]

    if write_outputs:
        out_path = Path(config.output_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        write_report_csv(rows, out_path / "sweep.csv")
        write_report_json(rows, out_path / "sweep.json")
        write_manifest(config, out_path, n_splits=None, taus=config.tau)
    return rows


def write_manifest(
    config: ExperimentConfig,
    out_path: Path,
    *,
    n_splits: int | None,
    taus: Sequence[int],
) -> None:
    import scipy

    from . import __version__

    manifest = {
        "config_sha256": config.sha256(),
        "seed": config.seed,
        "n_splits": n_splits,
        "taus": list(taus),
        "versions": {
            "fsiw": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    (out_path / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
