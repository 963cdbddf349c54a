"""The benchmark's workloads: inputs made from a seed, the CLI call each timed
operation makes, and the checks every call's outputs must pass.

Every input is a file the benchmark writes (a YAML config, a click log written
by ``fsiw simulate``, or a label/prediction TSV); the program only sees those.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

DAY = 86400
TRAINERS = ("naive_lr", "lr_fsiw", "dfm")

# sizes chosen so one CLI call takes a few seconds on a 2-core machine and a
# run of the configured length times several calls
SCALE_CLICKS = 40_000
# scale's CVR iteration budget: small enough that per-row work (ingest,
# hashing, CSR build, artifacts) is about half of a call, as at 300k clicks
# under the README tolerances
SCALE_MAX_ITER = 50
BATTERY_CLICKS = 6_000
SWEEP_CLICKS = 10_000
SWEEP_TAUS = "1d,2d,3d,4d,5d"
EVAL_ROWS = 30_000
EVAL_BOOTSTRAP_B = 200
# log loss recomputed outside the program must agree to this
EVAL_LL_TOL = 1e-12
# Iteration budget of each weight-model fit. Every fit also runs with
# optimizer tol 0, so it stops at its max_iter, not at a loss-decrease
# threshold. Under the README tolerances the number of objective evaluations
# of a run moves by about 20% from one seed to the next (interquartile range
# over 8 seeds); with fixed budgets it moves by about 3%.
WEIGHT_MAX_ITER = 40


class CheckFailed(Exception):
    """An output of a CLI call is wrong."""


def readme_config(n_samples: int, seed: int) -> dict:
    """The README's example config, with the simulator size and seed set."""
    return {
        "seed": seed,
        "data": {
            "kind": "simulator",
            "simulator": {
                "n_samples": n_samples,
                "field_cardinalities": [8, 8],
                "time_span": "10d",
                "cvr_bias": -1.5,
                "cvr_spread": 1.0,
                "mean_delay": "1d",
                "rate_spread": 0.4,
            },
        },
        "hashing": {"dim": 1024, "seed": 0},
        "split": {"train_window": "7d", "test_window": "1d", "stride": "1d", "n_splits": 1},
        "tau": "2d",
        "trainers": list(TRAINERS),
        "l2": 1e-4,
        "optimizer": {"max_iter": 150, "tol": 1e-9},
        "metrics": {"bootstrap_b": 100},
    }


def battery_config(n_samples: int, seed: int) -> dict:
    """The acceptance suite's criterion-04 world: 4x16 fields, a validation
    window, tau 8d and max_iter 400; the seed draws a fresh world."""
    return {
        "seed": seed,
        "data": {
            "kind": "simulator",
            "simulator": {
                "n_samples": n_samples,
                "field_cardinalities": [16, 16, 16, 16],
                "time_span": "15d",
                "cvr_bias": -1.5,
                "cvr_spread": 1.0,
                "mean_delay": "3d",
                "rate_spread": 1.0,
            },
        },
        "hashing": {"dim": 1024, "seed": 0},
        "split": {
            "train_window": "12d",
            "validation_window": "1d",
            "test_window": "1d",
            "stride": "1d",
            "n_splits": 1,
        },
        "tau": "8d",
        "trainers": list(TRAINERS),
        "l2": 1e-4,
        "optimizer": {"max_iter": 400, "tol": 1e-10},
        "metrics": {"bootstrap_b": 100},
    }


def fixed_budget(raw: dict) -> dict:
    """Make every fit run its whole iteration budget (see WEIGHT_MAX_ITER)."""
    raw["optimizer"]["tol"] = 0.0
    if raw["split"].get("validation_window"):
        # validation scores are still computed, but never stop the fit
        raw["optimizer"]["patience"] = raw["optimizer"]["max_iter"]
    raw["weight_model_pos"] = {"max_iter": WEIGHT_MAX_ITER}
    raw["weight_model_neg"] = {"max_iter": WEIGHT_MAX_ITER}
    return raw


def quiet_call(cli, argv: list[str]) -> str:
    """Run ``fsiw`` in process; returns its stdout, or raises CheckFailed
    when it exits non-zero."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"fsiw {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _write_yaml(path: Path, raw: dict) -> Path:
    path.write_text(yaml.safe_dump(raw, sort_keys=True), encoding="utf-8")
    return path


def _simulate_tsv(cli, work: Path, n_samples: int, seed: int) -> dict:
    """``fsiw simulate`` a README-config click log; returns a TSV-source config."""
    sim_cfg = _write_yaml(work / "simulate.yaml", readme_config(n_samples, seed))
    quiet_call(cli, ["simulate", "-c", str(sim_cfg), "-o", str(work / "sim")])
    raw = fixed_budget(readme_config(n_samples, seed))
    raw["data"] = {
        "kind": "tsv",
        "path": str(work / "sim" / "data.tsv"),
        "schema": [{"name": "f0"}, {"name": "f1"}],
        "observational_period": "60d",
        "tracked_until": 1000 * DAY,
    }
    return raw


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise CheckFailed(f"{what} is not finite: {value}")
    return value


def check_report_rows(rows: list[dict], trainers: tuple[str, ...], n_expected: int) -> None:
    """Finite ll / nll / pr_auc whose CIs bracket the point, for every row."""
    if len(rows) != n_expected:
        raise CheckFailed(f"expected {n_expected} report rows, got {len(rows)}")
    for row in rows:
        if row["trainer"] not in trainers:
            raise CheckFailed(f"unexpected trainer {row['trainer']!r}")
        for metric in ("ll", "nll", "pr_auc"):
            point = _finite(float(row[metric]), metric)
            lo = _finite(float(row[f"{metric}_lo"]), f"{metric}_lo")
            hi = _finite(float(row[f"{metric}_hi"]), f"{metric}_hi")
            if not lo <= point <= hi:
                raise CheckFailed(f"{row['trainer']} {metric} CI [{lo}, {hi}] misses {point}")


def read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


@dataclass
class CallResult:
    """What one checked CLI call produced, for the report."""

    ll: dict[str, float] = field(default_factory=dict)
    unconverged: int | None = None


@dataclass
class Workload:
    """One workload's inputs inside a work directory.

    ``invoke`` makes the CLI call that is timed; ``check`` then verifies its
    outputs, raising CheckFailed on any wrong output. The first call's outputs
    are the reference that every later call must reproduce byte for byte.
    """

    work: Path
    argv: list[str]
    rows: int
    artifacts: tuple[str, ...] = ()
    trainers: tuple[str, ...] = TRAINERS
    n_report_rows: int = 0
    report_file: str = "reports.csv"
    eval_truth: tuple[np.ndarray, np.ndarray] | None = None
    # the kind of reference work whose time normalizes this workload's calls
    reference: str = "interpreter"
    expected: dict[str, bytes] | None = None

    @property
    def out(self) -> Path:
        return self.work / "out"

    def clear(self) -> None:
        """Remove the previous call's outputs."""
        if self.out.exists():
            shutil.rmtree(self.out)

    def invoke(self, cli) -> str:
        return quiet_call(cli, self.argv)

    def check(self, stdout: str) -> CallResult:
        if self.eval_truth is not None:
            result, produced = self._check_eval(stdout), {"stdout": stdout.encode()}
        else:
            result, produced = self._check_run(), dir_bytes(self.out)
        if self.expected is None:
            self.expected = produced
        elif produced != self.expected:
            changed = sorted(k for k in self.expected if produced.get(k) != self.expected[k])
            raise CheckFailed(f"outputs differ from the first call with the same seed: {changed}")
        return result

    def _check_run(self) -> CallResult:
        names = sorted(p.name for p in self.out.iterdir())
        if names != sorted(self.artifacts):
            raise CheckFailed(f"artifact set {names} != expected {sorted(self.artifacts)}")
        rows = read_csv_rows(self.out / self.report_file)
        check_report_rows(rows, self.trainers, self.n_report_rows)
        result = CallResult()
        for trainer in self.trainers:
            lls = [float(r["ll"]) for r in rows if r["trainer"] == trainer]
            result.ll[trainer] = float(np.mean(lls))
        models = [self.out / n for n in names if n.startswith("model_")]
        if models:
            metas = [json.loads(p.read_text(encoding="utf-8"))["meta"] for p in models]
            result.unconverged = sum(not m["converged"] for m in metas)
        return result

    def _check_eval(self, stdout: str) -> CallResult:
        labels, preds = self.eval_truth
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"fsiw eval printed no JSON report: {exc}") from None
        if int(report["n_test"]) != labels.size:
            raise CheckFailed(f"n_test {report['n_test']} != {labels.size} rows")
        check_report_rows([dict(report, trainer="eval")], ("eval",), 1)
        expected = float(-np.mean(labels * np.log(preds) + (1 - labels) * np.log1p(-preds)))
        if abs(float(report["ll"]) - expected) > EVAL_LL_TOL:
            raise CheckFailed(f"eval ll {report['ll']!r} != numpy recomputation {expected!r}")
        return CallResult()


# what one-split `fsiw run` must write
RUN_ARTIFACTS = (
    "reports.csv",
    "reports.json",
    "manifest.json",
    "config_resolved.yaml",
    "weights_split0.tsv",
    *(f"model_split0_{t}.json" for t in TRAINERS),
)


def setup_scale(cli, work: Path, seed: int) -> Workload:
    raw = _simulate_tsv(cli, work, SCALE_CLICKS, seed)
    raw["optimizer"]["max_iter"] = SCALE_MAX_ITER
    cfg = _write_yaml(work / "run.yaml", raw)
    return Workload(
        work=work,
        argv=["run", "-c", str(cfg), "-o", str(work / "out")],
        rows=SCALE_CLICKS,
        artifacts=RUN_ARTIFACTS,
        n_report_rows=len(TRAINERS),
    )


def setup_battery(cli, work: Path, seed: int) -> Workload:
    cfg = _write_yaml(work / "run.yaml", fixed_budget(battery_config(BATTERY_CLICKS, seed)))
    return Workload(
        work=work,
        argv=["run", "-c", str(cfg), "-o", str(work / "out")],
        rows=BATTERY_CLICKS,
        artifacts=RUN_ARTIFACTS,
        n_report_rows=len(TRAINERS),
    )


def setup_sweep(cli, work: Path, seed: int) -> Workload:
    cfg = _write_yaml(work / "sweep.yaml", _simulate_tsv(cli, work, SWEEP_CLICKS, seed))
    return Workload(
        work=work,
        argv=["sweep", "-c", str(cfg), "-o", str(work / "out"), "--taus", SWEEP_TAUS],
        rows=SWEEP_CLICKS,
        artifacts=("sweep.csv", "sweep.json", "manifest.json"),
        trainers=("lr_fsiw",),
        n_report_rows=len(SWEEP_TAUS.split(",")),
        report_file="sweep.csv",
    )


def setup_eval(cli, work: Path, seed: int) -> Workload:
    """A label/prediction TSV from a seeded, well-calibrated-but-noisy scorer.

    Predictions stay inside [0.01, 0.99], so the program's probability clip
    never applies and the log loss has one exact reference value.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A1]))
    logit = rng.normal(-1.5, 1.0, EVAL_ROWS)
    labels = (rng.random(EVAL_ROWS) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    noisy = logit + rng.normal(0.0, 0.5, EVAL_ROWS)
    preds = np.clip(1.0 / (1.0 + np.exp(-noisy)), 0.01, 0.99)
    path = work / "preds.tsv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("label\tprediction\n")
        handle.writelines(f"{y}\t{p!r}\n" for y, p in zip(labels.tolist(), preds.tolist()))
    train_mean = float(rng.uniform(0.15, 0.25))
    argv = [
        "eval", "--preds", str(path), "--train-mean-cvr", repr(train_mean),
        "--bootstrap-b", str(EVAL_BOOTSTRAP_B), "--seed", str(seed),
    ]
    return Workload(
        work=work,
        argv=argv,
        rows=EVAL_ROWS,
        eval_truth=(labels, preds),
        reference="memory",
    )


SETUPS = {
    "scale": setup_scale,
    "battery": setup_battery,
    "sweep": setup_sweep,
    "eval": setup_eval,
}
