"""Command-line interface.

Verbs:
  simulate  generate a synthetic click log (TSV + ground-truth sidecar)
  stats     delay-distribution summary of a click log
  run       full train/evaluate pipeline over rolling splits
  sweep     re-run the weighted pipeline across counterfactual deadlines
  eval      score a dumped (label, prediction) file

Every config field can be overridden with --set dotted.name=value; values are
parsed as YAML scalars, so numbers, booleans, lists, and durations all work.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from .data import ParseError, read_tsv
from .experiment import (
    ConfigError,
    ExperimentConfig,
    PipelineError,
    config_from_dict,
    deadline_sweep,
    load_source,
    parse_duration,
    run_pipeline,
)
from .metrics import MetricInputError, delay_stats, evaluate_predictions
from .simulate import generate_arrays, write_sim_tsv, write_truth
from .training import TrainingError


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _set_dotted(raw: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = raw
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def _load_raw_config(args) -> dict:
    if args.config is None:
        raw: dict = {}
    else:
        path = Path(args.config)
        if not path.exists():
            raise CliError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle) or {}
        if not isinstance(raw, dict):
            raise CliError(f"config file must contain a mapping: {path}")
    for item in args.set or []:
        if "=" not in item:
            raise CliError(f"--set expects dotted.name=value, got {item!r}")
        key, _, value = item.partition("=")
        _set_dotted(raw, key.strip(), yaml.safe_load(value))
    if args.seed is not None:
        raw["seed"] = args.seed
    if getattr(args, "out", None):
        raw["output_dir"] = args.out
    return raw


def _build_config(args) -> ExperimentConfig:
    return config_from_dict(_load_raw_config(args))


def cmd_simulate(args) -> int:
    config = _build_config(args)
    if config.data.kind != "simulator":
        raise CliError("simulate requires data.kind=simulator")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    arrays = generate_arrays(config.data.simulator.build(config.seed))
    write_sim_tsv(arrays, out / "data.tsv")
    write_truth(arrays, out / "truth.tsv")
    print(f"wrote {out / 'data.tsv'} ({arrays.n} rows) and {out / 'truth.tsv'}")
    return 0


def cmd_stats(args) -> int:
    config = _build_config(args)
    if args.data:
        if not config.data.schema:
            raise CliError("stats on a TSV needs data.schema in the config")
        log = read_tsv(
            args.data, list(config.data.schema), dim=config.hash_dim, seed=config.hash_seed
        )
    else:
        log = load_source(config)[0]
    stats = delay_stats(log.click_ts, log.conv_ts)
    payload = json.dumps(stats.to_dict(), sort_keys=True, indent=2)
    if args.json_out:
        Path(args.json_out).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {args.json_out}")
    else:
        print(payload)
    return 0


def cmd_run(args) -> int:
    config = _build_config(args)
    rows = run_pipeline(config)
    out = Path(config.output_dir)
    print(f"wrote {out / 'reports.csv'} ({len(rows)} rows)")
    for row in rows:
        flat = row.report
        print(
            f"split {row.split} {row.trainer}: ll={flat.ll:.6f} "
            f"nll={flat.nll:.4f} pr_auc={flat.pr_auc:.6f}"
        )
        if not row.fit.converged:
            print(
                f"warning: split {row.split} {row.trainer}: CVR fit did not converge "
                f"(n_iter={row.fit.n_iter}, stopped_early={row.fit.stopped_early})",
                file=sys.stderr,
            )
    return 0


def cmd_sweep(args) -> int:
    config = _build_config(args)
    taus = None
    if args.taus:
        taus = [parse_duration(t, "taus") for t in args.taus.split(",") if t.strip()]
    rows = deadline_sweep(config, taus)
    out = Path(config.output_dir)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    by_tau: dict[int, list[float]] = {}
    for row in rows:
        by_tau.setdefault(row.tau, []).append(row.report.ll)
    for tau in sorted(by_tau):
        lls = by_tau[tau]
        print(f"tau {tau}s: mean ll={np.mean(lls):.6f} over {len(lls)} split(s)")
    return 0


def cmd_eval(args) -> int:
    if args.bootstrap_b < 100:
        raise CliError(f"--bootstrap-b must be at least 100, got {args.bootstrap_b}")
    if args.train_mean_cvr is not None and not 0.0 < args.train_mean_cvr < 1.0:
        raise CliError(f"--train-mean-cvr must be in (0, 1), got {args.train_mean_cvr}")
    labels: list[float] = []
    preds: list[float] = []
    line_nos: list[int] = []
    path = Path(args.preds)
    if not path.exists():
        raise CliError(f"prediction file not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if line_no == 1:
                try:
                    float(parts[0])
                except ValueError:
                    continue  # header row: its label field is not a number
            if len(parts) < 2:
                raise CliError(f"{path}:{line_no}: expected 'label<TAB>prediction'")
            try:
                labels.append(float(parts[0]))
                preds.append(float(parts[1]))
            except ValueError as exc:
                raise CliError(f"{path}:{line_no}: {exc}") from exc
            line_nos.append(line_no)
    if not labels:
        raise CliError(f"{path}: no prediction rows")
    base = args.train_mean_cvr
    if base is None:
        base = float(np.mean(labels))
        if base in (0.0, 1.0):
            also = " (and average precision needs a positive label)" if base == 0.0 else ""
            raise CliError(
                f"{path}: the mean test label is {int(base)}, not a baseline rate in (0, 1), "
                f"so --train-mean-cvr must be given{also}"
            )
    try:
        report = evaluate_predictions(
            labels, preds, base, bootstrap_b=args.bootstrap_b, seed=args.seed or 0
        )
    except MetricInputError as exc:
        raise CliError(f"{path}:{line_nos[exc.index]}: {exc.detail}") from exc
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    print(json.dumps(report.to_flat_dict(), sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsiw",
        description="Delayed-feedback CVR training with feedback-shift importance weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_out: bool = True) -> None:
        p.add_argument("-c", "--config", help="YAML config file")
        p.add_argument("--seed", type=int, help="override the global seed")
        p.add_argument(
            "--set",
            action="append",
            metavar="dotted.name=value",
            help="override any config field (repeatable)",
        )
        if with_out:
            p.add_argument("-o", "--out", help="override output_dir")

    p_sim = sub.add_parser("simulate", help="generate a synthetic click log")
    common(p_sim)
    p_sim.set_defaults(handler=cmd_simulate)

    p_stats = sub.add_parser("stats", help="delay-distribution summary")
    common(p_stats, with_out=False)
    p_stats.add_argument("--data", help="TSV click log (defaults to the configured source)")
    p_stats.add_argument("--json-out", help="write the summary to this file")
    p_stats.set_defaults(handler=cmd_stats)

    p_run = sub.add_parser("run", help="run the train/evaluate pipeline")
    common(p_run)
    p_run.set_defaults(handler=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep the counterfactual deadline")
    common(p_sweep)
    p_sweep.add_argument("--taus", help="comma-separated deadlines, e.g. 3d,4d,5d")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_eval = sub.add_parser("eval", help="score a label/prediction TSV")
    p_eval.add_argument("--preds", required=True, help="TSV with label and prediction columns")
    p_eval.add_argument(
        "--train-mean-cvr",
        type=float,
        help="baseline rate for normalized log loss (default: mean test label)",
    )
    p_eval.add_argument("--bootstrap-b", type=int, default=200)
    p_eval.add_argument("--seed", type=int)
    p_eval.set_defaults(handler=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ConfigError, ParseError, TrainingError, PipelineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
