"""Command-line interface.

Verbs:
  simulate  generate a synthetic click log (TSV + ground-truth sidecar)
  stats     delay-distribution summary of a click log
  run       full train/evaluate pipeline over rolling splits
  sweep     re-run the weighted pipeline across counterfactual deadlines
  eval      score a dumped (label, prediction) file

Every config field can be overridden with --set dotted.name=value; values are
parsed as YAML scalars, so numbers, booleans, lists, and durations all work.

Each verb imports the modules it runs inside its own function, so importing
this module loads no other ``fsiw`` module and neither numpy, scipy nor
PyYAML: ``eval`` loads ``fsiw.metrics`` alone, and PyYAML is loaded where a
config is read. That lets ``main`` give BLAS one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .experiment import ExperimentConfig, ReportRow


class CliError(Exception):
    """A bad command-line argument or input file; exits with code 2."""


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


def _parse_yaml(text: str, source: str):
    """``text`` parsed as YAML; a syntax error is a CliError that names
    ``source`` and the line and column of the problem.

    libyaml's parser (``CSafeLoader``) reads the text where PyYAML has it;
    text it refuses is parsed again by PyYAML's own, so that the message and
    position of an error are PyYAML's."""
    import yaml

    try:
        return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError:
        pass
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f", line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or str(exc).partition("\n")[0]
        raise CliError(f"{source}{where}: invalid YAML: {problem}") from None


def _load_raw_config(args) -> dict:
    if args.config is None:
        raw: dict = {}
    else:
        path = Path(args.config)
        if not path.exists():
            raise CliError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise CliError(f"{path}: {exc}") from None
        raw = _parse_yaml(text, str(path)) or {}
        if not isinstance(raw, dict):
            raise CliError(f"config file must contain a mapping: {path}")
    for item in args.set or []:
        if "=" not in item:
            raise CliError(f"--set expects dotted.name=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if not all(part.strip() for part in key.split(".")):
            raise CliError(f"--set expects dotted.name=value with no empty name, got {item!r}")
        _set_dotted(raw, key, _parse_yaml(value, f"--set {key}"))
    if args.seed is not None:
        raw["seed"] = args.seed
    if getattr(args, "out", None):
        raw["output_dir"] = args.out
    if getattr(args, "taus", None) is not None:  # sweep's shorthand for --set tau=[...]
        raw["tau"] = [t for t in args.taus.split(",") if t.strip()]
    return raw


def _build_config(args) -> ExperimentConfig:
    from .experiment import config_from_dict

    return config_from_dict(_load_raw_config(args))


def cmd_simulate(args) -> int:
    from .simulate import check_conv_ts, generate_arrays, write_sim_tsv, write_truth

    config = _build_config(args)
    if config.data.kind != "simulator":
        raise CliError("simulate requires data.kind=simulator")
    arrays = generate_arrays(config.data.simulator.build(config.seed))
    check_conv_ts(arrays)  # before mkdir: a world that cannot be written leaves no directory
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_sim_tsv(arrays, out / "data.tsv")
    write_truth(arrays, out / "truth.tsv")
    print(f"wrote {out / 'data.tsv'} ({arrays.n} rows) and {out / 'truth.tsv'}")
    return 0


def cmd_stats(args) -> int:
    from .data import read_tsv
    from .experiment import load_source
    from .metrics import delay_stats

    config = _build_config(args)
    if args.data:
        if not config.data.schema:
            raise CliError("stats on a TSV needs data.schema in the config")
        log = read_tsv(
            args.data, list(config.data.schema), dim=config.hashing.dim, seed=config.hashing.seed
        )
    else:
        log = load_source(config)[0]
    payload = json.dumps(delay_stats(log.click_ts, log.conv_ts), sort_keys=True, indent=2)
    if args.json_out:
        Path(args.json_out).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {args.json_out}")
    else:
        print(payload)
    return 0


def _warn_if_unconverged(row: ReportRow, fit_name: str) -> None:
    """One stderr warning line if the CVR fit of a report row stopped without
    converging, naming its split and ``fit_name``."""
    if not row.fit.converged:
        print(
            f"warning: split {row.split} {fit_name}: CVR fit did not converge "
            f"(n_iter={row.fit.n_iter}, stopped_early={row.fit.stopped_early})",
            file=sys.stderr,
        )


def _print_warning(message, *_) -> None:
    """``warnings.showwarning`` for run and sweep: one stderr ``warning:``
    line holding the message alone."""
    print(f"warning: {message}", file=sys.stderr)


def cmd_run(args) -> int:
    from .experiment import run_pipeline

    config = _build_config(args)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        rows = run_pipeline(config)
    out = Path(config.output_dir)
    print(f"wrote {out / 'reports.csv'} ({len(rows)} rows)")
    for row in rows:
        flat = row.report
        print(
            f"split {row.split} {row.trainer}: ll={flat.ll:.6f} "
            f"nll={flat.nll:.4f} pr_auc={flat.pr_auc:.6f}"
        )
        _warn_if_unconverged(row, row.trainer)
    return 0


def cmd_sweep(args) -> int:
    import numpy as np

    from .experiment import deadline_sweep

    config = _build_config(args)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        rows = deadline_sweep(config)
    out = Path(config.output_dir)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    by_tau: dict[int, list[float]] = {}
    for row in rows:
        by_tau.setdefault(row.tau, []).append(row.report.ll)
        _warn_if_unconverged(row, f"{row.trainer} tau {row.tau}s")
    for tau in sorted(by_tau):
        lls = by_tau[tau]
        print(f"tau {tau}s: mean ll={np.mean(lls):.6f} over {len(lls)} split(s)")
    return 0


def _is_header(line: str) -> bool:
    """Whether the stripped line 1 of a label/prediction TSV is a header: it
    is not blank and its first cell is not a number."""
    try:
        float(line.split("\t", 1)[0])
    except ValueError:
        return bool(line)
    return False


def _read_predictions(path: Path) -> tuple[np.ndarray, np.ndarray, str]:
    """Labels and predictions of the rows of a label/prediction TSV, and the
    file's text, from which ``_parse_predictions`` gives each row's line.

    ``_loadtxt_columns`` reads the rows; a file it refuses is read by
    ``_parse_predictions``."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # the whole file was decoded at once, so exc.start is its byte offset;
        # bytes.splitlines breaks lines where text mode does
        line_no = len((exc.object[: exc.start] + b".").splitlines())
        raise CliError(f"{path}:{line_no}: {exc}") from None
    columns = _loadtxt_columns(text)
    labels, preds = _parse_predictions(path, text)[:2] if columns is None else columns
    return labels, preds, text


# printable ASCII, tab and newline (read_text has turned every CR into one)
_LOADTXT_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n"


def _loadtxt_columns(text: str) -> np.ndarray | None:
    """The label and prediction columns of the text of a label/prediction
    TSV as numpy's C reader (``np.loadtxt``) reads them, converting each cell
    with the routine ``float`` uses; None where it could read a row otherwise
    than ``_parse_predictions`` does, or refuses the text.

    Text with a byte outside ``_LOADTXT_BYTES`` is not tried: ``np.loadtxt``
    skips \\x1c-\\x1f as whitespace and rejects Unicode digits, and ``float``
    does the opposite. ``np.loadtxt`` skips only empty lines, and raises on a
    line of blanks, on a row of one cell and on a cell such as ``1_0``."""
    import numpy as np

    if text.encode("utf-8").translate(None, _LOADTXT_BYTES):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # its warning on no rows
            table = np.loadtxt(
                io.StringIO(text), dtype=float, comments=None, delimiter="\t",
                skiprows=int(_is_header(text.partition("\n")[0].strip())),
                usecols=(0, 1), ndmin=2,
            )
    except ValueError:
        return None
    # no rows: _parse_predictions raises the error that names the file
    return np.ascontiguousarray(table.T) if len(table) else None


def _parse_predictions(path: Path, text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels, predictions and 1-based line numbers of the rows of the text
    of a label/prediction TSV.

    Lines are stripped, blank ones are skipped, columns after the second are
    ignored, and line 1 is a header when its first cell is not a number. The
    rows are parsed as columns: one split of all cells and one ``float`` per
    cell. A row that does not parse raises there without saying where; the
    lines are then checked one by one by ``_check_prediction_lines``, whose
    CliError names the first bad line."""
    import numpy as np

    lines = list(map(str.strip, text.split("\n")))
    kept = np.fromiter(map(bool, lines), bool, len(lines))
    rows = list(filter(None, lines))
    if _is_header(lines[0]):
        kept[0] = False
        del rows[0]
    n = len(rows)
    if n == 0:
        raise CliError(f"{path}: no prediction rows")
    try:
        if not all("\t" in row for row in rows):
            raise ValueError("a row without a prediction")
        cells = "\t".join(rows).split("\t")
        if len(cells) > 2 * n:  # extra columns
            cells = [cell for row in rows for cell in row.split("\t", 2)[:2]]
        labels = np.fromiter(map(float, cells[0::2]), float, n)
        preds = np.fromiter(map(float, cells[1::2]), float, n)
    except ValueError:
        _check_prediction_lines(path, lines)
        raise  # every line passed the check that a column rejected
    return labels, preds, np.flatnonzero(kept) + 1


def _check_prediction_lines(path: Path, lines: list[str]) -> None:
    """Raise CliError at the first of these stripped lines of a
    label/prediction TSV that is not blank, the header or a row with a
    numeric label and prediction."""
    for line_no, line in enumerate(lines, start=1):
        if not line:
            continue
        if line_no == 1 and _is_header(line):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise CliError(f"{path}:{line_no}: expected 'label<TAB>prediction'")
        try:
            float(parts[0])
            float(parts[1])
        except ValueError as exc:
            raise CliError(f"{path}:{line_no}: {exc}") from exc


def cmd_eval(args) -> int:
    import numpy as np

    from .metrics import MetricInputError, evaluate_predictions

    if args.bootstrap_b < 100:
        raise CliError(f"--bootstrap-b must be at least 100, got {args.bootstrap_b}")
    if args.seed is not None and args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}")
    if args.train_mean_cvr is not None and not 0.0 < args.train_mean_cvr < 1.0:
        raise CliError(f"--train-mean-cvr must be in (0, 1), got {args.train_mean_cvr}")
    path = Path(args.preds)
    if not path.exists():
        raise CliError(f"prediction file not found: {path}")
    labels, preds, text = _read_predictions(path)
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
        line_nos = _parse_predictions(path, text)[2]
        raise CliError(f"{path}:{int(line_nos[exc.index])}: {exc.detail}") from exc
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
    p_sweep.add_argument("--taus", help="comma-separated deadlines, e.g. 3d,4d,5d (sets tau)")
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
    # one BLAS thread unless the user set a count. No fit needs the cap
    # (optim.dot keeps each product on one thread), but numpy loads in half
    # the time: 53-60 ms against 113-156 ms at two threads on a 2-vCPU VM.
    # numpy reads the count as it loads, so a caller that loaded it keeps
    # its own
    if "numpy" not in sys.modules:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            os.environ.setdefault(name, "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    # ConfigError and ParseError are ValueErrors; an OSError's message names its path
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # imported only here: an except tuple is evaluated whenever an
        # exception reaches it, so naming these above would load scipy
        from .experiment import PipelineError
        from .training import TrainingError

        if not isinstance(exc, (PipelineError, TrainingError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
