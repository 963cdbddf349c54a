"""End-to-end CLI checks, in process where no fresh interpreter is needed and
through real subprocesses where one is."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fsiw import cli
from fsiw.cli import main
from fsiw.experiment import _labeled_splits, config_from_dict
from fsiw.metrics import evaluate_predictions
from fsiw.optim import _DOT_CHUNK
from fsiw.training import RowGroups

from test_experiment import _base_dict, _fork_every_fit, _golden_configs, needs_two_cpus

DAY = 86400


def _fsiw(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "fsiw", *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(_base_dict()), encoding="utf-8")
    return path


def test_run_same_output_dir_twice_is_byte_identical(tmp_path, config_path) -> None:
    out = tmp_path / "out"
    first = _fsiw("run", "-c", str(config_path), "-o", str(out))
    assert first.returncode == 0, first.stderr
    assert "split 0 naive_lr:" in first.stdout
    names = sorted(p.name for p in out.iterdir())
    before = {name: (out / name).read_bytes() for name in names}

    second = _fsiw("run", "-c", str(config_path), "-o", str(out))
    assert second.returncode == 0, second.stderr
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == before[name], f"{name} changed between runs"
    assert first.stdout == second.stdout


def _cli(capsys, *argv: str) -> tuple[int, str, str]:
    """``fsiw`` with ``argv``, in process: its exit code, stdout and stderr."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_simulate_writes_log_and_truth(tmp_path, capsys, config_path) -> None:
    out = tmp_path / "sim"
    code, _, err = _cli(capsys, "simulate", "-c", str(config_path), "-o", str(out))
    assert code == 0, err
    data_lines = (out / "data.tsv").read_text(encoding="utf-8").splitlines()
    truth_lines = (out / "truth.tsv").read_text(encoding="utf-8").splitlines()
    assert len(data_lines) == 3000
    assert len(truth_lines) == 3001  # header + one row per sample


def test_seed_flag_controls_simulation(tmp_path, config_path) -> None:
    out1, out2, out3 = (tmp_path / n for n in ("s1", "s2", "s3"))
    for out, seed in ((out1, "7"), (out2, "7"), (out3, "8")):
        assert main(["simulate", "-c", str(config_path), "-o", str(out), "--seed", seed]) == 0
    assert (out1 / "data.tsv").read_bytes() == (out2 / "data.tsv").read_bytes()
    assert (out1 / "data.tsv").read_bytes() != (out3 / "data.tsv").read_bytes()


def test_set_override_reaches_the_simulator(tmp_path, capsys, config_path) -> None:
    out = tmp_path / "small"
    code, _, err = _cli(
        capsys, "simulate", "-c", str(config_path), "-o", str(out),
        "--set", "data.simulator.n_samples=500",
    )
    assert code == 0, err
    assert len((out / "data.tsv").read_text(encoding="utf-8").splitlines()) == 500


def test_stats_reports_delay_distribution(tmp_path, capsys, config_path) -> None:
    json_out = tmp_path / "stats.json"
    code, _, err = _cli(capsys, "stats", "-c", str(config_path), "--json-out", str(json_out))
    assert code == 0, err
    payload = json.loads(json_out.read_text(encoding="utf-8"))
    assert payload["n_conversions"] > 0
    assert len(payload["cdf"]) == len(payload["cdf_grid"])

    code, out, _ = _cli(capsys, "stats", "-c", str(config_path))
    assert code == 0
    assert json.loads(out)["n_conversions"] == payload["n_conversions"]


def test_stats_on_the_simulated_tsv_matches_the_simulator_source(
    tmp_path, capsys, config_path
) -> None:
    sim = tmp_path / "sim"
    assert _cli(capsys, "simulate", "-c", str(config_path), "-o", str(sim))[0] == 0
    from_config = _cli(capsys, "stats", "-c", str(config_path))
    from_tsv = _cli(
        capsys, "stats", "-c", str(config_path), "--data", str(sim / "data.tsv"),
        "--set", "data.schema=[{name: f0}, {name: f1}]",
    )
    assert from_config[0] == 0 and from_tsv[0] == 0, from_tsv[2]
    assert from_tsv[1] == from_config[1]


def test_stats_json_bytes_are_pinned_on_the_readme_config(tmp_path) -> None:
    config = tmp_path / "readme.yaml"
    config.write_text(yaml.safe_dump(_golden_configs()["readme"]), encoding="utf-8")
    json_out = tmp_path / "stats.json"
    assert main(["stats", "-c", str(config), "--json-out", str(json_out)]) == 0
    assert hashlib.sha256(json_out.read_bytes()).hexdigest() == (
        "a7c4c708f23b9cb5e68f87906dce19e6892fea7e03882556b09db498d4ff4254"
    )


@pytest.mark.parametrize(
    ("override", "message"),
    [
        ("hashing.dim=1000", "hashing.dim must be a power of two >= 2, got 1000"),
        ("hashing.dim=0", "hashing.dim must be a power of two >= 2, got 0"),
        ("hashing.dim=-4", "hashing.dim must be a power of two >= 2, got -4"),
        (f"hashing.seed={2**64}", "hashing.seed must fit in an unsigned 64-bit integer"),
    ],
)
def test_bad_hashing_config_exits_two(tmp_path, capsys, config_path, override, message) -> None:
    argv = ["run", "-c", str(config_path), "-o", str(tmp_path / "out"), "--set", override]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _eval(capsys, *argv: str) -> tuple[int, str, str]:
    """``fsiw eval`` with ``argv``, in process: its exit code, stdout and
    stderr."""
    return _cli(capsys, "eval", *argv)


def _eval_in_process(capsys, path, *flags: str) -> tuple[int, str, str]:
    return _eval(capsys, "--preds", str(path), "--bootstrap-b", "100", *flags)


def test_eval_matches_library_metrics(tmp_path, capsys) -> None:
    labels = [1, 0, 0, 1, 0, 0, 0, 1, 0, 0]
    preds = [0.8, 0.2, 0.3, 0.6, 0.1, 0.15, 0.4, 0.5, 0.05, 0.25]
    path = tmp_path / "preds.tsv"
    rows = ["label\tprediction"] + [f"{y}\t{p}" for y, p in zip(labels, preds)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    code, out, err = _eval(
        capsys, "--preds", str(path), "--train-mean-cvr", "0.3", "--bootstrap-b", "150",
        "--seed", "5",
    )
    assert code == 0, err
    got = json.loads(out)
    want = evaluate_predictions(labels, preds, 0.3, bootstrap_b=150, seed=5).to_flat_dict()
    assert got == want


@pytest.mark.parametrize(
    ("row", "message"),
    [
        ("1\t1.7", "prediction 1.7 is not a finite probability in [0, 1]"),
        ("1\tnan", "prediction nan is not a finite probability in [0, 1]"),
        ("2\t0.4", "label 2.0 is not 0 or 1"),
        ("1\tabc", "could not convert string to float"),
    ],
)
def test_eval_names_file_and_line_of_a_bad_row(tmp_path, capsys, row, message) -> None:
    path = tmp_path / "preds.tsv"
    path.write_text("label\tprediction\n0\t0.2\n\n1\t0.8\n" + row + "\n0\t0.1\n", encoding="utf-8")
    code, _, err = _eval_in_process(capsys, path)
    assert code == 2
    assert err.startswith(f"error: {path}:5: ")
    assert message in err


@pytest.mark.parametrize(
    ("first", "n_test"),
    [
        ("1e0\t0.3", 3),
        ("-0.0\t0.3", 3),
        ("+1\t0.6", 3),
        ("label\tprediction", 2),
        ("y\t0.3", 2),
    ],
)
def test_eval_reads_line_one_as_a_header_only_when_its_label_is_not_a_number(
    tmp_path, capsys, first, n_test
) -> None:
    path = tmp_path / "preds.tsv"
    path.write_text(first + "\n0\t0.2\n1\t0.7\n", encoding="utf-8")
    code, out, err = _eval_in_process(capsys, path)
    assert code == 0, err
    assert json.loads(out)["n_test"] == n_test


@pytest.mark.parametrize("label", [0, 1])
def test_eval_without_a_base_rate_names_the_mean_label(tmp_path, capsys, label) -> None:
    path = tmp_path / "preds.tsv"
    path.write_text(f"{label}\t0.2\n{label}\t0.7\n", encoding="utf-8")
    code, _, err = _eval_in_process(capsys, path)
    assert code == 2
    assert err.startswith(
        f"error: {path}: the mean test label is {label}, not a baseline rate in (0, 1), "
        "so --train-mean-cvr must be given"
    )
    assert "train_mean_cvr must be in" not in err


@pytest.mark.parametrize(
    ("text", "line_no", "message"),
    [
        ("label\tprediction\n0\t0.2\n\n0.4\n1\t0.7\n", 4, "expected 'label<TAB>prediction'"),
        ("0\t0.2\n1\t\n1\t0.7\n", 2, "expected 'label<TAB>prediction'"),
        ("0\t0.2\r\n \r\nyes\t0.4\r\n", 3, "could not convert string to float: 'yes'"),
        (
            "label\tprediction\n0\t0.2\n\t\n1\thigh\t0.1",
            4,
            "could not convert string to float: 'high'",
        ),
        ("0\t0.2\t9\n1\t0.7\n0\t\t0.1\n", 3, "could not convert string to float: ''"),
    ],
)
def test_eval_names_the_line_of_a_rejected_row(tmp_path, capsys, text, line_no, message) -> None:
    path = tmp_path / "preds.tsv"
    path.write_bytes(text.encode("utf-8"))
    code, out, err = _eval_in_process(capsys, path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}:{line_no}: {message}\n"


@pytest.mark.parametrize(
    "text",
    [
        "0\t0.2\n1\t0.7\n0\t0.4\n",
        "label\tprediction\n0\t0.2\n1\t0.7\n0\t0.4\n",
        "label\n0\t0.2\n1\t0.7\n0\t0.4\n",
        "\n0\t0.2\n  \n\t\n1\t0.7\n\n0\t0.4\n\n",
        "0\t0.2\r\n1\t0.7\r\n0\t0.4\r\n",
        "0\t0.2\r1\t0.7\r0\t0.4",
        "0\t0.2\n1\t0.7\n0\t0.4",
        "0\t0.2\tx\n1\t0.7\t1\t2\n0\t0.4\n",
        "0\t0.2\t\n 1\t0.7 \n0 \t 0.4\n",
        "0e0\t0.2\n+1\t0.7\n-0.0\t0.4\n",
    ],
)
def test_eval_reads_the_same_rows_from_every_layout(tmp_path, capsys, text) -> None:
    path = tmp_path / "preds.tsv"
    path.write_bytes(text.encode("utf-8"))
    code, out, err = _eval_in_process(capsys, path, "--seed", "3")
    assert (code, err) == (0, "")
    want = evaluate_predictions([0, 1, 0], [0.2, 0.7, 0.4], 1 / 3, bootstrap_b=100, seed=3)
    assert json.loads(out) == want.to_flat_dict()


# cells that np.loadtxt and float() read alike, read differently, or that
# only one of them reads
_ODD_CELLS = [
    " 0.5 ", "+1", "1e0", "-0.0", "nan", "inf", "1_0", "\x1c1", "\u0663", "abc", "0.5#", "",
]
_cells = st.one_of(st.floats().map(repr), st.sampled_from(_ODD_CELLS))
_rows = st.one_of(
    st.tuples(st.sampled_from(["0", "1"]), st.floats(0.0, 1.0).map(repr)),
    st.tuples(st.sampled_from(["0", "1"]) | _cells, _cells),
    st.tuples(st.sampled_from(["0", "1"]), st.floats(0.0, 1.0).map(repr), _cells),
).map("\t".join)


@st.composite
def _prediction_files(draw) -> bytes:
    """A label/prediction TSV: an optional header, then rows mixed with
    blank, whitespace-only and one-cell lines, with LF, CRLF or lone-CR line
    ends and with or without a final one."""
    header = draw(st.sampled_from([[], ["label\tprediction"], ["y"]]))
    lines = draw(st.lists(_rows | st.sampled_from(["", "  ", "\t", "1"]), max_size=6))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(header + lines) + draw(st.sampled_from(["", newline]))
    return text.encode("utf-8")


def _read_or_error(read, path):
    """The label and prediction columns that ``read`` gives, as the bits of
    their floats, or the message of its CliError."""
    try:
        columns = read(path)[:2]
    except cli.CliError as exc:
        return str(exc)
    return [np.asarray(column, float).view(np.int64).tolist() for column in columns]


def _eval_and_warnings(capsys, path) -> tuple[tuple[int, str, str], list[str]]:
    """``fsiw eval`` of ``path``, in process, and the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = _eval_in_process(capsys, path, "--seed", "3")
    return result, [str(warning.message) for warning in caught]


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=_prediction_files())
@example(data=b"label\tprediction\n0\t0.25\n1\t0.75\n")
@example(data=b"0\t 0.5 \n+1\t1e0\n-0.0\t0.3")
@example(data=b"0\t0.2\n\x1c1\t0.7\n")
@example(data="0\t0.2\n\u0663\t0.7\n".encode("utf-8"))
@example(data=b"0\t0.2\n1_0\t0.7\n")
@example(data=b"0\t0.2\n  \n1\t0.7\r")
@example(data=b"y\r\n0\t0.2\tx\t\r\n1\t0.7\r\n")
@example(data=b"0\tnan\n1\tinf\n")
@example(data=b"label\tprediction\n\n")
def test_numpys_reader_reads_every_file_as_the_python_reader(tmp_path, capsys, data) -> None:
    path = tmp_path / "preds.tsv"
    path.write_bytes(data)

    def python_reader(path):
        return cli._parse_predictions(path, path.read_text(encoding="utf-8"))

    assert _read_or_error(cli._read_predictions, path) == _read_or_error(python_reader, path)
    got = _eval_and_warnings(capsys, path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_loadtxt_columns", lambda text: None)
        assert got == _eval_and_warnings(capsys, path)


def test_eval_reads_a_benchmark_shaped_file_with_numpys_reader(tmp_path, capsys, monkeypatch):
    # the file perfbench's eval workload writes: a header, then y<TAB>repr(p)
    rng = np.random.default_rng(36)
    labels = (rng.random(2000) < 0.2).astype(int).tolist()
    preds = rng.uniform(0.01, 0.99, 2000).tolist()
    path = tmp_path / "preds.tsv"
    path.write_text(
        "label\tprediction\n" + "".join(f"{y}\t{p!r}\n" for y, p in zip(labels, preds)),
        encoding="utf-8",
    )

    def python_reader(*_):
        raise AssertionError("the file was read by the Python reader")

    monkeypatch.setattr(cli, "_parse_predictions", python_reader)
    code, out, err = _eval_in_process(capsys, path, "--train-mean-cvr", "0.2", "--seed", "4")
    assert (code, err) == (0, "")
    want = evaluate_predictions(labels, preds, 0.2, bootstrap_b=100, seed=4)
    assert json.loads(out) == want.to_flat_dict()


@pytest.mark.parametrize(
    ("text", "line_no"),
    [
        ("label\tprediction\r\n\r\n  \r\n0\t0.2\r\n1\t1.5\r\n", 5),
        ("\n\n0\t0.2\n\t\n1\t0.7\n \n1\t1.5", 7),
    ],
)
def test_eval_names_the_line_of_a_metric_input_error_after_blank_lines(
    tmp_path, capsys, text, line_no
) -> None:
    path = tmp_path / "preds.tsv"
    path.write_bytes(text.encode("utf-8"))
    code, out, err = _eval_in_process(capsys, path)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path}:{line_no}: prediction 1.5 is not a finite probability in [0, 1]\n"
    )


@pytest.mark.parametrize("text", ["", "\n \n", "label\tprediction\n\n"])
def test_eval_rejects_a_file_without_rows(tmp_path, capsys, text) -> None:
    path = tmp_path / "preds.tsv"
    path.write_text(text, encoding="utf-8")
    code, out, err = _eval_in_process(capsys, path)
    assert (code, out, err) == (2, "", f"error: {path}: no prediction rows\n")


def test_eval_with_a_base_rate_scores_a_file_of_positives(tmp_path, capsys) -> None:
    path = tmp_path / "preds.tsv"
    path.write_text("1\t0.2\n1\t0.7\n", encoding="utf-8")
    code, out, err = _eval_in_process(capsys, path, "--train-mean-cvr", "0.3")
    assert code == 0, err
    assert json.loads(out)["pr_auc"] == 1.0


def test_eval_with_a_base_rate_names_the_file_without_positives(tmp_path, capsys) -> None:
    path = tmp_path / "preds.tsv"
    path.write_text("0\t0.2\n0\t0.7\n", encoding="utf-8")
    code, _, err = _eval_in_process(capsys, path, "--train-mean-cvr", "0.3")
    assert code == 2
    assert err == f"error: {path}: average precision needs at least one positive label\n"


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (("--bootstrap-b", "99"), "--bootstrap-b must be at least 100, got 99"),
        (("--bootstrap-b", "0"), "--bootstrap-b must be at least 100, got 0"),
        (("--train-mean-cvr", "0"), "--train-mean-cvr must be in (0, 1), got 0.0"),
        (("--train-mean-cvr", "1"), "--train-mean-cvr must be in (0, 1), got 1.0"),
        (("--train-mean-cvr", "-0.2"), "--train-mean-cvr must be in (0, 1), got -0.2"),
        (("--train-mean-cvr", "nan"), "--train-mean-cvr must be in (0, 1), got nan"),
        (("--seed", "-1"), "--seed must be non-negative, got -1"),
    ],
)
def test_eval_rejects_bad_flags_before_reading_the_file(
    tmp_path, capsys, flags, message
) -> None:
    # the file does not exist: a flag error proves the file was never opened
    code, _, err = _eval(capsys, "--preds", str(tmp_path / "nope.tsv"), *flags)
    assert code == 2
    assert err == f"error: {message}\n"


def test_run_warns_on_stderr_for_each_unconverged_cvr_fit(tmp_path, config_path) -> None:
    # at 20 iterations dfm has converged (after 18) and the two logistic fits,
    # which need 24 and 25, have not
    out = tmp_path / "out"
    proc = _fsiw(
        "run", "-c", str(config_path), "-o", str(out),
        "--set", "optimizer.max_iter=20", "--set", "trainers=[naive_lr, lr_fsiw, dfm]",
    )
    assert proc.returncode == 0, proc.stderr
    metas = {
        p.stem.removeprefix("model_split0_"): json.loads(p.read_text(encoding="utf-8"))["meta"]
        for p in out.glob("model_split0_*.json")
    }
    unconverged = [t for t in ("naive_lr", "lr_fsiw", "dfm") if not metas[t]["converged"]]
    assert unconverged == ["naive_lr", "lr_fsiw"]  # warned in trainer order
    warnings = [line for line in proc.stderr.splitlines() if line.startswith("warning:")]
    assert warnings == [
        f"warning: split 0 {t}: CVR fit did not converge "
        f"(n_iter={metas[t]['n_iter']}, stopped_early={metas[t]['stopped_early']})"
        for t in unconverged
    ]
    assert "warning" not in proc.stdout
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["config_resolved.yaml", "manifest.json", "reports.csv", "reports.json",
         "weights_split0.tsv", "model_split0_naive_lr.json", "model_split0_lr_fsiw.json",
         "model_split0_dfm.json"]
    )


def test_sweep_warns_on_stderr_for_each_unconverged_cvr_fit(
    tmp_path, capsys, monkeypatch, config_path
) -> None:
    import fsiw.experiment

    sweep, swept = fsiw.experiment.deadline_sweep, []

    def recording_sweep(config, **kwargs):
        swept.extend(sweep(config, **kwargs))
        return swept

    monkeypatch.setattr(fsiw.experiment, "deadline_sweep", recording_sweep)
    argv = ["sweep", "-c", str(config_path), "-o", str(tmp_path / "out"), "--taus", "1d,2d"]
    assert main([*argv, "--set", "optimizer.max_iter=20"]) == 0
    expected = [
        f"warning: split {row.split} lr_fsiw tau {row.tau}s: CVR fit did not converge "
        f"(n_iter={row.fit.n_iter}, stopped_early={row.fit.stopped_early})"
        for row in swept
        if not row.fit.converged
    ]
    assert len(expected) == 2  # at 20 iterations neither deadline's fit converges
    out, err = capsys.readouterr()
    assert err.splitlines() == expected  # in row order
    assert "warning" not in out


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_a_weight_model_fallback_is_one_warning_line_naming_its_task(
    tmp_path, config_path, verb
) -> None:
    proc = _fsiw(
        verb, "-c", str(config_path), "-o", str(tmp_path / "out"), "--seed", "4",
        "--set", "data.simulator.n_samples=200", "--set", "data.simulator.cvr_bias=-4",
    )
    assert proc.returncode == 0, proc.stderr
    # no RuntimeWarning header and no source line: the one warning line alone
    assert proc.stderr == (
        "warning: split 0, trainer lr_fsiw, tau 172800s, weight model pos: weight-model data "
        "has a single s-class (0); falling back to a constant predictor at 0.0\n"
    )


def test_a_weight_model_that_runs_out_of_iterations_is_one_warning_line(
    tmp_path, config_path
) -> None:
    out = tmp_path / "out"
    proc = _fsiw(
        "run", "-c", str(config_path), "-o", str(out), "--set", "weight_model_pos.max_iter=2"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == (
        "warning: split 0, trainer lr_fsiw, tau 172800s, weight model pos: "
        "fit did not converge (n_iter=2)\n"
    )


# `fsiw run` (or `fsiw sweep`) with every split's dfm fit (FORK=dfm) or later
# deadlines (FORK=sweep) forked, whatever its size; the arguments after the
# verb are the CLI's. A row floor that fsiw.experiment lacks stops the script,
# rather than leaving the run in process. FAIL lists the functions that fail
# (train_dfm, train_naive_logistic, build_artificial_datasets), each raising,
# or, with ":kill", killing its process without a word; with "@N", only where
# the call's second argument (build_artificial_datasets' deadline) is N
_FORKED_RUN = """
import os
import signal
import sys

import fsiw.experiment
from fsiw.cli import main
from fsiw.training import TrainingError

ERRORS = {
    "train_dfm": TrainingError("dfm cannot be fitted"),
    "train_naive_logistic": TrainingError("naive_lr cannot be fitted"),
    "build_artificial_datasets": ValueError("no rows at this deadline"),
}

def failing(real, error, kill, at):
    def fail(*args, **kwargs):
        if at is not None and args[1] != at:
            return real(*args, **kwargs)
        if kill:
            os.kill(os.getpid(), signal.SIGKILL)
        raise error
    return fail

fork = os.environ["FORK"]
if fork:
    floor = {"dfm": "_FIT_FORK_MIN_ROWS", "sweep": "_FIT_FORK_MIN_ROWS"}[fork]
    if not hasattr(fsiw.experiment, floor):
        sys.exit(f"fsiw.experiment has no row floor {floor}")
    setattr(fsiw.experiment, floor, 0)
for name in filter(None, os.environ["FAIL"].split(",")):
    name, _, at = name.partition("@")
    name, _, how = name.partition(":")
    real, at = getattr(fsiw.experiment, name), int(at) if at else None
    setattr(fsiw.experiment, name, failing(real, ERRORS[name], how == "kill", at))
sys.exit(main(sys.argv[1:]))
"""


def _forked_run(
    *argv: str, verb: str = "run", fork: str = "", fail: str = "", env: dict | None = None
) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", _FORKED_RUN, verb, *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, **(env or {}), "FORK": fork, "FAIL": fail},
    )


def _check_forked_run_prints_as_in_process(
    tmp_path, config_path, fork: str, *flags: str, verb: str = "run"
) -> str:
    """A run (or sweep) with ``fork``'s task forked prints the lines and
    writes the bytes of the same call in process, under 2 BLAS threads;
    returns its stderr."""
    plain, forked = tmp_path / "plain", tmp_path / "forked"
    env = {"OPENBLAS_NUM_THREADS": "2"}
    argv = ("-c", str(config_path), *flags)
    expected = _forked_run(*argv, "-o", str(plain), verb=verb, fork="", env=env)
    proc = _forked_run(*argv, "-o", str(forked), verb=verb, fork=fork, env=env)
    assert proc.returncode == expected.returncode == 0, proc.stderr
    # the child never returns into main, so the run's lines appear once
    assert proc.stdout == expected.stdout.replace(str(plain), str(forked))
    assert proc.stderr == expected.stderr
    names = sorted(p.name for p in plain.iterdir())
    assert sorted(p.name for p in forked.iterdir()) == names
    for name in set(names) - {"config_resolved.yaml"}:  # which names its output_dir
        assert (forked / name).read_bytes() == (plain / name).read_bytes(), name
    return proc.stderr


@needs_two_cpus
def test_a_forked_dfm_prints_the_run_once_with_its_warning_lines(tmp_path, config_path) -> None:
    # every CVR fit stops unconverged, and the pos weight model too: four
    # warning lines, dfm's among them
    flags = ("--set", "trainers=[naive_lr,lr_fsiw,dfm]", "--set", "optimizer.max_iter=3",
             "--set", "weight_model_pos.max_iter=2")
    stderr = _check_forked_run_prints_as_in_process(tmp_path, config_path, "dfm", *flags)
    assert len(stderr.splitlines()) == 4
    assert stderr.splitlines()[-1].startswith("warning: split 0 dfm: CVR fit did not converge")


@pytest.mark.parametrize(
    "forked", [False, pytest.param(True, marks=needs_two_cpus)], ids=["in process", "forked"]
)
def test_a_weight_dump_that_cannot_be_written_names_its_cause(
    tmp_path, config_path, forked
) -> None:
    # a directory where the dump goes: the same error line whether or not
    # dfm's child is fitting while the parent writes the dump
    out = tmp_path / "out"
    (out / "weights_split0.tsv").mkdir(parents=True)
    argv = ("-c", str(config_path), "-o", str(out), "--set", "trainers=[naive_lr,lr_fsiw,dfm]")
    proc = _forked_run(*argv, fork="dfm") if forked else _fsiw("run", *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    path = out / "weights_split0.tsv"
    cause = f"[Errno 21] Is a directory: '{path}'"
    assert proc.stderr == f"error: split 0: could not write {path}: {cause}\n"


def _dfm_config(tmp_path, trainers: list[str]) -> str:
    path = tmp_path / "dfm.yaml"
    path.write_text(yaml.safe_dump(_base_dict(trainers=trainers)), encoding="utf-8")
    return str(path)


@needs_two_cpus
def test_a_forked_dfm_that_fails_is_one_error_line_naming_its_task(tmp_path) -> None:
    out = tmp_path / "out"
    config = _dfm_config(tmp_path, ["naive_lr", "lr_fsiw", "dfm"])
    proc = _forked_run("-c", config, "-o", str(out), fork="dfm", fail="train_dfm")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: split 0, trainer dfm: dfm cannot be fitted\n"
    assert not (out / "reports.csv").exists()


@needs_two_cpus
def test_a_forked_dfm_killed_by_a_signal_is_named_by_its_status(tmp_path) -> None:
    out = tmp_path / "out"
    config = _dfm_config(tmp_path, ["naive_lr", "lr_fsiw", "dfm"])
    proc = _forked_run("-c", config, "-o", str(out), fork="dfm", fail="train_dfm:kill")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: split 0, trainer dfm (fit exited with status -9)\n"


@needs_two_cpus
@pytest.mark.parametrize(
    ("trainers", "error"),
    [
        (["dfm", "naive_lr"], "split 0, trainer dfm: dfm cannot be fitted"),
        (["naive_lr", "dfm"], "split 0, trainer naive_lr: naive_lr cannot be fitted"),
    ],
    ids=["dfm_first", "dfm_last"],
)
def test_when_a_forked_dfm_and_another_task_fail_the_first_in_task_order_wins(
    tmp_path, trainers, error
) -> None:
    config = _dfm_config(tmp_path, trainers)
    fail = "train_dfm,train_naive_logistic"
    for fork in ("", "dfm"):  # in process, then forked
        proc = _forked_run("-c", config, "-o", str(tmp_path / "out"), fork=fork, fail=fail)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {error}\n"), fork


@needs_two_cpus
def test_a_forked_sweep_prints_its_lines_once_with_each_deadlines_warnings(
    tmp_path, config_path
) -> None:
    # the pos weight model stops unconverged at every tau: one warning line
    # each, in tau order, the child's after the parent's
    flags = ("--taus", "1d,2d,3d", "--set", "weight_model_pos.max_iter=2")
    stderr = _check_forked_run_prints_as_in_process(
        tmp_path, config_path, "sweep", *flags, verb="sweep"
    )
    assert [line for line in stderr.splitlines() if "weight model" in line] == [
        f"warning: split 0, trainer lr_fsiw, tau {tau}s, weight model pos: "
        "fit did not converge (n_iter=2)"
        for tau in (DAY, 2 * DAY, 3 * DAY)
    ]


@needs_two_cpus
def test_a_deadline_that_fails_in_a_sweeps_child_is_one_error_line_naming_it(
    tmp_path, config_path
) -> None:
    # the child fits 6d and 604799 s, which leaves D1 without rows
    out = tmp_path / "out"
    argv = ("-c", str(config_path), "-o", str(out), "--taus", "1d,6d,604799")
    proc = _forked_run(*argv, verb="sweep", fork="sweep")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: split 0, trainer lr_fsiw, tau 604799s, weight model pos: "
        "cannot fit a weight model on an empty dataset\n"
    )
    assert not out.exists()


@needs_two_cpus
def test_when_a_parent_and_a_child_deadline_of_a_sweep_fail_the_earlier_wins(
    tmp_path, config_path
) -> None:
    # neither deadline leaves D1 any rows; the parent fits the first, the
    # child the second
    argv = ("-c", str(config_path), "-o", str(tmp_path / "out"))
    error = (
        "error: split 0, trainer lr_fsiw, tau {}s, weight model pos: "
        "cannot fit a weight model on an empty dataset\n"
    )
    alone = _forked_run(*argv, "--taus", "604798", verb="sweep", fork="")
    assert (alone.returncode, alone.stderr) == (2, error.format(604798))
    for fork in ("", "sweep"):  # in process, then forked
        proc = _forked_run(*argv, "--taus", "604799,604798", verb="sweep", fork=fork)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error.format(604799)), fork


@needs_two_cpus
def test_a_sweeps_child_killed_by_a_signal_is_named_by_its_status_and_deadlines(
    tmp_path, config_path
) -> None:
    out = tmp_path / "out"
    argv = ("-c", str(config_path), "-o", str(out), "--taus", "1d,2d,3d")
    proc = _forked_run(
        *argv, verb="sweep", fork="sweep", fail=f"build_artificial_datasets:kill@{3 * DAY}"
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: split 0, trainer lr_fsiw, taus 172800s, 259200s (fit exited with status -9)\n"
    )
    assert not out.exists()


def test_a_sweep_that_cannot_fit_a_weight_model_names_its_deadline_and_side(
    tmp_path, capsys, config_path
) -> None:
    # 604799 s is one second short of the 7d training window, so no
    # conversion is late enough for D1 and the pos model has no rows
    out = tmp_path / "out"
    argv = ("sweep", "-c", str(config_path), "-o", str(out), "--taus", "1d,6d,604799")
    assert _cli(capsys, *argv) == (
        2,
        "",
        "error: split 0, trainer lr_fsiw, tau 604799s, weight model pos: "
        "cannot fit a weight model on an empty dataset\n",
    )
    assert not out.exists()


def test_a_metric_error_in_a_sweep_names_its_deadline(
    tmp_path, capsys, monkeypatch, config_path
) -> None:
    import fsiw.experiment

    # in process: the calls are counted in this process's memory, which no
    # child's count reaches
    monkeypatch.setattr(fsiw.experiment, "_FIT_FORK_MIN_ROWS", math.inf)
    predict, calls = fsiw.experiment.predict_cvr_batch, []

    def nan_at_the_second_tau(model, x):
        calls.append(model)
        preds = predict(model, x)
        return np.full_like(preds, np.nan) if len(calls) == 2 else preds

    monkeypatch.setattr(fsiw.experiment, "predict_cvr_batch", nan_at_the_second_tau)
    out = tmp_path / "out"
    assert main(["sweep", "-c", str(config_path), "-o", str(out), "--taus", "1d,2d"]) == 2
    assert capsys.readouterr().err == (
        "error: split 0, trainer lr_fsiw, tau 172800s: "
        "sample 0: prediction nan is not a finite probability in [0, 1]\n"
    )
    assert not out.exists()


@needs_two_cpus
def test_a_metric_error_in_a_forked_sweep_names_its_deadline(
    tmp_path, capsys, monkeypatch, config_path
) -> None:
    import fsiw.experiment

    fit_task = fsiw.experiment._fit_task

    def nan_at_the_second_tau(config, labeled, trainer, tau, *args):
        # chosen by the task's deadline, which the child that fits it knows
        fitted = fit_task(config, labeled, trainer, tau, *args)
        if tau != 2 * DAY:
            return fitted
        return replace(fitted, preds=np.full_like(fitted.preds, np.nan))

    monkeypatch.setattr(fsiw.experiment, "_fit_task", nan_at_the_second_tau)
    forks = _fork_every_fit(monkeypatch)
    out = tmp_path / "out"
    assert main(["sweep", "-c", str(config_path), "-o", str(out), "--taus", "1d,2d"]) == 2
    assert len(forks) == 1  # the child fits 2d
    assert capsys.readouterr().err == (
        "error: split 0, trainer lr_fsiw, tau 172800s: "
        "sample 0: prediction nan is not a finite probability in [0, 1]\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("seed", [2, 3, 5, 8])
def test_a_test_window_without_a_positive_label_fails_when_the_split_is_labeled(
    tmp_path, capsys, config_path, seed
) -> None:
    # 200 clicks at a base CVR of about 2%: these seeds leave the test day
    # without a conversion
    out = tmp_path / "out"
    argv = ["run", "-c", str(config_path), "-o", str(out), "--seed", str(seed)]
    sets = ["--set", "data.simulator.n_samples=200", "--set", "data.simulator.cvr_bias=-4"]
    assert main([*argv, *sets]) == 2
    assert capsys.readouterr() == ("", "error: split 0: no positive label in the test window\n")
    assert not out.exists()


@pytest.mark.parametrize(
    ("seed", "sha256"),
    [
        (1, "e06462269aa07e034e4b5dd0554be5b4d6660032b14ddbf1ec6c1980b9b3037d"),
        (7, "6e2e4c878ee368d51309017fc3961d7f752e02cfbb1fa32f4a869e5c468a44d8"),
    ],
)
def test_eval_stdout_bytes_are_pinned_on_many_bootstrap_blocks(
    tmp_path, capsys, seed, sha256
) -> None:
    # 30k rows and 200 resamples are drawn in many blocks, so the draws of
    # block after block (and the thread that draws ahead) meet the scoring
    rng = np.random.default_rng(seed)
    logit = rng.normal(-1.5, 1.0, 30_000)
    labels = (rng.random(logit.size) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    preds = np.clip(1.0 / (1.0 + np.exp(-(logit + rng.normal(0.0, 0.5, logit.size)))), 0.01, 0.99)
    path = tmp_path / "preds.tsv"
    path.write_text(
        "".join(f"{y}\t{p!r}\n" for y, p in zip(labels.tolist(), preds.tolist())),
        encoding="utf-8",
    )
    argv = ["eval", "--preds", str(path), "--train-mean-cvr", "0.2", "--seed", str(seed)]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


def test_eval_requires_existing_file(tmp_path, capsys) -> None:
    code, _, err = _eval(capsys, "--preds", str(tmp_path / "nope.tsv"))
    assert code == 2
    assert err.startswith("error:")


def test_sweep_emits_one_block_per_deadline(tmp_path, capsys, config_path) -> None:
    out = tmp_path / "sweep"
    code, stdout, err = _cli(
        capsys, "sweep", "-c", str(config_path), "-o", str(out), "--taus", "1d,2d"
    )
    assert code == 0, err
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert "tau 86400s:" in stdout and "tau 172800s:" in stdout


def test_bad_config_key_exits_two(tmp_path, capsys, config_path) -> None:
    argv = ("run", "-c", str(config_path), "-o", str(tmp_path / "x"), "--set", "bogus=1")
    code, _, err = _cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert "bogus" in err


@pytest.mark.parametrize(
    ("override", "message"),
    [
        ("hashing=5", "hashing: expected a mapping, got 5"),
        ("split.n_splits=abc", "split.n_splits: expected int, got 'abc'"),
        ("optimizer.eval_every=0", "bad optimizer config: eval_every = 0"),
        # rejected when the config is read, not as "split 0, trainer naive_lr: ..."
        ("l2=-1", "error: l2 must be finite and non-negative, got -1.0"),
        # non-finite numbers: an OverflowError traceback before they were checked
        ("tau=.inf", "error: tau: duration must be finite, got inf"),
        ("data.simulator.rate_spread=.inf", "data.simulator.rate_spread must be finite, got inf"),
        # finite values out of range: an OverflowError traceback, or a numpy
        # message that named no key
        pytest.param(
            "tau=" + "9" * 400,
            "error: tau: duration must fit in int64 seconds",
            id="tau-400-digits",
        ),
        pytest.param(
            "split.stride=" + "9" * 400,
            "error: split.stride: duration must fit in int64 seconds",
            id="split.stride-400-digits",
        ),
        (
            "data.simulator.time_span=1000000000000000000000000000000",
            "error: data.simulator.time_span: duration must fit in int64 seconds",
        ),
        (
            "data.simulator.rate_spread=1.0e+308",
            "error: data.simulator.rate_spread must be non-negative with a finite range",
        ),
        (
            "data.simulator.cvr_spread=-1",
            "error: data.simulator.cvr_spread must be non-negative with a finite range",
        ),
        ("data.simulator.n_samples=0", "error: data.simulator.n_samples must be positive, got 0"),
    ],
)
def test_malformed_config_value_exits_two_without_a_traceback(
    tmp_path, capsys, config_path, override, message
) -> None:
    argv = ["run", "-c", str(config_path), "-o", str(tmp_path / "out"), "--set", override]
    assert main(argv) == 2
    stderr = capsys.readouterr().err
    assert message in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "out").exists()  # nothing was fit or written


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (["sweep", "--taus", "2d,48h"], "tau lists 172800 more than once"),
        (["run", "--set", "trainers=[naive_lr, naive_lr]"],
         "trainers lists 'naive_lr' more than once"),
    ],
)
def test_a_repeated_tau_or_trainer_exits_two_with_one_error_line(
    tmp_path, capsys, config_path, flags, message
) -> None:
    out = tmp_path / "out"
    argv = [flags[0], "-c", str(config_path), "-o", str(out), *flags[1:]]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "case", ["run", "sweep", "stats", "stats --data", "eval --preds DIR", "run -c DIR"]
)
def test_a_bad_input_path_exits_two_with_one_error_line(tmp_path, capsys, case) -> None:
    # a missing file or a directory where a file belongs: the OSError's
    # message names the path
    missing = tmp_path / "missing.tsv"
    raw = _golden_configs()["tsv"]
    raw["data"]["path"] = str(missing)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    out = tmp_path / "out"
    argv, path = {
        "run": (["run", "-c", str(config), "-o", str(out)], missing),
        "sweep": (["sweep", "-c", str(config), "-o", str(out)], missing),
        "stats": (["stats", "-c", str(config)], missing),
        "stats --data": (["stats", "-c", str(config), "--data", str(tmp_path / "no.tsv")],
                         tmp_path / "no.tsv"),
        "eval --preds DIR": (["eval", "--preds", str(tmp_path)], tmp_path),
        "run -c DIR": (["run", "-c", str(tmp_path), "-o", str(out)], tmp_path),
    }[case]
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    assert str(path) in line
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "sweep", "simulate", "stats"])
@pytest.mark.parametrize("source", ["file", "--set"])
def test_malformed_yaml_exits_two_with_one_error_line(tmp_path, capsys, verb, source) -> None:
    config = tmp_path / "config.yaml"
    out = tmp_path / "out"
    if source == "file":
        config.write_text("seed: 3\ntrainers: [naive_lr, dfm\n", encoding="utf-8")
        flags, where = [], f"{config}, line 3, column 1"
    else:
        config.write_text(yaml.safe_dump(_base_dict()), encoding="utf-8")
        flags, where = ["--set", "trainers=[a"], "--set trainers, line 1, column 3"
    argv = [verb, "-c", str(config), *flags] + (["-o", str(out)] if verb != "stats" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {where}: invalid YAML: expected ',' or ']', but got '<stream end>'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        "seed: 3\ntrainers: [naive_lr, dfm]\ntau: 2d\n",
        "%YAML 1.3\n---\nseed: 3\n",  # a version libyaml refuses and PyYAML reads
    ],
)
def test_yaml_is_read_as_pyyaml_reads_it(text) -> None:
    assert cli._parse_yaml(text, "config.yaml") == yaml.safe_load(text)


def test_a_control_character_in_yaml_exits_two_with_one_error_line(tmp_path, capsys) -> None:
    # the YAML reader rejects it before parsing, so the error has no line or column
    config = tmp_path / "config.yaml"
    config.write_text("seed: 3\x07\n", encoding="utf-8")
    assert main(["stats", "-c", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: invalid YAML: "
        "unacceptable character #x0007: special characters are not allowed\n"
    )


@pytest.mark.parametrize("kind", ["config", "click log", "predictions"])
def test_a_file_that_is_not_utf8_is_named_in_the_error(tmp_path, capsys, kind) -> None:
    clicks, config, preds = tmp_path / "clicks.tsv", tmp_path / "config.yaml", tmp_path / "p.tsv"
    raw = _golden_configs()["tsv"]
    raw["data"]["path"] = str(clicks)
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    clicks.write_bytes(b"100\t\ta\t1.0\n200\t\tb\xff\t1.0\n")
    preds.write_bytes(b"0\t0.5\r\n1\t0.\xff7\r\n")
    out = tmp_path / "out"
    argv, message = {
        "config": (
            ["run", "-c", str(config), "-o", str(out)],
            f"{config}: 'utf-8' codec can't decode byte 0xff in position 9: invalid start byte",
        ),
        "click log": (
            ["run", "-c", str(config), "-o", str(out)],
            f"{clicks}: 'utf-8' codec can't decode byte 0xff (line 2)",
        ),
        "predictions": (
            ["eval", "--preds", str(preds)],
            f"{preds}:2: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte",
        ),
    }[kind]
    if kind == "config":
        config.write_bytes(b"seed: 3\n#\xff\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "stats --data"])
def test_a_row_that_does_not_parse_is_named_with_its_file(tmp_path, capsys, verb) -> None:
    # stats --data reads its own file, not the config's data.path
    bad, config = tmp_path / "bad.tsv", tmp_path / "config.yaml"
    bad.write_text("100\t\ta\t1.0\nx\t\tb\t1.0\n", encoding="utf-8")
    raw = _golden_configs()["tsv"]
    raw["data"]["path"] = str(bad if verb == "run" else tmp_path / "missing.tsv")
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "run": ["run", "-c", str(config), "-o", str(out)],
        "stats --data": ["stats", "-c", str(config), "--data", str(bad)],
    }[verb]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: bad click timestamp 'x' (line 2, column 1)\n"
    assert not out.exists()


def test_stats_on_a_delay_too_long_for_its_pdf_exits_two_naming_it(tmp_path, capsys) -> None:
    # read_tsv accepts the row; its hourly PDF would need 17.8 PiB
    data, config = tmp_path / "long.tsv", tmp_path / "config.yaml"
    data.write_text("0\t9000000000000000000\ta\t1.0\n", encoding="utf-8")
    config.write_text(yaml.safe_dump(_golden_configs()["tsv"]), encoding="utf-8")
    assert main(["stats", "-c", str(config), "--data", str(data)]) == 2
    assert capsys.readouterr() == (
        "",
        "error: longest delay 9000000000000000000s needs 2500000000000001 pdf bins of "
        "3600s, more than 1048576\n",
    )


_BLAS_PROBE = """
import contextlib, io, os, sys
from fsiw.cli import main
with contextlib.redirect_stderr(io.StringIO()):
    main(["eval", "--preds", sys.argv[1]])
print(os.environ.get("OPENBLAS_NUM_THREADS"), os.environ.get("OMP_NUM_THREADS"))
"""


@pytest.mark.parametrize(
    ("user", "expected"),
    [({}, "1 1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3 1")],
    ids=["unset", "set_by_the_user"],
)
def test_the_cli_gives_blas_one_thread_unless_the_user_set_it(tmp_path, user, expected) -> None:
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE, str(tmp_path / "missing.tsv")],
        capture_output=True,
        text=True,
        timeout=120,
        env={**env, **user},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected + "\n", "")


def test_a_run_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path) -> None:
    # a field of 100k values at hashing.dim 2^16: the CVR fits' rows touch
    # more columns, and hold more distinct rows, than one ddot block
    # (optim.dot), where OpenBLAS would split a plain product over its threads
    config = tmp_path / "config.yaml"
    raw = _base_dict(trainers=["naive_lr", "lr_fsiw", "dfm"], hashing={"dim": 1 << 16, "seed": 0})
    raw["data"]["simulator"].update(n_samples=18000, field_cardinalities=[100_000, 8])
    (labeled,) = _labeled_splits(config_from_dict(raw))
    groups = RowGroups(labeled.train.x)
    assert min(groups.cols.size, groups.first.size) > _DOT_CHUNK
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    out = tmp_path / "out"
    written = {}
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "fsiw", "run", "-c", str(config), "-o", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        written[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        for path in out.iterdir():
            path.unlink()
    assert "model_split0_dfm.json" in written["1"]
    assert written["1"].keys() == written["2"].keys()
    for name, data in written["1"].items():
        assert written["2"][name] == data, name


def test_main_in_a_process_that_loaded_numpy_leaves_the_environment_alone(
    tmp_path, capsys, monkeypatch
) -> None:
    # numpy has read its BLAS setting already; setting one now would only
    # reach child processes
    assert "numpy" in sys.modules
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert _eval(capsys, "--preds", str(tmp_path / "missing.tsv"))[0] == 2
    assert dict(os.environ) == before


@pytest.mark.parametrize("item", ["=1", "split..x=1"])
def test_an_empty_name_in_set_quotes_the_whole_item(capsys, item) -> None:
    # these failed as "unknown key(s) in config: " and "... in split: ",
    # naming no key
    assert main(["stats", "--set", item]) == 2
    assert capsys.readouterr().err == (
        f"error: --set expects dotted.name=value with no empty name, got {item!r}\n"
    )


@pytest.mark.parametrize("override", ["observational_period=1d", "tracked_until=5", "path=x.tsv"])
def test_tsv_only_data_key_on_a_simulator_exits_two(
    tmp_path, capsys, config_path, override
) -> None:
    # a simulator reads none of these, and none reaches the resolved config or its hash
    out = tmp_path / "out"
    assert main(["run", "-c", str(config_path), "-o", str(out), "--set", f"data.{override}"]) == 2
    key = override.partition("=")[0]
    assert capsys.readouterr().err == f"error: data.{key} is for tsv data, not a simulator\n"
    assert not out.exists()


@pytest.mark.parametrize(
    ("verb", "override"),
    [
        # delays around 2**62 s, so some conversion times pass 2**63 s
        pytest.param("run", "mean_delay=4611686018427387904", id="run"),
        pytest.param("simulate", "mean_delay=4611686018427387904", id="simulate"),
        # rates that overflow to inf or underflow to 0: no numpy warning on stderr
        pytest.param("run", "rate_spread=1.0e+300", id="run-rate_spread"),
        pytest.param("simulate", "rate_spread=1.0e+300", id="simulate-rate_spread"),
    ],
)
def test_conversion_time_past_int64_names_the_simulator_keys(
    tmp_path, config_path, verb, override
) -> None:
    proc = _fsiw(
        verb, "-c", str(config_path), "-o", str(tmp_path / "out"),
        "--set", "data.simulator.n_samples=600",
        "--set", f"data.simulator.{override}",
    )
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: row ") and "does not fit in int64 seconds" in line
    assert line.endswith("lower data.simulator.mean_delay or rate_spread")
    assert not (tmp_path / "out").exists()  # the error came before anything was written


@pytest.mark.parametrize(
    ("taus", "message"),
    [
        ("30d", "error: tau 2592000 must lie strictly inside the training window (604800s)\n"),
        (",", "error: tau must contain at least one deadline\n"),
        ("", "error: tau must contain at least one deadline\n"),
    ],
)
def test_sweep_rejects_bad_taus_when_the_config_is_read(
    tmp_path, capsys, config_path, taus, message
) -> None:
    argv = ["sweep", "-c", str(config_path), "-o", str(tmp_path / "out"), "--taus", taus]
    assert main(argv) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


def test_sweep_taus_flag_writes_what_setting_tau_writes(tmp_path, config_path) -> None:
    # --taus is shorthand for --set tau=[...]: same deadlines, same config
    # hash in manifest.json, same bytes
    outs = tmp_path / "taus", tmp_path / "set"
    for out, flags in zip(outs, (["--taus", "1d,2d"], ["--set", "tau=[1d,2d]"])):
        assert main(["sweep", "-c", str(config_path), "-o", str(out), *flags]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["manifest.json", "sweep.csv", "sweep.json"]
    assert sorted(p.name for p in outs[1].iterdir()) == names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

def test_run_rejects_a_negative_seed_flag_when_the_config_is_read(
    tmp_path, capsys, config_path
) -> None:
    argv = ("run", "-c", str(config_path), "-o", str(tmp_path / "out"), "--seed", "-3")
    assert _cli(capsys, *argv) == (2, "", "error: seed must be non-negative, got -3\n")
    assert not (tmp_path / "out").exists()


def test_pipeline_error_exits_two_with_one_line(tmp_path, capsys, config_path) -> None:
    # no click converts, so the first split has no positive training label
    argv = (
        "run", "-c", str(config_path), "-o", str(tmp_path / "out"),
        "--set", "data.simulator.cvr_bias=-60",
    )
    assert _cli(capsys, *argv) == (
        2, "", "error: split 0: degenerate training labels (mean y = 0.0)\n"
    )
    assert not (tmp_path / "out").exists()  # every split is labeled before out/ is made


def test_missing_config_file_exits_two(tmp_path, capsys) -> None:
    code, _, err = _cli(capsys, "run", "-c", str(tmp_path / "absent.yaml"))
    assert code == 2
    assert "not found" in err
