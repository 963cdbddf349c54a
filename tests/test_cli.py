"""End-to-end CLI checks through real subprocesses."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest
import yaml

from fsiw.metrics import evaluate_predictions

from test_experiment import _base_dict

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


def test_simulate_writes_log_and_truth(tmp_path, config_path) -> None:
    out = tmp_path / "sim"
    proc = _fsiw("simulate", "-c", str(config_path), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    data_lines = (out / "data.tsv").read_text(encoding="utf-8").splitlines()
    truth_lines = (out / "truth.tsv").read_text(encoding="utf-8").splitlines()
    assert len(data_lines) == 3000
    assert len(truth_lines) == 3001  # header + one row per sample


def test_seed_flag_controls_simulation(tmp_path, config_path) -> None:
    out1, out2, out3 = (tmp_path / n for n in ("s1", "s2", "s3"))
    assert _fsiw("simulate", "-c", str(config_path), "-o", str(out1), "--seed", "7").returncode == 0
    assert _fsiw("simulate", "-c", str(config_path), "-o", str(out2), "--seed", "7").returncode == 0
    assert _fsiw("simulate", "-c", str(config_path), "-o", str(out3), "--seed", "8").returncode == 0
    assert (out1 / "data.tsv").read_bytes() == (out2 / "data.tsv").read_bytes()
    assert (out1 / "data.tsv").read_bytes() != (out3 / "data.tsv").read_bytes()


def test_set_override_reaches_the_simulator(tmp_path, config_path) -> None:
    out = tmp_path / "small"
    proc = _fsiw(
        "simulate", "-c", str(config_path), "-o", str(out),
        "--set", "data.simulator.n_samples=500",
    )
    assert proc.returncode == 0, proc.stderr
    assert len((out / "data.tsv").read_text(encoding="utf-8").splitlines()) == 500


def test_stats_reports_delay_distribution(tmp_path, config_path) -> None:
    json_out = tmp_path / "stats.json"
    proc = _fsiw("stats", "-c", str(config_path), "--json-out", str(json_out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(json_out.read_text(encoding="utf-8"))
    assert payload["n_conversions"] > 0
    assert len(payload["cdf"]) == len(payload["cdf_grid"])

    inline = _fsiw("stats", "-c", str(config_path))
    assert inline.returncode == 0
    assert json.loads(inline.stdout)["n_conversions"] == payload["n_conversions"]


def test_stats_on_the_simulated_tsv_matches_the_simulator_source(tmp_path, config_path) -> None:
    sim = tmp_path / "sim"
    assert _fsiw("simulate", "-c", str(config_path), "-o", str(sim)).returncode == 0
    from_config = _fsiw("stats", "-c", str(config_path))
    from_tsv = _fsiw(
        "stats", "-c", str(config_path), "--data", str(sim / "data.tsv"),
        "--set", "data.schema=[{name: f0}, {name: f1}]",
    )
    assert from_config.returncode == 0 and from_tsv.returncode == 0, from_tsv.stderr
    assert from_tsv.stdout == from_config.stdout


@pytest.mark.parametrize(
    ("override", "message"),
    [
        ("hashing.dim=1000", "hashing.dim must be a power of two >= 2, got 1000"),
        ("hashing.dim=0", "hashing.dim must be a power of two >= 2, got 0"),
        ("hashing.dim=-4", "hashing.dim must be a power of two >= 2, got -4"),
        (f"hashing.seed={2**64}", "hashing.seed must fit in an unsigned 64-bit integer"),
    ],
)
def test_bad_hashing_config_exits_two(tmp_path, config_path, override, message) -> None:
    proc = _fsiw("run", "-c", str(config_path), "-o", str(tmp_path / "out"), "--set", override)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not (tmp_path / "out").exists()


def test_eval_matches_library_metrics(tmp_path) -> None:
    labels = [1, 0, 0, 1, 0, 0, 0, 1, 0, 0]
    preds = [0.8, 0.2, 0.3, 0.6, 0.1, 0.15, 0.4, 0.5, 0.05, 0.25]
    path = tmp_path / "preds.tsv"
    rows = ["label\tprediction"] + [f"{y}\t{p}" for y, p in zip(labels, preds)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    proc = _fsiw(
        "eval", "--preds", str(path),
        "--train-mean-cvr", "0.3", "--bootstrap-b", "150", "--seed", "5",
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
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
def test_eval_names_file_and_line_of_a_bad_row(tmp_path, row, message) -> None:
    path = tmp_path / "preds.tsv"
    path.write_text("label\tprediction\n0\t0.2\n\n1\t0.8\n" + row + "\n0\t0.1\n", encoding="utf-8")
    proc = _fsiw("eval", "--preds", str(path), "--bootstrap-b", "100")
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {path}:5: ")
    assert message in proc.stderr


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
    tmp_path, first, n_test
) -> None:
    path = tmp_path / "preds.tsv"
    path.write_text(first + "\n0\t0.2\n1\t0.7\n", encoding="utf-8")
    proc = _fsiw("eval", "--preds", str(path), "--bootstrap-b", "100")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_test"] == n_test


@pytest.mark.parametrize("label", [0, 1])
def test_eval_without_a_base_rate_names_the_mean_label(tmp_path, label) -> None:
    path = tmp_path / "preds.tsv"
    path.write_text(f"{label}\t0.2\n{label}\t0.7\n", encoding="utf-8")
    proc = _fsiw("eval", "--preds", str(path), "--bootstrap-b", "100")
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        f"error: {path}: the mean test label is {label}, not a baseline rate in (0, 1), "
        "so --train-mean-cvr must be given"
    )
    assert "train_mean_cvr must be in" not in proc.stderr


def test_eval_with_a_base_rate_scores_a_file_of_positives(tmp_path) -> None:
    path = tmp_path / "preds.tsv"
    path.write_text("1\t0.2\n1\t0.7\n", encoding="utf-8")
    proc = _fsiw("eval", "--preds", str(path), "--train-mean-cvr", "0.3", "--bootstrap-b", "100")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pr_auc"] == 1.0


def test_eval_with_a_base_rate_names_the_file_without_positives(tmp_path) -> None:
    path = tmp_path / "preds.tsv"
    path.write_text("0\t0.2\n0\t0.7\n", encoding="utf-8")
    proc = _fsiw("eval", "--preds", str(path), "--train-mean-cvr", "0.3", "--bootstrap-b", "100")
    assert proc.returncode == 2
    assert proc.stderr == f"error: {path}: average precision needs at least one positive label\n"


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (("--bootstrap-b", "99"), "--bootstrap-b must be at least 100, got 99"),
        (("--bootstrap-b", "0"), "--bootstrap-b must be at least 100, got 0"),
        (("--train-mean-cvr", "0"), "--train-mean-cvr must be in (0, 1), got 0.0"),
        (("--train-mean-cvr", "1"), "--train-mean-cvr must be in (0, 1), got 1.0"),
        (("--train-mean-cvr", "-0.2"), "--train-mean-cvr must be in (0, 1), got -0.2"),
        (("--train-mean-cvr", "nan"), "--train-mean-cvr must be in (0, 1), got nan"),
    ],
)
def test_eval_rejects_bad_flags_before_reading_the_file(tmp_path, flags, message) -> None:
    # the file does not exist: a flag error proves the file was never opened
    proc = _fsiw("eval", "--preds", str(tmp_path / "nope.tsv"), *flags)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"


def test_run_warns_on_stderr_for_each_unconverged_cvr_fit(tmp_path, config_path) -> None:
    out = tmp_path / "out"
    proc = _fsiw("run", "-c", str(config_path), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    metas = {
        p.stem.removeprefix("model_split0_"): json.loads(p.read_text(encoding="utf-8"))["meta"]
        for p in out.glob("model_split0_*.json")
    }
    unconverged = sorted(t for t, meta in metas.items() if not meta["converged"])
    assert unconverged == ["lr_fsiw"]  # naive_lr converges at this config
    warnings = [line for line in proc.stderr.splitlines() if line.startswith("warning:")]
    assert warnings == [
        f"warning: split 0 {t}: CVR fit did not converge "
        f"(n_iter={metas[t]['n_iter']}, stopped_early={metas[t]['stopped_early']})"
        for t in unconverged
    ]
    assert "warning" not in proc.stdout
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["config_resolved.yaml", "manifest.json", "reports.csv", "reports.json",
         "weights_split0.tsv", "model_split0_naive_lr.json", "model_split0_lr_fsiw.json"]
    )


def test_eval_requires_existing_file(tmp_path) -> None:
    proc = _fsiw("eval", "--preds", str(tmp_path / "nope.tsv"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_sweep_emits_one_block_per_deadline(tmp_path, config_path) -> None:
    out = tmp_path / "sweep"
    proc = _fsiw("sweep", "-c", str(config_path), "-o", str(out), "--taus", "1d,2d")
    assert proc.returncode == 0, proc.stderr
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert "tau 86400s:" in proc.stdout and "tau 172800s:" in proc.stdout


def test_bad_config_key_exits_two(tmp_path, config_path) -> None:
    proc = _fsiw("run", "-c", str(config_path), "-o", str(tmp_path / "x"), "--set", "bogus=1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "bogus" in proc.stderr


def test_missing_config_file_exits_two(tmp_path) -> None:
    proc = _fsiw("run", "-c", str(tmp_path / "absent.yaml"))
    assert proc.returncode == 2
    assert "not found" in proc.stderr
