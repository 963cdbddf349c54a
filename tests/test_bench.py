"""Microbenchmarks (pytest-benchmark). The default test run deselects them;
run them with ``python -m pytest -m bench``."""

from __future__ import annotations

import json

import numpy as np
import pytest

from fsiw.cli import main
from fsiw.data import FieldSpec, read_tsv, snapshot_labels
from fsiw.experiment import SimulatorSpec, config_from_dict, deadline_sweep
from fsiw.metrics import evaluate_columns, evaluate_predictions
from fsiw.optim import OptConfig
from fsiw.relabel import build_artificial_datasets
from fsiw.simulate import generate_arrays, to_click_log, write_sim_tsv, write_truth
from fsiw.training import _distinct_rows, fit_logistic, train_dfm, train_naive_logistic
from fsiw.weights import DEFAULT_EDGES, weight_design

pytestmark = pytest.mark.bench


def _scorer(n: int = 30_000) -> tuple[np.ndarray, np.ndarray]:
    # a noisy but calibrated scorer whose predictions are clipped into
    # [0.01, 0.99], so both clip values form tie groups holding both labels
    rng = np.random.default_rng(21)
    logit = rng.normal(-1.5, 1.0, n)
    labels = (rng.random(logit.size) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    preds = np.clip(1.0 / (1.0 + np.exp(-(logit + rng.normal(0.0, 0.5, logit.size)))), 0.01, 0.99)
    return labels, preds


def test_evaluate_predictions_30k_rows_200_resamples(benchmark) -> None:
    labels, preds = _scorer()
    report = benchmark(evaluate_predictions, labels, preds, 0.2, bootstrap_b=200, seed=21)
    assert report.n_test == 30_000


def test_evaluate_predictions_200k_rows_200_resamples(benchmark) -> None:
    # the eval size the ROADMAP's north star names
    labels, preds = _scorer(200_000)
    report = benchmark(evaluate_predictions, labels, preds, 0.2, bootstrap_b=200, seed=21)
    assert report.n_test == 200_000


def test_cmd_eval_30k_rows(benchmark, tmp_path, capsys) -> None:
    # `fsiw eval` end to end on the scorer above, written as the benchmark's
    # label/prediction TSV: parse, 3 x 200 resamples, JSON report
    labels, preds = _scorer()
    path = tmp_path / "preds.tsv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("label\tprediction\n")
        handle.writelines(f"{y}\t{p!r}\n" for y, p in zip(labels.tolist(), preds.tolist()))
    argv = ["eval", "--preds", str(path), "--train-mean-cvr", "0.2", "--bootstrap-b", "200",
            "--seed", "21"]
    assert benchmark(main, argv) == 0
    report, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    assert report["n_test"] == 30_000


def test_evaluate_predictions_4k_rows_64_tied_scores_100_resamples(benchmark) -> None:
    # a scorer with 64 distinct outputs, as a linear model over two 8-value
    # fields gives: every score is a tie group, nearly all of them holding
    # both labels
    rng = np.random.default_rng(21)
    preds = rng.choice(np.linspace(0.02, 0.6, 64), 4000)
    labels = (rng.random(preds.size) < preds).astype(np.int64)
    report = benchmark(evaluate_predictions, labels, preds, 0.2, bootstrap_b=100, seed=21)
    assert report.n_test == 4000


def _scorers(n: int, n_cols: int) -> tuple[np.ndarray, list[np.ndarray]]:
    # n_cols noisy scorers of the same rows, as a split's trainers or
    # deadlines give
    rng = np.random.default_rng(21)
    logit = rng.normal(-1.5, 1.0, n)
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    columns = [
        np.clip(1.0 / (1.0 + np.exp(-(logit + rng.normal(0.0, 0.5, n)))), 0.01, 0.99)
        for _ in range(n_cols)
    ]
    return labels, columns


@pytest.mark.parametrize(("n", "n_cols"), [(1000, 5), (4000, 3)])
def test_evaluate_columns_100_resamples(benchmark, n, n_cols) -> None:
    # a sweep's five deadlines on one split's test rows; a run's three trainers
    labels, columns = _scorers(n, n_cols)
    reports = benchmark(evaluate_columns, labels, columns, 0.2, bootstrap_b=100, seed=21)
    assert [r.n_test for r in reports] == [n] * n_cols


# the README world at 40k clicks: two 8-value fields
README_40K = SimulatorSpec(
    n_samples=40_000,
    field_cardinalities=(8, 8),
    time_span=10 * 86400,
    cvr_bias=-1.5,
    mean_delay=86400,
    rate_spread=0.4,
)


def test_write_sim_tsv_and_truth_40k_rows(benchmark, tmp_path) -> None:
    # the two files `fsiw simulate` writes for the README world
    arrays = generate_arrays(README_40K.build(21))

    def write_both() -> None:
        write_sim_tsv(arrays, tmp_path / "data.tsv")
        write_truth(arrays, tmp_path / "truth.tsv")

    benchmark(write_both)
    assert len((tmp_path / "truth.tsv").read_bytes().splitlines()) == 40_001


def test_read_tsv_40k_rows(benchmark, tmp_path) -> None:
    # the README world's TSV as `fsiw simulate` writes it
    path = tmp_path / "data.tsv"
    write_sim_tsv(generate_arrays(README_40K.build(21)), path)
    schema = [FieldSpec(name="f0"), FieldSpec(name="f1")]
    log = benchmark(read_tsv, path, schema, dim=1024, seed=0)
    assert log.x.shape == (40_000, 1024)


def test_deadline_sweep_on_the_sweep_world(benchmark) -> None:
    # the benchmark's sweep workload in process: the README world at 10k
    # clicks, five deadlines, every fit at its whole iteration budget
    raw = {
        "seed": 21,
        "data": {
            "kind": "simulator",
            "simulator": {
                "n_samples": 10_000,
                "field_cardinalities": [8, 8],
                "time_span": "10d",
                "cvr_bias": -1.5,
                "mean_delay": "1d",
                "rate_spread": 0.4,
            },
        },
        "hashing": {"dim": 1024, "seed": 0},
        "split": {"train_window": "7d", "test_window": "1d", "stride": "1d", "n_splits": 1},
        "tau": ["1d", "2d", "3d", "4d", "5d"],
        "trainers": ["lr_fsiw"],
        "optimizer": {"max_iter": 150, "tol": 0.0},
        "weight_model_pos": {"max_iter": 40},
        "weight_model_neg": {"max_iter": 40},
        "metrics": {"bootstrap_b": 100},
    }
    rows = benchmark(deadline_sweep, config_from_dict(raw), write_outputs=False)
    assert len(rows) == 5


# the criterion-04 world at 6k clicks: four 16-value fields
BATTERY_6K = SimulatorSpec(
    n_samples=6000,
    field_cardinalities=(16, 16, 16, 16),
    time_span=15 * 86400,
    cvr_bias=-1.5,
    mean_delay=3 * 86400,
    rate_spread=1.0,
)


def test_train_dfm_battery_world_6k_rows(benchmark) -> None:
    # the criterion-04 world at 6k clicks and hash dim 1024, snapshot at the
    # end of its 15 days, under the benchmark's fixed budget (tol 0): the fit
    # stops at its optimum or after 400 iterations
    log = to_click_log(generate_arrays(BATTERY_6K.build(21)), dim=1024, seed=0)
    snap = snapshot_labels(log, BATTERY_6K.time_span)
    opt = OptConfig(max_iter=400, tol=0.0)
    model = benchmark(train_dfm, snap.x, snap.y, snap.d, snap.e, 1e-4, opt)
    assert snap.x.shape == (6000, 1024)
    assert np.isfinite(model.meta.final_loss)


def test_train_dfm_readme_world_28k_rows(benchmark) -> None:
    # the scale workload's dfm fit: its ~28k training rows hold 64 distinct
    # feature rows, so the objective computes its feature-only terms per
    # distinct row; the benchmark's budget of 50 iterations (tol 0)
    log = to_click_log(generate_arrays(README_40K.build(21)), dim=1024, seed=0)
    snap = snapshot_labels(log, 7 * 86400)
    opt = OptConfig(max_iter=50, tol=0.0)
    model = benchmark(train_dfm, snap.x, snap.y, snap.d, snap.e, 1e-4, opt)
    assert _distinct_rows(snap.x)[0].size == 64
    assert np.isfinite(model.meta.final_loss)


@pytest.mark.parametrize(
    ("spec", "train_days", "max_iter", "n_distinct"),
    [
        # the scale workload's training window: ~28k rows, 64 distinct ones
        (README_40K, 7, 150, 64),
        # the battery workload's: ~4.8k rows, nearly all distinct
        (BATTERY_6K, 12, 400, None),
    ],
    ids=["readme_world_28k_rows", "battery_world_4800_rows"],
)
def test_train_naive_logistic(benchmark, spec, train_days, max_iter, n_distinct) -> None:
    # the naive_lr fit of a run's training window, under the benchmark's
    # fixed budget (tol 0); its cost follows the distinct feature rows
    log = to_click_log(generate_arrays(spec.build(21)), dim=1024, seed=0)
    snap = snapshot_labels(log, train_days * 86400)
    model = benchmark(train_naive_logistic, snap.x, snap.y, 1e-4, OptConfig(max_iter, tol=0.0))
    assert np.isfinite(model.meta.final_loss)
    if n_distinct is not None:
        assert _distinct_rows(snap.x)[0].size == n_distinct


def test_minimize_batch_on_a_1k_row_weight_model_fit(benchmark) -> None:
    # one weight-model-shaped L-BFGS fit: the first 1000 rows of the README
    # world's D0 set at tau 2d, as [hashed features | elapsed bins | log
    # days] (1033 columns), fitted at the benchmark's weight-model budget of
    # 40 iterations (tol 0), so nearly all of its time is minimize_batch
    log = to_click_log(generate_arrays(README_40K.build(21)), dim=1024, seed=0)
    snap = snapshot_labels(log, 7 * 86400)
    _, d0 = build_artificial_datasets(snap, 2 * 86400)
    x = weight_design(snap.x[d0.idx[:1000]], d0.e_adj[:1000], DEFAULT_EDGES)
    _, meta = benchmark(
        fit_logistic, x, d0.s[:1000], l2=1e-3, opt=OptConfig(max_iter=40, tol=0.0)
    )
    assert x.shape == (1000, 1024 + len(DEFAULT_EDGES) + 2)
    assert meta.n_iter == 40 and np.isfinite(meta.final_loss)
