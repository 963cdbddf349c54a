"""Release gate: every shipping requirement, measured end to end.

One numbered test per requirement so the pass/fail table stays stable from
run to run. Each test prints the quantities it measured (run ``pytest -s`` to
see them) and then asserts the shipping threshold. The thresholds live here
and nowhere else.
"""

from __future__ import annotations

import functools
import math
import subprocess
import sys
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from scipy import sparse
from scipy.special import expit

from fsiw.data import Snapshot
from fsiw.experiment import config_from_dict, deadline_sweep, run_pipeline
from fsiw.metrics import evaluate_predictions
from fsiw.optim import OptConfig
from fsiw.relabel import build_artificial_datasets
from fsiw.simulate import (
    SimConfig,
    generate_arrays,
    linear_score,
    sample_weight_vector,
)
from fsiw.training import (
    predict_cvr_batch,
    train_dfm,
    train_naive_logistic,
    train_weighted_logistic,
)
from fsiw.weights import DesignRows, WeightModelHyper, assign_fsiw, fit_weight_model

from simworld import (
    dfm_nll_grad,
    onehot_snapshot,
    oracle_fsiw_array,
    predict_delay_rate,
    snapshot_arrays,
)

DAY = 86400


def _sim_config(
    n: int,
    seed: int,
    *,
    cards: tuple[int, ...] = (8, 8),
    cvr_bias: float = -1.5,
    cvr_spread: float = 1.0,
    mean_delay: float = 2 * DAY,
    rate_spread: float = 0.4,
    time_span: int = 14 * DAY,
) -> SimConfig:
    rng = np.random.default_rng(seed + 1000)
    cvr_w = sample_weight_vector(cards, cvr_bias, cvr_spread, rng)
    rate_w = sample_weight_vector(cards, -math.log(mean_delay), rate_spread, rng)
    return SimConfig(
        n_samples=n,
        field_cardinalities=cards,
        cvr_weights=cvr_w,
        rate_weights=rate_w,
        time_span=time_span,
        seed=seed,
    )


# --- 1: oracle-weighted loss is consistent for the true-label loss -----------


def _weighted_gap(seed: int, n: int, replicates: int) -> tuple[float, float]:
    """Mean |E_w[loss(Y)] - E[loss(C)]| over fresh worlds, plus the loss scale.

    The scorer is a fixed perturbation of the true coefficients, chosen before
    any data is drawn, so the two expectations target the same quantity. The
    snapshot sits six hours past the last click: elapsed times stay bounded
    away from zero and the positive-class weights keep finite variance.
    """
    prng = np.random.default_rng(seed + 9000)
    cards = (8, 8)
    cvr_w = sample_weight_vector(cards, -1.5, 1.0, prng)
    rate_w = sample_weight_vector(cards, -math.log(2 * DAY), 0.5, prng)
    model_w = tuple(w + delta for w, delta in zip(cvr_w, prng.normal(0, 0.3, len(cvr_w))))
    gaps, scales = [], []
    for r in range(replicates):
        cfg = SimConfig(
            n_samples=n,
            field_cardinalities=cards,
            cvr_weights=cvr_w,
            rate_weights=rate_w,
            time_span=10 * DAY,
            seed=seed * 1000 + r,
        )
        arrays = generate_arrays(cfg)
        y, e = snapshot_arrays(arrays, cfg.time_span + 6 * 3600)
        p = expit(linear_score(arrays.values, model_w, cfg.onehot_offsets))
        w = oracle_fsiw_array(arrays.true_p, arrays.true_rate, e, y)
        loss_y = -(y * np.log(p) + (1 - y) * np.log1p(-p))
        loss_c = -(arrays.c * np.log(p) + (1 - arrays.c) * np.log1p(-p))
        gaps.append(abs(float(np.mean(w * loss_y)) - float(np.mean(loss_c))))
        scales.append(float(np.mean(loss_c)))
    return float(np.mean(gaps)), float(np.mean(scales))


def test_criterion_01_oracle_weighted_loss_recovers_true_label_loss() -> None:
    started = time.monotonic()
    sizes = (1_000, 10_000, 100_000)
    for seed in (1, 2, 3):
        gaps, rels = {}, {}
        for n in sizes:
            gap, scale = _weighted_gap(seed, n, replicates=20)
            gaps[n], rels[n] = gap, gap / scale
        print(
            f"seed {seed}: "
            + "  ".join(f"n={n}: gap={gaps[n]:.5f} ({rels[n]:.3%})" for n in sizes)
        )
        assert gaps[1_000] > gaps[10_000] > gaps[100_000]
        assert rels[100_000] < 0.02
    elapsed = time.monotonic() - started
    print(f"elapsed {elapsed:.1f}s (budget 60s)")
    assert elapsed < 60.0


# --- 2: exact weight identities ----------------------------------------------


def test_criterion_02_oracle_weight_identities_hold_to_1e_minus_12() -> None:
    """w1*P(Y=1|x) must equal P(C=1|x) and w0*P(Y=0|x) must equal P(C=0|x)."""
    rng = np.random.default_rng(123)
    n = 10_000
    p = rng.uniform(0.01, 0.99, n)
    lam = np.exp(rng.uniform(-16.0, 1.0, n))
    e = np.exp(rng.uniform(0.0, 16.0, n))
    observed = -np.expm1(-lam * e)
    survival = np.exp(-lam * e)
    w1 = oracle_fsiw_array(p, lam, e, np.ones(n, dtype=int))
    w0 = oracle_fsiw_array(p, lam, e, np.zeros(n, dtype=int))
    err_pos = float(np.max(np.abs(w1 * (p * observed) - p)))
    err_neg = float(np.max(np.abs(w0 * ((1.0 - p) + p * survival) - (1.0 - p))))
    print(f"identity error: positive {err_pos:.2e}, negative {err_neg:.2e} (cap 1e-12)")
    assert err_pos <= 1e-12
    assert err_neg <= 1e-12


# --- 3: relabeling agrees with a brute-force branch table --------------------


def _relabel_fixture(
    n: int, training_end: int, tau: int
) -> tuple[list[SimpleNamespace], Snapshot]:
    """Clicks as rows for the brute-force table, and the same clicks as the
    snapshot that build_artificial_datasets reads (click i has feature i)."""
    rng = np.random.default_rng(7)
    cutoff = training_end - tau
    # hand-placed probes around every boundary, then random fill
    picks: list[tuple[int, int | None]] = [
        (cutoff - 1, 0),  # conversion lands one tick before the earlier deadline
        (cutoff - 1, 1),  # conversion exactly at the earlier deadline
        (cutoff - 1, None),
        (cutoff, 5),  # click at the earlier deadline itself: must be dropped
        (cutoff, None),
        (training_end - 1, 0),
        (0, cutoff - 1),
        (0, cutoff),
        (0, training_end),  # converts the instant the window closes
        (1, None),
    ]
    while len(picks) < n:
        click = int(rng.integers(0, training_end))
        delay = None if rng.random() < 0.4 else int(rng.integers(0, 2 * tau))
        picks.append((click, delay))
    samples = []
    for i, (click, delay) in enumerate(picks[:n]):
        e = training_end - click
        y = 1 if delay is not None and delay <= e else 0
        samples.append(
            SimpleNamespace(
                x=SimpleNamespace(indices=(i,)),
                y=y,
                e=e,
                d=delay if y else None,
                click_ts=click,
            )
        )
    snapshot = Snapshot(
        x=sparse.csr_matrix((np.ones(n), np.arange(n), np.arange(n + 1)), shape=(n, 256)),
        y=np.array([s.y for s in samples], dtype=np.int8),
        e=np.array([s.e for s in samples], dtype=np.int64),
        d=np.array([s.d or 0 for s in samples], dtype=np.int64),
    )
    return samples, snapshot


def test_criterion_03_relabeling_matches_brute_force_enumeration() -> None:
    training_end, tau = 1000, 200
    cutoff = training_end - tau
    samples, snapshot = _relabel_fixture(200, training_end, tau)

    expect_d1: list[tuple] = []
    expect_d0: list[tuple] = []
    for s in samples:
        kept = s.click_ts < cutoff
        early = kept and s.y == 1 and s.click_ts + s.d < cutoff
        late = kept and s.y == 1 and not early
        if early:
            expect_d1.append((s.x.indices, s.e - tau, 1, "D1", s.e))
        if late:
            expect_d1.append((s.x.indices, s.e - tau, 0, "D1", s.e))
            expect_d0.append((s.x.indices, s.e - tau, 0, "D0", s.e))
        if kept and s.y == 0:
            expect_d0.append((s.x.indices, s.e - tau, 1, "D0", s.e))

    d1, d0 = build_artificial_datasets(snapshot, tau)

    def got(a, destination: str) -> list[tuple]:
        return [
            (tuple(snapshot.x[i].indices.tolist()), e_adj, s, destination, int(snapshot.e[i]))
            for i, e_adj, s in zip(a.idx.tolist(), a.e_adj.tolist(), a.s.tolist())
        ]

    got_d1 = got(d1, "D1")
    got_d0 = got(d0, "D0")
    kept_ids = {t[0] for t in got_d1 + got_d0}
    print(f"kept {len(kept_ids)}/200 clicks; |D1|={len(got_d1)} |D0|={len(got_d0)}")
    assert sorted(got_d1) == sorted(expect_d1)
    assert sorted(got_d0) == sorted(expect_d0)
    assert {t[2] for t in got_d1} == {0, 1}
    assert {t[2] for t in got_d0} == {0, 1}
    assert 0 < len(kept_ids) < len(samples)  # the click filter really fired


# --- 4: head-to-head orderings on worlds with long delays --------------------


@functools.lru_cache(maxsize=None)
def _ordering_battery() -> tuple[tuple[int, float, float, float], ...]:
    """Test log loss per trainer on five fresh worlds.

    Mean conversion delay is three days against a twelve-day training window
    (one quarter), so roughly a third of the eventual converters are still
    unlabeled when training data is snapshot.
    """
    results = []
    for seed in (1, 2, 3, 4, 5):
        raw = {
            "seed": seed,
            "data": {
                "kind": "simulator",
                "simulator": {
                    "n_samples": 30_000,
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
            "trainers": ["naive_lr", "lr_fsiw", "dfm"],
            "l2": 1e-4,
            "optimizer": {"max_iter": 400, "tol": 1e-10},
            "metrics": {"bootstrap_b": 100},
        }
        rows = run_pipeline(config_from_dict(raw), write_outputs=False)
        ll = {row.trainer: row.report.ll for row in rows}
        results.append((seed, ll["naive_lr"], ll["lr_fsiw"], ll["dfm"]))
    return tuple(results)


def test_criterion_04a_weighted_model_beats_the_naive_baseline() -> None:
    rows = _ordering_battery()
    improvements = []
    for seed, naive, fsiw, dfm in rows:
        rel = (naive - fsiw) / naive
        improvements.append(rel)
        print(f"seed {seed}: naive={naive:.4f} lr_fsiw={fsiw:.4f} dfm={dfm:.4f} improvement={rel:.2%}")
    assert sum(rel >= 0.01 for rel in improvements) >= 4


def test_criterion_04b_weighted_model_beats_a_matched_delay_mle() -> None:
    rows = _ordering_battery()
    wins = sum(1 for _, naive, fsiw, dfm in rows if fsiw < dfm <= naive)
    detail = "; ".join(
        f"seed {seed}: lr_fsiw={fsiw:.4f} dfm={dfm:.4f} naive={naive:.4f}"
        for seed, naive, fsiw, dfm in rows
    )
    print(f"ordering lr_fsiw < dfm <= naive_lr held in {wins}/5 seeds")
    assert wins >= 4, (
        f"ordering lr_fsiw < dfm <= naive_lr held in {wins}/5 seeds ({detail}). "
        "The delay model is fit by maximum likelihood on data whose generating "
        "process it describes exactly, which makes it asymptotically efficient "
        "here: reweighted logistic regression can tie it at best, even with "
        "oracle weights. The ordering is only expected when the delay model is "
        "misspecified, so this check documents a requirement the well-specified "
        "simulator cannot meet."
    )


# --- 5: the weighted model removes most of the censoring bias ----------------


def test_criterion_05_weighting_halves_the_censoring_bias() -> None:
    cfg = _sim_config(
        30_000, 2, cvr_bias=-1.5, cvr_spread=1.0,
        mean_delay=4 * DAY, rate_spread=0.5, time_span=10 * DAY,
    )
    arrays = generate_arrays(cfg)
    samples = onehot_snapshot(arrays, cfg.time_span)
    frac_censored = 1.0 - samples.y.sum() / arrays.c.sum()

    d1, d0 = build_artificial_datasets(samples, 4 * DAY)
    hyper = WeightModelHyper(l2=1e-4)
    weighted = assign_fsiw(
        fit_weight_model(samples.x[d1.idx], d1.e_adj, d1.s, hyper),
        fit_weight_model(samples.x[d0.idx], d0.e_adj, d0.s, hyper),
        DesignRows(samples.x, samples.e),
        samples.y,
    )

    opt = OptConfig(max_iter=400, tol=1e-10)
    feats = samples.x
    naive = train_naive_logistic(samples.x, samples.y, 1e-4, opt)
    corrected = train_weighted_logistic(weighted, 1e-4, opt)
    true_mean = float(arrays.true_p.mean())
    mean_naive = float(np.mean(predict_cvr_batch(naive, feats)))
    mean_corrected = float(np.mean(predict_cvr_batch(corrected, feats)))
    gap_ratio = abs(mean_corrected - true_mean) / abs(mean_naive - true_mean)
    print(
        f"censored positives {frac_censored:.1%}; mean CVR: true={true_mean:.4f} "
        f"naive={mean_naive:.4f} weighted={mean_corrected:.4f}; remaining gap {gap_ratio:.2f}x"
    )
    assert frac_censored >= 0.30
    assert mean_naive < 0.9 * true_mean  # naive underestimates by more than 10%
    assert gap_ratio <= 0.5


# --- 6: the joint CVR/delay model recovers the simulator truth ---------------


def test_criterion_06_joint_model_recovers_simulator_truth() -> None:
    cfg = _sim_config(
        100_000, 4, cvr_bias=-1.2, cvr_spread=0.9,
        mean_delay=2 * DAY, rate_spread=0.5, time_span=12 * DAY,
    )
    arrays = generate_arrays(cfg)
    samples = onehot_snapshot(arrays, cfg.time_span)
    model = train_dfm(
        samples.x, samples.y, samples.d, samples.e, 1e-6, OptConfig(max_iter=1500, tol=1e-12)
    )
    feats = samples.x
    mae = float(np.mean(np.abs(predict_cvr_batch(model, feats) - arrays.true_p)))
    rate_rel = float(
        np.mean(
            np.abs(predict_delay_rate(model, feats) - arrays.true_rate)
            / arrays.true_rate
        )
    )
    print(f"cvr MAE={mae:.4f} (cap 0.02); delay-rate mean rel err={rate_rel:.2%} (cap 10%)")
    assert mae <= 0.02
    assert rate_rel <= 0.10


# --- 7: analytic gradients match central differences -------------------------


def test_criterion_07_training_gradients_match_central_differences() -> None:
    rng = np.random.default_rng(21)
    n, dim = 60, 5
    x = sparse.csr_matrix((rng.random((n, dim)) < 0.4).astype(float))
    xt = x.T.tocsr()
    y = (rng.random(n) < 0.5).astype(float)
    w = rng.uniform(0.5, 4.0, n)
    d_days = np.where(y == 1, rng.uniform(0.1, 3.0, n), 0.0)
    e_days = rng.uniform(0.2, 10.0, n)
    l2 = 0.3
    wsum = w.sum()

    def logistic_obj(theta: np.ndarray) -> float:
        z = x @ theta[:dim] + theta[dim]
        return float(w @ (np.logaddexp(0, z) - y * z)) / wsum + 0.5 * l2 * float(
            theta[:dim] @ theta[:dim]
        )

    def logistic_grad(theta: np.ndarray) -> np.ndarray:
        z = x @ theta[:dim] + theta[dim]
        dz = w * (expit(z) - y) / wsum
        g = np.empty(dim + 1)
        g[:dim] = xt @ dz + l2 * theta[:dim]
        g[dim] = dz.sum()
        return g

    def dfm_obj(theta: np.ndarray) -> float:
        return dfm_nll_grad(theta, x, xt, y, d_days, e_days, l2, float(n))[0]

    def dfm_grad(theta: np.ndarray) -> np.ndarray:
        return dfm_nll_grad(theta, x, xt, y, d_days, e_days, l2, float(n))[1]

    h = 1e-6
    worst = 0.0
    for trial in range(20):
        point_rng = np.random.default_rng(300 + trial)
        for obj, grad, size in (
            (logistic_obj, logistic_grad, dim + 1),
            (dfm_obj, dfm_grad, 2 * dim + 2),
        ):
            theta = point_rng.normal(0, 0.8, size)
            analytic = grad(theta)
            numeric = np.empty(size)
            for j in range(size):
                up, down = theta.copy(), theta.copy()
                up[j] += h
                down[j] -= h
                numeric[j] = (obj(up) - obj(down)) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            worst = max(worst, rel)
            assert rel < 1e-5
    print(f"worst relative gradient error over 20 points: {worst:.2e} (cap 1e-5)")


# --- 8: metric closed forms and bootstrap coverage ----------------------------


def test_criterion_08_metric_oracles_and_bootstrap_coverage() -> None:
    # closed forms first, read from the reports the pipeline writes; average
    # precision needs a positive label, so each input has one
    def report(labels, preds, base=0.5, b=100, seed=0):
        return evaluate_predictions(labels, preds, base, bootstrap_b=b, seed=seed)

    assert report([1], [0.5]).ll == pytest.approx(math.log(2), rel=1e-12)
    assert report([0, 1], [0.25, 0.75]).ll == pytest.approx(-math.log(0.75), rel=1e-12)
    assert report([0, 1], [0.1, 0.9]).pr_auc == pytest.approx(1.0, rel=1e-12)
    assert report([1, 0, 1], [0.9, 0.8, 0.7]).pr_auc == pytest.approx((1 + 2 / 3) / 2, rel=1e-12)
    assert report([1, 0, 0, 0, 1], [0.4] * 5, 0.4).nll == pytest.approx(0.0, abs=1e-12)
    a = 2**-0.8
    assert report([1, 0], [a, 1 - a], 0.5).nll == pytest.approx(20.0, rel=1e-12)
    flat = report([1] * 50, [0.7] * 50, b=200, seed=1)
    assert flat.ll_lo == flat.ll_hi == pytest.approx(-math.log(0.7), rel=1e-12)
    rng = np.random.default_rng(99)
    labels = (rng.random(80) < 0.4).astype(int)
    preds = rng.uniform(0.05, 0.95, 80)
    assert report(labels, preds, b=300, seed=6) == report(labels, preds, b=300, seed=6)

    # coverage: 95% percentile intervals should cover the population value
    # about 95% of the time; small resamples run a little low, so the band
    # is 95% +/- 4%.
    pop_rng = np.random.default_rng(2024)
    pop = 200_000
    pop_preds = pop_rng.uniform(0.02, 0.6, pop)
    pop_labels = (pop_rng.random(pop) < pop_preds).astype(int)
    pop_terms = pop_labels * np.log(pop_preds) + (1 - pop_labels) * np.log1p(-pop_preds)
    pop_ll = float(-np.mean(pop_terms))
    base = float(pop_labels.mean())
    hits = 0
    trials = 200
    for trial in range(trials):
        trial_rng = np.random.default_rng(10_000 + trial)
        idx = trial_rng.integers(0, pop, 2000)
        got = report(pop_labels[idx], pop_preds[idx], base, b=500, seed=trial)
        hits += got.ll_lo <= pop_ll <= got.ll_hi
    coverage = hits / trials
    print(f"bootstrap coverage over {trials} trials: {coverage:.1%} (band 91%..99%)")
    assert 0.91 <= coverage <= 0.99


# --- 9: the counterfactual deadline is not a sensitive dial -------------------


def _sweep_dict(seed: int) -> dict:
    return {
        "seed": seed,
        "data": {
            "kind": "simulator",
            "simulator": {
                "n_samples": 20_000,
                "field_cardinalities": [8, 8],
                "time_span": "8d",
                "cvr_bias": -1.5,
                "cvr_spread": 1.0,
                "mean_delay": "6h",
                "rate_spread": 0.5,
            },
        },
        "hashing": {"dim": 1024, "seed": 0},
        "split": {"train_window": "6d", "test_window": "1d", "stride": "1d", "n_splits": 1},
        "tau": "1d",
        "trainers": ["lr_fsiw"],
        "l2": 1e-4,
        "optimizer": {"max_iter": 300, "tol": 1e-10},
        "metrics": {"bootstrap_b": 100},
    }


def test_criterion_09_deadline_choice_barely_moves_test_loss() -> None:
    """Delays average six hours, so a day covers ~98% of them; sweeping the
    deadline from there to two days must not move the test log loss."""
    taus = [DAY, int(1.25 * DAY), int(1.5 * DAY), int(1.75 * DAY), 2 * DAY]
    for seed in (1, 2):
        config = replace(config_from_dict(_sweep_dict(seed)), tau=tuple(taus))
        rows = deadline_sweep(config, write_outputs=False)
        lls = [row.report.ll for row in rows]
        spread = max(lls) - min(lls)
        table = "  ".join(f"{tau / DAY:g}d:{ll:.5f}" for tau, ll in zip(taus, lls))
        print(f"seed {seed}: {table}  spread={spread:.5f} (cap 0.01)")
        assert spread < 0.01


# --- 10: the CLI is bytewise reproducible -------------------------------------


def test_criterion_10_cli_reruns_are_byte_identical(tmp_path) -> None:
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
        "split": {"train_window": "7d", "test_window": "1d", "stride": "1d", "n_splits": 1},
        "tau": "2d",
        "trainers": ["naive_lr", "lr_fsiw", "dfm"],
        "l2": 1e-4,
        "optimizer": {"max_iter": 150, "tol": 1e-9},
        "metrics": {"bootstrap_b": 100},
    }
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        proc = subprocess.run(
            [sys.executable, "-m", "fsiw", "run", "-c", str(config_path), "-o", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    names = sorted(p.name for p in out_a.iterdir())
    assert sorted(p.name for p in out_b.iterdir()) == names
    for expected in ("reports.csv", "reports.json", "manifest.json", "weights_split0.tsv"):
        assert expected in names

    def scrubbed(path) -> bytes:
        if path.name == "config_resolved.yaml":
            # the resolved config records where it was written; everything
            # else in it must still match
            lines = path.read_bytes().splitlines(keepends=True)
            return b"".join(line for line in lines if not line.startswith(b"output_dir:"))
        return path.read_bytes()

    diffs = [name for name in names if scrubbed(out_a / name) != scrubbed(out_b / name)]
    print(f"compared {len(names)} artifacts: {', '.join(names)}")
    assert not diffs, f"artifacts differ between identical runs: {diffs}"
