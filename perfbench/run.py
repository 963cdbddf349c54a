"""fsiw benchmark: times the public CLI (``fsiw.cli.main``) in process.

One workload:
    python3 perfbench/run.py --workload scale --seed 1 --seconds 20 --trace 0
Every workload in BENCHMARK.json, untraced and traced, each in its own process:
    python3 perfbench/run.py

A workload run sets up its inputs from the seed several times (set-up time is
the median, plus the one-off import of ``fsiw``), then makes CLI calls until
the time budget is spent. The first call is a warm-up and the reference for
byte identity; every call is checked. Each call's time is also divided by the
time of a fixed reference workload run just before and after it (``run_ref``),
which cancels the drift of a shared machine's speed. With ``--trace 1`` calls
alternate between untraced and traced, and the traced ones give per-layer self
time and call counts. A human-readable report goes to stdout; its last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
is non-zero when any check failed.

The program is imported from ``src/`` next to this directory and nowhere else;
all files are written under ``.perfbench_work/`` in the checkout and removed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
BLAS_THREADS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 3
MIN_CALLS = 3  # the warm-up call plus at least two timed ones
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


class Reference:
    """Fixed work in the benchmark's own code that times the machine's speed
    right now. On a shared VM the time of the same work drifts by 15-40% over
    tens of seconds, and a call's time divided by the reference time measured
    around it drifts far less, provided the reference stresses what the call
    stresses. Kind "interpreter" builds a dict and runs numpy arithmetic on
    an in-cache array, like the per-row and optimizer work of a pipeline run.
    Kind "memory" adds random gathers from a 32 MB array and a sort, like the
    bootstrap resampling of an eval."""

    def __init__(self, kind: str):
        import numpy as np

        if kind not in ("interpreter", "memory"):
            raise ValueError(f"unknown reference kind {kind!r}")
        rng = np.random.default_rng(0)
        self.kind = kind
        self.small = rng.random(300_000)
        if kind == "memory":
            self.large = rng.random(1 << 22)
            self.gather = rng.integers(0, self.large.size, 1 << 20)
            self.unsorted = rng.random(200_000)

    def seconds(self) -> float:
        import numpy as np

        start = time.perf_counter()
        table = {}
        for i in range(60_000 if self.kind == "interpreter" else 40_000):
            table[(i, str(i))] = float(i)
        if self.kind == "interpreter":
            for _ in range(4):
                np.logaddexp(0.0, self.small).sum()
        else:
            for _ in range(2):
                np.logaddexp(0.0, self.small).sum()
                self.large[self.gather].sum()
            np.argsort(self.unsorted, kind="stable")
        return time.perf_counter() - start


def _limit_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_fsiw():
    """Import fsiw.cli from this checkout's src/; returns (module, seconds)."""
    if not (SRC / "fsiw" / "__init__.py").is_file():
        raise SystemExit(f"error: no fsiw sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import fsiw.cli as cli

    seconds = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: fsiw was imported from {cli.__file__}, not {SRC}")
    return cli, seconds


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    usable = [p for p in PERCENTILES if n * (1 - p / 100) >= 10]
    if not usable:
        return f"n/a (needs >= 20 samples, have {n})"
    p = usable[-1]
    value = statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
    return f"p{p:g} = {value:.6f} s (n = {n})"


def machine_context(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _limit_blas_threads()
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    cli, import_s = _import_fsiw()
    WORK_ROOT.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        return _measure(cli, import_s, work_root, name, seed, seconds, trace)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def _measure(cli, import_s, work_root, name, seed, seconds, trace) -> int:
    # imported after fsiw, once the BLAS thread limit is in the environment
    import spans as tracing
    import workloads

    spec = load_spec()
    # set-up: several independent set-ups; all must produce identical inputs
    setup_times, workload, first_inputs = [], None, None
    for i in range(SETUP_REPEATS):
        work = work_root / f"setup{i}"
        work.mkdir()
        start = time.perf_counter()
        workload = workloads.SETUPS[name](cli, work, seed)
        setup_times.append(time.perf_counter() - start)
        inputs = {p.name: p.read_bytes() for p in work.rglob("*") if p.is_file() and p.suffix != ".yaml"}
        if first_inputs is None:
            first_inputs = inputs
        elif inputs != first_inputs:
            raise SystemExit(f"error: set-up {i} produced different inputs for the same seed")
    setup_s = import_s + statistics.median(setup_times)

    reference = Reference(workload.reference)
    ref_before = reference.seconds()
    ref_times = [ref_before]
    untraced_s: list[float] = []
    normalized: list[float] = []  # untraced call time / reference time around it
    traced_s: list[float] = []
    tracers: list = []
    results: list = []
    errors: list[str] = []
    absent: list[str] = []
    first_call_s = None
    attempted = 0
    t0 = time.perf_counter()
    while True:
        use_trace = trace and attempted % 2 == 1
        tracer = tracing.Tracer() if use_trace else None
        workload.clear()
        gc.collect()  # every call starts from the same heap state
        elapsed = 0.0
        try:
            start = time.perf_counter()
            if use_trace:
                with tracing.traced(tracer) as absent:
                    stdout = workload.invoke(cli)
            else:
                stdout = workload.invoke(cli)
            elapsed = time.perf_counter() - start
            ref_after = reference.seconds()
            ref_times.append(ref_after)
            result = workload.check(stdout)
            ok = True
        except workloads.CheckFailed as exc:
            ok, result = False, None
            errors.append(f"call {attempted}: {exc}")
        except Exception:  # a crash is a failed operation, reported in full
            ok, result = False, None
            errors.append(f"call {attempted}: {traceback.format_exc()}")
        if ok:
            results.append(result)
            if attempted == 0:
                first_call_s = elapsed
            elif use_trace:
                traced_s.append(elapsed)
                tracers.append((tracer, elapsed))
            else:
                untraced_s.append(elapsed)
                normalized.append(elapsed / ((ref_before + ref_after) / 2))
        ref_before = ref_times[-1]
        attempted += 1
        typical = statistics.median(untraced_s + traced_s) if untraced_s + traced_s else elapsed
        if attempted >= MIN_CALLS and time.perf_counter() - t0 + typical > seconds:
            break
        if attempted >= MIN_CALLS and not (untraced_s or traced_s):
            break  # nothing succeeds; stop early

    failed = attempted - len(results)
    timed = untraced_s if untraced_s else [float("nan")]
    q1, run_s, q3 = quartiles(timed)
    e2e = {
        "setup_s": setup_s,
        "run_ref": statistics.median(normalized) if normalized else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        **e2e,
        "run_s": run_s,
        "best_call_s": min(timed),
        "rows_per_s": workload.rows / run_s,
        "reference_s": statistics.median(ref_times),
    }
    quality = _quality(results)
    layer, absent_keys = (
        _layer_metrics(tracing, tracers, absent, traced_s, untraced_s) if trace else ({}, set())
    )

    print(f"# fsiw benchmark: workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print(f"context {json.dumps(machine_context(seed), sort_keys=True)}")
    print(f"setup: import {import_s:.4f} s + median of {SETUP_REPEATS} set-ups "
          f"{statistics.median(setup_times):.4f} s ({', '.join(f'{t:.4f}' for t in setup_times)})")
    print(f"calls: {attempted} attempted, {failed} failed; warm-up call "
          f"{first_call_s if first_call_s is None else round(first_call_s, 4)} s")
    print(f"run_s quartiles over {len(untraced_s)} untraced calls: "
          f"q1 {q1:.4f}  median {run_s:.4f}  q3 {q3:.4f}; tail: {tail_percentile(untraced_s)}")
    for err in errors:
        print(f"FAILED {err}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key, value in {**report, "failed_ops": failed / attempted, **quality}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:<40} {shown:>14} {units.get(key, _REPORT_UNITS.get(key, ''))}")
    if trace:
        _print_layers(layer, absent_keys, units)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = layer if trace else e2e
    # a value that could not be measured (no successful call) is null
    metrics = {
        m["name"]: {"value": source[m["name"]] if math.isfinite(source[m["name"]]) else None,
                    "unit": m["unit"]}
        for m in wanted
    }
    correct = failed == 0 and all(v["value"] is not None for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


_REPORT_UNITS = {
    "run_s": "s",
    "best_call_s": "s",
    "reference_s": "s",
    "rows_per_s": "rows/s",
    "failed_ops": "share",
    "ll.naive_lr": "nats",
    "ll.lr_fsiw": "nats",
    "ll.dfm": "nats",
    "fsiw_gain_pct": "%",
    "fits_unconverged": "count",
}


def _quality(results: list) -> dict:
    """Test log loss per trainer, the FSIW gain, and unconverged fits (n/a
    where the workload has no such output)."""
    first = results[0] if results else None
    ll = first.ll if first else {}
    out = {f"ll.{t}": ll.get(t) for t in ("naive_lr", "lr_fsiw", "dfm")}
    naive, fsiw = ll.get("naive_lr"), ll.get("lr_fsiw")
    out["fsiw_gain_pct"] = 100.0 * (naive - fsiw) / naive if naive and fsiw else None
    out["fits_unconverged"] = first.unconverged if first else None
    return out


def _layer_metrics(tracing, tracers, absent, traced_s, untraced_s) -> tuple[dict, set]:
    """Median over traced calls of each target's self time and calls; also
    the metric keys whose function or counter is absent from the package."""
    per_call = [(t.summary(), t.counters, t.root_seconds(), wall) for t, wall in tracers]
    out: dict[str, float] = {}

    def median_of(fn) -> float:
        return statistics.median(fn(*c) for c in per_call) if per_call else float("nan")

    for module, function in tracing.TARGETS:
        name = f"{module}.{function}"
        out[f"{name}.self_s"] = median_of(lambda s, *_: s.get(name, {}).get("self_s", 0.0))
        out[f"{name}.calls"] = median_of(lambda s, *_: s.get(name, {}).get("calls", 0))
    evals = median_of(lambda s, *_: s.get(tracing.EVAL_SPAN, {}).get("calls", 0))
    eval_s = median_of(lambda s, *_: s.get(tracing.EVAL_SPAN, {}).get("total_s", 0.0))
    out["optim.evals"] = evals
    out["optim.s_per_eval"] = eval_s / evals if evals else 0.0
    out[tracing.RESAMPLES] = median_of(lambda s, counters, *_: counters.get(tracing.RESAMPLES, 0))
    out["trace.run_s"] = statistics.median(traced_s) if traced_s else float("nan")
    out["trace.untraced_run_s"] = statistics.median(untraced_s) if untraced_s else float("nan")
    out["trace.top_share"] = median_of(lambda s, c, root, wall: root / wall)
    out["trace.absent"] = len(absent)

    absent_keys = {f"{name}.{kind}" for name in absent for kind in ("self_s", "calls")}
    if tracing.EVAL_SPAN in absent:
        absent_keys |= {"optim.evals", "optim.s_per_eval"}
    if tracing.RESAMPLES in absent:
        absent_keys.add(tracing.RESAMPLES)
    return out, absent_keys


def _print_layers(layer: dict, absent_keys: set, units: dict) -> None:
    print("per-layer (median per traced call; 'absent' = name not in the package):")
    for key, value in layer.items():
        shown = "absent" if key in absent_keys else f"{value:.6g}"
        print(f"  {key:<46} {shown:>14} {units.get(key, '')}")
    wall = layer["trace.run_s"]
    overhead = wall / layer["trace.untraced_run_s"] - 1.0
    print(f"  traced run_s {wall:.4f} s vs untraced {layer['trace.untraced_run_s']:.4f} s: "
          f"tracing overhead {100 * overhead:+.1f}%")
    shares = {"objective evals": layer["optim.evals"] * layer["optim.s_per_eval"]}
    for key, value in layer.items():
        if key.endswith(".self_s"):
            module = key.split(".", 1)[0]
            shares[module] = shares.get(module, 0.0) + value
    print("  self time by module, share of traced run_s: " + ", ".join(
        f"{m} {100 * s / wall:.1f}%" for m, s in sorted(shares.items(), key=lambda kv: -kv[1]) if s > 0
    ))


def run_all(seed: int, seconds: float | None) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    spec = load_spec()
    seconds = seconds if seconds is not None else spec["run_seconds"]
    status = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"workload {workload['name']} trace {trace}: exit code {proc.returncode}")
                status = 1
    print("all workloads passed their checks" if status == 0 else "some workload FAILED")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload name (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
