"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the ``fsiw.*`` modules at run time, from
outside the package: every module attribute that refers to a target function
is rebound to one wrapper, so calls through ``from .x import f`` bindings are
seen too. Each wrapper records a span (name, start, end, parent). A name that
no longer exists in the package is reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, function) pairs traced in every workload, grouped by layer
TARGETS = (
    ("cli", "main"),
    ("cli", "cmd_run"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_eval"),
    ("experiment", "run_pipeline"),
    ("experiment", "deadline_sweep"),
    ("experiment", "rolling_splits"),
    ("experiment", "write_report_csv"),
    ("experiment", "write_report_json"),
    ("experiment", "write_manifest"),
    ("simulate", "generate_arrays"),
    ("simulate", "to_records"),
    ("data", "read_tsv"),
    ("data", "snapshot_labels"),
    ("data", "hash_records"),
    ("data", "full_observation_labels"),
    ("relabel", "build_artificial_datasets"),
    ("weights", "fit_weight_model"),
    ("weights", "assign_fsiw"),
    ("weights", "dump_weights"),
    ("optim", "features_to_csr"),
    ("optim", "minimize_batch"),
    ("training", "train_naive_logistic"),
    ("training", "train_weighted_logistic"),
    ("training", "train_dfm"),
    ("training", "predict_cvr_batch"),
    ("training", "save_model"),
    ("metrics", "evaluate_predictions"),
    ("metrics", "bootstrap_ci"),
)

# the optimizer entry the trainers call, and its objective arguments; each
# call of one of these arguments is an "optim.eval" span
OPTIMIZER = "optim.minimize_batch"
OBJECTIVE_ARGS = ("fun_grad", "fun")
EVAL_SPAN = "optim.eval"
# the bootstrap entry and the argument holding its resample count
BOOTSTRAP = "metrics.bootstrap_ci"
RESAMPLE_ARG = "b"
RESAMPLES = f"{BOOTSTRAP}.resamples"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_s: float = 0.0


@dataclass
class Tracer:
    """Collects spans and counters; one tracer per traced CLI call."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn, on_call=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name=name, start=time.perf_counter(), parent=parent)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.end - span.start

        return traced

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span.end - span.start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - span.child_s
        return out

    def root_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)


def _bound_hook(fn, params: tuple[str, ...], act):
    """An argument hook for ``fn`` that hands the named arguments to ``act``,
    or None when ``fn`` does not take all of them."""
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return None
    if not all(p in signature.parameters for p in params):
        return None

    def hook(args, kwargs):
        try:
            bound = signature.bind(*args, **kwargs)
        except TypeError:
            return args, kwargs  # let the real call raise
        act(bound.arguments)
        return bound.args, bound.kwargs

    return hook


def resolve_targets() -> tuple[dict[str, object], list[str]]:
    """Look up every target; returns (name -> function, absent names)."""
    found: dict[str, object] = {}
    absent: list[str] = []
    for module_name, attr in TARGETS:
        name = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(f"fsiw.{module_name}")
        except ImportError:
            absent.append(name)
            continue
        fn = getattr(module, attr, None)
        if callable(fn):
            found[name] = fn
        else:
            absent.append(name)
    return found, absent


def _argument_hooks(tracer: Tracer, found: dict[str, object]) -> tuple[dict, list[str]]:
    """Hooks that count optimizer evaluations and bootstrap resamples."""
    hooks: dict = {}
    absent: list[str] = []

    def wrap_objectives(arguments) -> None:
        for param in OBJECTIVE_ARGS:
            if callable(arguments.get(param)):
                arguments[param] = tracer.wrap(EVAL_SPAN, arguments[param])

    def count_resamples(arguments) -> None:
        tracer.count(RESAMPLES, int(arguments[RESAMPLE_ARG]))

    for target, params, act, counter in (
        (OPTIMIZER, OBJECTIVE_ARGS, wrap_objectives, EVAL_SPAN),
        (BOOTSTRAP, (RESAMPLE_ARG,), count_resamples, RESAMPLES),
    ):
        hook = _bound_hook(found[target], params, act) if target in found else None
        if hook is None:
            absent.append(counter)
        else:
            hooks[target] = hook
    return hooks, absent


@contextmanager
def traced(tracer: Tracer):
    """Rebind every target in the loaded ``fsiw`` modules for the duration.

    Yields the list of absent names (targets and counters)."""
    found, absent = resolve_targets()
    hooks, absent_counters = _argument_hooks(tracer, found)
    wrappers = {
        id(fn): tracer.wrap(name, fn, hooks.get(name)) for name, fn in found.items()
    }
    rebound = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "fsiw" or mod_name.startswith("fsiw.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
                rebound.append((module, attr, value))
    try:
        yield absent + absent_counters
    finally:
        for module, attr, value in rebound:
            setattr(module, attr, value)
