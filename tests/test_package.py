"""The package's public names and the imports of its modules."""

from __future__ import annotations

import ast
import inspect
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest
import yaml

import fsiw

from test_experiment import _base_dict

SRC = Path(fsiw.__file__).parent
SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"

# traced by the benchmark but gone from the package: the first three were
# replaced by data.hash_csr and simulate.to_click_log, and bootstrap_ci, which
# no scorer has called since evaluate_columns draws its own resamples, was
# deleted; the benchmark's next change traces hash_csr, to_click_log and
# evaluate_columns instead
REPLACED_TARGETS = {
    ("simulate", "to_records"),
    ("data", "hash_records"),
    ("optim", "features_to_csr"),
    ("metrics", "bootstrap_ci"),
}


def test_every_public_name_is_listed_once_and_resolves() -> None:
    assert len(fsiw.__all__) == len(set(fsiw.__all__))
    missing = [name for name in fsiw.__all__ if not hasattr(fsiw, name)]
    assert missing == []


def _called_names(path: Path) -> set[str]:
    """The names a module calls, as ``name(...)`` or ``anything.name(...)``."""
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def test_every_public_function_is_called_from_another_module() -> None:
    # a function that only its own module and the tests call is not public
    # API; types and exceptions are exempt
    calls = {path.stem: _called_names(path) for path in SRC.glob("*.py")}
    uncalled = []
    for name in fsiw.__all__:
        obj = getattr(fsiw, name)
        if not inspect.isfunction(obj):
            continue
        home = obj.__module__.rpartition(".")[2]
        if not any(name in called for module, called in calls.items() if module != home):
            uncalled.append(f"{home}.{name}")
    assert uncalled == []


def test_importing_the_package_loads_no_submodule() -> None:
    probe = (
        "import sys, fsiw\n"
        "print(sorted(m for m in sys.modules if m.startswith('fsiw.')))\n"
        "from fsiw import run_pipeline\n"
        "print(run_pipeline.__module__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "fsiw.experiment"]


def test_fsiw_eval_loads_neither_scipy_nor_yaml_nor_the_training_stack(tmp_path) -> None:
    good, bad = tmp_path / "good.tsv", tmp_path / "bad.tsv"
    good.write_text("0\t0.2\n1\t0.7\n0\t0.4\n", encoding="utf-8")
    bad.write_text("0\t0.2\n1\tabc\n", encoding="utf-8")
    probe = (
        "import contextlib, io, sys\n"
        "import fsiw.cli\n"
        "def loaded(*roots):\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in roots)\n"
        "print([m for m in loaded('fsiw') if m not in ('fsiw', 'fsiw.cli')])\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [fsiw.cli.main(['eval', '--preds', p]) for p in sys.argv[1:]]\n"
        "print(codes)\n"
        "print(loaded('fsiw'))\n"
        "print(loaded('scipy', 'yaml'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(good), str(bad)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "[0, 2]",
        "['fsiw', 'fsiw.cli', 'fsiw.metrics']",
        "[]",
    ]


@pytest.mark.parametrize(
    "argv",
    [["run"], ["sweep", "--taus", "1d,2d"], ["simulate"], ["stats"]],
    ids=["run", "sweep", "simulate", "stats"],
)
def test_fsiw_verbs_load_no_scipy_subpackage_but_sparse(tmp_path, argv) -> None:
    # importing scipy.optimize alone, which pulls in scipy.linalg, raises a
    # fresh process's resident memory by about 22 MB, and scipy.special about
    # 5 MB: the package's one sigmoid is optim.sigmoid
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(_base_dict()), encoding="utf-8")
    probe = (
        "import contextlib, io, sys\n"
        "import fsiw.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = fsiw.cli.main(sys.argv[1:])\n"
        "print(code)\n"
        "print(sorted(name for name, module in sys.modules.items()\n"
        "             if name.startswith('scipy.') and name.count('.') == 1\n"
        "             and not name.startswith('scipy._') and hasattr(module, '__path__')))\n"
    )
    out = ["-o", str(tmp_path / "out")] if argv[0] != "stats" else []
    proc = subprocess.run(
        [sys.executable, "-c", probe, argv[0], "-c", str(config), *out, *argv[1:]],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0", "['scipy.sparse']"]


def test_importing_the_optimizer_loads_no_scipy() -> None:
    probe = (
        "import sys\n"
        "import fsiw.optim\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope: ast.AST):
    """The nodes of a module or function body, without those of the
    functions defined in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, except on ``# noqa: F401``
    lines and ``from __future__`` imports. A module-level import may be read
    anywhere in the module; one inside a function only in that function
    (including the functions nested in it)."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    unused = []
    for scope in (tree, *(n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS))):
        imported: dict[str, int] = {}
        for node in _own_nodes(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if "# noqa: F401" in lines[node.lineno - 1]:
                    continue
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        # a quoted annotation names what it uses inside its string
        quoted = [
            ast.parse(note.value, mode="eval")
            for node in ast.walk(scope)
            for note in (getattr(node, "annotation", None), getattr(node, "returns", None))
            if isinstance(note, ast.Constant) and isinstance(note.value, str)
        ]
        used = {
            node.id
            for root in (scope, *quoted)
            for node in ast.walk(root)
            if isinstance(node, ast.Name)
        }
        unused += [f"{path.name}:{n}: {name}" for name, n in imported.items() if name not in used]
    return unused


def test_no_module_imports_a_name_it_never_uses() -> None:
    unused = [entry for path in sorted(SRC.glob("*.py")) for entry in _unused_imports(path)]
    assert unused == []


def test_a_function_local_import_counts_as_used_only_in_its_function(tmp_path) -> None:
    path = tmp_path / "probe.py"
    path.write_text(
        "import json\n"
        "\n"
        "def load(text):\n"
        "    from math import inf, sqrt\n"
        "    return sqrt(json.loads(text))\n"
        "\n"
        "def top():\n"
        "    return inf\n",
        encoding="utf-8",
    )
    assert _unused_imports(path) == ["probe.py:4: inf"]


def test_every_function_the_benchmark_traces_exists() -> None:
    # read as text, so the test runs no benchmark code
    (targets,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(SPANS.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    ]
    absent = {
        (module, name)
        for module, name in targets
        if not callable(getattr(import_module(f"fsiw.{module}"), name, None))
    }
    assert absent == REPLACED_TARGETS
