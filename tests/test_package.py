"""The package's public names and the imports of its modules."""

from __future__ import annotations

import ast
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import fsiw

SRC = Path(fsiw.__file__).parent
SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"

# traced by the benchmark but replaced by data.hash_csr and
# simulate.to_click_log; the benchmark's next change traces those instead
REPLACED_TARGETS = {
    ("simulate", "to_records"),
    ("data", "hash_records"),
    ("optim", "features_to_csr"),
}


def test_every_public_name_is_listed_once_and_resolves() -> None:
    assert len(fsiw.__all__) == len(set(fsiw.__all__))
    missing = [name for name in fsiw.__all__ if not hasattr(fsiw, name)]
    assert missing == []


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


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, except on ``# noqa: F401``
    lines and ``from __future__`` imports."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
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
        for node in ast.walk(tree)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if isinstance(note, ast.Constant) and isinstance(note.value, str)
    ]
    used = {
        node.id
        for root in (tree, *quoted)
        for node in ast.walk(root)
        if isinstance(node, ast.Name)
    }
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses() -> None:
    unused = [entry for path in sorted(SRC.glob("*.py")) for entry in _unused_imports(path)]
    assert unused == []


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
