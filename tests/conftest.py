"""Shared test set-up."""

from __future__ import annotations

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def pytest_configure(config) -> None:
    # CLI tests run `python -m fsiw` in child processes; they import fsiw from
    # this checkout, as the test process does through `pythonpath`
    paths = (str(SRC), os.environ.get("PYTHONPATH"))
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
