"""Shared test set-up."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def pytest_configure(config) -> None:
    # CLI tests run `python -m fsiw` in child processes; they import fsiw from
    # this checkout, as the test process does through `pythonpath`
    paths = (str(SRC), os.environ.get("PYTHONPATH"))
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)


@pytest.fixture()
def hash_calls(monkeypatch) -> list[tuple[int, str]]:
    """Every (field_id, token) pair that the feature hash is asked for."""
    import fsiw.data as data_mod

    calls: list[tuple[int, str]] = []
    real_hash = data_mod.stable_feature_hash

    def counting_hash(field_id: int, token: str, seed: int) -> int:
        calls.append((field_id, token))
        return real_hash(field_id, token, seed)

    monkeypatch.setattr(data_mod, "stable_feature_hash", counting_hash)
    return calls
