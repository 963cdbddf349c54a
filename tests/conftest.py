"""Shared test set-up."""

from __future__ import annotations

import os
import threading
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


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that ends with a live thread it did not start with, such
    as a bootstrap draw thread that was never joined."""
    before = set(threading.enumerate())
    yield
    leaked = [thread.name for thread in threading.enumerate() if thread not in before]
    if leaked:
        pytest.fail(f"threads still running after the test: {leaked}")


@pytest.fixture(autouse=True)
def no_child_process_outlives_its_test():
    """Fail a test that ends with a child process alive or unreaped, such as
    a forked fit that was never waited for."""
    yield
    unreaped = []  # reaped here, so that a later test is not blamed for them
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break  # no child left
        if pid == 0:
            pytest.fail("a child process is still running after the test")
        unreaped.append(f"{pid} (status {status})")
    if unreaped:
        pytest.fail(f"child processes exited but were never reaped: {unreaped}")
