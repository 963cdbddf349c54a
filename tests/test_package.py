"""The package's public names."""

from __future__ import annotations

import fsiw


def test_every_public_name_is_listed_once_and_resolves() -> None:
    assert len(fsiw.__all__) == len(set(fsiw.__all__))
    missing = [name for name in fsiw.__all__ if not hasattr(fsiw, name)]
    assert missing == []
