"""Counterfactual-deadline relabeling.

To learn how often a snapshot label is still wrong, we replay labeling with a
deadline pulled ``tau`` seconds before the snapshot, from each row's elapsed
time ``e`` and observed delay ``d`` alone: a row with ``e <= tau`` was not
clicked before that deadline and is dropped, and the rest get a "was this
label already correct at the earlier deadline" indicator ``s``. Positives
land in D1; D0 holds the rows that looked negative at the earlier deadline.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import Snapshot


class ArtificialSet(NamedTuple):
    """One weight-model training set over the rows of a Snapshot.

    ``idx`` holds the set's snapshot rows in ascending order. ``e_adj`` is
    their elapsed time measured at the counterfactual deadline (the original
    ``e`` stays in the snapshot, because weight assignment predicts with it)
    and ``s`` is 1 where the row's label was already correct there.
    """

    idx: np.ndarray
    e_adj: np.ndarray
    s: np.ndarray


def build_artificial_datasets(train: Snapshot, tau: int) -> tuple[ArtificialSet, ArtificialSet]:
    """Split snapshot-labeled rows into the two weight-model training sets.

    ``tau`` (positive seconds) is how far before the snapshot the
    counterfactual deadline sits; every row's elapsed time ``e`` must be
    positive. At that deadline:
      * rows with e <= tau are excluded entirely;
      * a positive goes to D1 with s=1 if it converted strictly before the
        deadline (e - d > tau), else with s=0 — and in the latter case also
        to D0 with s=0 (at the earlier deadline it still looked negative);
      * a negative goes to D0 with s=1.
    Every kept row's adjusted elapsed time is e - tau, which the row filter
    keeps positive. Both sets list their rows in input order.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    late = train.e <= 0
    if np.any(late):
        raise ValueError(f"elapsed times must be positive, got {train.e[np.argmax(late)]}")
    kept = train.e > tau
    pos = train.y == 1
    early = pos & (train.e - train.d > tau)
    d1 = np.flatnonzero(kept & pos)
    d0 = np.flatnonzero(kept & ~early)
    e_adj = train.e - tau
    return (
        ArtificialSet(idx=d1, e_adj=e_adj[d1], s=early[d1].astype(np.int8)),
        ArtificialSet(idx=d0, e_adj=e_adj[d0], s=(~pos[d0]).astype(np.int8)),
    )
