"""Counterfactual-deadline relabeling.

To learn how often a snapshot label is still wrong, we replay labeling with a
deadline pulled ``tau`` seconds earlier: any sample whose click is too recent
to have had a full ``tau`` of observation is dropped, and the rest get an
"was this label already correct at the earlier deadline" indicator ``s``.
Positives (eventual converters among the kept window) land in D1; D0 holds
the samples that looked negative at the earlier deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Snapshot


class ConfigError(ValueError):
    """A relabeling/experiment configuration violates its invariants."""


@dataclass(frozen=True)
class RelabelConfig:
    """tau: how far before training_end the counterfactual deadline sits."""

    tau: int
    training_end: int

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.tau >= self.training_end:
            raise ConfigError("tau must leave a non-empty window before training_end")

    @property
    def cutoff(self) -> int:
        """The counterfactual deadline itself (training_end - tau)."""
        return self.training_end - self.tau


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


def build_artificial_datasets(
    train: Snapshot, cfg: RelabelConfig
) -> tuple[ArtificialSet, ArtificialSet]:
    """Split snapshot-labeled rows into the two weight-model training sets.

    With cutoff = training_end - tau:
      * clicks at or after the cutoff are excluded entirely;
      * a positive goes to D1 with s=1 if it converted strictly before the
        cutoff, else with s=0 — and in the latter case also to D0 with s=0
        (at the earlier deadline it still looked negative);
      * a negative goes to D0 with s=1.
    Every kept row's adjusted elapsed time is e - tau, which the click filter
    keeps positive. Both sets list their rows in input order.
    """
    late = train.click_ts >= cfg.training_end
    if np.any(late):
        raise ValueError(
            f"sample clicked at {train.click_ts[np.argmax(late)]}, "
            f"after training_end {cfg.training_end}"
        )
    kept = train.click_ts < cfg.cutoff
    pos = train.y == 1
    early = pos & (train.click_ts + train.d < cfg.cutoff)
    d1 = np.flatnonzero(kept & pos)
    d0 = np.flatnonzero(kept & ~early)
    e_adj = train.e - cfg.tau
    return (
        ArtificialSet(idx=d1, e_adj=e_adj[d1], s=early[d1].astype(np.int8)),
        ArtificialSet(idx=d0, e_adj=e_adj[d0], s=(~pos[d0]).astype(np.int8)),
    )
