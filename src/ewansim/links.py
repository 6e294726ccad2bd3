"""Path-loss matrices describing who can hear whom."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .radio import RadioConfig, reception_probability


class ReachMasks(NamedTuple):
    """A reception table p[i][j] seen as sets of nodes, each an int whose
    bit j stands for node j, and as each listener's ranked senders."""

    reach: list[int]  # reach[i]: the j with p[i][j] > 0
    sure: list[int]  # sure[i]: the j with p[i][j] == 1
    # senders[j]: (p[i][j], bit i) for each i with p[i][j] > 0, highest
    # probability first
    senders: list[list[tuple[float, int]]]


def node_mask(nodes: Iterable[int]) -> int:
    """The bitmask with bit j set for each node j in nodes."""
    mask = 0
    for j in nodes:
        mask |= 1 << j
    return mask


def mask_nodes(mask: int) -> list[int]:
    """The nodes whose bits are set in mask, in ascending order."""
    nodes = []
    while mask:
        low = mask & -mask
        nodes.append(low.bit_length() - 1)
        mask ^= low
    return nodes


@dataclass(frozen=True)
class LinkMatrix:
    """Symmetric n x n path loss in dB, host at index 0, diagonal unused."""

    n: int
    loss: np.ndarray = field(repr=False)
    # the losses as nested lists, for scalar reads
    loss_rows: list = field(init=False, repr=False, compare=False)
    # config -> (reception table, reach masks, received powers), filled on
    # first use
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        # a private read-only copy, so the cached reception tables stay valid
        arr = np.array(self.loss, dtype=float)
        arr.flags.writeable = False
        if arr.shape != (self.n, self.n):
            raise ValueError(
                f"loss matrix shape {arr.shape} does not match n={self.n}"
            )
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            i, j = bad[0]
            raise ValueError(
                f"path loss [{i}][{j}] must be finite, got {arr[i, j]}")
        if np.any(arr < 0.0):
            raise ValueError("path loss entries must be >= 0 dB")
        if not np.allclose(arr, arr.T, atol=1e-9):
            raise ValueError("path loss matrix must be symmetric")
        object.__setattr__(self, "loss", arr)
        object.__setattr__(self, "loss_rows", arr.tolist())

    def loss_db(self, i: int, j: int) -> float:
        return self.loss_rows[i][j]

    def _cached(self, config: RadioConfig):
        got = self._tables.get(config)
        if got is None:
            rx = [[config.tx_power_dbm - loss for loss in row]
                  for row in self.loss_rows]
            table = [[reception_probability(dbm, config.sensitivity_dbm)
                      for dbm in row] for row in rx]
            masks = ReachMasks(
                reach=[node_mask(j for j, p in enumerate(row) if p > 0.0)
                       for row in table],
                sure=[node_mask(j for j, p in enumerate(row) if p >= 1.0)
                      for row in table],
                senders=[sorted(((p, 1 << i) for i, p in enumerate(col)
                                 if p > 0.0), reverse=True)
                         for col in zip(*table)],
            )
            got = self._tables[config] = (table, masks, rx)
        return got

    def reception_table(self, config: RadioConfig) -> list[list[float]]:
        """p[i][j], the reception probability of a lone packet from i heard
        at j, computed once per config and then shared."""
        return self._cached(config)[0]

    def reach_masks(self, config: RadioConfig) -> ReachMasks:
        """The reception table as bitmasks, cached with it."""
        return self._cached(config)[1]

    def rx_dbm(self, config: RadioConfig) -> list[list[float]]:
        """rx[i][j], the power in dBm at which j hears i's transmission,
        cached with the reception table."""
        return self._cached(config)[2]

    def link_probability(self, i: int, j: int, config: RadioConfig) -> float:
        """Reception probability of a lone packet from i heard at j."""
        return self.reception_table(config)[i][j]

    def all_links_deterministic(self, config: RadioConfig) -> bool:
        """True when every pairwise link has reception probability exactly
        0 or 1, which makes any single-packet flood independent of the
        random stream."""
        table = self.reception_table(config)
        return not any(0.0 < p < 1.0
                       for a, row in enumerate(table) for p in row[a + 1:])
