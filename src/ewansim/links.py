"""Path-loss matrices describing who can hear whom."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .radio import RadioConfig, reception_probability


class ReachMasks(NamedTuple):
    """A reception table p[i][j] seen as sets of nodes, each an int whose
    bit j stands for node j."""

    reach: list[int]  # reach[i]: the j with p[i][j] > 0
    sure: list[int]  # sure[i]: the j with p[i][j] == 1
    heard: list[int]  # heard[j]: the i with p[i][j] > 0
    p_to: list[list[float]]  # p_to[j][i] == p[i][j]


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
    # the losses as nested lists, for scalar reads in the flood kernel
    loss_rows: list = field(init=False, repr=False, compare=False)
    # (config, ramp width) -> (reception table, reach masks), filled on
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
        if np.any(arr < 0.0):
            raise ValueError("path loss entries must be >= 0 dB")
        if not np.allclose(arr, arr.T, atol=1e-9):
            raise ValueError("path loss matrix must be symmetric")
        object.__setattr__(self, "loss", arr)
        object.__setattr__(self, "loss_rows", arr.tolist())

    def loss_db(self, i: int, j: int) -> float:
        return self.loss_rows[i][j]

    def _cached(self, config: RadioConfig, ramp_width_db: float):
        key = (config, ramp_width_db)
        got = self._tables.get(key)
        if got is None:
            table = [
                [reception_probability(config.tx_power_dbm - loss,
                                       config.sensitivity_dbm, ramp_width_db)
                 for loss in row]
                for row in self.loss_rows
            ]
            columns = [list(col) for col in zip(*table)]
            masks = ReachMasks(
                reach=[node_mask(j for j, p in enumerate(row) if p > 0.0)
                       for row in table],
                sure=[node_mask(j for j, p in enumerate(row) if p >= 1.0)
                      for row in table],
                heard=[node_mask(i for i, p in enumerate(col) if p > 0.0)
                       for col in columns],
                p_to=columns,
            )
            got = self._tables[key] = (table, masks)
        return got

    def reception_table(self, config: RadioConfig,
                        ramp_width_db: float = 2.0) -> list[list[float]]:
        """p[i][j], the reception probability of a lone packet from i heard
        at j, computed once per (config, ramp width) and then shared."""
        return self._cached(config, ramp_width_db)[0]

    def reach_masks(self, config: RadioConfig,
                    ramp_width_db: float = 2.0) -> ReachMasks:
        """The reception table as bitmasks, cached with it."""
        return self._cached(config, ramp_width_db)[1]

    def link_probability(self, i: int, j: int, config: RadioConfig,
                         ramp_width_db: float = 2.0) -> float:
        """Reception probability of a lone packet from i heard at j."""
        return self.reception_table(config, ramp_width_db)[i][j]

    def all_links_deterministic(self, nodes, config: RadioConfig,
                                ramp_width_db: float = 2.0) -> bool:
        """True when every pairwise link among the given nodes has
        reception probability exactly 0 or 1, which makes any
        single-packet flood over them independent of the random stream."""
        table = self.reception_table(config, ramp_width_db)
        ids = sorted(nodes)
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                if 0.0 < table[ids[a]][ids[b]] < 1.0:
                    return False
        return True
