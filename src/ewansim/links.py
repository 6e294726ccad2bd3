"""Path-loss matrices describing who can hear whom."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .radio import RadioConfig, reception_probability


@dataclass(frozen=True)
class LinkMatrix:
    """Symmetric n x n path loss in dB, host at index 0, diagonal unused."""

    n: int
    loss: np.ndarray = field(repr=False)
    # (config, ramp width) -> reception table, filled on first use
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

    @classmethod
    def from_lists(cls, rows: list[list[float]]) -> "LinkMatrix":
        return cls(n=len(rows), loss=np.asarray(rows, dtype=float))

    def loss_db(self, i: int, j: int) -> float:
        return float(self.loss[i, j])

    def reception_table(self, config: RadioConfig,
                        ramp_width_db: float = 2.0) -> list[list[float]]:
        """p[i][j], the reception probability of a lone packet from i heard
        at j, computed once per (config, ramp width) and then shared."""
        key = (config, ramp_width_db)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = [
                [reception_probability(config.tx_power_dbm - self.loss_db(i, j),
                                       config.sensitivity_dbm, ramp_width_db)
                 for j in range(self.n)]
                for i in range(self.n)
            ]
        return table

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
