"""Harvest-store-use energetics of a node.

A node stores energy in a supercapacitor with usable capacity B, harvests
according to a per-node power trace, and spends through a buck converter
whose efficiency divides every load-side joule. A reactive energy manager
keeps the node off until stored energy surpasses a start threshold,
sampling the storage on a fixed interval while off, and powers the node
off again when storage empties.

NodeAccount is the one energy model the simulator runs: it integrates a
node's harvest trace against its activity and books every joule in the
node's EnergyLedger.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import SimulationError
from .radio import RadioConfig, RadioPowerTable

# clock slack: an advance to within this many seconds of the clock books
# nothing
CLOCK_EPS_S = 1e-9


@dataclass
class EnergyStorage:
    """Usable stored energy, clamped to [0, capacity_b]."""

    e_cap: float
    capacity_b: float = 0.7

    def __post_init__(self):
        if not 0.0 <= self.e_cap <= self.capacity_b:
            raise ValueError("e_cap must lie in [0, capacity_b]")


@dataclass(frozen=True)
class EnergyParams:
    """Platform constants of the energy subsystem.

    Defaults reproduce the measured reference platform: boot-state and
    sleep draws in the tens of microwatts, idle around ten milliwatts,
    millijoule-scale one-time costs, a 0.9-efficient buck converter, a
    0.115 J start threshold, and 30 s storage sampling while off.
    """

    e_boot: float = 13.655e-6
    e_com_init: float = 17.25e-3
    p_boot: float = 27.254e-6
    p_sleep: float = 26.831e-6
    p_idle: float = 10.516e-3
    buck_efficiency: float = 0.9
    start_threshold: float = 0.115
    sample_interval: float = 30.0
    charge_efficiency: float = 1.0

    def __post_init__(self):
        for name in ("e_boot", "e_com_init", "p_boot", "p_sleep", "p_idle",
                     "start_threshold", "sample_interval"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0.0 < self.buck_efficiency <= 1.0:
            raise ValueError("buck_efficiency must be in (0, 1]")
        if not 0.0 < self.charge_efficiency <= 1.0:
            raise ValueError("charge_efficiency must be in (0, 1]")


class HarvestTrace:
    """Piecewise-constant harvested power at fixed resolution.

    Sample k holds the power over [k*resolution, (k+1)*resolution).
    """

    def __init__(self, samples, resolution_s: float):
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("trace needs a one-dimensional sample array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("harvested power samples must be finite")
        if np.any(arr < 0):
            raise ValueError("harvested power must be >= 0")
        if not 0 < resolution_s < math.inf:
            raise ValueError("resolution must be finite and positive")
        self.samples = arr
        self.resolution_s = float(resolution_s)


class Activity(enum.Enum):
    TX = "tx"
    LISTEN = "listen"
    IDLE = "idle"
    SLEEP = "sleep"
    BOOT_WAIT = "boot_wait"      # off state: continuous p_boot draw
    BOOT_SAMPLE = "boot_sample"  # fixed per power-on application start
    COM_INIT = "com_init"        # fixed per start-communicating event


# ledger category per activity
ACTIVITY_CATEGORY = {
    Activity.TX: "tx",
    Activity.LISTEN: "listen",
    Activity.IDLE: "idle",
    Activity.SLEEP: "sleep",
    Activity.BOOT_WAIT: "boot",
    Activity.BOOT_SAMPLE: "boot",
    Activity.COM_INIT: "com_init",
}

LEDGER_CATEGORIES = ("tx", "listen", "idle", "sleep", "boot", "com_init")


def per_activity_energy(
    activity: Activity,
    params: EnergyParams,
    power_table: Optional[RadioPowerTable] = None,
    duration_s: float = 0.0,
    config: Optional[RadioConfig] = None,
) -> float:
    """Load-side joules of one activity (before buck-converter division)."""
    if duration_s < 0:
        raise ValueError("duration must be >= 0")
    if activity is Activity.TX:
        return power_table.tx_watts(config) * duration_s
    if activity is Activity.LISTEN:
        return power_table.rx_watts(config) * duration_s
    if activity is Activity.IDLE:
        return params.p_idle * duration_s
    if activity is Activity.SLEEP:
        return params.p_sleep * duration_s
    if activity is Activity.BOOT_WAIT:
        return params.p_boot * duration_s
    if activity is Activity.BOOT_SAMPLE:
        return params.e_boot
    if activity is Activity.COM_INIT:
        return params.e_com_init
    raise ValueError(f"unknown activity {activity!r}")


class _KahanSum:
    """Compensated accumulator; keeps week-long ledgers exact to < 1 nJ."""

    __slots__ = ("total", "comp")

    def __init__(self):
        self.total = 0.0
        self.comp = 0.0

    def add(self, x: float):
        y = x - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t


class EnergyLedger:
    """Per-node cumulative joules by category plus harvest bookkeeping.

    Categories record energy drawn from storage (after the buck-converter
    division); e_in records energy delivered to the storage input and
    e_wasted the portion lost to the full-capacity clamp.
    """

    def __init__(self):
        self._cats = {name: _KahanSum() for name in LEDGER_CATEGORIES}
        self._e_in = _KahanSum()
        self._e_wasted = _KahanSum()

    def add_drawn(self, category: str, joules: float):
        self._cats[category].add(joules)

    def add_harvest(self, delivered: float, wasted: float):
        self._e_in.add(delivered)
        self._e_wasted.add(wasted)

    @property
    def e_in(self) -> float:
        return self._e_in.total

    @property
    def e_wasted(self) -> float:
        return self._e_wasted.total

    def drawn(self, category: str) -> float:
        return self._cats[category].total

    @property
    def total_drawn(self) -> float:
        return math.fsum(k.total for k in self._cats.values())

    def as_dict(self) -> dict[str, float]:
        out = {name: acc.total for name, acc in self._cats.items()}
        out["e_in"] = self.e_in
        out["e_wasted"] = self.e_wasted
        return out

    def conservation_error(self, initial_e_cap: float,
                           final_e_cap: float) -> float:
        """e_in - (storage delta + total drawn + clamp waste); ~0 always."""
        delta = final_e_cap - initial_e_cap
        return self.e_in - (delta + self.total_drawn + self.e_wasted)


def consume(
    ledger: EnergyLedger,
    storage: EnergyStorage,
    category: str,
    amount_at_load: float,
    efficiency: float,
) -> bool:
    """Draw one activity's energy from storage through the converter.

    Returns True when the draw empties the storage mid-activity, i.e. the
    node powers off before completing whatever it was doing.
    """
    if amount_at_load < 0:
        raise ValueError("amount_at_load must be >= 0")
    if amount_at_load == 0:
        return False
    drawn_request = amount_at_load / efficiency
    if drawn_request > storage.e_cap:
        drawn = storage.e_cap
        storage.e_cap = 0.0
        ledger.add_drawn(category, drawn)
        return True
    storage.e_cap -= drawn_request
    ledger.add_drawn(category, drawn_request)
    return False


class NodeAccount:
    """Energy state of one node: storage, harvest trace, ledger, clock.

    The clock tracks the last instant energy was accounted for; every
    advance integrates harvested and drawn power over the gap with a
    single combined charge/discharge/clamp step per trace segment, which
    keeps the conservation identity exact.
    """

    __slots__ = (
        "node", "storage", "params", "trace", "ledger",
        "clock_s", "_res", "_samples", "_n", "_ceff", "_eff", "_nz_starts",
    )

    def __init__(self, node: int, storage: EnergyStorage, params: EnergyParams,
                 trace: HarvestTrace):
        self.node = node
        self.storage = storage
        self.params = params
        self.trace = trace
        self.ledger = EnergyLedger()
        self.clock_s = 0.0
        self._res = trace.resolution_s
        # plain list: scalar indexing in the integrate loop is pure python
        self._samples = trace.samples.tolist()
        self._n = len(self._samples)
        self._ceff = params.charge_efficiency
        self._eff = params.buck_efficiency
        nz = np.nonzero(trace.samples)[0]
        self._nz_starts = nz * self._res

    def integrate(self, t1: float, p_load: float, category: str,
                  die: bool) -> Optional[float]:
        """Advance the clock to t1 drawing p_load (load side) throughout.

        With die=True an emptied storage aborts the activity and the
        empty time is returned; with die=False (off-state monitoring)
        the storage clamps at zero and time keeps moving.
        """
        t = self.clock_s
        if t1 <= t + CLOCK_EPS_S:
            if t1 < t - 1e-6:
                raise SimulationError(
                    f"node {self.node}: time reversed {t} -> {t1}")
            self.clock_s = max(t, t1)
            return None
        p_draw = p_load / self._eff
        e = self.storage.e_cap
        cap = self.storage.capacity_b
        res = self._res
        samples = self._samples
        n = self._n
        ceff = self._ceff
        # the ledger's compensated sums, updated inline below with exactly
        # the adds of EnergyLedger.add_harvest then add_drawn, 0.0 included
        ledger = self.ledger
        s_in, s_waste, s_cat = (ledger._e_in, ledger._e_wasted,
                                ledger._cats[category])
        in_t, in_c = s_in.total, s_in.comp
        w_t, w_c = s_waste.total, s_waste.comp
        d_t, d_c = s_cat.total, s_cat.comp
        died = False
        while True:
            k = int(t / res)
            seg_end = (k + 1) * res
            end = t1 if t1 < seg_end else seg_end
            dt = end - t
            if dt > 0.0:
                p_in = samples[k] * ceff if k < n else 0.0
                h = p_in * dt
                u = p_draw * dt
                avail = e + h
                w = 0.0
                if u >= avail and u > 0.0:
                    if die:
                        denom = p_draw - p_in
                        tau = e / denom if denom > 0.0 else dt
                        if tau > dt:
                            tau = dt
                        h = p_in * tau
                        u = e + h
                        end = t1 = t + tau
                        died = True
                    else:
                        # off-state monitor: eats the trickle, clamps at zero
                        u = avail
                    e = 0.0
                else:
                    e = avail - u
                    if e > cap:
                        w = e - cap
                        e = cap
                y = h - in_c
                x = in_t + y
                in_c = (x - in_t) - y
                in_t = x
                y = w - w_c
                x = w_t + y
                w_c = (x - w_t) - y
                w_t = x
                y = u - d_c
                x = d_t + y
                d_c = (x - d_t) - y
                d_t = x
            t = end
            if t >= t1:
                break
        s_in.total, s_in.comp = in_t, in_c
        s_waste.total, s_waste.comp = w_t, w_c
        s_cat.total, s_cat.comp = d_t, d_c
        self.storage.e_cap = e
        self.clock_s = t1
        return t1 if died else None

    def advance(self, t1: float, load: tuple[float, str]) -> Optional[float]:
        """Perform one continuous activity, given as (load power, ledger
        category), until t1; returns the death time if the storage empties
        before t1."""
        return self.integrate(t1, load[0], load[1], True)

    def spend(self, activity: Activity) -> bool:
        """Draw one fixed-cost activity at the current instant."""
        if activity not in (Activity.BOOT_SAMPLE, Activity.COM_INIT):
            raise SimulationError(f"{activity} is not a fixed-cost activity")
        return consume(self.ledger, self.storage, ACTIVITY_CATEGORY[activity],
                       per_activity_energy(activity, self.params), self._eff)

    def next_power_time(self, t: float) -> float:
        """Earliest time >= t with nonzero harvested power (inf if none)."""
        arr = self._nz_starts
        i = int(np.searchsorted(arr, t, side="right"))
        if i > 0 and arr[i - 1] + self._res > t:
            return t
        return float(arr[i]) if i < arr.size else float("inf")

    def drawn_snapshot(self) -> tuple[float, float, float]:
        cats = self.ledger._cats
        return (cats["tx"].total, cats["listen"].total, cats["idle"].total)
