"""Harvest-store-use energetics of a node.

A node stores energy in a supercapacitor with usable capacity B, harvests
according to a per-node power trace, and spends through a buck converter
whose efficiency divides every load-side joule. A reactive energy manager
keeps the node off until stored energy surpasses a start threshold,
sampling the storage voltage on a fixed interval while off, and powers the
node off again when storage empties.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .radio import RadioConfig, RadioPowerTable


def step_storage(e_cap: float, e_harv: float, e_used: float,
                 capacity_b: float) -> float:
    """One storage update: charge, discharge, clamp to [0, B]."""
    if e_harv < 0 or e_used < 0:
        raise ValueError("harvested and used energy must be >= 0")
    return max(min(e_cap + e_harv - e_used, capacity_b), 0.0)


def energy_from_voltage(capacitance_c: float, v: float) -> float:
    if v < 0:
        raise ValueError("voltage must be >= 0")
    return 0.5 * capacitance_c * v * v


@dataclass
class EnergyStorage:
    """Usable stored energy, clamped to [0, capacity_b]."""

    e_cap: float
    capacity_b: float = 0.7
    capacitance_c: float = 0.35

    def __post_init__(self):
        if not 0.0 <= self.e_cap <= self.capacity_b:
            raise ValueError("e_cap must lie in [0, capacity_b]")

    @property
    def voltage(self) -> float:
        return math.sqrt(2.0 * self.e_cap / self.capacitance_c)


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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
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
        if np.any(arr < 0):
            raise ValueError("harvested power must be >= 0")
        if resolution_s <= 0:
            raise ValueError("resolution must be positive")
        self.samples = arr
        self.resolution_s = float(resolution_s)
        # cumulative joules up to each sample boundary, for O(1) integrals
        self._cum_j = np.concatenate(
            ([0.0], np.cumsum(arr) * self.resolution_s)
        )

    @property
    def span_s(self) -> float:
        return self.samples.size * self.resolution_s

    def _integral_to(self, t: float) -> float:
        k = int(t // self.resolution_s)
        k = min(k, self.samples.size)  # t == span lands on the last boundary
        partial = t - k * self.resolution_s
        base = self._cum_j[k]
        if partial > 0:
            base += self.samples[k] * partial
        return float(base)

    def energy_between(self, t0: float, t1: float) -> float:
        if t0 > t1:
            raise ValueError("t0 must not exceed t1")
        if t0 < 0 or t1 > self.span_s + 1e-9:
            raise ValueError("query outside trace span")
        return self._integral_to(min(t1, self.span_s)) - self._integral_to(t0)

    def interval_energies(self, step_s: float) -> np.ndarray:
        """Joules harvested in each consecutive step over the whole span."""
        n = int(math.ceil(self.span_s / step_s))
        bounds = np.minimum(np.arange(n + 1) * step_s, self.span_s)
        vals = np.array([self._integral_to(t) for t in bounds])
        return np.diff(vals)


def harvest_energy(trace: HarvestTrace, t0: float, t1: float,
                   charge_efficiency: float) -> float:
    """Harvested joules delivered to storage over [t0, t1]."""
    return charge_efficiency * trace.energy_between(t0, t1)


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


def apply_harvest(ledger: EnergyLedger, storage: EnergyStorage,
                  delivered: float) -> float:
    """Credit harvested joules to storage, overflow going to waste.

    Returns the wasted portion.
    """
    if delivered < 0:
        raise ValueError("delivered energy must be >= 0")
    room = storage.capacity_b - storage.e_cap
    stored = min(delivered, room)
    storage.e_cap += stored
    wasted = delivered - stored
    ledger.add_harvest(delivered, wasted)
    return wasted


class ReactiveAction(enum.Enum):
    STAY_OFF = "stay_off"
    START_COMMUNICATING = "start_communicating"
    KEEP_COMMUNICATING = "keep_communicating"
    POWER_OFF = "power_off"


def reactive_decision(storage: EnergyStorage, params: EnergyParams,
                      currently_communicating: bool) -> ReactiveAction:
    """Reactive energy manager: strict threshold to start, empty to stop."""
    if currently_communicating:
        if storage.e_cap <= 0.0:
            return ReactiveAction.POWER_OFF
        return ReactiveAction.KEEP_COMMUNICATING
    if storage.e_cap > params.start_threshold:
        return ReactiveAction.START_COMMUNICATING
    return ReactiveAction.STAY_OFF
