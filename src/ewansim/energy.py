"""Harvest-store-use energetics of a node.

A node stores energy in a supercapacitor with usable capacity B, harvests
according to a per-node power trace, and spends through a buck converter
whose efficiency divides every load-side joule. A reactive energy manager
keeps the node off until stored energy surpasses a start threshold,
sampling the storage on a fixed interval while off, and powers the node
off again when storage empties.

NodeAccount is the whole energy model the simulator runs: it holds the
node's storage, integrates its harvest trace against its activity, draws
fixed costs through the converter, and books every joule in its ledger
of compensated sums. The energy manager's start threshold, sampling
interval and boot-state draw come from the account's EnergyParams:
scan_start and monitor take only times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import SimulationError, check_fields

# clock slack: an advance to within this many seconds of the clock books
# nothing
CLOCK_EPS_S = 1e-9


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
        check_fields(self)
        for name in ("e_boot", "e_com_init", "p_boot", "p_sleep", "p_idle",
                     "start_threshold", "sample_interval"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("buck_efficiency", "charge_efficiency"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")


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


# the ledger's categories: energy drawn from storage (after the
# buck-converter division) by activity
LEDGER_CATEGORIES = ("tx", "listen", "idle", "sleep", "boot", "com_init")
# every compensated sum of a ledger, in the order ledger() lists them:
# e_in is the energy delivered to the storage input and e_wasted the part
# of it lost to the full-capacity clamp
_LEDGER_KEYS = LEDGER_CATEGORIES + ("e_in", "e_wasted")
# each category's position in NodeAccount._sums and _comps; e_in and
# e_wasted follow at _E_IN and _E_WASTED, out of a category's reach
_AT = {name: i for i, name in enumerate(LEDGER_CATEGORIES)}
_E_IN, _E_WASTED = len(LEDGER_CATEGORIES), len(LEDGER_CATEGORIES) + 1


class NodeAccount:
    """Energy state of one node: storage, harvest trace, ledger, clock.

    The storage holds e_cap joules in [0, capacity_b]. The ledger keeps
    one compensated (Kahan) sum per key of _LEDGER_KEYS: the running
    total in the list _sums and its compensation in _comps, both at the
    key's position in _LEDGER_KEYS. That keeps week-long ledgers exact
    to < 1 nJ. The clock tracks the last instant energy was accounted for;
    every advance integrates harvested and drawn power over the gap with
    a single combined charge/discharge/clamp step per trace segment,
    which keeps the conservation identity exact.
    """

    __slots__ = (
        "node", "e_cap", "capacity_b", "params", "trace", "clock_s",
        "_sums", "_comps", "_res", "_samples", "_n", "_ceff", "_eff",
        "_nz_starts",
    )

    def __init__(self, node: int, e_cap: float, capacity_b: float,
                 params: EnergyParams, trace: HarvestTrace):
        if not 0.0 <= e_cap <= capacity_b:
            raise ValueError("e_cap must lie in [0, capacity_b]")
        self.node = node
        self.e_cap = e_cap
        self.capacity_b = capacity_b
        self.params = params
        self.trace = trace
        self.clock_s = 0.0
        self._sums = [0.0] * len(_LEDGER_KEYS)
        self._comps = [0.0] * len(_LEDGER_KEYS)
        self._res = trace.resolution_s
        # a view of the trace's own doubles: indexing yields a float and
        # the run keeps no per-node copy of the samples
        self._samples = memoryview(trace.samples)
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
        e = self.e_cap
        cap = self.capacity_b
        res = self._res
        samples = self._samples
        n = self._n
        ceff = self._ceff
        # the ledger's compensated sums, added to inline below in the order
        # e_in, e_wasted, category, once per segment, 0.0 included
        sums, comps = self._sums, self._comps
        c = _AT[category]
        in_t, in_c = sums[_E_IN], comps[_E_IN]
        w_t, w_c = sums[_E_WASTED], comps[_E_WASTED]
        d_t, d_c = sums[c], comps[c]
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
        sums[_E_IN], comps[_E_IN] = in_t, in_c
        sums[_E_WASTED], comps[_E_WASTED] = w_t, w_c
        sums[c], comps[c] = d_t, d_c
        self.e_cap = e
        self.clock_s = t1
        return t1 if died else None

    def scan_start(self, horizon: float) -> Optional[float]:
        """Off-state charging: sample the storage every sample_interval
        seconds from the clock, drawing p_boot, until it strictly exceeds
        start_threshold.

        Returns the crossing sample time, or None if the horizon arrives
        first (the clock is then at the horizon). While the storage is
        empty and no power arrives within a step, the clock jumps to the
        last sample instant before power returns and books nothing.
        """
        params = self.params
        threshold = params.start_threshold
        step = params.sample_interval
        p_load = params.p_boot
        t0 = self.clock_s
        if self.e_cap > threshold:
            return t0
        i = 0
        t = t0
        while True:
            if self.e_cap == 0.0:
                # nothing can change until the trace delivers power again
                t_power = self.next_power_time(t)
                if t_power > t + step:
                    if t_power >= horizon:
                        self.clock_s = horizon
                        return None
                    i = int((t_power - t0) // step)
                    t = t0 + i * step
                    self.clock_s = t
            i += 1
            nxt = t0 + i * step
            if nxt > horizon:
                self.integrate(horizon, p_load, "boot", False)
                return None
            self.integrate(nxt, p_load, "boot", False)
            t = nxt
            if self.e_cap > threshold:
                return t

    def monitor(self, t1: float):
        """Stay off until t1: the energy manager draws p_boot while the
        storage clamps at zero."""
        self.integrate(t1, self.params.p_boot, "boot", False)

    def advance(self, t1: float, load: tuple[float, str]) -> Optional[float]:
        """Perform one continuous activity, given as (load power, ledger
        category), until t1; returns the death time if the storage empties
        before t1."""
        return self.integrate(t1, load[0], load[1], True)

    def spend(self, joules: float, category: str) -> bool:
        """Draw a fixed cost of joules (load side) through the converter at
        the current instant; returns True if it empties the storage, i.e.
        the node powers off before completing what it was doing."""
        if joules < 0:
            raise ValueError("joules must be >= 0")
        if joules == 0:
            return False
        c = _AT[category]
        drawn = joules / self._eff
        died = drawn > self.e_cap
        if died:
            # only the energy that exists is drawn
            drawn = self.e_cap
            self.e_cap = 0.0
        else:
            self.e_cap -= drawn
        total, comp = self._sums[c], self._comps[c]
        y = drawn - comp
        t = total + y
        self._comps[c] = (t - total) - y
        self._sums[c] = t
        return died

    def next_power_time(self, t: float) -> float:
        """Earliest time >= t with nonzero harvested power (inf if none)."""
        arr = self._nz_starts
        i = int(np.searchsorted(arr, t, side="right"))
        if i > 0 and arr[i - 1] + self._res > t:
            return t
        return float(arr[i]) if i < arr.size else float("inf")

    def drawn_snapshot(self) -> tuple[float, float, float]:
        """Joules drawn so far for tx, listen and idle, the first three
        categories."""
        return tuple(self._sums[:3])

    def drawn(self, category: str) -> float:
        return self._sums[_AT[category]]

    @property
    def e_in(self) -> float:
        return self._sums[_E_IN]

    @property
    def e_wasted(self) -> float:
        return self._sums[_E_WASTED]

    def ledger(self) -> dict[str, float]:
        """Joules drawn per category, then e_in and e_wasted."""
        return dict(zip(_LEDGER_KEYS, self._sums))

    def conservation_error(self, initial_e_cap: float) -> float:
        """e_in - (storage delta + total drawn + clamp waste); ~0 always."""
        drawn = math.fsum(self._sums[:len(LEDGER_CATEGORIES)])
        delta = self.e_cap - initial_e_cap
        return self.e_in - (delta + drawn + self.e_wasted)
