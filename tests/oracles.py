"""Independent oracles used by the test suite.

Everything here except the ``reference_*`` functions is implemented
directly from first principles (transceiver datasheet recipe, closed-form
probability, textbook BFS) on purpose, without importing the package under
test, so tests compare two independently written computations. The
exceptions are references that optimized kernels must match bit for bit:
``reference_flood`` is the flood kernel's plain per-listener loop, which
resolves every listener in every sub-slot through
``reference_resolve_concurrent``, the capture rule as first written (a
closure per helper, every group's power recomputed where it is used);
``reference_integrate`` is the energy kernel's segment walk booking every
step through the ledger methods as first written, on ``_KahanSum``
accumulators, and ``reference_consume`` is the fixed-cost draw as first
written, a function over a ledger and a storage;
``reference_generate_traces`` and ``reference_special_mh_traces`` are the
harvest-trace generators as first written, one node-day and one sample
at a time.
"""
from __future__ import annotations

import math
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ewansim.energy import _AT, _E_IN, _E_WASTED, HarvestTrace
from ewansim.flood import FLOOD_GUARD_S, FloodNodeResult, FloodResult
from ewansim.radio import time_on_air
from ewansim.scenario import DAY_S, HOUR_S, TRACE_RESOLUTION_S

# the reception ramp and capture sigma of the modeled radio, in dB
RAMP_DB = 2.0
CAPTURE_SIGMA_DB = 3.0


class ConcurrentAttempt(NamedTuple):
    """One transmission as seen by a listener during an overlap."""

    packet_id: int
    sender: int
    rx_power_dbm: float


def lora_toa_datasheet(
    sf: int,
    bw_hz: float,
    payload_bytes: int,
    preamble_symbols: int = 8,
    coding_rate: int = 1,
    crc_on: bool = True,
    explicit_header: bool = True,
) -> float:
    """SX126x LoRa time-on-air, transliterated from the datasheet recipe.

    Returns seconds. Low-data-rate optimization is applied whenever the
    symbol time exceeds 16 ms (SF11/SF12 at 125 kHz and equivalents); SF5
    and SF6 use the dedicated short-SF variant (6.25 preamble offset, no
    implicit +8 bits, never LDRO).
    """
    t_sym = (2.0 ** sf) / bw_hz
    crc_bits = 16 if crc_on else 0
    header_bits = 20 if explicit_header else 0
    if sf >= 7:
        ldro = t_sym > 0.016
        numerator = 8 * payload_bytes + crc_bits - 4 * sf + 8 + header_bits
        denominator = 4 * (sf - 2) if ldro else 4 * sf
        preamble_sym = preamble_symbols + 4.25
    else:
        numerator = 8 * payload_bytes + crc_bits - 4 * sf + header_bits
        denominator = 4 * sf
        preamble_sym = preamble_symbols + 6.25
    # exact integer ceiling; numerator may be negative, clamp at zero symbols
    ceil_term = -(-numerator // denominator)
    payload_sym = 8 + max(ceil_term, 0) * (coding_rate + 4)
    return (preamble_sym + payload_sym) * t_sym


def fsk_toa_datasheet(
    datarate_bps: float,
    payload_bytes: int,
    preamble_bytes: int = 4,
    sync_bytes: int = 3,
    length_bytes: int = 1,
    crc_bytes: int = 2,
) -> float:
    total = preamble_bytes + sync_bytes + length_bytes + payload_bytes + crc_bytes
    return total * 8.0 / datarate_bps


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def ramp_probability(rx_dbm: float, sensitivity_dbm: float, ramp_db: float) -> float:
    if rx_dbm < sensitivity_dbm:
        return 0.0
    if rx_dbm >= sensitivity_dbm + ramp_db:
        return 1.0
    return (rx_dbm - sensitivity_dbm) / ramp_db


def capture_probabilities_two(
    power_a_dbm: float,
    power_b_dbm: float,
    sigma_db: float,
    sensitivity_dbm: float,
    ramp_db: float,
) -> tuple[float, float, float]:
    """Closed-form (P[a received], P[b received], P[neither]) for two
    overlapping transmissions with distinct payloads."""
    if power_a_dbm >= power_b_dbm:
        strong, weak = power_a_dbm, power_b_dbm
        strong_is_a = True
    else:
        strong, weak = power_b_dbm, power_a_dbm
        strong_is_a = False
    cap = normal_cdf((strong - weak) / sigma_db)
    p_strong = cap * ramp_probability(strong, sensitivity_dbm, ramp_db)
    p_weak = (1.0 - cap) * ramp_probability(weak, sensitivity_dbm, ramp_db)
    if strong_is_a:
        pa, pb = p_strong, p_weak
    else:
        pa, pb = p_weak, p_strong
    return pa, pb, 1.0 - pa - pb


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a union of intervals, by boundary sweep."""
    events: list[tuple[float, int]] = []
    for a, b in intervals:
        if b > a:
            events.append((a, 1))
            events.append((b, -1))
    events.sort()
    covered = 0.0
    depth = 0
    started = 0.0
    for t, d in events:
        if depth == 0 and d == 1:
            started = t
        depth += d
        if depth == 0:
            covered += t - started
    return covered


def intersection_length(xs: list[tuple[float, float]],
                        ys: list[tuple[float, float]]) -> float:
    """Length of (union of xs) overlapped with (union of ys), by sweep.

    Counts time covered by at least one interval from each family."""
    events: list[tuple[float, int, int]] = []
    for fam, ivs in enumerate((xs, ys)):
        for a, b in ivs:
            if b > a:
                events.append((a, fam, 1))
                events.append((b, fam, -1))
    events.sort()
    covered = 0.0
    depth = [0, 0]
    started = 0.0
    for t, fam, d in events:
        both_before = depth[0] > 0 and depth[1] > 0
        depth[fam] += d
        both_after = depth[0] > 0 and depth[1] > 0
        if not both_before and both_after:
            started = t
        elif both_before and not both_after:
            covered += t - started
    return covered


def bfs_depths(n: int, edges: set[frozenset[int]], source: int = 0) -> dict[int, int]:
    """Hop distance from source over an undirected edge set; unreachable
    nodes are absent from the result."""
    depths = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in range(n):
                if v not in depths and frozenset((u, v)) in edges:
                    depths[v] = depths[u] + 1
                    nxt.append(v)
        frontier = nxt
    return depths


def edges_from_losses(
    loss_db: list[list[float]], tx_power_dbm: float, sensitivity_dbm: float
) -> set[frozenset[int]]:
    n = len(loss_db)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if tx_power_dbm - loss_db[i][j] >= sensitivity_dbm:
                edges.add(frozenset((i, j)))
    return edges


def brute_force_flood_slots(
    n: int,
    edges: set[frozenset[int]],
    initiator: int,
    hops: int,
    retransmissions: int,
) -> dict[int, int]:
    """Slot of first reception for a lossless flood, by direct sub-slot
    replay: holders transmit until their budget (retransmissions + 1) runs
    out, listeners receive when any neighbor transmits.

    Returns {node: first reception sub-slot (1-based)}; initiator maps to 0.
    """
    budget = {initiator: retransmissions + 1}
    first_slot = {initiator: 0}
    got_at = {initiator: 0}
    for slot in range(1, hops + retransmissions + 1):
        transmitters = [
            u for u, b in budget.items() if b > 0 and got_at[u] < slot
        ]
        for u in transmitters:
            budget[u] -= 1
        for v in range(n):
            if v in first_slot:
                continue
            if any(frozenset((u, v)) in edges for u in transmitters):
                first_slot[v] = slot
                got_at[v] = slot
                budget[v] = retransmissions + 1
    return first_slot


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


class AccountLedger:
    """The ledger's add_harvest and add_drawn, made through a _KahanSum on
    a NodeAccount's compensated sums."""

    def __init__(self, acct):
        self.acct = acct

    def _add(self, i, x):
        acc = _KahanSum()
        acc.total, acc.comp = self.acct._sums[i], self.acct._comps[i]
        acc.add(x)
        self.acct._sums[i], self.acct._comps[i] = acc.total, acc.comp

    def add_harvest(self, delivered, wasted):
        self._add(_E_IN, delivered)
        self._add(_E_WASTED, wasted)

    def add_drawn(self, category, joules):
        self._add(_AT[category], joules)


def reference_consume(ledger, storage, category, amount_at_load, efficiency):
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


def reference_integrate(acct, t1, p_load, category, die):
    """``NodeAccount.integrate`` on ``acct``, every compensated add made by
    ``AccountLedger.add_harvest`` then ``add_drawn``."""
    t = acct.clock_s
    if t1 <= t + 1e-9:
        acct.clock_s = max(t, t1)
        return None
    p_draw = p_load / acct.params.buck_efficiency
    e = acct.e_cap
    cap = acct.capacity_b
    res = acct.trace.resolution_s
    samples = [float(x) for x in acct.trace.samples]
    ceff = acct.params.charge_efficiency
    ledger = AccountLedger(acct)
    while True:
        k = int(t / res)
        seg_end = (k + 1) * res
        end = t1 if t1 < seg_end else seg_end
        dt = end - t
        if dt > 0.0:
            p_in = samples[k] * ceff if k < len(samples) else 0.0
            h = p_in * dt
            u = p_draw * dt
            avail = e + h
            if u >= avail and u > 0.0:
                if die:
                    denom = p_draw - p_in
                    tau = e / denom if denom > 0.0 else dt
                    if tau > dt:
                        tau = dt
                    h_partial = p_in * tau
                    ledger.add_harvest(h_partial, 0.0)
                    ledger.add_drawn(category, e + h_partial)
                    acct.e_cap = 0.0
                    acct.clock_s = t + tau
                    return acct.clock_s
                ledger.add_harvest(h, 0.0)
                ledger.add_drawn(category, avail)
                e = 0.0
            else:
                new_e = avail - u
                if new_e > cap:
                    ledger.add_harvest(h, new_e - cap)
                    new_e = cap
                else:
                    ledger.add_harvest(h, 0.0)
                ledger.add_drawn(category, u)
                e = new_e
        t = end
        if t >= t1:
            break
    acct.e_cap = e
    acct.clock_s = t1
    return None


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    return 10.0 * math.log10(mw)


def reference_resolve_concurrent(
    attempts: Sequence[ConcurrentAttempt],
    sensitivity_dbm: float,
    ramp_width_db: float,
    capture_sigma_db: float,
    stream: np.random.Generator,
) -> Optional[int]:
    """Outcome of temporally overlapping transmissions at one listener.

    Attempts carrying the same packet_id are synchronous retransmissions of
    the same data and combine constructively: the group acts as one signal
    whose power is the linear sum of its members and whose decodable
    candidate is the strongest member. Groups with distinct payloads
    compete: the strongest group is captured with probability
    Phi(delta / sigma), where delta is its power advantage in dB over the
    linear-watt sum of every other group. With exactly two competing
    payloads the weaker one gets the complementary capture probability;
    with more than two, a failed capture means nothing is decodable.
    Reception of the winning candidate is then scaled by its own
    reception_probability. Returns the received packet_id or None.
    """
    if not attempts:
        raise ValueError("resolve_concurrent requires at least one attempt")

    groups: dict[int, list[ConcurrentAttempt]] = {}
    for att in attempts:
        groups.setdefault(att.packet_id, []).append(att)

    def group_power_mw(members: list[ConcurrentAttempt]) -> float:
        return sum(dbm_to_mw(a.rx_power_dbm) for a in members)

    def candidate(members: list[ConcurrentAttempt]) -> ConcurrentAttempt:
        return max(members, key=lambda a: a.rx_power_dbm)

    def bernoulli(p: float) -> bool:
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return stream.random() < p

    if len(groups) == 1:
        best = candidate(next(iter(groups.values())))
        p = ramp_probability(best.rx_power_dbm, sensitivity_dbm, ramp_width_db)
        return best.packet_id if bernoulli(p) else None

    ranked = sorted(
        groups.items(), key=lambda kv: group_power_mw(kv[1]), reverse=True
    )
    strongest_id, strongest_members = ranked[0]
    rest_mw = sum(group_power_mw(members) for _, members in ranked[1:])
    strong_dbm = mw_to_dbm(group_power_mw(strongest_members))
    delta_db = strong_dbm - mw_to_dbm(rest_mw)
    capture_p = normal_cdf(delta_db / capture_sigma_db)

    if len(ranked) == 2:
        winner_id, winner_members = ranked[0] if bernoulli(capture_p) else ranked[1]
    else:
        if not bernoulli(capture_p):
            return None
        winner_id, winner_members = strongest_id, strongest_members
    winner_cand = candidate(winner_members)
    p = ramp_probability(
        winner_cand.rx_power_dbm, sensitivity_dbm, ramp_width_db
    )
    return winner_id if bernoulli(p) else None


def reference_flood(holders, payload_bytes, participants, links, config,
                    hops, retransmissions, stream, ramp_width_db,
                    capture_sigma_db):
    """Flood with ``holders`` (node -> packet id) injecting at sub-slot 0,
    every listener of every sub-slot resolved by ``resolve_concurrent``."""
    toa = time_on_air(config, payload_bytes)
    slot_s = toa + FLOOD_GUARD_S
    n_slots = hops + retransmissions
    budget = retransmissions + 1

    packet = {node: None for node in participants}
    first_slot = {node: None for node in participants}
    tx_left = {node: 0 for node in participants}
    tx_count = {node: 0 for node in participants}
    on_slots = {node: 0 for node in participants}
    for node, pkt in holders.items():
        packet[node] = pkt
        first_slot[node] = 0
        tx_left[node] = budget

    order = sorted(participants)
    for slot in range(1, n_slots + 1):
        transmitters = [
            u for u in order
            if packet[u] is not None and tx_left[u] > 0 and first_slot[u] < slot
        ]
        for u in transmitters:
            tx_left[u] -= 1
            tx_count[u] += 1
            on_slots[u] += 1
        for v in order:
            if packet[v] is not None:
                continue
            on_slots[v] += 1
            if not transmitters:
                continue
            attempts = [
                ConcurrentAttempt(
                    packet_id=packet[u],
                    sender=u,
                    rx_power_dbm=config.tx_power_dbm - links.loss_db(u, v),
                )
                for u in transmitters
            ]
            won = reference_resolve_concurrent(
                attempts, config.sensitivity_dbm, ramp_width_db,
                capture_sigma_db, stream,
            )
            if won is not None:
                packet[v] = won
                first_slot[v] = slot
                tx_left[v] = budget

    nodes = {
        node: FloodNodeResult(
            received=packet[node] is not None,
            packet_id=packet[node],
            first_slot=first_slot[node],
            radio_on_s=on_slots[node] * slot_s,
            tx_count=tx_count[node],
        )
        for node in participants
    }
    return FloodResult(nodes=nodes, n_slots=n_slots, toa_s=toa, slot_s=slot_s)


def _reference_day_at(gen, u) -> Tuple[float, float, float]:
    """The (e_avg_j, start_s, end_s) of a day at quantiles u[0..2] of the
    recipe's daily-energy, start-window and end-window ranges."""
    e_lo, e_hi = gen.e_avg_range_j
    s_lo, s_hi = gen.start_window_h
    t_lo, t_hi = gen.end_window_h
    return (e_lo + (e_hi - e_lo) * u[0],
            (s_lo + (s_hi - s_lo) * u[1]) * HOUR_S,
            (t_lo + (t_hi - t_lo) * u[2]) * HOUR_S)


def _reference_copula_day(gen, n_nodes: int, stream: np.random.Generator
                          ) -> List[Tuple[float, float, float]]:
    """One day's (e_avg_j, start_s, end_s) per node, correlation rho."""
    w_common = math.sqrt(gen.rho)
    w_own = math.sqrt(1.0 - gen.rho)
    z_common = stream.standard_normal(3)
    triples = []
    for _ in range(n_nodes):
        z_own = stream.standard_normal(3)
        triples.append(_reference_day_at(gen, [
            normal_cdf(w_common * z_common[k] + w_own * z_own[k])
            for k in range(3)]))
    return triples


def _reference_fill_day(samples: np.ndarray, day: int, e_avg_j: float,
                        start_s: float, end_s: float,
                        factors: Sequence[float]):
    """Write one node-day of power samples given its hourly noise factors."""
    base_w = e_avg_j / (end_s - start_s)
    per_day = int(DAY_S / TRACE_RESOLUTION_S)
    i0 = day * per_day
    first = i0 + int(math.ceil(start_s / TRACE_RESOLUTION_S))
    last = i0 + int(math.ceil(end_s / TRACE_RESOLUTION_S))  # exclusive
    for i in range(first, min(last, i0 + per_day)):
        hour = int(((i - i0) * TRACE_RESOLUTION_S) // HOUR_S)
        samples[i] = base_w * factors[hour]


def _reference_noise_factors(gen, stream: np.random.Generator) -> np.ndarray:
    # one factor per hour of day, always 24 draws so stream use is fixed
    raw = 1.0 + stream.normal(0.0, gen.noise_sigma, 24)
    return np.maximum(raw, 0.0)


def reference_generate_traces(gen, n_nodes: int, stream: np.random.Generator
                              ) -> Dict[int, HarvestTrace]:
    """Synthesize per-node day-night harvesting traces at 60 s resolution."""
    per_day = int(DAY_S / TRACE_RESOLUTION_S)
    arrays = {n: np.zeros(gen.days * per_day) for n in range(1, n_nodes + 1)}
    for day in range(gen.days):
        triples = _reference_copula_day(gen, n_nodes, stream)
        for n in range(1, n_nodes + 1):
            e_avg, start_s, end_s = triples[n - 1]
            factors = _reference_noise_factors(gen, stream)
            _reference_fill_day(arrays[n], day, e_avg, start_s, end_s,
                                factors)
    return {n: HarvestTrace(arrays[n], TRACE_RESOLUTION_S)
            for n in range(1, n_nodes + 1)}


def reference_special_mh_traces(gen, depths: Mapping[int, int],
                                stream: np.random.Generator
                                ) -> Dict[int, HarvestTrace]:
    """Traces that starve the host-adjacent relays: near nodes get the
    day's triple as is, deeper ones more energy over a wider window."""
    nodes = sorted(depths)
    per_day = int(DAY_S / TRACE_RESOLUTION_S)
    arrays = {n: np.zeros(gen.days * per_day) for n in nodes}
    ext_s = gen.deep_window_extension_h * HOUR_S
    for day in range(gen.days):
        e_near, start_s, end_s = _reference_day_at(
            gen, stream.uniform(0.0, 1.0, 3))
        for n in nodes:
            factors = _reference_noise_factors(gen, stream)
            if depths[n] <= 1:
                _reference_fill_day(arrays[n], day, e_near, start_s, end_s,
                                    factors)
            else:
                _reference_fill_day(arrays[n], day,
                                    e_near * gen.deep_energy_factor,
                                    max(start_s - ext_s, 0.0),
                                    min(end_s + ext_s, DAY_S), factors)
    return {n: HarvestTrace(arrays[n], TRACE_RESOLUTION_S) for n in nodes}
