"""End-to-end execution of one simulated deployment.

One ProtocolRun owns a host (node 0, mains powered) and n energy
harvesting nodes, and drives one of four protocols over a fixed horizon:

- ewan:        bootstrapping + multi-hop + single-hop VSNs
- single_hop:  point-to-point rounds only (LoRaWAN-class-B-like)
- multi_hop:   flood rounds only, bootstrap by continuous idle listening
               (LWB-like; 6 J storage, 5 J start threshold)
- drb:         ewan without the single-hop VSN (6 J storage)

Every node's energy flows through a NodeAccount that integrates its
harvest trace against the activity it is performing, so the per-node
ledgers close exactly: e_in equals storage delta plus energy drawn plus
clamp waste, to sub-nanojoule error over a week.

Rounds are processed atomically at their start time. Both round
handlers book their participants' energy through one _RoundAccountant:
each node's per-slot radio time is summed into [listen, tx, idle] and
applied as a few account advances at the round end. A participant whose
storage is below a conservative worst-case round cost (a whole round at
transmit power) is fragile: only fragile nodes are flushed at each slot
end, so a death takes effect between slots and removes the node from
later slots. Any other node cannot die within the round.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Optional, Sequence

from ..energy import (
    CLOCK_EPS_S,
    Activity,
    EnergyParams,
    EnergyStorage,
    HarvestTrace,
    NodeAccount,
)
from ..engine import (
    EventKind,
    EventQueue,
    RandomStreams,
    SimEvent,
    SimulationError,
    draw_uniform,
    to_s,
    to_us,
)
from ..flood import FloodResult, simulate_contention_flood, simulate_flood
from ..links import LinkMatrix
from ..radio import (
    ConcurrentAttempt,
    DEFAULT_CAPTURE_SIGMA_DB,
    DEFAULT_RAMP_DB,
    RadioPowerTable,
    resolve_concurrent,
    time_on_air,
)
from .host import (ScheduleBook, host_build_schedule,
                   host_handle_sync_request)
from .params import (
    CONTENTION_BYTES,
    SYNC_BYTES,
    SYNC_RESPONSE_DELAY_S,
    ProtocolParams,
    VsnConfigs,
)
from .records import NodeRoundStats, RoundRecord
from .rounds import MhRoundLayout, ShRoundLayout
from .state import NodeState, TransitionEvent, Vsn, node_transition

PROTOCOLS = ("ewan", "single_hop", "multi_hop", "drb")

# protocols overriding node storage per the ablation setup
_BIG_STORAGE_J = 6.0
_MHB_START_THRESHOLD_J = 5.0


class _ChannelLoads(NamedTuple):
    """(load power, ledger category) of listening and of transmitting on
    one channel."""

    listen: tuple[float, str]
    tx: tuple[float, str]


class _RoundAccountant:
    """Energy of one round's participants, shared by both round handlers.

    A handler adds each node's radio time to its [listen, tx, idle] cost
    list; flush() books the list in that order. The handler puts in
    fragile the participants whose storage is below a worst-case round
    cost; settle() flushes the live fragile nodes at each slot end, so
    a death takes effect before the node's next slot. Every other node
    is flushed once, at the round end.
    """

    def __init__(self, run: "ProtocolRun", record: RoundRecord,
                 book: ScheduleBook, loads: _ChannelLoads,
                 present: list[int]):
        self.run = run
        self.record = record
        self.book = book
        self.loads = loads
        self.present = present
        self.costs = {n: [0.0, 0.0, 0.0] for n in present}
        self.snapshots = {n: run.accounts[n].drawn_snapshot()
                          for n in present}
        self.fragile: set[int] = set()

    def flush(self, n: int, end_t: Optional[float] = None) -> bool:
        """Book node n's pending listen, then tx, then idle until end_t
        (None: the clock after listen and tx plus the booked idle).
        Returns True if the node died, which also kills it."""
        acct = self.run.accounts[n]
        li, tx, idl = self.costs[n]
        d = acct.advance(acct.clock_s + li, self.loads.listen)
        if d is None and tx > 0:
            d = acct.advance(acct.clock_s + tx, self.loads.tx)
        if d is None:
            if end_t is None:
                end_t = acct.clock_s + idl
            if end_t > acct.clock_s + CLOCK_EPS_S:
                d = acct.advance(end_t, self.run.load_idle)
        self.costs[n] = [0.0, 0.0, 0.0]
        if d is not None:
            self.run._kill(n, d)
            return True
        return False

    def flush_all(self, alive: list[int], end_t: float):
        """Flush every node of alive to end_t; the dead leave alive."""
        for n in list(alive):
            if self.flush(n, end_t):
                alive.remove(n)

    def settle(self, alive: list[int], t: float):
        """A slot ended at t: flush the live fragile nodes."""
        if self.fragile:
            for n in [n for n in alive if n in self.fragile]:
                if self.flush(n, t):
                    alive.remove(n)

    def close(self, received: Mapping[int, bool], delivered: set[int],
              attempted: set[int], n_slots: int):
        """Feed the deliveries to the book and record every participant."""
        self.book.observe_round(delivered)
        accounts = self.run.accounts
        record = self.record
        for n in self.present:
            b = self.snapshots[n]
            a = accounts[n].drawn_snapshot()
            record.nodes[n] = NodeRoundStats(
                received_first_schedule=received[n],
                packets_delivered=1 if n in delivered else 0,
                packets_attempted=1 if n in attempted else 0,
                energy_by_category={
                    "tx": a[0] - b[0], "listen": a[1] - b[1],
                    "idle": a[2] - b[2]},
            )
        tag = "mh" if record.vsn == "multi_hop" else "sh"
        self.run._log(record.round_start_s,
                      f"round {tag} k={record.round_index} slots={n_slots} "
                      f"present={len(self.present)} "
                      f"delivered={len(delivered)}")


@dataclass(frozen=True)
class RunHooks:
    """Test instrumentation: per-node round ranges with severed links.

    Ranges are half-open round-index intervals [a, b). A blocked node
    neither receives nor relays on the affected VSN for those rounds;
    it still spends the listen energy of whatever it tuned in for.
    """

    blocked_multi_hop: Mapping[int, Sequence[tuple[int, int]]] = field(
        default_factory=dict)
    blocked_single_hop: Mapping[int, Sequence[tuple[int, int]]] = field(
        default_factory=dict)

    def mh_blocked(self, node: int, k: int) -> bool:
        return _in_ranges(self.blocked_multi_hop, node, k)

    def sh_blocked(self, node: int, k: int) -> bool:
        return _in_ranges(self.blocked_single_hop, node, k)


def _in_ranges(ranges: Mapping[int, Sequence[tuple[int, int]]], node: int,
               k: int) -> bool:
    return bool(ranges) and any(a <= k < b for a, b in ranges.get(node, ()))


@dataclass
class RunResult:
    protocol: str
    horizon_s: float
    n_nodes: int
    params: ProtocolParams
    records: list[RoundRecord]
    ledgers: dict[int, dict[str, float]]
    active_intervals: dict[int, list[tuple[float, float]]]
    transitions: list[tuple[float, int, str, str, str]]
    events: list[str]
    initial_charge_j: float
    final_storage_j: dict[int, float]
    conservation_j: dict[int, float]

    def delivered_by_node(self) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for rec in self.records:
            for n, stats in rec.nodes.items():
                out[n] += stats.packets_delivered
        return dict(out)


class ProtocolRun:
    """One protocol, one topology, one seed, one horizon."""

    HOST = 0

    def __init__(
        self,
        *,
        protocol: str,
        n_nodes: int,
        links_multi_hop: LinkMatrix,
        links_single_hop: LinkMatrix,
        traces: Mapping[int, HarvestTrace],
        params: ProtocolParams,
        vsn_configs: VsnConfigs,
        energy_params: EnergyParams,
        storage_capacity_j: float,
        initial_charge_j: float,
        horizon_s: float,
        streams: RandomStreams,
        power_table: Optional[RadioPowerTable] = None,
        hooks: Optional[RunHooks] = None,
        collect_events: bool = False,
        ramp_width_db: float = DEFAULT_RAMP_DB,
        capture_sigma_db: float = DEFAULT_CAPTURE_SIGMA_DB,
    ):
        if protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {protocol!r}")
        if links_multi_hop.n != n_nodes + 1 or links_single_hop.n != n_nodes + 1:
            raise ValueError("link matrices must cover host + n_nodes")
        if not 0 < horizon_s < float("inf"):
            raise ValueError("horizon must be finite and positive")
        self.protocol = protocol
        self.n_nodes = n_nodes
        self.nodes = tuple(range(1, n_nodes + 1))
        self.links_mh = links_multi_hop
        self.links_sh = links_single_hop
        self.params = params
        self.horizon_s = horizon_s
        self.hooks = hooks or RunHooks()
        self.collect = collect_events
        self.ramp_db = ramp_width_db
        self.sigma_db = capture_sigma_db
        self.power_table = power_table or RadioPowerTable()

        storage_b = storage_capacity_j
        eparams = energy_params
        if protocol in ("drb", "multi_hop"):
            storage_b = _BIG_STORAGE_J
        if protocol == "multi_hop":
            eparams = replace(eparams, start_threshold=_MHB_START_THRESHOLD_J)
        self.eparams = eparams
        self.initial_charge_j = initial_charge_j
        if initial_charge_j > storage_b:
            raise ValueError("initial charge exceeds storage capacity")

        self.accounts: dict[int, NodeAccount] = {}
        for n in self.nodes:
            if n not in traces:
                raise ValueError(f"missing harvest trace for node {n}")
            self.accounts[n] = NodeAccount(
                n, EnergyStorage(initial_charge_j, capacity_b=storage_b),
                eparams, traces[n])

        self.sh_enabled = protocol in ("ewan", "single_hop")
        self.has_mh = protocol in ("ewan", "drb", "multi_hop")
        self.has_sh = protocol in ("ewan", "single_hop")

        self.cfg_boot = vsn_configs.bootstrap
        self.cfg_mh = vsn_configs.multi_hop
        self.cfg_sh = vsn_configs.single_hop
        self.mh_layout = MhRoundLayout.build(params, self.cfg_mh)
        self.sh_layout = ShRoundLayout.build(params, self.cfg_sh)
        self.toa_sync = time_on_air(self.cfg_boot, SYNC_BYTES)

        # loads of the continuous activities, resolved once per run
        self.load_sleep = (eparams.p_sleep, "sleep")
        self.load_idle = (eparams.p_idle, "idle")
        self.load_boot, self.load_mh, self.load_sh = (
            _ChannelLoads((self.power_table.rx_watts(c), "listen"),
                          (self.power_table.tx_watts(c), "tx"))
            for c in (self.cfg_boot, self.cfg_mh, self.cfg_sh))

        # reception probability of each node's direct host link, per channel
        self.p_boot_link, self.p_sh_link = (
            {n: self.links_sh.link_probability(self.HOST, n, c, self.ramp_db)
             for n in self.nodes}
            for c in (self.cfg_boot, self.cfg_sh))
        all_ids = set(range(n_nodes + 1))
        self._mh_deterministic = self.links_mh.all_links_deterministic(
            all_ids, self.cfg_mh, self.ramp_db)
        self._flood_cache: dict[tuple, FloodResult] = {}

        # conservative per-round storage costs that guarantee survival
        eff = eparams.buck_efficiency
        tx_mh = self.load_mh.tx[0]
        (rx_sh, _), (tx_sh, _) = self.load_sh
        mh_dur = self.mh_layout.max_round_duration(params)
        sh_dur = self.sh_layout.max_round_duration(params)
        self.mh_fragile_j = 1.05 * tx_mh * mh_dur / eff + 1e-3
        sh_listen = (2 * self.sh_layout.schedule_slot
                     + self.sh_layout.toa_data + self.sh_layout.toa_contention)
        sh_tx = self.sh_layout.toa_data + self.sh_layout.toa_contention
        self.sh_fragile_j = 1.05 * (
            rx_sh * sh_listen + tx_sh * sh_tx + eparams.p_idle * sh_dur
        ) / eff + 1e-3
        # a data-slot owner must afford its own full transmit budget
        self.mh_owner_tx_j = ((params.flood_retx + 1)
                              * self.mh_layout.toa_data * tx_mh / eff)

        # protocol state
        self.nstate: dict[int, NodeState] = {n: NodeState() for n in self.nodes}
        self.members_mh: set[int] = set()
        self.members_sh: set[int] = set()
        self.mhb_listeners: set[int] = set()
        self.wait_mh: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self.wait_sh: dict[int, list[tuple[int, str, int]]] = defaultdict(list)
        self.samplers: dict[int, set[int]] = defaultdict(set)
        self.pending_sync: dict[int, float] = {}
        self.sync_token: dict[int, int] = {n: 0 for n in self.nodes}
        self.host_busy_until = 0.0
        self.book_mh = ScheduleBook(params.max_data_slots_mh, params.p)
        self.book_sh = ScheduleBook(params.max_data_slots_sh, params.p)

        self.records: list[RoundRecord] = []
        self.transitions: list[tuple[float, int, str, str, str]] = []
        self.events: list[str] = []
        self.active_since: dict[int, float] = {}
        self.active_intervals: dict[int, list[tuple[float, float]]] = {
            n: [] for n in self.nodes}

        self.queue = EventQueue()
        self._push_round_events()
        for n in self.nodes:
            self.queue.schedule(SimEvent(
                to_us(horizon_s), n, EventKind.CUSTOM, ("final", n)))

        self._rx = streams.stream("reception")
        self._backoff = streams.stream("backoff")

        for n in self.nodes:
            self._rearm_scan(n)

    # ------------------------------------------------------------------
    # setup and event plumbing

    def _push_round_events(self):
        k = 0
        while True:
            start = self.params.mh_round_start(k)
            if start >= self.horizon_s:
                break
            if self.has_mh:
                self.queue.schedule(SimEvent(
                    to_us(start), self.HOST, EventKind.ROUND_START,
                    ("multi_hop", k)))
            if self.has_sh:
                sh_start = self.params.sh_round_start(k)
                if sh_start < self.horizon_s:
                    self.queue.schedule(SimEvent(
                        to_us(sh_start), self.HOST, EventKind.ROUND_START,
                        ("single_hop", k)))
            k += 1

    def _log(self, t: float, line: str):
        if self.collect:
            self.events.append(f"{t:.6f} {line}")

    def _transition(self, node: int, event: TransitionEvent, t: float):
        old = self.nstate[node]
        new = node_transition(old, event, self.params.p, self.sh_enabled)
        self.nstate[node] = new
        if old.vsn is not new.vsn:
            self.transitions.append(
                (t, node, old.vsn.value, new.vsn.value, event.value))
            self.members_mh.discard(node)
            self.members_sh.discard(node)
            if new.vsn is Vsn.MULTI_HOP:
                self.members_mh.add(node)
            elif new.vsn is Vsn.SINGLE_HOP:
                self.members_sh.add(node)
        return new

    # ------------------------------------------------------------------
    # power lifecycle

    def _scan_start(self, node: int) -> Optional[float]:
        """Off-state charging: sample storage on the monitor interval from
        the account clock until it strictly exceeds the start threshold.
        Returns the crossing sample time, or None if the horizon arrives
        first (the account is then advanced to the horizon)."""
        acct = self.accounts[node]
        thr = self.eparams.start_threshold
        step = self.eparams.sample_interval
        p_boot = self.eparams.p_boot
        horizon = self.horizon_s
        t0 = acct.clock_s
        if acct.storage.e_cap > thr:
            return t0
        i = 0
        t = t0
        while True:
            if acct.storage.e_cap == 0.0:
                # nothing can change until the trace delivers power again
                t_power = acct.next_power_time(t)
                if t_power > t + step:
                    if t_power >= horizon:
                        acct.clock_s = horizon
                        return None
                    i = int((t_power - t0) // step)
                    t = t0 + i * step
                    acct.clock_s = t
            i += 1
            nxt = t0 + i * step
            if nxt > horizon:
                acct.integrate(horizon, p_boot, "boot", die=False)
                return None
            acct.integrate(nxt, p_boot, "boot", die=False)
            t = nxt
            if acct.storage.e_cap > thr:
                return t

    def _power_on(self, node: int, t: float):
        acct = self.accounts[node]
        if acct.clock_s < t - CLOCK_EPS_S:
            acct.integrate(t, self.eparams.p_boot, "boot", die=False)
        if acct.storage.e_cap <= self.eparams.start_threshold:
            # dipped back below threshold while waiting: keep charging
            self._rearm_scan(node)
            return
        self._transition(node, TransitionEvent.ENERGY_START, t)
        self.active_since[node] = t
        died = acct.spend(Activity.BOOT_SAMPLE) or acct.spend(Activity.COM_INIT)
        self._log(t, f"power_on node={node} e={acct.storage.e_cap:.6f}")
        if died:
            self._kill(node, t)
            return
        self._enter_bootstrap(node, t)

    def _rearm_scan(self, node: int):
        g = self._scan_start(node)
        if g is None:
            return
        now_s = to_s(self.queue.now_us)
        wake = max(g, now_s)
        if wake >= self.horizon_s:
            self.accounts[node].integrate(
                self.horizon_s, self.eparams.p_boot, "boot", die=False)
            return
        self.queue.schedule(SimEvent(
            max(to_us(wake), self.queue.now_us), node, EventKind.WAKE_UP,
            (node, wake)))

    def _kill(self, node: int, t: float):
        self._transition(node, TransitionEvent.ENERGY_DEPLETED, t)
        self.sync_token[node] += 1
        self.pending_sync.pop(node, None)
        self.mhb_listeners.discard(node)
        start = self.active_since.pop(node, None)
        if start is not None:
            self.active_intervals[node].append((start, t))
        self._log(t, f"death node={node}")
        self._rearm_scan(node)

    def _enter_bootstrap(self, node: int, t: float):
        if self.protocol == "multi_hop":
            self.mhb_listeners.add(node)
        else:
            self._schedule_sync(node, t)

    def _schedule_sync(self, node: int, t: float):
        if t >= self.horizon_s:
            return
        self.sync_token[node] += 1
        self.pending_sync[node] = t
        self.queue.schedule(SimEvent(
            max(to_us(t), self.queue.now_us), node, EventKind.SYNC_REQUEST,
            (node, self.sync_token[node], t)))

    # ------------------------------------------------------------------
    # bootstrapping handshake

    def _next_round_start_after(self, t: float) -> float:
        cands = []
        if self.has_mh:
            cands.append(self.params.next_mh_round_after(t)[1])
        if self.has_sh:
            cands.append(self.params.next_sh_round_after(t)[1])
        return min(cands) if cands else float("inf")

    def _handle_sync(self, node: int, token: int, t: float):
        if (self.sync_token.get(node) != token
                or self.pending_sync.get(node) != t
                or self.nstate[node].vsn is not Vsn.BOOTSTRAPPING):
            return
        # requests within one packet duration overlap at the host
        cluster = sorted(
            (tm, m) for m, tm in self.pending_sync.items()
            if t <= tm <= t + self.toa_sync
            and self.nstate[m].vsn is Vsn.BOOTSTRAPPING
        )
        survivors: list[tuple[int, float]] = []
        for tm, m in cluster:
            self.pending_sync.pop(m, None)
            self.sync_token[m] += 1
            acct = self.accounts[m]
            start = max(tm, acct.clock_s)
            d = acct.advance(start, self.load_sleep)
            if d is None:
                d = acct.advance(start + self.toa_sync, self.load_boot.tx)
            if d is not None:
                self._kill(m, d)
                continue
            survivors.append((m, start))
        if not survivors:
            return
        s_min = min(tm for _, tm in survivors)
        tx_end_max = max(tm for _, tm in survivors) + self.toa_sync
        t_resp = tx_end_max + SYNC_RESPONSE_DELAY_S
        exchange_end = t_resp + self.toa_sync
        next_round = self._next_round_start_after(s_min)
        answered = (s_min >= self.host_busy_until
                    and exchange_end + 1e-3 <= next_round)
        winner: Optional[int] = None
        if answered:
            attempts = [
                ConcurrentAttempt(
                    packet_id=m, sender=m,
                    rx_power_dbm=self.cfg_boot.tx_power_dbm
                    - self.links_sh.loss_db(self.HOST, m))
                for m, _ in survivors
            ]
            got = resolve_concurrent(
                attempts, self.cfg_boot.sensitivity_dbm, self.ramp_db,
                self.sigma_db, self._rx)
            self.host_busy_until = max(self.host_busy_until, exchange_end)
            if got is not None and self._bern(self.p_boot_link[got]):
                winner = got
        for m, tm in survivors:
            own_timeout = tm + self.toa_sync + SYNC_RESPONSE_DELAY_S + self.toa_sync
            listen_end = exchange_end if answered else own_timeout
            d = self.accounts[m].advance(listen_end, self.load_boot.listen)
            if d is not None:
                self._kill(m, d)
                continue
            if m == winner:
                self._register_synced(m, listen_end)
            else:
                retry = listen_end + draw_uniform(
                    self._backoff, 0.0, self.params.backoff_window)
                self._log(t, f"sync_fail node={m}")
                self._schedule_sync(m, retry)

    def _register_synced(self, node: int, t: float):
        if self.protocol in ("ewan", "drb"):
            k1, t1 = self.params.next_mh_round_after(t)
            resp = host_handle_sync_request(t, t1, self.params)
            self.wait_mh[k1].append((node, self.sync_token[node]))
            self._log(t, f"sync_ok node={node} mh_round={k1} "
                         f"tau1={resp.tau1:.3f}")
        else:  # single-hop baseline: response carries the next round time
            k1, _ = self.params.next_sh_round_after(t)
            self.wait_sh[k1].append((node, "bootstrap", self.sync_token[node]))
            self._log(t, f"sync_ok node={node} sh_round={k1}")

    def _bern(self, p: float) -> bool:
        if p >= 1.0:
            return True
        if p <= 0.0:
            return False
        return float(self._rx.random()) < p

    # ------------------------------------------------------------------
    # flood plumbing

    def _flood(self, kind: str, initiators: Mapping[int, int],
               participants: frozenset[int], payload: int) -> FloodResult:
        contention = len(initiators) > 1
        cache_key = None
        if self._mh_deterministic and not contention:
            # no randomness in this flood: memoize by geometry
            cache_key = (kind, next(iter(initiators)), participants)
            hit = self._flood_cache.get(cache_key)
            if hit is not None:
                return hit
        if contention:
            res = simulate_contention_flood(
                dict(initiators), payload, set(participants), self.links_mh,
                self.cfg_mh, self.params.flood_hops, self.params.flood_retx,
                self._rx, self.ramp_db, self.sigma_db)
        else:
            (initiator,) = initiators
            res = simulate_flood(
                initiator, payload, set(participants), self.links_mh,
                self.cfg_mh, self.params.flood_hops, self.params.flood_retx,
                self._rx, self.ramp_db, self.sigma_db)
        if cache_key is not None:
            self._flood_cache[cache_key] = res
        return res

    # ------------------------------------------------------------------
    # multi-hop rounds (shared by ewan, drb, multi_hop)

    def _gather(self, entries: Sequence[int], rs: float,
                load: tuple[float, str]) -> list[int]:
        alive = []
        for n in entries:
            d = self.accounts[n].advance(rs, load)
            if d is not None:
                self._kill(n, d)
            else:
                alive.append(n)
        return alive

    def _open_round(self, vsn: str, k: int, rs: float, present: list[int],
                    book: ScheduleBook,
                    loads: _ChannelLoads) -> Optional[_RoundAccountant]:
        """Record round k; None if nobody is present to account for."""
        record = RoundRecord(vsn=vsn, round_index=k, round_start_s=rs)
        self.records.append(record)
        if not present:
            book.observe_round(())
            return None
        return _RoundAccountant(self, record, book, loads, present)

    def _handle_mh_round(self, k: int, rs: float):
        params = self.params
        layout = self.mh_layout

        members = self._gather(sorted(self.members_mh), rs, self.load_sleep)
        boot_raw = self.wait_mh.pop(k, [])
        boot = [n for n, tok in boot_raw
                if self.sync_token.get(n) == tok
                and self.nstate[n].vsn is Vsn.BOOTSTRAPPING]
        boot = self._gather(boot, rs, self.load_sleep)
        samp = [n for n in sorted(self.samplers.pop(k, set()))
                if self.nstate[n].vsn is Vsn.SINGLE_HOP]
        samp = self._gather(samp, rs, self.load_sleep)
        passive = self._gather(sorted(self.mhb_listeners), rs,
                               self.load_mh.listen)

        if self.protocol == "ewan":
            cross = params.sh_round_start(k)
        else:
            cross = params.mh_round_start(k + 1)
        sched = host_build_schedule(self.book_mh, params, "multi_hop",
                                    k, rs, cross)
        n_slots = len(sched.assignments)
        re = rs + layout.round_duration(n_slots)
        self.host_busy_until = max(self.host_busy_until, re)

        present = members + boot + samp + passive
        acc = self._open_round("multi_hop", k, rs, present, self.book_mh,
                               self.load_mh)
        if acc is None:
            return
        costs = acc.costs

        blocked = {n for n in present if self.hooks.mh_blocked(n, k)}
        flood_ids = frozenset(
            [self.HOST] + [n for n in present if n not in blocked])
        sched_res = None
        if len(flood_ids) > 1:
            sched_res = self._flood("sched", {self.HOST: self.HOST},
                                    flood_ids, params.schedule_payload_mh)

        heard = sched_res.nodes if sched_res is not None else {}
        received = {n: n in heard and heard[n].received for n in present}

        sched_span = layout.schedule_slot + layout.gap

        def add_flood_costs(res: FloodResult, span: float, toa: float,
                            group: Sequence[int]):
            times = res.radio_times(span, toa)
            for n in group:
                li, tx, idl = times[n]
                c = costs[n]
                c[0] += li
                c[1] += tx
                c[2] += idl

        # roles after the first schedule
        R: list[int] = []
        leavers: list[int] = []
        for n in members:
            if received[n]:
                self._transition(n, TransitionEvent.RECEIVED_MH_SCHEDULE, rs)
                R.append(n)
            else:
                st = self._transition(n, TransitionEvent.MISSED_SCHEDULE, rs)
                self._log(rs, f"sched_miss node={n} vsn=mh k={k} "
                              f"missed={st.missed_schedules}")
                leavers.append(n)
                if st.vsn is Vsn.MULTI_HOP and st.missed_schedules >= params.p:
                    if self.sh_enabled:
                        self.wait_sh[k].append((n, "mh_exit", -1))
                    # with single-hop disabled the transition already
                    # returned the node to bootstrapping
                elif st.vsn is Vsn.BOOTSTRAPPING:
                    self._enter_bootstrap(n, rs + layout.schedule_slot)
        for n in boot:
            if received[n]:
                self._transition(n, TransitionEvent.RECEIVED_MH_SCHEDULE, rs)
                self._log(rs, f"join node={n} vsn=mh via=bootstrap k={k}")
                R.append(n)
            else:
                leavers.append(n)
                if self.protocol == "ewan":
                    self.wait_sh[k].append(
                        (n, "bootstrap", self.sync_token[n]))
                else:
                    retry = (rs + layout.schedule_slot + draw_uniform(
                        self._backoff, 0.0, params.backoff_window))
                    self._schedule_sync(n, retry)
        for n in samp:
            if received[n]:
                self._transition(n, TransitionEvent.SAMPLED_MH_SUCCESS, rs)
                self._log(rs, f"join node={n} vsn=mh via=sample k={k}")
                R.append(n)
            else:
                self._transition(n, TransitionEvent.SAMPLED_MH_FAILURE, rs)
                leavers.append(n)
        passive_stay: list[int] = []
        for n in passive:
            if received[n]:
                self._transition(n, TransitionEvent.RECEIVED_MH_SCHEDULE, rs)
                self._log(rs, f"join node={n} vsn=mh via=listen k={k}")
                self.mhb_listeners.discard(n)
                R.append(n)
            else:
                passive_stay.append(n)
        contenders = [n for n in R if sched.slot_of(n) is None]

        if sched_res is not None:
            add_flood_costs(sched_res, sched_span, layout.toa_schedule,
                            [n for n in present if n in flood_ids
                             and n not in passive_stay])
        for n in present:
            if n not in flood_ids and n not in passive_stay:
                # severed this round: listened to the whole slot for nothing
                costs[n][0] += layout.schedule_slot

        acc.fragile = {n for n in R if self.accounts[n].storage.e_cap
                       < self.mh_fragile_j}

        # leavers are done after the first schedule slot
        for n in leavers:
            acc.flush(n, self.accounts[n].clock_s + sum(costs[n]))

        R_alive = list(R)
        delivered: set[int] = set()
        attempted: set[int] = set()
        t_cursor = rs + sched_span
        acc.settle(R_alive, t_cursor)

        slot_plan: list[tuple[str, Optional[int], float]] = [
            ("data", owner, layout.data_slot + layout.gap)
            for owner in sched.assignments]
        slot_plan += [("cont", None, layout.contention_slot + layout.gap),
                      ("sched2", None, sched_span)]

        for kind, owner, span in slot_plan:
            alive_set = frozenset([self.HOST] + R_alive)
            res = None
            toa = layout.toa_data
            if kind == "data":
                if owner in R_alive and (owner not in acc.fragile or
                        self.accounts[owner].storage.e_cap
                        > self.mh_owner_tx_j):
                    res = self._flood("data", {owner: owner}, alive_set,
                                      params.data_payload)
                    attempted.add(owner)
                    if res.nodes[self.HOST].received:
                        delivered.add(owner)
            elif kind == "cont":
                toa = layout.toa_contention
                live_cont = [c for c in contenders if c in R_alive]
                if live_cont:
                    res = self._flood(
                        "cont", {c: c for c in live_cont}, alive_set,
                        CONTENTION_BYTES)
                    host_res = res.nodes[self.HOST]
                    if host_res.received and host_res.packet_id is not None:
                        w = host_res.packet_id
                        self.book_mh.enqueue_demand(w)
                        self._log(rs, f"contend_won node={w} vsn=mh k={k}")
            else:
                toa = layout.toa_schedule
                if len(alive_set) > 1:
                    res = self._flood("sched", {self.HOST: self.HOST},
                                      alive_set, params.schedule_payload_mh)
            if res is not None:
                add_flood_costs(res, span, toa, R_alive)
            else:
                for n in R_alive:
                    costs[n][2] += span
            t_cursor += span
            acc.settle(R_alive, t_cursor)

        # the fragile nodes were settled at the last slot end
        acc.flush_all([n for n in R_alive if n not in acc.fragile], re)
        for n in passive_stay:
            d = self.accounts[n].advance(re, self.load_mh.listen)
            if d is not None:
                self._kill(n, d)
        acc.close(received, delivered, attempted, n_slots)

    # ------------------------------------------------------------------
    # single-hop rounds (ewan, single_hop baseline)

    def _sh_schedule_reception(self, n: int, blocked: bool) -> tuple[bool, float]:
        """Whether a listener decodes the schedule and its listen time."""
        layout = self.sh_layout
        if blocked:
            return False, layout.schedule_slot
        p = self.p_sh_link[n]
        for c in range(1, layout.host_copies + 1):
            if self._bern(p):
                return True, layout.schedule_listen_until_copy(c)
        return False, layout.schedule_slot

    def _handle_sh_round(self, k: int, rs: float):
        params = self.params
        layout = self.sh_layout
        cfg = self.cfg_sh

        members = self._gather(sorted(self.members_sh), rs, self.load_sleep)
        wait_raw = self.wait_sh.pop(k, [])
        waiters: list[tuple[int, str]] = []
        for n, reason, tok in wait_raw:
            st = self.nstate[n]
            if reason == "bootstrap":
                if (st.vsn is Vsn.BOOTSTRAPPING
                        and self.sync_token.get(n) == tok):
                    waiters.append((n, reason))
            elif reason == "mh_exit":
                if st.vsn is Vsn.MULTI_HOP and st.missed_schedules >= params.p:
                    waiters.append((n, reason))
        alive_waiters = self._gather([n for n, _ in waiters], rs,
                                     self.load_sleep)
        waiters = [(n, r) for n, r in waiters if n in alive_waiters]

        cross = params.mh_round_start(k + 1)
        sched = host_build_schedule(self.book_sh, params, "single_hop",
                                    k, rs, cross)
        n_slots = len(sched.assignments)
        re = rs + layout.round_duration(n_slots)
        self.host_busy_until = max(self.host_busy_until, re)
        sample_flag = sched.sample_multihop and self.protocol == "ewan"

        present = members + [n for n, _ in waiters]
        acc = self._open_round("single_hop", k, rs, present, self.book_sh,
                               self.load_sh)
        if acc is None:
            return
        costs = acc.costs

        reason_of = dict(waiters)
        received: dict[int, bool] = {}
        R: list[int] = []
        leave_t = rs + layout.schedule_slot

        for n in present:
            blocked = self.hooks.sh_blocked(n, k)
            got, listen_s = self._sh_schedule_reception(n, blocked)
            received[n] = got
            costs[n][0] += listen_s
            if got:
                costs[n][2] += layout.schedule_slot - listen_s + layout.gap
                self._transition(n, TransitionEvent.RECEIVED_SH_SCHEDULE, rs)
                R.append(n)
                if n in reason_of:
                    self._log(rs, f"join node={n} vsn=sh via={reason_of[n]} "
                                  f"k={k}")
                if sample_flag:
                    self.samplers[k + 1].add(n)
            else:
                reason = reason_of.get(n)
                st = self._transition(n, TransitionEvent.MISSED_SCHEDULE, rs)
                self._log(rs, f"sched_miss node={n} vsn=sh k={k} "
                              f"missed={st.missed_schedules}")
                if st.vsn is Vsn.BOOTSTRAPPING and reason != "bootstrap":
                    # fell out of a VSN: start bootstrapping immediately
                    self._enter_bootstrap(n, leave_t)
                elif reason == "bootstrap":
                    retry = leave_t + draw_uniform(
                        self._backoff, 0.0, params.backoff_window)
                    self._schedule_sync(n, retry)

        # leavers (missed the first schedule) listened, then sleep
        for n in present:
            if not received[n]:
                acc.flush(n)

        contenders = [n for n in R if sched.slot_of(n) is None]
        acc.fragile = {n for n in R if self.accounts[n].storage.e_cap
                       < self.sh_fragile_j}
        R_alive = list(R)
        t_cursor = rs + layout.schedule_slot + layout.gap
        acc.settle(R_alive, t_cursor)

        delivered: set[int] = set()
        attempted: set[int] = set()
        data_span = layout.data_slot + layout.gap
        for owner in sched.assignments:
            if owner in R_alive:
                blocked = self.hooks.sh_blocked(owner, k)
                attempted.add(owner)
                if not blocked and self._bern(self.p_sh_link[owner]):
                    delivered.add(owner)
                costs[owner][1] += layout.toa_data
                costs[owner][0] += layout.toa_data  # host repetition
                costs[owner][2] += layout.turnaround + layout.gap
                for n in R_alive:
                    if n != owner:
                        costs[n][2] += data_span
            else:
                for n in R_alive:
                    costs[n][2] += data_span
            t_cursor += data_span
            acc.settle(R_alive, t_cursor)

        cont_span = layout.contention_slot + layout.gap
        live_cont = [n for n in contenders if n in R_alive]
        if live_cont:
            attempts = [
                ConcurrentAttempt(
                    packet_id=n, sender=n,
                    rx_power_dbm=cfg.tx_power_dbm
                    - self.links_sh.loss_db(self.HOST, n))
                for n in live_cont if not self.hooks.sh_blocked(n, k)
            ]
            winner = None
            if attempts:
                winner = resolve_concurrent(
                    attempts, cfg.sensitivity_dbm, self.ramp_db,
                    self.sigma_db, self._rx)
            if winner is not None:
                self.book_sh.enqueue_demand(winner)
                self._log(rs, f"contend_won node={winner} vsn=sh k={k}")
            for n in live_cont:
                costs[n][1] += layout.toa_contention
                costs[n][0] += layout.toa_contention  # winner echo
                costs[n][2] += layout.turnaround + layout.gap
        for n in R_alive:
            if n not in live_cont:
                costs[n][2] += cont_span
        t_cursor += cont_span
        acc.settle(R_alive, t_cursor)

        # second schedule: timing refresh only, never membership
        for n in R_alive:
            _, listen2 = self._sh_schedule_reception(
                n, self.hooks.sh_blocked(n, k))
            costs[n][0] += listen2
            costs[n][2] += layout.schedule_slot - listen2 + layout.gap
        acc.flush_all(R_alive, re)
        acc.close(received, delivered, attempted, n_slots)

    # ------------------------------------------------------------------
    # main loop

    def _handle(self, ev: SimEvent):
        if ev.kind is EventKind.ROUND_START:
            vsn, k = ev.payload
            if vsn == "multi_hop":
                self._handle_mh_round(k, self.params.mh_round_start(k))
            else:
                self._handle_sh_round(k, self.params.sh_round_start(k))
        elif ev.kind is EventKind.SYNC_REQUEST:
            node, token, t = ev.payload
            self._handle_sync(node, token, t)
        elif ev.kind is EventKind.WAKE_UP:
            node, t = ev.payload
            if self.nstate[node].vsn is Vsn.OFF:
                self._power_on(node, t)
        elif ev.kind is EventKind.CUSTOM:
            tag, node = ev.payload
            if tag == "final":
                self._final_advance(node)

    def _final_advance(self, node: int):
        horizon = self.horizon_s
        while True:
            acct = self.accounts[node]
            if acct.clock_s >= horizon - CLOCK_EPS_S:
                return
            st = self.nstate[node].vsn
            if st is Vsn.OFF:
                acct.integrate(horizon, self.eparams.p_boot, "boot", die=False)
                return
            if node in self.mhb_listeners:
                d = acct.advance(horizon, self.load_mh.listen)
            else:
                d = acct.advance(horizon, self.load_sleep)
            if d is None:
                return
            self._kill(node, d)

    def run(self) -> RunResult:
        self.queue.run_until(to_us(self.horizon_s), self._handle)
        horizon = self.horizon_s
        final_storage = {}
        conservation = {}
        for n in self.nodes:
            acct = self.accounts[n]
            if acct.clock_s < horizon - 1e-6:
                raise SimulationError(
                    f"node {n} account stopped at {acct.clock_s}")
            start = self.active_since.pop(n, None)
            if start is not None:
                self.active_intervals[n].append((start, horizon))
            final_storage[n] = acct.storage.e_cap
            conservation[n] = acct.ledger.conservation_error(
                self.initial_charge_j, acct.storage.e_cap)
        return RunResult(
            protocol=self.protocol,
            horizon_s=horizon,
            n_nodes=self.n_nodes,
            params=self.params,
            records=self.records,
            ledgers={n: self.accounts[n].ledger.as_dict()
                     for n in self.nodes},
            active_intervals={n: list(v)
                              for n, v in self.active_intervals.items()},
            transitions=self.transitions,
            events=self.events,
            initial_charge_j=self.initial_charge_j,
            final_storage_j=final_storage,
            conservation_j=conservation,
        )


def simulate_run(
    scenario,
    protocol: str,
    master_seed: int,
    run_index: int = 0,
    hooks: Optional[RunHooks] = None,
    collect_events: bool = False,
    traces: Optional[Mapping[int, HarvestTrace]] = None,
) -> RunResult:
    """Run one protocol over one scenario with one seeded stream set.

    The harvest traces are drawn from the trace stream, which depends
    only on (master_seed, run_index), so different protocols simulated
    with the same seed and run index see identical harvest conditions.
    A caller that already drew them passes them as traces (read only).
    """
    streams = RandomStreams(master_seed, run_index)
    if traces is None:
        traces = scenario.traces_for_run(streams.stream("traces"))
    run = ProtocolRun(
        protocol=protocol,
        n_nodes=scenario.n_nodes,
        links_multi_hop=scenario.links_multi_hop,
        links_single_hop=scenario.links_single_hop,
        traces=traces,
        params=scenario.params,
        vsn_configs=scenario.vsn_configs,
        energy_params=scenario.energy_params,
        storage_capacity_j=scenario.storage_capacity_j,
        initial_charge_j=scenario.initial_charge_j,
        horizon_s=scenario.horizon_s,
        streams=streams,
        hooks=hooks,
        collect_events=collect_events,
    )
    return run.run()
