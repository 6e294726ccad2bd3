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

Rounds are processed atomically at their start time. One executor,
ProtocolRun._handle_round, runs every round of both VSNs: it gathers who
attends in which role, turns the first schedule's reception into
transitions, then walks the layout's slot plan (data slots, contention,
second schedule). A transport supplies what differs between the VSNs:
floods on multi-hop (_FloodTransport), point-to-point exchanges with the
host on single-hop (_HostTransport). Energy is booked through one
_RoundAccountant: each node's per-slot radio time is summed into
[listen, tx, idle] and applied as a few account advances. A participant
whose storage is below a conservative worst-case round cost (a whole
round at transmit power) is fragile: only fragile nodes are flushed at
each slot end, so a death takes effect between slots and removes the
node from later slots. Any other node cannot die within the round and
is flushed once, at the round end. The queue holds plain handler calls,
and the run records what it does, transitions included, as RunEvents.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Optional, Sequence

from ..energy import CLOCK_EPS_S, EnergyStorage, HarvestTrace, NodeAccount
from ..engine import (
    EventQueue,
    RandomStreams,
    SimulationError,
    draw_uniform,
    to_s,
    to_us,
)
from ..flood import FloodResult, simulate_contention_flood, simulate_flood
from ..radio import (
    DEFAULT_CAPTURE_SIGMA_DB,
    DEFAULT_RAMP_DB,
    ConcurrentAttempt,
    RadioConfig,
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
)
from .records import NodeRoundStats, RoundRecord, RunEvent
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
    """Energy of one round's participants, on either VSN.

    The transport adds each node's radio time to its [listen, tx, idle]
    cost list; flush() books the list in that order. The executor puts
    in fragile the participants whose storage is below a worst-case
    round cost; settle() flushes the live fragile nodes at each slot end,
    so a death takes effect before the node's next slot. Every other
    node is flushed once, at the round end.
    """

    def __init__(self, run: "ProtocolRun", record: RoundRecord, tp,
                 present: list[int]):
        self.run = run
        self.record = record
        self.tp = tp
        self.loads = tp.loads
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

    def settle(self, alive: list[int], t: float):
        """A slot ended at t: flush the live fragile nodes."""
        if self.fragile:
            for n in [n for n in alive if n in self.fragile]:
                if self.flush(n, t):
                    alive.remove(n)

    def close(self, received: Mapping[int, bool], delivered: set[int],
              attempted: set[int], n_slots: int):
        """Feed the deliveries to the book and record every participant."""
        self.tp.book.observe_round(delivered)
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
        self.run._event(record.round_start_s, "round", self.run.HOST,
                        self.tp.tag, record.round_index, n_slots,
                        len(self.present), len(delivered))


class _FloodTransport:
    """One multi-hop round's slots as floods, booked into acc.costs.
    Built per round, so the run never holds a transport."""

    vsn, tag = "multi_hop", "mh"
    received_event = TransitionEvent.RECEIVED_MH_SCHEDULE

    def __init__(self, run: "ProtocolRun", k: int):
        self.run = run
        self.k = k
        self.rs = run.params.mh_round_start(k)
        self.layout = run.mh_layout
        self.book = run.book_mh
        self.loads = run.load_mh
        self.fragile_j = run.mh_fragile_j

    def gather(self) -> list[tuple[int, str]]:
        run, k, rs = self.run, self.k, self.rs
        members = run._advance_to(sorted(run.members_mh), rs, run.load_sleep)
        boot = [n for n, tok in run.wait_mh.pop(k, [])
                if run.sync_token.get(n) == tok
                and run.nstate[n].vsn is Vsn.BOOTSTRAPPING]
        boot = run._advance_to(boot, rs, run.load_sleep)
        samp = [n for n in sorted(run.samplers.pop(k, set()))
                if run.nstate[n].vsn is Vsn.SINGLE_HOP]
        samp = run._advance_to(samp, rs, run.load_sleep)
        listen = run._advance_to(sorted(run.mhb_listeners), rs,
                                 self.loads.listen)
        roles = (("member", members), ("bootstrap", boot), ("sample", samp),
                 ("listen", listen))
        return [(n, role) for role, nodes in roles for n in nodes]

    @staticmethod
    def _book(res: FloodResult, span: float, toa: float,
              group: Sequence[int], costs: dict[int, list[float]]):
        times = res.radio_times(span, toa)
        for n in group:
            li, tx, idl = times[n]
            c = costs[n]
            c[0] += li
            c[1] += tx
            c[2] += idl

    def first_schedule(self, pairs: list[tuple[int, str]],
                       acc: _RoundAccountant) -> dict[int, bool]:
        run, lay, k = self.run, self.layout, self.k
        flood_ids = frozenset([run.HOST] + [
            n for n, _ in pairs if not run.hooks.blocked(self.vsn, n, k)])
        res = None
        if len(flood_ids) > 1:
            res = run._flood("sched", {run.HOST: run.HOST}, flood_ids,
                             run.params.schedule_payload_mh)
        heard = res.nodes if res is not None else {}
        received = {n: n in heard and heard[n].received for n, _ in pairs}
        # a passive listener that heard nothing listens on to the round end
        payers = [n for n, role in pairs if received[n] or role != "listen"]
        if res is not None:
            self._book(res, lay.schedule_slot + lay.gap, lay.toa_schedule,
                       [n for n in payers if n in flood_ids], acc.costs)
        for n in payers:
            if n not in flood_ids:
                # severed this round: listened to the whole slot for nothing
                acc.costs[n][0] += lay.schedule_slot
        return received

    def _slot(self, kind: str, initiators: Mapping[int, int], payload: int,
              toa: float, alive: list[int], span: float,
              acc: _RoundAccountant):
        """Flood one slot among the host and alive; the host's result."""
        run = self.run
        res = run._flood(kind, initiators, frozenset([run.HOST] + alive),
                         payload)
        self._book(res, span, toa, alive, acc.costs)
        return res.nodes[run.HOST]

    def data(self, owner: int, alive: list[int], span: float,
             acc: _RoundAccountant) -> Optional[bool]:
        """Whether the host got owner's packet; None if a fragile owner
        cannot afford its own flood."""
        run = self.run
        if (owner in acc.fragile and run.accounts[owner].storage.e_cap
                <= run.mh_owner_tx_j):
            return None
        return self._slot("data", {owner: owner}, run.params.data_payload,
                          self.layout.toa_data, alive, span, acc).received

    def contend(self, contenders: list[int], alive: list[int], span: float,
                acc: _RoundAccountant) -> Optional[int]:
        host = self._slot("cont", {c: c for c in contenders},
                          CONTENTION_BYTES, self.layout.toa_contention,
                          alive, span, acc)
        return host.packet_id if host.received else None

    def second_schedule(self, alive: list[int], span: float,
                        acc: _RoundAccountant):
        self._slot("sched", {self.run.HOST: self.run.HOST},
                   self.run.params.schedule_payload_mh,
                   self.layout.toa_schedule, alive, span, acc)


class _HostTransport:
    """One single-hop round's slots as point-to-point exchanges with the
    host, booked into acc.costs. Built per round, like _FloodTransport."""

    vsn, tag = "single_hop", "sh"
    received_event = TransitionEvent.RECEIVED_SH_SCHEDULE

    def __init__(self, run: "ProtocolRun", k: int):
        self.run = run
        self.k = k
        self.rs = run.params.sh_round_start(k)
        self.layout = run.sh_layout
        self.book = run.book_sh
        self.loads = run.load_sh
        self.fragile_j = run.sh_fragile_j

    def gather(self) -> list[tuple[int, str]]:
        run, rs = self.run, self.rs
        members = run._advance_to(sorted(run.members_sh), rs, run.load_sleep)
        waiters: list[tuple[int, str]] = []
        for n, reason, tok in run.wait_sh.pop(self.k, []):
            st = run.nstate[n]
            if (reason == "bootstrap" and st.vsn is Vsn.BOOTSTRAPPING
                    and run.sync_token.get(n) == tok
                    or reason == "mh_exit" and st.vsn is Vsn.MULTI_HOP
                    and st.missed_schedules >= run.params.p):
                waiters.append((n, reason))
        alive = run._advance_to([n for n, _ in waiters], rs, run.load_sleep)
        return ([(n, "member") for n in members]
                + [(n, r) for n, r in waiters if n in alive])

    def _hear(self, n: int, c: list[float], first: bool) -> bool:
        """Whether n decodes one of the host's schedule copies. Books its
        listening into cost list c, then the rest of the slot as idle,
        except for a node that misses the first schedule: it leaves."""
        run, lay = self.run, self.layout
        got = False
        listen_s = lay.schedule_slot
        if not run.hooks.blocked(self.vsn, n, self.k):
            p = run.p_sh_link[n]
            for copy in range(1, lay.host_copies + 1):
                if run._bern(p):
                    got = True
                    listen_s = lay.schedule_listen_until_copy(copy)
                    break
        c[0] += listen_s
        if got or not first:
            c[2] += lay.schedule_slot - listen_s + lay.gap
        return got

    def first_schedule(self, pairs: list[tuple[int, str]],
                       acc: _RoundAccountant) -> dict[int, bool]:
        return {n: self._hear(n, acc.costs[n], True) for n, _ in pairs}

    def data(self, owner: int, alive: list[int], span: float,
             acc: _RoundAccountant) -> bool:
        """Send owner's packet to the host; whether the host got it."""
        run, lay, costs = self.run, self.layout, acc.costs
        got = (not run.hooks.blocked(self.vsn, owner, self.k)
               and run._bern(run.p_sh_link[owner]))
        c = costs[owner]
        c[0] += lay.toa_data  # host repetition
        c[1] += lay.toa_data
        c[2] += lay.turnaround + lay.gap
        for n in alive:
            if n != owner:
                costs[n][2] += span
        return got

    def contend(self, contenders: list[int], alive: list[int], span: float,
                acc: _RoundAccountant) -> Optional[int]:
        run, lay, costs = self.run, self.layout, acc.costs
        heard = [n for n in contenders
                 if not run.hooks.blocked(self.vsn, n, self.k)]
        winner = run._host_capture(run.cfg_sh, heard) if heard else None
        for n in contenders:
            c = costs[n]
            c[0] += lay.toa_contention  # winner echo
            c[1] += lay.toa_contention
            c[2] += lay.turnaround + lay.gap
        for n in alive:
            if n not in contenders:
                costs[n][2] += span
        return winner

    def second_schedule(self, alive: list[int], span: float,
                        acc: _RoundAccountant):
        """A timing refresh only: never changes membership."""
        for n in alive:
            self._hear(n, acc.costs[n], False)


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

    def blocked(self, vsn: str, node: int, k: int) -> bool:
        ranges = (self.blocked_multi_hop if vsn == "multi_hop"
                  else self.blocked_single_hop)
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
    events: list[RunEvent]
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
    """One protocol over one scenario, with one seeded stream set and one
    set of harvest traces. The scenario is an ewansim.scenario.Scenario,
    which this module cannot import: that module imports this package."""

    HOST = 0

    def __init__(self, scenario, protocol: str, streams: RandomStreams,
                 traces: Mapping[int, HarvestTrace],
                 hooks: Optional[RunHooks] = None):
        n_nodes = scenario.n_nodes
        params = scenario.params
        horizon_s = scenario.horizon_s
        initial_charge_j = scenario.initial_charge_j
        if protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {protocol!r}")
        if (scenario.links_multi_hop.n != n_nodes + 1
                or scenario.links_single_hop.n != n_nodes + 1):
            raise ValueError("link matrices must cover host + n_nodes")
        if not 0 < horizon_s < float("inf"):
            raise ValueError("horizon must be finite and positive")
        self.protocol = protocol
        self.n_nodes = n_nodes
        self.nodes = tuple(range(1, n_nodes + 1))
        self.links_mh = scenario.links_multi_hop
        self.links_sh = scenario.links_single_hop
        self.params = params
        self.horizon_s = horizon_s
        self.hooks = hooks or RunHooks()

        storage_b = scenario.storage_capacity_j
        eparams = scenario.energy_params
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

        vsn_configs = scenario.vsn_configs
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
            _ChannelLoads((c.rx_watts, "listen"), (c.tx_watts, "tx"))
            for c in (self.cfg_boot, self.cfg_mh, self.cfg_sh))

        # reception probability of each node's direct host link, per channel
        self.p_boot_link, self.p_sh_link = (
            {n: self.links_sh.link_probability(self.HOST, n, c)
             for n in self.nodes}
            for c in (self.cfg_boot, self.cfg_sh))
        all_ids = set(range(n_nodes + 1))
        self._mh_deterministic = self.links_mh.all_links_deterministic(
            all_ids, self.cfg_mh)
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
        self.events: list[RunEvent] = []
        self.active_since: dict[int, float] = {}
        self.active_intervals: dict[int, list[tuple[float, float]]] = {
            n: [] for n in self.nodes}

        self.queue = EventQueue()
        self._push_round_events()
        for n in self.nodes:
            self.queue.schedule(to_us(horizon_s), self._final_advance, n)

        self._rx = streams.stream("reception")
        self._backoff = streams.stream("backoff")

        for n in self.nodes:
            self._rearm_scan(n)

    # ------------------------------------------------------------------
    # setup and event plumbing

    def _push_round_events(self):
        k = 0
        while (start := self.params.mh_round_start(k)) < self.horizon_s:
            if self.has_mh:
                self.queue.schedule(to_us(start), self._handle_round,
                                    _FloodTransport, k)
            if self.sh_enabled:
                sh_start = self.params.sh_round_start(k)
                if sh_start < self.horizon_s:
                    self.queue.schedule(to_us(sh_start), self._handle_round,
                                        _HostTransport, k)
            k += 1

    def _event(self, t: float, kind: str, node: int, *data):
        self.events.append(RunEvent(t, kind, node, data))

    def _transition(self, node: int, event: TransitionEvent, t: float):
        old = self.nstate[node]
        new = node_transition(old, event, self.params.p, self.sh_enabled)
        self.nstate[node] = new
        if old.vsn is not new.vsn:
            self._event(t, "transition", node, old.vsn.value,
                        new.vsn.value, event.value)
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
        if self.nstate[node].vsn is not Vsn.OFF:
            return
        acct = self.accounts[node]
        if acct.clock_s < t - CLOCK_EPS_S:
            acct.integrate(t, self.eparams.p_boot, "boot", die=False)
        if acct.storage.e_cap <= self.eparams.start_threshold:
            # dipped back below threshold while waiting: keep charging
            self._rearm_scan(node)
            return
        self._transition(node, TransitionEvent.ENERGY_START, t)
        self.active_since[node] = t
        died = (acct.spend(self.eparams.e_boot, "boot")
                or acct.spend(self.eparams.e_com_init, "com_init"))
        self._event(t, "power_on", node, acct.storage.e_cap)
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
        self.queue.schedule(max(to_us(wake), self.queue.now_us),
                            self._power_on, node, wake)

    def _kill(self, node: int, t: float):
        self._transition(node, TransitionEvent.ENERGY_DEPLETED, t)
        self.sync_token[node] += 1
        self.pending_sync.pop(node, None)
        self.mhb_listeners.discard(node)
        start = self.active_since.pop(node, None)
        if start is not None:
            self.active_intervals[node].append((start, t))
        self._event(t, "death", node)
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
        self.queue.schedule(max(to_us(t), self.queue.now_us),
                            self._handle_sync, node, self.sync_token[node], t)

    # ------------------------------------------------------------------
    # bootstrapping handshake

    def _next_round_start_after(self, t: float) -> float:
        cands = []
        if self.has_mh:
            cands.append(self.params.next_mh_round_after(t)[1])
        if self.sh_enabled:
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
            got = self._host_capture(self.cfg_boot, [m for m, _ in survivors])
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
                self._event(t, "sync_fail", m)
                self._retry_sync(m, listen_end)

    def _retry_sync(self, node: int, t: float):
        """Request sync again after a random backoff from t."""
        self._schedule_sync(node, t + draw_uniform(
            self._backoff, 0.0, self.params.backoff_window))

    def _register_synced(self, node: int, t: float):
        if self.protocol in ("ewan", "drb"):
            k1, t1 = self.params.next_mh_round_after(t)
            resp = host_handle_sync_request(t, t1, self.params)
            self.wait_mh[k1].append((node, self.sync_token[node]))
            self._event(t, "sync_ok", node, "mh", k1, resp.tau1)
        else:  # single-hop baseline: response carries the next round time
            k1, _ = self.params.next_sh_round_after(t)
            self.wait_sh[k1].append((node, "bootstrap", self.sync_token[node]))
            self._event(t, "sync_ok", node, "sh", k1)

    def _host_capture(self, cfg: RadioConfig,
                      nodes: Sequence[int]) -> Optional[int]:
        """Which of nodes' concurrent transmissions on cfg's channel the
        host decodes, if any."""
        attempts = [ConcurrentAttempt(packet_id=n, sender=n, rx_power_dbm=(
            cfg.tx_power_dbm - self.links_sh.loss_db(self.HOST, n)))
            for n in nodes]
        return resolve_concurrent(attempts, cfg.sensitivity_dbm,
                                  DEFAULT_RAMP_DB, DEFAULT_CAPTURE_SIGMA_DB,
                                  self._rx)

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
                self._rx)
        else:
            (initiator,) = initiators
            res = simulate_flood(
                initiator, payload, set(participants), self.links_mh,
                self.cfg_mh, self.params.flood_hops, self.params.flood_retx,
                self._rx)
        if cache_key is not None:
            self._flood_cache[cache_key] = res
        return res

    # ------------------------------------------------------------------
    # rounds (both VSNs)

    def _advance_to(self, entries: Sequence[int], t: float,
                     load: tuple[float, str]) -> list[int]:
        """Advance each node's account to t under load; the survivors."""
        alive = []
        for n in entries:
            d = self.accounts[n].advance(t, load)
            if d is not None:
                self._kill(n, d)
            else:
                alive.append(n)
        return alive

    def _handle_round(self, transport, k: int):
        """Round k on the transport class's VSN: roles from the first
        schedule, then the slot plan, booking every participant's energy."""
        tp = transport(self, k)
        layout = tp.layout
        rs = tp.rs
        pairs = tp.gather()
        sched = host_build_schedule(tp.book, self.params, tp.vsn, k)
        n_slots = len(sched.assignments)
        re = rs + layout.round_duration(n_slots)
        self.host_busy_until = max(self.host_busy_until, re)
        sample = sched.sample_multihop and self.protocol == "ewan"

        record = RoundRecord(vsn=tp.vsn, round_index=k, round_start_s=rs)
        self.records.append(record)
        if not pairs:
            tp.book.observe_round(())
            return
        acc = _RoundAccountant(self, record, tp, [n for n, _ in pairs])
        received = tp.first_schedule(pairs, acc)

        # roles after the first schedule
        leave_t = rs + layout.schedule_slot
        alive: list[int] = []
        leavers: list[int] = []
        stay: list[int] = []  # passive listeners that heard nothing
        for n, role in pairs:
            if received[n]:
                self._transition(n, TransitionEvent.SAMPLED_MH_SUCCESS
                                 if role == "sample" else tp.received_event,
                                 rs)
                if role != "member":
                    self._event(rs, "join", n, tp.tag, role, k)
                if role == "listen":
                    self.mhb_listeners.discard(n)
                if sample:
                    self.samplers[k + 1].add(n)
                alive.append(n)
                continue
            if role == "listen":
                stay.append(n)
                continue
            leavers.append(n)
            if role == "sample":
                self._transition(n, TransitionEvent.SAMPLED_MH_FAILURE, rs)
            elif role == "bootstrap" and tp.vsn == "multi_hop":
                if self.protocol == "ewan":
                    # hand over to this period's single-hop round
                    self.wait_sh[k].append(
                        (n, "bootstrap", self.sync_token[n]))
                else:
                    self._retry_sync(n, leave_t)
            else:
                st = self._transition(n, TransitionEvent.MISSED_SCHEDULE, rs)
                self._event(rs, "sched_miss", n, tp.tag, k,
                            st.missed_schedules)
                if role == "bootstrap":
                    self._retry_sync(n, leave_t)
                elif (st.vsn is Vsn.MULTI_HOP
                        and st.missed_schedules >= self.params.p):
                    # with single-hop disabled the transition already
                    # returned the node to bootstrapping
                    if self.sh_enabled:
                        self.wait_sh[k].append((n, "mh_exit", -1))
                elif st.vsn is Vsn.BOOTSTRAPPING:
                    self._enter_bootstrap(n, leave_t)
        acc.fragile = {n for n in alive if self.accounts[n].storage.e_cap
                       < tp.fragile_j}
        # leavers are done after the first schedule slot
        for n in leavers:
            acc.flush(n)

        delivered: set[int] = set()
        attempted: set[int] = set()
        t = rs + (layout.schedule_slot + layout.gap)
        acc.settle(alive, t)
        for what, span in layout.slot_plan(sched.assignments):
            if what == "contention":
                live = [n for n in alive if sched.slot_of(n) is None]
                used = bool(live)
                if used:
                    w = tp.contend(live, alive, span, acc)
                    if w is not None:
                        tp.book.enqueue_demand(w)
                        self._event(rs, "contend_won", w, tp.tag, k)
            elif what == "schedule":
                used = bool(alive)
                if used:
                    tp.second_schedule(alive, span, acc)
            else:
                got = tp.data(what, alive, span, acc) if what in alive else None
                used = got is not None
                if used:
                    attempted.add(what)
                    if got:
                        delivered.add(what)
            if not used:
                for n in alive:
                    acc.costs[n][2] += span
            t += span
            acc.settle(alive, t)

        # the fragile nodes were settled at the last slot end
        for n in alive:
            if n not in acc.fragile:
                acc.flush(n, re)
        self._advance_to(stay, re, tp.loads.listen)
        acc.close(received, delivered, attempted, n_slots)

    # ------------------------------------------------------------------
    # main loop

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
        self.queue.run_until(to_us(self.horizon_s))
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
    return ProtocolRun(scenario, protocol, streams, traces, hooks).run()
