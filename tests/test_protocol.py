from __future__ import annotations

import gc
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ewansim.campaign as campaign
from ewansim.protocol.host import ScheduleBook
from ewansim.engine import Draws, RandomStreams, to_us
from ewansim.links import LinkMatrix
from ewansim.protocol.params import ProtocolParams
from ewansim.protocol.records import NodeRoundStats, RoundRecord
from ewansim.protocol.run import (ProtocolRun, RunHooks, _FloodRound, _Round,
                                  simulate_run)
from ewansim.protocol.state import (
    NodeState,
    TransitionError,
    TransitionEvent,
    Vsn,
    node_transition,
)
from ewansim.scenario import build_scenario

from helpers import (delivered_by_node, delivered_total, flat_scenario,
                     mh_records, sh_records, transitions)

PARAMS = ProtocolParams()

E = TransitionEvent
POWERED = (Vsn.BOOTSTRAPPING, Vsn.MULTI_HOP, Vsn.SINGLE_HOP)


def _synced_at(t: float) -> ProtocolRun:
    """An ewan run whose node 1 has just completed its sync at t."""
    sc = flat_scenario(1)
    run = ProtocolRun(sc, "ewan", RandomStreams(11, 0), sc.traces)
    run._register_synced(1, t)
    return run


class TestSyncHandshake:
    """The host's answer to a sync request: the next multi-hop round k1,
    recorded as the sync_ok event's (k1, tau1 = seconds until it)."""

    def test_mid_period_request(self):
        # T=300: a request answered at 150 points at the round at 300
        (ev,) = _synced_at(150.0).events
        assert (ev.kind, ev.node, ev.data[:2]) == ("sync_ok", 1, ("mh", 1))
        assert ev.data[2] == pytest.approx(150.0)

    def test_request_just_after_round(self):
        (ev,) = _synced_at(2.0).events
        assert ev.data[:2] == ("mh", 1)
        assert ev.data[2] == pytest.approx(298.0)

    def test_sync_never_points_at_an_earlier_sh_round(self):
        # at t=302 the k=1 single-hop round (305) is imminent, but the node
        # waits for the next multi-hop round; it reaches single-hop only
        # through that round's hand-off (a single-hop entry of the same
        # period)
        run = _synced_at(302.0)
        (ev,) = run.events
        assert ev.data[:2] == ("mh", 2)
        assert ev.data[2] == pytest.approx(298.0)
        assert [(n, role) for n, role, _ in run.due["multi_hop", 2]] == [
            (1, "bootstrap")]
        assert not any(entries for (vsn, _), entries in run.due.items()
                       if vsn == "single_hop")

    def test_round_must_be_in_the_future(self):
        # a sync that ends exactly at a round start waits for the next one
        (ev,) = _synced_at(300.0).events
        assert ev.data[:2] == ("mh", 2)
        assert ev.data[2] == pytest.approx(300.0)

    @given(now=st.floats(min_value=0, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_response_lands_on_round_boundaries(self, now):
        k, start = PARAMS.next_mh_round_after(now)
        (ev,) = _synced_at(now).events
        assert ev.data[1] == k
        assert now + ev.data[2] == pytest.approx(PARAMS.mh_round_start(k))


class TestRoundTiming:
    def test_round_grid(self):
        assert PARAMS.mh_round_start(3) == 900.0
        assert PARAMS.sh_round_start(3) == 905.0

    def test_next_mh_is_strictly_after(self):
        assert PARAMS.next_mh_round_after(0.0) == (1, 300.0)
        assert PARAMS.next_mh_round_after(299.9) == (1, 300.0)
        assert PARAMS.next_mh_round_after(300.0) == (2, 600.0)

    def test_next_sh_is_strictly_after(self):
        assert PARAMS.next_sh_round_after(0.0) == (0, 5.0)
        assert PARAMS.next_sh_round_after(5.0) == (1, 305.0)
        assert PARAMS.next_sh_round_after(304.0) == (1, 305.0)


class TestNodeTransition:
    def test_depletion_turns_any_powered_node_off(self):
        for v in POWERED:
            s = NodeState(vsn=v, missed_schedules=1)
            out = node_transition(s, E.ENERGY_DEPLETED, p=2)
            assert out.vsn is Vsn.OFF
            assert out.missed_schedules == 0

    def test_depletion_while_off_is_a_bug(self):
        with pytest.raises(TransitionError):
            node_transition(NodeState(), E.ENERGY_DEPLETED, p=2)

    def test_energy_start_only_from_unpowered(self):
        out = node_transition(NodeState(vsn=Vsn.OFF), E.ENERGY_START, p=2)
        assert out.vsn is Vsn.BOOTSTRAPPING
        for v in POWERED:
            with pytest.raises(TransitionError):
                node_transition(NodeState(vsn=v), E.ENERGY_START, p=2)

    def test_mh_miss_counting_with_sh_fallback(self):
        s = NodeState(vsn=Vsn.MULTI_HOP)
        s = node_transition(s, E.MISSED_SCHEDULE, p=2)
        assert (s.vsn, s.missed_schedules) == (Vsn.MULTI_HOP, 1)
        s = node_transition(s, E.MISSED_SCHEDULE, p=2)
        # at the threshold the node stays put: the single-hop join
        # attempt is pending and its outcome arrives as a later event
        assert (s.vsn, s.missed_schedules) == (Vsn.MULTI_HOP, 2)
        s = node_transition(s, E.MISSED_SCHEDULE, p=2)
        assert s.vsn is Vsn.BOOTSTRAPPING

    def test_mh_miss_threshold_without_single_hop(self):
        s = NodeState(vsn=Vsn.MULTI_HOP, missed_schedules=1)
        out = node_transition(s, E.MISSED_SCHEDULE, p=2,
                              single_hop_enabled=False)
        assert out.vsn is Vsn.BOOTSTRAPPING

    def test_sh_miss_counting(self):
        s = NodeState(vsn=Vsn.SINGLE_HOP)
        s = node_transition(s, E.MISSED_SCHEDULE, p=2)
        assert (s.vsn, s.missed_schedules) == (Vsn.SINGLE_HOP, 1)
        s = node_transition(s, E.MISSED_SCHEDULE, p=2)
        assert s.vsn is Vsn.BOOTSTRAPPING

    def test_bootstrap_miss_is_a_retry(self):
        s = NodeState(vsn=Vsn.BOOTSTRAPPING)
        assert node_transition(s, E.MISSED_SCHEDULE, p=2) == s

    def test_miss_while_unpowered_is_a_bug(self):
        with pytest.raises(TransitionError):
            node_transition(NodeState(vsn=Vsn.OFF), E.MISSED_SCHEDULE, p=2)

    def test_received_mh_schedule(self):
        s = NodeState(vsn=Vsn.MULTI_HOP, missed_schedules=1)
        assert node_transition(s, E.RECEIVED_MH_SCHEDULE, p=2) == NodeState(
            vsn=Vsn.MULTI_HOP)
        s = NodeState(vsn=Vsn.BOOTSTRAPPING)
        assert node_transition(s, E.RECEIVED_MH_SCHEDULE, p=2).vsn is Vsn.MULTI_HOP
        for v in (Vsn.SINGLE_HOP, Vsn.OFF):
            with pytest.raises(TransitionError):
                node_transition(NodeState(vsn=v), E.RECEIVED_MH_SCHEDULE, p=2)

    def test_received_sh_schedule(self):
        s = NodeState(vsn=Vsn.SINGLE_HOP, missed_schedules=1)
        assert node_transition(s, E.RECEIVED_SH_SCHEDULE, p=2) == NodeState(
            vsn=Vsn.SINGLE_HOP)
        s = NodeState(vsn=Vsn.BOOTSTRAPPING)
        assert node_transition(s, E.RECEIVED_SH_SCHEDULE, p=2).vsn is Vsn.SINGLE_HOP
        # the exit path out of multi-hop opens only after p misses
        s = NodeState(vsn=Vsn.MULTI_HOP, missed_schedules=2)
        assert node_transition(s, E.RECEIVED_SH_SCHEDULE, p=2).vsn is Vsn.SINGLE_HOP
        with pytest.raises(TransitionError):
            node_transition(NodeState(vsn=Vsn.MULTI_HOP, missed_schedules=1),
                            E.RECEIVED_SH_SCHEDULE, p=2)

    def test_single_hop_events_illegal_when_disabled(self):
        s = NodeState(vsn=Vsn.BOOTSTRAPPING)
        with pytest.raises(TransitionError):
            node_transition(s, E.RECEIVED_SH_SCHEDULE, p=2,
                            single_hop_enabled=False)
        with pytest.raises(TransitionError):
            node_transition(NodeState(vsn=Vsn.SINGLE_HOP), E.SAMPLED_MH_SUCCESS,
                            p=2, single_hop_enabled=False)

    def test_sampling_outcomes(self):
        s = NodeState(vsn=Vsn.SINGLE_HOP, missed_schedules=1)
        assert node_transition(s, E.SAMPLED_MH_SUCCESS, p=2).vsn is Vsn.MULTI_HOP
        assert node_transition(s, E.SAMPLED_MH_FAILURE, p=2) == s
        for v in (Vsn.MULTI_HOP, Vsn.BOOTSTRAPPING):
            with pytest.raises(TransitionError):
                node_transition(NodeState(vsn=v), E.SAMPLED_MH_SUCCESS, p=2)

    @given(
        events=st.lists(st.sampled_from(list(TransitionEvent)), max_size=60),
        p=st.integers(min_value=1, max_value=4),
        enabled=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_miss_counter_never_exceeds_threshold(self, events, p, enabled):
        s = NodeState()
        for ev in events:
            try:
                s = node_transition(s, ev, p, enabled)
            except TransitionError:
                continue
            assert 0 <= s.missed_schedules <= p
            if not enabled:
                assert s.vsn is not Vsn.SINGLE_HOP
            if s.vsn is not Vsn.MULTI_HOP and s.vsn is not Vsn.SINGLE_HOP:
                assert s.missed_schedules == 0


class TestScheduleBook:
    def test_arrival_order_preserved(self):
        book = ScheduleBook(max_slots=15, p=2)
        for n in (3, 1, 2):
            book.enqueue_demand(n)
        assert book.prune_and_fill() == (3, 1, 2)

    def test_dataless_owner_dropped_after_p_rounds(self):
        book = ScheduleBook(max_slots=15, p=2)
        book.enqueue_demand(1)
        book.enqueue_demand(2)
        book.prune_and_fill()
        book.observe_round([1])
        assert book.prune_and_fill() == (1, 2)
        book.observe_round([1])
        assert book.prune_and_fill() == (1,)

    def test_delivery_resets_the_counter(self):
        book = ScheduleBook(max_slots=15, p=2)
        book.enqueue_demand(1)
        book.prune_and_fill()
        for round_deliveries in ([], [1], [], [1]):
            book.observe_round(round_deliveries)
            assert book.prune_and_fill() == (1,)

    def test_overflow_waits_in_fifo(self):
        book = ScheduleBook(max_slots=2, p=2)
        for n in (1, 2, 3, 4):
            book.enqueue_demand(n)
        assert book.prune_and_fill() == (1, 2)
        assert book.waiting == (3, 4)
        # node 1 stays dataless for p rounds, which frees its slot
        for _ in range(2):
            book.observe_round([2])
        assert book.prune_and_fill() == (2, 3)
        assert book.waiting == (4,)

    def test_duplicate_demands_ignored(self):
        book = ScheduleBook(max_slots=15, p=2)
        book.enqueue_demand(1)
        book.enqueue_demand(1)
        book.prune_and_fill()
        book.enqueue_demand(1)
        assert book.prune_and_fill() == (1,)
        assert book.waiting == ()

    @given(
        ops=st.lists(st.one_of(
            st.integers(min_value=1, max_value=6),
            st.frozensets(st.integers(min_value=1, max_value=6)).map(
                lambda got: ("observe", got))), max_size=40),
        max_slots=st.integers(min_value=1, max_value=4),
        p=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_node_never_holds_two_slots(self, ops, max_slots, p):
        # ints are demands; every observed round is followed by a fill
        book = ScheduleBook(max_slots=max_slots, p=p)
        for op in ops:
            if isinstance(op, int):
                book.enqueue_demand(op)
                continue
            book.observe_round(op[1])
            slots = book.prune_and_fill()
            assert len(set(slots)) == len(slots) <= max_slots
            assert not set(slots) & set(book.waiting)
            assert len(set(book.waiting)) == len(book.waiting)


class TestSingleMemberRuns:
    def test_member_delivers_once_per_round(self):
        res = simulate_run(flat_scenario(1), "ewan", master_seed=11)
        joined = [r for r in mh_records(res)
                  if 1 in r.nodes and r.nodes[1].received_first_schedule]
        assert len(joined) >= 4
        first = min(r.round_index for r in joined)
        for rec in mh_records(res):
            if rec.round_index > first:
                assert rec.nodes[1].packets_delivered == 1

    def test_join_happens_within_two_periods(self):
        res = simulate_run(flat_scenario(1), "ewan", master_seed=11)
        t_join = min(t for t, n, _, new, _ in transitions(res)
                     if n == 1 and new == "multi_hop")
        assert t_join <= 2 * PARAMS.period_t

    def test_energy_books_balance(self):
        for protocol in ("ewan", "drb", "single_hop", "multi_hop"):
            res = simulate_run(flat_scenario(2), protocol, master_seed=5)
            for n, err in res.conservation_j.items():
                assert abs(err) < 1e-9, (protocol, n)

    def test_single_hop_baseline_never_touches_multi_hop(self):
        res = simulate_run(flat_scenario(1), "single_hop", master_seed=11)
        assert mh_records(res) == []
        assert all(new != "multi_hop" for _, _, _, new, _ in transitions(res))
        delivered = delivered_by_node(res)
        assert delivered.get(1, 0) >= 4


class TestSeveredLinkFallback:
    HOOKS = RunHooks(blocked_multi_hop={1: [(2, 1000)]})

    def test_ewan_member_falls_back_to_single_hop(self):
        res = simulate_run(flat_scenario(1), "ewan", master_seed=11,
                           hooks=self.HOOKS)
        kinds = [(old, new) for _, n, old, new, _ in transitions(res) if n == 1]
        assert ("multi_hop", "single_hop") in kinds
        late_sh = [r for r in sh_records(res)
                   if r.round_start_s > 4 * PARAMS.period_t]
        assert sum(delivered_total(r) for r in late_sh) >= 2
        # every m-th single-hop round samples the still-severed multi-hop
        # channel, so the node keeps its single-hop membership to the end
        assert [new for _, n, _, new, _ in transitions(res) if n == 1][-1] == \
            "single_hop"

    def test_drb_member_can_only_rebootstrap(self):
        res = simulate_run(flat_scenario(1), "drb", master_seed=11,
                           hooks=self.HOOKS)
        assert all(new != "single_hop" for _, _, _, new, _ in transitions(res))
        kinds = [(old, new) for _, n, old, new, _ in transitions(res) if n == 1]
        assert ("multi_hop", "bootstrapping") in kinds
        late = [r for r in res.records
                if r.round_start_s > 4 * PARAMS.period_t]
        assert sum(delivered_total(r) for r in late) == 0


class TestProtocolPolicy:
    # node 1 is severed from multi-hop rounds 2-3 after it joined, node 2
    # from its first multi-hop round; two hours let the multi_hop
    # baseline charge to its 5 J start threshold
    HOOKS = RunHooks(blocked_multi_hop={1: [(2, 4)], 2: [(0, 2)]})
    # protocol -> (VSNs with rounds, kinds of sync_ok, storage J or None
    # for the scenario's, start threshold J or None for the scenario's)
    POLICY = {
        "ewan": ({"multi_hop", "single_hop"}, {"mh"}, None, None),
        "single_hop": ({"single_hop"}, {"sh"}, None, None),
        "multi_hop": ({"multi_hop"}, set(), 6.0, 5.0),
        "drb": ({"multi_hop"}, {"mh"}, 6.0, None),
    }

    @pytest.mark.parametrize("protocol", sorted(POLICY))
    def test_protocol_policy(self, protocol):
        vsns, sync_kinds, storage_j, threshold_j = self.POLICY[protocol]
        sc = flat_scenario(2, horizon_s=7200.0)
        run = ProtocolRun(sc, protocol, RandomStreams(11, 0), sc.traces,
                          self.HOOKS)
        assert {run.accounts[n].capacity_b for n in (1, 2)} == {
            storage_j or sc.storage_capacity_j}
        assert run.eparams.start_threshold == (
            threshold_j or sc.energy_params.start_threshold)
        res = run.run()

        assert {r.vsn for r in res.records} == vsns
        syncs = [ev for ev in res.events if ev.kind == "sync_ok"]
        assert {ev.data[0] for ev in syncs} == sync_kinds
        for ev in syncs:
            if ev.data[0] == "mh":
                k, start = PARAMS.next_mh_round_after(ev.t)
                assert ev.data[1] == k
                assert ev.t + ev.data[2] == pytest.approx(start)
        joins = [ev.data for ev in res.events if ev.kind == "join"]
        vias = {via for _, via, _ in joins}
        assert ("listen" in vias) == (protocol == "multi_hop")
        assert ("sample" in vias) == (protocol == "ewan")
        for tag, via, k in joins:
            if via == "sample":
                # sampling ordered by single-hop round k - 1
                assert tag == "mh" and (k - 1) % PARAMS.m == 0
        # node 2 misses its multi-hop bootstrap round: ewan hands it to
        # that period's single-hop round, drb makes it sync again
        if protocol == "ewan":
            assert (2, ("sh", "bootstrap", 1)) in [
                (ev.node, ev.data) for ev in res.events if ev.kind == "join"]
        if protocol == "drb":
            assert sum(ev.node == 2 for ev in syncs) == 2


class TestContendingSyncRequests:
    def test_equal_power_contenders_both_join_eventually(self):
        # both nodes power on together; the collided sync requests are
        # resolved by capture and randomized backoff within a few periods
        res = simulate_run(flat_scenario(2), "ewan", master_seed=11)
        delivered = delivered_by_node(res)
        assert delivered.get(1, 0) >= 1
        assert delivered.get(2, 0) >= 1


def _two_node_run_before(protocol: str, t: float) -> ProtocolRun:
    """Two nodes without harvest, run up to just before time t."""
    sc = flat_scenario(2, harvest_w=0.0, horizon_s=3600.0)
    run = ProtocolRun(sc, protocol, RandomStreams(11, 0), sc.traces)
    run.queue.run_until(to_us(t) - 1)
    return run


def _two_members_before_mh_round(k: int) -> ProtocolRun:
    """Two members without harvest, run up to just before multi-hop round
    k; node 2 owns the first data slot and node 1 the second."""
    run = _two_node_run_before("ewan", PARAMS.mh_round_start(k))
    assert all(run.nstate[n].vsn is Vsn.MULTI_HOP for n in (1, 2))
    assert run.book_mh.assigned == (2, 1)
    return run


def _drain_to(run: ProtocolRun, node: int, target_j: float):
    acct = run.accounts[node]
    eff = run.eparams.buck_efficiency
    acct.spend((acct.e_cap - target_j) * eff, "sleep")


class TestCarefulRound:
    def test_member_dies_between_slots_and_leaves_the_round(self):
        # just before multi-hop round k, node 1 is drained to 1.5x the
        # cost of its first-schedule flood: it survives that flood but not
        # the round, in which it is fragile (settled slot by slot)
        k = 4
        rs = PARAMS.mh_round_start(k)
        run = _two_members_before_mh_round(k)

        layout = run.mh_layout
        sched_span = layout.schedule_slot + layout.gap
        re = rs + layout.round_duration(2)
        acct = run.accounts[1]
        acct.advance(rs, run.load_sleep)
        first = run._flood("sched", {0: 0}, frozenset({0, 1, 2}),
                           PARAMS.schedule_payload_mh)
        costs = {1: [0.0, 0.0, 0.0]}
        _FloodRound._book(first, [1], costs, sched_span)
        li, tx, idl = costs[1]
        eff = run.eparams.buck_efficiency
        target = 1.5 * (li * run.load_mh.listen[0] + tx * run.load_mh.tx[0]
                        + idl * run.eparams.p_idle) / eff
        assert target < run.mh_fragile_j
        _drain_to(run, 1, target)

        floods = []
        flood = run._flood

        def spy(kind, initiators, participants, payload):
            floods.append((run.nstate[1].vsn, 1 in participants))
            return flood(kind, initiators, participants, payload)

        run._flood = spy
        before = acct.drawn_snapshot()
        run.queue.run_until(to_us(rs))
        after = acct.drawn_snapshot()

        (t_death,) = [t for t, n, _, new, _ in transitions(run)
                      if n == 1 and new == "off"]
        assert rs + sched_span <= t_death < re
        stats = run.records[-1].nodes[1]
        assert run.records[-1].round_index == k
        assert stats.received_first_schedule
        # its own data slot came after its death
        assert stats.packets_attempted == 0
        after_death = [inside for vsn, inside in floods if vsn is Vsn.OFF]
        assert after_death and not any(after_death)
        assert (stats.energy_tx_j, stats.energy_listen_j,
                stats.energy_idle_j) == (after[0] - before[0],
                                         after[1] - before[1],
                                         after[2] - before[2])

        res = run.run()
        for n, err in res.conservation_j.items():
            assert abs(err) < 1e-9, n

    @staticmethod
    def _run_round_with_fragile_node_1(run, monkeypatch, rs, fragile_j,
                                       layout):
        """Drain node 1 to half of fragile_j, keep node 2 robust, run the
        round that starts at rs, and check that node 1 was flushed at
        every slot end and node 2 once, at the round end. Returns each
        node's drawn-energy snapshot from before the round."""
        for n in (1, 2):
            run.accounts[n].advance(rs, run.load_sleep)
        _drain_to(run, 1, 0.5 * fragile_j)
        assert run.accounts[2].e_cap > fragile_j

        flushes = {1: [], 2: []}
        flush = _Round.flush

        def spy(rnd, n, end_t=None):
            died = flush(rnd, n, end_t)
            flushes[n].append(run.accounts[n].clock_s)
            return died

        monkeypatch.setattr(_Round, "flush", spy)
        before = {n: run.accounts[n].drawn_snapshot() for n in (1, 2)}
        run.queue.run_until(to_us(rs))
        monkeypatch.undo()

        sched_span = layout.schedule_slot + layout.gap
        data_span = layout.data_slot + layout.gap
        slot_ends = np.cumsum([rs + sched_span, data_span, data_span,
                               layout.contention_slot + layout.gap,
                               sched_span])
        assert flushes[1] == pytest.approx(list(slot_ends), abs=1e-9)
        assert flushes[2] == [rs + layout.round_duration(2)]
        return before

    @staticmethod
    def _check_round_books(run, k, before):
        """Both members survived round k, attempted their slot, and their
        round records hold exactly their ledger deltas; every ledger
        closes at the end of the run."""
        rec = run.records[-1]
        assert rec.round_index == k
        assert not any(n == 1 and new == "off"
                       for _, n, _, new, _ in transitions(run))
        for n in (1, 2):
            stats = rec.nodes[n]
            assert stats.packets_attempted == 1
            a, b = run.accounts[n].drawn_snapshot(), before[n]
            assert (stats.energy_tx_j, stats.energy_listen_j,
                    stats.energy_idle_j) == (a[0] - b[0], a[1] - b[1],
                                             a[2] - b[2])

        res = run.run()
        for n, err in res.conservation_j.items():
            assert abs(err) < 1e-9, n

    def test_only_the_fragile_member_is_settled_per_slot(self, monkeypatch):
        # node 1 is fragile but can afford the round; node 2 is robust
        k = 4
        rs = PARAMS.mh_round_start(k)
        run = _two_members_before_mh_round(k)
        before = self._run_round_with_fragile_node_1(
            run, monkeypatch, rs, run.mh_fragile_j, run.mh_layout)
        self._check_round_books(run, k, before)

    def test_single_hop_fragile_member_is_settled_per_slot(self,
                                                          monkeypatch):
        # the single_hop baseline: node 1 owns the first data slot and
        # node 2 the second; node 1 is fragile, node 2 robust
        k = 4
        rs = PARAMS.sh_round_start(k)
        run = _two_node_run_before("single_hop", rs)
        assert all(run.nstate[n].vsn is Vsn.SINGLE_HOP for n in (1, 2))
        assert run.book_sh.assigned == (1, 2)
        before = self._run_round_with_fragile_node_1(
            run, monkeypatch, rs, run.sh_fragile_j, run.sh_layout)
        assert run.records[-1].vsn == "single_hop"
        self._check_round_books(run, k, before)


class TestDueList:
    """A node booked into a later round is gathered only while its sync
    token is the one it was booked with; a death moves the token on."""

    @staticmethod
    def _die(run: ProtocolRun, node: int, t: float):
        """Empty node's store and kill it at t: with no harvest it stays
        off for the rest of the run."""
        _drain_to(run, node, 0.0)
        run._kill(node, t)

    def test_bootstrapper_that_dies_before_its_round_does_not_join(self):
        # both nodes synced within the first 100 s and wait for round 1
        run = _two_node_run_before("ewan", 100.0)
        assert [(n, role) for n, role, _ in run.due["multi_hop", 1]] == [
            (1, "bootstrap"), (2, "bootstrap")]
        self._die(run, 1, 100.0)
        run.queue.run_until(to_us(PARAMS.mh_round_start(1)))
        rec = run.records[-1]
        assert (rec.vsn, rec.round_index) == ("multi_hop", 1)
        assert list(rec.nodes) == [2]
        assert [ev.node for ev in run.events if ev.kind == "join"] == [2]

    def test_sampler_that_dies_before_the_mh_round_is_not_gathered(self):
        # single-hop round k orders multi-hop sampling (k % m == 0)
        k = 2
        assert k % PARAMS.m == 0
        run = _two_node_run_before("ewan", PARAMS.sh_round_start(k))
        run.nstate[1] = NodeState(Vsn.SINGLE_HOP)
        run.queue.run_until(to_us(PARAMS.sh_round_start(k)))
        assert [(n, role) for n, role, _ in run.due["multi_hop", k + 1]] == [
            (1, "sample")]
        self._die(run, 1, PARAMS.sh_round_start(k) + 10.0)
        run.queue.run_until(to_us(PARAMS.mh_round_start(k + 1)))
        rec = run.records[-1]
        assert (rec.vsn, rec.round_index) == ("multi_hop", k + 1)
        assert list(rec.nodes) == [2]
        assert not any(ev.kind == "join" and ev.data[1] == "sample"
                       for ev in run.events)


class TestRoundRecords:
    @staticmethod
    def _accountant():
        sc = flat_scenario(2)
        run = ProtocolRun(sc, "ewan", RandomStreams(11, 0), sc.traces)
        rnd = _FloodRound(run, 1)
        rnd.begin([1, 2])
        return run, RoundRecord("multi_hop", 1, rnd.rs), rnd

    def test_close_records_each_participant(self):
        run, record, rnd = self._accountant()
        rnd.close(record, {1: True, 2: False}, {1}, {1, 2}, 2)
        assert record.nodes == {1: NodeRoundStats(True, 1, 1, 0.0, 0.0, 0.0),
                                2: NodeRoundStats(False, 0, 1, 0.0, 0.0, 0.0)}
        assert [ev.kind for ev in run.events] == ["round"]

    def test_close_rejects_a_delivery_never_attempted(self):
        run, record, rnd = self._accountant()
        with pytest.raises(ValueError, match="cannot deliver more packets "
                                             "than attempted"):
            rnd.close(record, {1: True, 2: True}, {1}, {2}, 1)
        assert record.nodes == {}
        assert run.events == []


class TestRunLifetime:
    @pytest.mark.parametrize("protocol", ("ewan", "single_hop"))
    def test_finished_run_is_freed_without_the_cycle_collector(
            self, monkeypatch, protocol):
        # a reference cycle through a run (such as round helpers or bound
        # methods stored on it) keeps every finished run of a campaign
        # alive until the cycle collector happens to run
        refs = []
        run = ProtocolRun.run

        def spy(self):
            refs.append(weakref.ref(self))
            return run(self)

        monkeypatch.setattr(ProtocolRun, "run", spy)
        gc.disable()
        try:
            res = simulate_run(flat_scenario(2), protocol, master_seed=11)
            freed = refs[0]() is None
        finally:
            gc.enable()
        assert delivered_by_node(res)
        assert freed

    def test_campaign_holds_one_run_result_at_a_time(self, monkeypatch):
        # a name still bound to the previous protocol's RunResult while the
        # next run builds its own keeps two whole runs alive at the peak
        refs = []
        simulate = campaign.simulate_run

        def spy(*args, **kwargs):
            alive = [r for r in refs if r() is not None]
            assert not alive, f"{len(alive)} earlier RunResult(s) alive"
            result = simulate(*args, **kwargs)
            refs.append(weakref.ref(result))
            return result

        monkeypatch.setattr(campaign, "simulate_run", spy)
        gc.disable()
        try:
            campaign.run_campaign(flat_scenario(2), ("ewan", "single_hop"),
                                  n_runs=2, master_seed=11)
        finally:
            gc.enable()
        assert len(refs) == 4


class TestSharedHarvestAcrossProtocols:
    def test_drawn_traces_are_bitwise_identical(self):
        rng = np.random.default_rng(7)
        sc = build_scenario("fh", rho=0.0, stream=rng, days=1)
        # the trace stream depends only on (master seed, run index), so
        # every protocol simulated under that pair sees the same harvest
        a = sc.traces_for_run(RandomStreams(42, 3).stream("traces"))
        b = sc.traces_for_run(RandomStreams(42, 3).stream("traces"))
        c = sc.traces_for_run(RandomStreams(42, 4).stream("traces"))
        for v in range(1, sc.n_nodes + 1):
            assert np.array_equal(a[v].samples, b[v].samples)
        assert any(not np.array_equal(a[v].samples, c[v].samples)
                   for v in range(1, sc.n_nodes + 1))

    def test_run_on_passed_traces_equals_run_drawing_its_own(self):
        rng = np.random.default_rng(7)
        sc = build_scenario("fh", rho=0.0, stream=rng, days=1)
        drawn = sc.traces_for_run(RandomStreams(42, 3).stream("traces"))
        for protocol in ("ewan", "single_hop"):
            assert simulate_run(sc, protocol, 42, run_index=3,
                                traces=drawn) == simulate_run(
                sc, protocol, 42, run_index=3)

    def test_trace_inflow_identical_for_all_protocols(self):
        # inflow is integrated lazily along each protocol's own activity
        # boundaries, so the books may differ by summation rounding only
        rng = np.random.default_rng(7)
        sc = build_scenario("fh", rho=0.0, stream=rng, days=1)
        inflows = {}
        for protocol in ("ewan", "single_hop", "drb"):
            res = simulate_run(sc, protocol, master_seed=42, run_index=3)
            inflows[protocol] = {n: led["e_in"]
                                 for n, led in res.ledgers.items()}
        for n in inflows["ewan"]:
            ref = inflows["ewan"][n]
            assert inflows["single_hop"][n] == pytest.approx(ref, rel=1e-12)
            assert inflows["drb"][n] == pytest.approx(ref, rel=1e-12)


def _lossy_mh_day():
    """A one-day mh scenario with every decodable multi-hop link 1 dB above
    sensitivity, inside the reception ramp, so every flood draws."""
    sc = build_scenario("mh", 0.0, np.random.default_rng(7), days=1)
    cfg = sc.vsn_configs.multi_hop
    budget = cfg.tx_power_dbm - cfg.sensitivity_dbm
    loss = sc.links_multi_hop.loss.copy()
    loss[(loss <= budget) & ~np.eye(len(loss), dtype=bool)] = budget - 1.0
    return replace(sc, links_multi_hop=LinkMatrix(n=len(loss), loss=loss))


class TestReceptionDraws:
    def test_block_size_leaves_a_lossy_run_unchanged(self, monkeypatch):
        sc = _lossy_mh_day()
        assert not sc.links_multi_hop.all_links_deterministic(
            sc.vsn_configs.multi_hop)
        runs = [pickle.dumps(simulate_run(sc, "ewan", 3))]
        for block in (1, 3):
            monkeypatch.setattr(Draws, "BLOCK", block)
            runs.append(pickle.dumps(simulate_run(sc, "ewan", 3)))
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]
