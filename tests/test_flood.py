from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewansim.engine import Draws, RandomStreams
from ewansim.flood import (
    FLOOD_GUARD_S,
    simulate_contention_flood,
    simulate_flood,
)
from ewansim.links import LinkMatrix
from ewansim.protocol.run import _FloodRound
from ewansim.radio import RadioConfig, reception_probability, time_on_air

import oracles

CFG = RadioConfig(
    modulation="fsk",
    datarate_bps=250e3,
    bandwidth_hz=312e3,
    center_frequency_hz=864.6875e6,
    tx_power_dbm=14.0,
    sensitivity_dbm=-104.0,
)

CONNECTED_DB = 40.0   # far above sensitivity
BROKEN_DB = 200.0     # beyond any link budget


def matrix_from_edges(n: int, edges: set[frozenset[int]]) -> LinkMatrix:
    loss = np.full((n, n), BROKEN_DB)
    np.fill_diagonal(loss, 0.0)
    for e in edges:
        i, j = tuple(e)
        loss[i, j] = loss[j, i] = CONNECTED_DB
    return LinkMatrix(n=n, loss=loss)


def stream(seed=1):
    return RandomStreams(seed).stream("reception")


def ramp_matrix(n: int, seed: int) -> LinkMatrix:
    """Symmetric losses straddling the reception ramp of CFG."""
    loss = np.random.default_rng(seed).uniform(115.0, 122.0, size=(n, n))
    loss = (loss + loss.T) / 2
    np.fill_diagonal(loss, 0.0)
    return LinkMatrix(n=n, loss=loss)


# CFG hears a lone packet with certainty up to 116 dB of loss, with
# probability falling linearly to 0 at 118 dB, and never beyond
LOSS_DB = st.one_of(
    st.floats(30.0, 116.0),
    st.sampled_from([116.0, 117.0, 118.0]),
    st.floats(116.0, 118.0),
    st.floats(118.0, 200.0, exclude_min=True),
)


# "any": free draws; "in_range_excluded": a node an initiator reaches sits
# out the flood; "retx_at_least_hops": the transmit window outlasts the
# hops; "unreached_listener": distinct payloads contend while one listener
# hears no participant at all
SHAPES = ("any", "in_range_excluded", "retx_at_least_hops",
          "unreached_listener")


@st.composite
def flood_cases(draw):
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(3 if shape == "unreached_listener" else 2, 10))
    loss = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            loss[i, j] = loss[j, i] = draw(LOSS_DB)
    hops = draw(st.integers(1, 6))
    if shape == "retx_at_least_hops":
        retx = draw(st.integers(hops, hops + 3))
    else:
        retx = draw(st.integers(0, 3))
    if shape == "unreached_listener":
        lone = draw(st.integers(0, n - 1))
        others = [v for v in range(n) if v != lone]
        for v in others:
            loss[lone, v] = loss[v, lone] = draw(
                st.floats(118.0, 200.0, exclude_min=True))
        initiators = draw(st.lists(st.sampled_from(others), min_size=2,
                                   max_size=3, unique=True))
        packets = list(range(len(initiators)))
        participants = ({lone} | set(initiators)
                        | draw(st.sets(st.sampled_from(others))))
    else:
        participants = draw(st.sets(st.integers(0, n - 1), min_size=1))
        initiators = draw(st.lists(st.sampled_from(sorted(participants)),
                                   min_size=1, max_size=3, unique=True))
        # few packet ids, so multi-initiator floods also share payloads
        packets = draw(st.lists(st.integers(0, 2), min_size=len(initiators),
                                max_size=len(initiators)))
        outside = [v for v in range(n) if v not in initiators]
        if shape == "in_range_excluded" and outside:
            near = draw(st.sampled_from(outside))
            loss[initiators[0], near] = loss[near, initiators[0]] = draw(
                st.floats(30.0, 117.5))
            participants.discard(near)
    return dict(
        links=LinkMatrix(n=n, loss=loss),
        participants=participants,
        holders=dict(zip(initiators, packets)),
        hops=hops,
        retx=retx,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestSingleInitiator:
    def test_two_node_lossless(self):
        links = matrix_from_edges(2, {frozenset((0, 1))})
        res = simulate_flood(0, 20, {0, 1}, links, CFG, 6, 2, stream())
        assert res.nodes[1].received
        assert res.nodes[1].first_slot == 1
        assert res.nodes[0].first_slot == 0

    def test_disconnected_listener_listens_whole_flood(self):
        links = matrix_from_edges(3, {frozenset((0, 1))})
        res = simulate_flood(0, 20, {0, 1, 2}, links, CFG, 6, 2, stream())
        node = res.nodes[2]
        assert not node.received
        assert node.tx_count == 0
        duration_s = res.n_slots * res.slot_s
        assert node.radio_on_s == pytest.approx(duration_s)
        assert duration_s == pytest.approx(
            8 * (time_on_air(CFG, 20) + FLOOD_GUARD_S)
        )

    def test_six_node_chain_first_slot_is_distance(self):
        n = 6
        edges = {frozenset((i, i + 1)) for i in range(n - 1)}
        links = matrix_from_edges(n, edges)
        res = simulate_flood(0, 20, set(range(n)), links, CFG, 6, 2, stream())
        want = oracles.brute_force_flood_slots(n, edges, 0, 6, 2)
        for h in range(n):
            assert res.nodes[h].received
            assert res.nodes[h].first_slot == h
            assert res.nodes[h].first_slot == want[h]

    def test_hundred_random_lossless_graphs_match_bfs(self):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            n = int(rng.integers(4, 13))
            p_edge = float(rng.uniform(0.25, 0.7))
            edges = {
                frozenset((i, j))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < p_edge
            }
            initiator = int(rng.integers(0, n))
            hops = n  # deep enough that budget, not depth, is the only limit
            retx = int(rng.integers(0, 3))
            links = matrix_from_edges(n, edges)
            res = simulate_flood(
                initiator, 20, set(range(n)), links, CFG, hops, retx, stream(trial)
            )
            depths = oracles.bfs_depths(n, edges, initiator)
            replay = oracles.brute_force_flood_slots(n, edges, initiator, hops, retx)
            for node in range(n):
                got = res.nodes[node]
                if node in depths and depths[node] <= hops:
                    assert got.received, (trial, node)
                    assert got.first_slot == depths[node], (trial, node)
                else:
                    assert not got.received, (trial, node)
                assert (node in replay) == got.received
                if got.received:
                    assert replay[node] == got.first_slot

    def test_radio_on_bound_and_budget_on_probabilistic_links(self):
        # losses inside the ramp make reception stochastic; invariants hold
        rng = np.random.default_rng(7)
        g = stream(11)
        for trial in range(30):
            n = int(rng.integers(3, 9))
            loss = rng.uniform(115.0, 122.0, size=(n, n))  # straddles the ramp
            loss = (loss + loss.T) / 2
            np.fill_diagonal(loss, 0.0)
            links = LinkMatrix(n=n, loss=loss)
            hops, retx = 4, 2
            res = simulate_flood(0, 20, set(range(n)), links, CFG, hops, retx, g)
            bound = (hops + retx) * res.slot_s
            for node, r in res.nodes.items():
                assert r.radio_on_s <= bound + 1e-12
                assert r.tx_count <= retx + 1
                if r.received and node != 0:
                    assert 1 <= r.first_slot <= hops + retx

    def test_deterministic_links_ignore_stream(self):
        n = 5
        edges = {frozenset((i, i + 1)) for i in range(n - 1)}
        links = matrix_from_edges(n, edges)
        assert links.all_links_deterministic(CFG)
        a = simulate_flood(0, 20, set(range(n)), links, CFG, 6, 2, stream(1))
        b = simulate_flood(0, 20, set(range(n)), links, CFG, 6, 2, stream(999))
        assert a == b

    def test_flood_transport_books_each_nodes_radio_time(self):
        links = ramp_matrix(6, seed=2)
        res = simulate_flood(0, 20, set(range(6)), links, CFG, 4, 2,
                             stream(5))
        span = res.n_slots * res.slot_s + 0.01
        group = [1, 2, 4, 5]
        slot = {n: [0.0, 0.0, 0.0] for n in group}
        first = {n: [0.0, 0.0, 0.0] for n in group}
        _FloodRound._book(res, group, slot)
        _FloodRound._book(res, group, first, span)
        for node in group:
            r = res.nodes[node]
            tx = r.tx_count * res.toa_s
            assert slot[node] == [r.radio_on_s - tx, tx, 0.0]
            assert first[node] == [r.radio_on_s - tx, tx, span - r.radio_on_s]

    def test_initiator_must_participate(self):
        links = matrix_from_edges(2, {frozenset((0, 1))})
        with pytest.raises(ValueError):
            simulate_flood(5, 20, {0, 1}, links, CFG, 6, 2, stream())


class TestContention:
    def test_single_contender_behaves_like_flood(self):
        links = matrix_from_edges(3, {frozenset((0, 1)), frozenset((0, 2))})
        res = simulate_contention_flood(
            {1: 1}, 4, {0, 1, 2}, links, CFG, 6, 2, stream()
        )
        assert res.nodes[0].packet_id == 1
        assert res.nodes[2].packet_id == 1

    def test_equal_power_contenders_split_at_host(self):
        # star: host 0 hears 1 and 2 equally; they never hear each other
        edges = {frozenset((0, 1)), frozenset((0, 2))}
        links = matrix_from_edges(3, edges)
        g = stream(42)
        wins = {1: 0, 2: 0}
        n = 4000
        for _ in range(n):
            res = simulate_contention_flood(
                {1: 1, 2: 2}, 4, {0, 1, 2}, links, CFG, 1, 0, g
            )
            pkt = res.nodes[0].packet_id
            if pkt is not None:
                wins[pkt] += 1
        total = wins[1] + wins[2]
        assert total == n  # both far above sensitivity, one always captured
        assert abs(wins[1] / n - 0.5) < 0.03

    def test_requires_initiators(self):
        links = matrix_from_edges(2, {frozenset((0, 1))})
        with pytest.raises(ValueError):
            simulate_contention_flood({}, 4, {0, 1}, links, CFG, 6, 2, stream())
        with pytest.raises(ValueError):
            simulate_contention_flood({9: 9}, 4, {0, 1}, links, CFG, 6, 2, stream())


class TestKernelMatchesReference:
    @given(case=flood_cases())
    @settings(max_examples=300, deadline=None)
    def test_result_and_stream_state_match_the_per_listener_loop(self, case):
        links, participants = case["links"], case["participants"]
        holders, hops, retx = case["holders"], case["hops"], case["retx"]
        g_kernel, g_ref = stream(case["seed"]), stream(case["seed"])
        draws = Draws(stream(case["seed"]))
        if len(holders) == 1:
            (initiator,) = holders
            holders = {initiator: initiator}
            got, via_draws = (
                simulate_flood(initiator, 20, set(participants), links, CFG,
                               hops, retx, g)
                for g in (g_kernel, draws))
        else:
            got, via_draws = (
                simulate_contention_flood(holders, 20, set(participants),
                                          links, CFG, hops, retx, g)
                for g in (g_kernel, draws))
        want = oracles.reference_flood(
            holders, 20, participants, links, CFG, hops, retx, g_ref,
            oracles.RAMP_DB, oracles.CAPTURE_SIGMA_DB)
        assert got == want
        assert via_draws == got
        assert g_kernel.bit_generator.state == g_ref.bit_generator.state
        assert set(got.nodes) == participants
        for r in got.nodes.values():
            if r.received:
                assert r.tx_count == min(retx + 1, hops + retx - r.first_slot)
            else:
                assert r.tx_count == 0


class TestReceptionTable:
    def test_entries_are_the_lone_packet_probabilities(self):
        links = ramp_matrix(7, seed=3)
        table = links.reception_table(CFG)
        for u in range(links.n):
            for v in range(links.n):
                rx = CFG.tx_power_dbm - links.loss_db(u, v)
                want = reception_probability(rx, CFG.sensitivity_dbm)
                assert table[u][v] == want
                assert table[u][v] == links.link_probability(u, v, CFG)
                assert table[u][v] == table[v][u]
        assert any(0.0 < p < 1.0 for row in table for p in row)

    def test_table_is_cached_per_config(self):
        links = ramp_matrix(4, seed=5)
        table = links.reception_table(CFG)
        assert links.reception_table(CFG) is table
        assert links.reception_table(replace(CFG)) is table
        quieter = replace(CFG, tx_power_dbm=10.0)
        assert links.reception_table(quieter) is not table
        assert links.reception_table(quieter) != table
        assert "_tables" not in repr(links)
        # the losses behind a cached table cannot change
        with pytest.raises(ValueError):
            links.loss[0, 1] = 1.0

    def test_reach_masks_are_the_table_as_bitmasks(self):
        links = ramp_matrix(7, seed=4)
        table = links.reception_table(CFG)
        masks = links.reach_masks(CFG)
        assert links.reach_masks(CFG) is masks
        for u in range(links.n):
            for v in range(links.n):
                bit = 1 << v
                assert bool(masks.reach[u] & bit) == (table[u][v] > 0.0)
                assert bool(masks.sure[u] & bit) == (table[u][v] >= 1.0)
        for v in range(links.n):
            ranked = masks.senders[v]
            assert sorted(ranked) == sorted(
                (table[u][v], 1 << u) for u in range(links.n)
                if table[u][v] > 0.0)
            probs = [p for p, _ in ranked]
            assert probs == sorted(probs, reverse=True)
        assert any(0 < masks.reach[u].bit_count() < links.n
                   for u in range(links.n))

    def test_received_powers_are_cached_with_the_table(self):
        links = ramp_matrix(5, seed=6)
        rx = links.rx_dbm(CFG)
        assert links.rx_dbm(CFG) is rx
        assert rx == [[CFG.tx_power_dbm - links.loss_db(u, v)
                       for v in range(links.n)] for u in range(links.n)]

    @pytest.mark.parametrize("links, expected", [
        (matrix_from_edges(5, {frozenset((i, i + 1)) for i in range(4)}),
         True),
        (ramp_matrix(6, seed=9), False),
    ])
    def test_all_links_deterministic_agrees_with_pairwise_check(
            self, links, expected):
        pairwise = not any(
            0.0 < reception_probability(
                CFG.tx_power_dbm - links.loss_db(a, b), CFG.sensitivity_dbm)
            < 1.0
            for a in range(links.n) for b in range(a + 1, links.n))
        assert pairwise is expected
        assert links.all_links_deterministic(CFG) is expected
