"""Release gate: twelve end-to-end checks, one test per criterion.

The first seven are exact behavioral properties on small fixed-seed
configurations. Criteria 8-12 are 20-run campaign reproductions over the
four built-in scenario families and assert ordering and magnitude bands
rather than point values.
"""
from __future__ import annotations

import filecmp
import time
from collections import deque

import numpy as np
import pytest

import oracles
from helpers import flat_scenario, mh_records, sh_records, transitions

from ewansim.campaign import run_campaign
from ewansim.cli import main
from ewansim.energy import (
    EnergyParams,
    EnergyStorage,
    HarvestTrace,
    NodeAccount,
)
from ewansim.engine import RandomStreams
from ewansim.flood import simulate_flood
from ewansim.links import LinkMatrix
from ewansim.metrics import event_line
from ewansim.protocol.params import ProtocolParams, default_vsn_configs
from ewansim.protocol.run import RunHooks, simulate_run
from ewansim.protocol.state import NodeState, TransitionEvent, Vsn, node_transition
from ewansim.radio import (
    ConcurrentAttempt,
    RadioConfig,
    resolve_concurrent,
    time_on_air,
)
from ewansim.scenario import (
    Scenario,
    build_scenario,
    case_study_scenario,
    generate_topology,
    save_scenario,
)

pytestmark = pytest.mark.acceptance

PERIOD = 300.0
RUNS = 20
CAMPAIGN_SEED = 7
KINDS = ("mh", "ob", "bn", "fh")
_SCENARIO_SEED = {"mh": 11, "ob": 12, "bn": 13, "fh": 14}


def _week_scenario(kind: str, rho: float, special_deep: bool = False) -> Scenario:
    stream = np.random.default_rng(_SCENARIO_SEED[kind])
    return build_scenario(kind, rho, stream, days=7, special_deep=special_deep)


@pytest.fixture(scope="module")
def drb_vs_mhb():
    """rho=0 campaigns of drb against the multi-hop baseline, all kinds."""
    out = {}
    for kind in KINDS:
        sc = _week_scenario(kind, 0.0)
        t0 = time.perf_counter()
        camp = run_campaign(sc, ("drb", "multi_hop"), RUNS, CAMPAIGN_SEED)
        out[kind] = (sc, camp, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def ewan_vs_shb():
    """ewan against the single-hop baseline, all kinds x both rho."""
    out = {}
    for kind in KINDS:
        for rho in (0.0, 0.95):
            sc = _week_scenario(kind, rho)
            out[(kind, rho)] = run_campaign(
                sc, ("ewan", "single_hop"), RUNS, CAMPAIGN_SEED)
    return out


@pytest.fixture(scope="module")
def deep_trace_runs():
    """ewan against drb on the deep-node harvest variant of the mh family."""
    sc = _week_scenario("mh", 0.0, special_deep=True)
    return sc, run_campaign(sc, ("ewan", "drb"), RUNS, CAMPAIGN_SEED)


def test_criterion_01_severed_node_transmits_single_hop_605_s_later():
    """Cutting a node's relay path moves it to a single-hop round at
    exactly t + (p*T + delta) = t + 605 s after its last received round."""
    t0 = time.perf_counter()
    sc = flat_scenario(1)
    base = simulate_run(sc, "ewan", 42)
    first = next(r.round_index for r in mh_records(base)
                 if 1 in r.nodes and r.nodes[1].received_first_schedule)

    hooks = RunHooks(blocked_multi_hop={1: [(first + 1, 10 ** 6)]})
    res = simulate_run(sc, "ewan", 42, hooks=hooks)

    t_cut = first * PERIOD
    k_join = first + 2
    t_join = t_cut + 605.0
    line = f"{t_join:.6f} join node=1 vsn=sh via=mh_exit k={k_join}"
    assert line in [event_line(ev) for ev in res.events]

    assert (t_join, 1, "multi_hop", "single_hop",
            "received_sh_schedule") in transitions(res)
    rec = next(r for r in sh_records(res) if r.round_index == k_join)
    assert rec.round_start_s == t_join
    assert rec.nodes[1].energy_by_category["tx"] > 0.0
    # never on the single-hop channel before the fallback round
    assert all(1 not in r.nodes for r in sh_records(res)
               if r.round_index < k_join)
    # the slot requested while joining carries data one round later
    nxt = next(r for r in sh_records(res) if r.round_index == k_join + 1)
    assert nxt.nodes[1].packets_delivered == 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1: PASS join at {t_join:.0f} s = t+605 "
          f"({elapsed:.2f} s)")


def test_criterion_02_reconnectable_nodes_sampled_back_within_one_period():
    """Single-hop nodes whose relay path returns at round t are multi-hop
    members by t + 300 s, and every such node joins in the same round."""
    t0 = time.perf_counter()
    # path returns right after a sampling round: join happens at t itself
    sc = flat_scenario(3)
    hooks = RunHooks(blocked_multi_hop={1: [(0, 5)], 2: [(0, 5)]})
    res = simulate_run(sc, "ewan", 42, hooks=hooks)
    joins = {}
    for t, v, old, new, ev in transitions(res):
        if ev == "sampled_mh_success" and v not in joins:
            assert (old, new) == ("single_hop", "multi_hop")
            joins[v] = t
    t_conn = 5 * PERIOD
    assert joins == {1: t_conn, 2: t_conn}

    # path returns right after a non-sampling round: worst case t + 300
    sc = flat_scenario(3, horizon_s=3000.0)
    hooks = RunHooks(blocked_multi_hop={1: [(0, 6)], 2: [(0, 6)]})
    res = simulate_run(sc, "ewan", 42, hooks=hooks)
    joins = {}
    for t, v, old, new, ev in transitions(res):
        if ev == "sampled_mh_success" and v not in joins:
            joins[v] = t
    t_conn = 6 * PERIOD
    assert joins == {1: t_conn + PERIOD, 2: t_conn + PERIOD}
    assert all(t <= t_conn + PERIOD for t in joins.values())

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 2: PASS rejoin at t and t+300 ({elapsed:.2f} s)")


def test_criterion_03_full_membership_within_bootstrap_plus_two_rounds():
    """With unlimited energy on a static connected topology all 15 nodes
    reach the multi-hop VSN two rounds after bootstrap ends, for good."""
    t0 = time.perf_counter()
    topo = generate_topology("mh", np.random.default_rng(11))
    n = topo.links_multi_hop.n - 1
    assert n == 15
    horizon = 102 * PERIOD
    n_samples = int(horizon // 60) + 10
    traces = {v: HarvestTrace(np.full(n_samples, 5e-3), 60.0)
              for v in range(1, n + 1)}
    sc = Scenario(
        kind="mh", n_nodes=n,
        links_multi_hop=topo.links_multi_hop,
        links_single_hop=topo.links_single_hop,
        params=ProtocolParams(), vsn_configs=default_vsn_configs(),
        energy_params=EnergyParams(), horizon_s=horizon,
        storage_capacity_j=50.0, initial_charge_j=50.0, traces=traces)
    res = simulate_run(sc, "ewan", 42)

    sync_t = {}
    for ev in res.events:
        if ev.kind == "sync_ok":
            sync_t.setdefault(ev.node, ev.t)
    join_t = {}
    for t, v, old, new, ev in transitions(res):
        if new == "multi_hop" and v not in join_t:
            join_t[v] = t

    assert set(sync_t) == set(range(1, n + 1))
    assert set(join_t) == set(range(1, n + 1))
    t_boot = max(sync_t.values())
    late = {v: t for v, t in join_t.items() if t > t_boot + 2 * PERIOD}
    assert not late, late

    assert not any(old == "multi_hop" for _, _, old, _, _ in transitions(res))
    rounds = mh_records(res)
    assert len(rounds) >= 100
    assert all(rounds[-1].nodes[v].received_first_schedule
               for v in range(1, n + 1))

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 3: PASS bootstrap by {t_boot:.0f} s, all joined by "
          f"{max(join_t.values()):.0f} s, {len(rounds)} stable rounds "
          f"({elapsed:.2f} s)")


def _connected_graph(rng) -> tuple[int, dict[int, list[int]]]:
    # random recursive tree rooted at the host keeps every node attached
    n = int(rng.integers(4, 10))
    adj: dict[int, list[int]] = {v: [] for v in range(n + 1)}
    for v in range(1, n + 1):
        u = int(rng.integers(0, v))
        adj[v].append(u)
        adj[u].append(v)
    for _ in range(int(rng.integers(0, n))):
        a, b = (int(x) for x in rng.integers(0, n + 1, size=2))
        if a != b and b not in adj[a]:
            adj[a].append(b)
            adj[b].append(a)
    return n, adj


def _reachable_core(adj, listening):
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w in listening and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _membership_trial(rng, p: int, m: int, cycles: int = 40) -> tuple[int, int]:
    """Drive every node's membership machine over one random on/off
    schedule; returns (fallback exits, sampled rejoins) for that trial."""
    n, adj = _connected_graph(rng)
    state = {v: NodeState(vsn=Vsn.BOOTSTRAPPING) for v in range(1, n + 1)}
    on = {v: True for v in range(1, n + 1)}
    registered: set[int] = set()
    streak = dict.fromkeys(state, 0)
    exits = joins = 0

    for k in range(cycles):
        for v in state:
            if on[v] and rng.random() < 0.12:
                on[v] = False
                state[v] = node_transition(
                    state[v], TransitionEvent.ENERGY_DEPLETED, p)
                registered.discard(v)
            elif not on[v] and rng.random() < 0.5:
                on[v] = True
                state[v] = node_transition(
                    state[v], TransitionEvent.ENERGY_START, p)

        # a flood round reaches whoever has a powered listening chain
        listening = {v for v in state if on[v] and (
            state[v].vsn in (Vsn.MULTI_HOP, Vsn.BOOTSTRAPPING)
            or (state[v].vsn is Vsn.SINGLE_HOP and v in registered))}
        core = _reachable_core(adj, listening)
        up = {v: on[v] and any(u in core for u in adj[v]) for v in state}

        for v in state:
            if not on[v]:
                continue
            st = state[v]
            if st.vsn is Vsn.MULTI_HOP:
                if up[v]:
                    st = node_transition(
                        st, TransitionEvent.RECEIVED_MH_SCHEDULE, p)
                    # a received schedule never costs membership
                    assert st.vsn is Vsn.MULTI_HOP
                    assert st.missed_schedules == 0
                else:
                    st = node_transition(
                        st, TransitionEvent.MISSED_SCHEDULE, p)
                    if (st.vsn is Vsn.MULTI_HOP
                            and st.missed_schedules >= p):
                        st = node_transition(
                            st, TransitionEvent.RECEIVED_SH_SCHEDULE, p)
                        assert st.vsn is Vsn.SINGLE_HOP
                        exits += 1
            elif st.vsn is Vsn.SINGLE_HOP and v in registered:
                if up[v]:
                    st = node_transition(
                        st, TransitionEvent.SAMPLED_MH_SUCCESS, p)
                    joins += 1
                else:
                    st = node_transition(
                        st, TransitionEvent.SAMPLED_MH_FAILURE, p)
            elif st.vsn is Vsn.BOOTSTRAPPING:
                if up[v]:
                    st = node_transition(
                        st, TransitionEvent.RECEIVED_MH_SCHEDULE, p)
                else:
                    st = node_transition(
                        st, TransitionEvent.RECEIVED_SH_SCHEDULE, p)
            state[v] = st

        registered = set()
        for v in state:
            if on[v] and state[v].vsn is Vsn.SINGLE_HOP:
                state[v] = node_transition(
                    state[v], TransitionEvent.RECEIVED_SH_SCHEDULE, p)
                if k % m == 0:
                    registered.add(v)

        for v in state:
            if on[v] and state[v].vsn is Vsn.SINGLE_HOP and up[v]:
                streak[v] += 1
                assert streak[v] <= m, (
                    f"node {v} spent {streak[v]} rounds in single-hop "
                    f"with its relay path up (cycle {k})")
            else:
                streak[v] = 0
    return exits, joins


def test_criterion_04_no_node_lingers_in_single_hop_while_path_exists():
    """Over 1000 random topologies and on/off schedules a node never sits
    more than m consecutive rounds in single-hop with its path up, and a
    received schedule never makes it leave multi-hop."""
    t0 = time.perf_counter()
    params = ProtocolParams()
    rng = np.random.default_rng(816)
    exits = joins = 0
    for _ in range(1000):
        e, j = _membership_trial(rng, params.p, params.m)
        exits += e
        joins += j
    # the property must have been exercised, not vacuously true
    assert exits > 200 and joins > 200
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 4: PASS {exits} fallbacks, {joins} rejoins "
          f"({elapsed:.1f} s)")


def test_criterion_05_energy_arithmetic_and_week_long_conservation():
    """Spot joule arithmetic is exact and a 7-day run conserves energy to
    within 1 nJ per node with storage inside [0, capacity]."""
    params = EnergyParams()
    acct = NodeAccount(1, EnergyStorage(e_cap=0.5), params,
                       HarvestTrace([0.0], 1000.0))
    assert acct.advance(1000.0, (params.p_sleep, "sleep")) is None
    assert acct.ledger.drawn("sleep") == pytest.approx(0.02981, abs=5e-6)
    assert acct.storage.e_cap == pytest.approx(0.47019, abs=5e-6)
    # a node powered on at t=0 pays each fixed cost once, through the
    # buck converter
    led = simulate_run(flat_scenario(1, horizon_s=60.0), "ewan", 1).ledgers[1]
    assert led["boot"] == 13.655e-6 / 0.9
    assert led["com_init"] == 17.25e-3 / 0.9

    sc = build_scenario("fh", 0.0, np.random.default_rng(5), days=7)
    res = simulate_run(sc, "ewan", 42)
    worst = max(abs(res.conservation_j[v]) for v in res.conservation_j)
    assert worst <= 1e-9, f"conservation error {worst:.3e} J"
    for v, e in res.final_storage_j.items():
        assert 0.0 <= e <= sc.storage_capacity_j + 1e-12, (v, e)
    print(f"criterion 5: PASS worst conservation error {worst:.2e} J")


def test_criterion_06_radio_and_flood_against_independent_oracles():
    """Time on air, flood reception depth, and capture frequencies agree
    with independently implemented references."""
    for sf in range(5, 13):
        cfg = RadioConfig(
            modulation="lora", spreading_factor=sf, bandwidth_hz=125e3,
            center_frequency_hz=866.3125e6, tx_power_dbm=14.0,
            sensitivity_dbm=-124.0)
        for payload in range(0, 256):
            got = time_on_air(cfg, payload)
            want = oracles.lora_toa_datasheet(sf, 125e3, payload)
            assert abs(got - want) < 1e-6, (sf, payload)

    fsk = RadioConfig(
        modulation="fsk", datarate_bps=250e3, bandwidth_hz=312e3,
        center_frequency_hz=864.6875e6, tx_power_dbm=14.0,
        sensitivity_dbm=-104.0)
    rng = np.random.default_rng(60)
    for trial in range(100):
        n = int(rng.integers(4, 13))
        p_edge = float(rng.uniform(0.25, 0.7))
        edges = {frozenset((i, j))
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p_edge}
        initiator = int(rng.integers(0, n))
        retx = int(rng.integers(0, 3))
        loss = np.full((n, n), 200.0)
        np.fill_diagonal(loss, 0.0)
        for e in edges:
            i, j = tuple(e)
            loss[i, j] = loss[j, i] = 40.0
        res = simulate_flood(
            initiator, 20, set(range(n)), LinkMatrix(n=n, loss=loss),
            fsk, n, retx, RandomStreams(trial).stream("reception"))
        depths = oracles.bfs_depths(n, edges, initiator)
        for v in range(n):
            if v in depths:
                assert res.nodes[v].received, (trial, v)
                assert res.nodes[v].first_slot == depths[v], (trial, v)
            else:
                assert not res.nodes[v].received, (trial, v)

    sens, ramp, sigma = -124.0, 2.0, 3.0
    pa_dbm, pb_dbm = -122.8, -124.9
    atts = [ConcurrentAttempt(1, 1, pa_dbm), ConcurrentAttempt(2, 2, pb_dbm)]
    want = oracles.capture_probabilities_two(pa_dbm, pb_dbm, sigma, sens, ramp)
    g = RandomStreams(123).stream("capture")
    n = 100_000
    counts = {1: 0, 2: 0, None: 0}
    for _ in range(n):
        counts[resolve_concurrent(atts, sens, ramp, sigma, g)] += 1
    assert abs(counts[1] / n - want[0]) < 0.01
    assert abs(counts[2] / n - want[1]) < 0.01
    assert abs(counts[None] / n - want[2]) < 0.01
    print("criterion 6: PASS time on air, flood depth, capture frequencies")


def test_criterion_07_equal_seed_campaigns_are_byte_identical(tmp_path):
    """The campaign command is reproducible down to the output bytes."""
    save_scenario(flat_scenario(2), str(tmp_path / "sc"))
    argv = ["campaign", "--scenario-template", str(tmp_path / "sc"),
            "--protocols", "ewan,single_hop,multi_hop,drb",
            "--runs", "2", "--seed", "11", "--out"]
    assert main(argv + [str(tmp_path / "a")]) == 0
    assert main(argv + [str(tmp_path / "b")]) == 0
    for name in ("aggregate.csv", "pernode.csv"):
        fa, fb = tmp_path / "a" / name, tmp_path / "b" / name
        assert fa.stat().st_size > 100
        assert filecmp.cmp(fa, fb, shallow=False), name
    print("criterion 7: PASS byte-identical campaign outputs")


def test_criterion_08_drb_beats_multi_hop_baseline(drb_vs_mhb):
    """The big-storage drb variant is 1.5-4x more efficient than the
    multi-hop baseline on the deep topology and keeps nodes reachable
    more of the time everywhere, at the price of more downtime."""
    _, camp, _ = drb_vs_mhb["mh"]
    ratio = (camp.mean("drb", "efficiency")
             / camp.mean("multi_hop", "efficiency"))
    assert 1.5 <= ratio <= 4.0, f"mh efficiency ratio {ratio:.2f}"
    for kind in KINDS:
        _, c, _ = drb_vs_mhb[kind]
        assert c.mean("drb", "liveness") > c.mean("multi_hop", "liveness"), kind
    assert camp.mean("drb", "downtime") > camp.mean("multi_hop", "downtime")
    wall = sum(w for _, _, w in drb_vs_mhb.values())
    assert wall < 600.0, f"campaign took {wall:.0f} s"
    print(f"criterion 8: PASS mh efficiency ratio {ratio:.2f}, "
          f"campaign wall time {wall:.0f} s")


def test_criterion_09_ewan_vs_single_hop_baseline_table(ewan_vs_shb):
    """ewan must deliver at least 1.5x the packets per joule of the
    single-hop baseline in every scenario cell and spend less time dark
    in at least six of the eight."""
    rows = []
    bad_ratio = []
    dt_ok = 0
    for kind in KINDS:
        for rho in (0.0, 0.95):
            c = ewan_vs_shb[(kind, rho)]
            eff_e = c.mean("ewan", "efficiency")
            eff_s = c.mean("single_hop", "efficiency")
            ratio = eff_e / eff_s
            dt_e = c.mean("ewan", "downtime")
            dt_s = c.mean("single_hop", "downtime")
            if dt_e < dt_s:
                dt_ok += 1
            rows.append(
                f"{kind:>3} rho={rho:.2f}  efficiency {eff_e:8.2f} vs "
                f"{eff_s:8.2f}  ratio {ratio:5.2f}  downtime {dt_e:.4f} vs "
                f"{dt_s:.4f}")
            if ratio < 1.5:
                bad_ratio.append(f"{kind} rho={rho:g} ratio={ratio:.2f}")
    print("criterion 9 cells:")
    for r in rows:
        print(" ", r)
    assert dt_ok >= 6, f"downtime advantage in only {dt_ok}/8 cells"
    assert not bad_ratio, ("efficiency ratio below 1.5 in: "
                           + "; ".join(bad_ratio))
    print(f"criterion 9: PASS all ratios >= 1.5, downtime better in "
          f"{dt_ok}/8 cells")


def test_criterion_10_baseline_liveness_decays_with_hop_depth(drb_vs_mhb):
    """Without a fallback VSN, mean liveness under the multi-hop baseline
    falls monotonically with hop depth, and in at least half the runs some
    depth >= 4 node never communicates at all."""
    sc, camp, _ = drb_vs_mhb["mh"]
    depth = sc.hop_depths()
    levels = sorted(set(depth.values()))
    means = []
    for d in levels:
        nodes = [v for v, dv in depth.items() if dv == d]
        vals = [camp.runs[("multi_hop", i)][v].liveness
                for i in range(RUNS) for v in nodes]
        means.append(float(np.mean(vals)))
    for a, b in zip(means, means[1:]):
        assert b <= a + 1e-9, f"liveness rose with depth: {means}"

    deep = [v for v, dv in depth.items() if dv >= 4]
    assert deep
    zero_runs = sum(
        1 for i in range(RUNS)
        if any(camp.runs[("multi_hop", i)][v].liveness == 0.0 for v in deep))
    assert zero_runs >= RUNS // 2, f"only {zero_runs}/{RUNS} runs"
    shown = ", ".join(f"{d}:{m:.2f}" for d, m in zip(levels, means))
    print(f"criterion 10: PASS liveness by depth {{{shown}}}, "
          f"{zero_runs}/{RUNS} runs with a silent deep node")


def test_criterion_11_deep_nodes_gain_most_from_the_single_hop_vsn(
        deep_trace_runs):
    """With harvest conditions that starve the relay chain, ewan keeps
    depth >= 2 nodes at least 1.5x as efficient as drb and far less dark."""
    sc, camp = deep_trace_runs
    deep = sorted(v for v, d in sc.hop_depths().items() if d >= 2)
    assert deep

    def agg(proto: str, metric: str) -> float:
        return float(np.mean([camp.runs[(proto, i)][v].value(metric)
                              for i in range(RUNS) for v in deep]))

    ratio = agg("ewan", "efficiency") / agg("drb", "efficiency")
    dt_e, dt_d = agg("ewan", "downtime"), agg("drb", "downtime")
    assert ratio >= 1.5, f"deep-node efficiency ratio {ratio:.2f}"
    assert dt_e < dt_d, f"downtime {dt_e:.4f} vs {dt_d:.4f}"
    print(f"criterion 11: PASS deep-node efficiency ratio {ratio:.2f}, "
          f"downtime {dt_e:.4f} vs {dt_d:.4f}")


def test_criterion_12_case_study_delivery_counts():
    """The two-node case-study replay lands within 15% of the reference
    per-node delivered counts over its 12 hour horizon."""
    sc = case_study_scenario()
    res = simulate_run(sc, "ewan", 7)
    got = res.delivered_by_node()
    targets = {1: 134, 2: 128}
    for v, want in targets.items():
        assert 0.85 * want <= got.get(v, 0) <= 1.15 * want, (v, got)
    print(f"criterion 12: PASS delivered {got} against {targets} +/-15%")
