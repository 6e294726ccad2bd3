#!/usr/bin/env python3
"""Watch one node lose its relay path and fall back to the single-hop VSN.

A single node is simulated twice from the same seed: once undisturbed and
once with its multi-hop link blocked from round 2 onward. The event log of
the second run shows the two missed schedules, the fallback join exactly
p*T + dT = 605 s after the last received round, and data flowing again on
the long-range channel.
"""
from __future__ import annotations

import numpy as np

from ewansim.energy import EnergyParams, HarvestTrace
from ewansim.links import LinkMatrix
from ewansim.metrics import event_line
from ewansim.protocol.params import ProtocolParams, default_vsn_configs
from ewansim.protocol.run import RunHooks, simulate_run
from ewansim.scenario import Scenario

HORIZON_S = 1800.0


def one_node_scenario() -> Scenario:
    loss = np.full((2, 2), 60.0)
    np.fill_diagonal(loss, 0.0)
    links = LinkMatrix(n=2, loss=loss)
    samples = np.full(int(HORIZON_S // 60) + 10, 2e-3)
    return Scenario(
        kind="fh", n_nodes=1,
        links_multi_hop=links, links_single_hop=links,
        params=ProtocolParams(), vsn_configs=default_vsn_configs(),
        energy_params=EnergyParams(), horizon_s=HORIZON_S,
        initial_charge_j=0.7,
        traces={1: HarvestTrace(samples, 60.0)})


def main() -> None:
    sc = one_node_scenario()

    base = simulate_run(sc, "ewan", 42)
    by_round = [(r.vsn, r.round_index, r.nodes.get(1)) for r in base.records]
    delivered = sum(s.packets_delivered for _, _, s in by_round if s)
    print(f"undisturbed run: {delivered} packets, all on the relay channel")

    hooks = RunHooks(blocked_multi_hop={1: [(2, 10 ** 6)]})
    res = simulate_run(sc, "ewan", 42, hooks=hooks)
    print("\nsame seed, relay path gone after round 1:")
    for ev in res.events:
        if ev.kind in ("join", "sched_miss", "sync_ok", "power_on"):
            print("  " + event_line(ev))

    print("\nround-by-round for the node:")
    for rec in res.records:
        stats = rec.nodes.get(1)
        if stats is None:
            continue
        print(f"  t={rec.round_start_s:7.1f}  {rec.vsn:<10}  k={rec.round_index}"
              f"  schedule={'yes' if stats.received_first_schedule else 'no '}"
              f"  delivered={stats.packets_delivered}")

    t_cut = 1 * sc.params.period_t
    print(f"\nlast relay round started at t={t_cut:.0f} s; the single-hop join"
          f" round started at t={t_cut + 605:.0f} s, 605 s later.")


if __name__ == "__main__":
    main()
