"""Small scenario builders shared across test modules."""
from __future__ import annotations

import numpy as np

from ewansim.energy import EnergyParams, HarvestTrace
from ewansim.links import LinkMatrix
from ewansim.protocol.params import ProtocolParams, default_vsn_configs
from ewansim.scenario import Scenario


def flat_scenario(n_nodes: int, loss_db: float = 60.0,
                  horizon_s: float = 1800.0,
                  harvest_w: float = 2e-3) -> Scenario:
    """All links equal and deterministic, constant harvest, full storage."""
    size = n_nodes + 1
    mat = np.full((size, size), loss_db)
    np.fill_diagonal(mat, 0.0)
    links = LinkMatrix(n=size, loss=mat)
    n_samples = int(horizon_s // 60) + 10
    traces = {
        v: HarvestTrace(np.full(n_samples, harvest_w), 60.0)
        for v in range(1, n_nodes + 1)
    }
    return Scenario(
        kind="fh",
        n_nodes=n_nodes,
        links_multi_hop=links,
        links_single_hop=links,
        params=ProtocolParams(),
        vsn_configs=default_vsn_configs(),
        energy_params=EnergyParams(),
        horizon_s=horizon_s,
        initial_charge_j=0.7,
        traces=traces,
    )


def mh_records(result):
    return [r for r in result.records if r.vsn == "multi_hop"]


def sh_records(result):
    return [r for r in result.records if r.vsn == "single_hop"]


def transitions(result):
    """The VSN transitions of a RunResult or a ProtocolRun as
    (t, node, old vsn, new vsn, cause) tuples, in the order emitted."""
    return [(ev.t, ev.node, *ev.data) for ev in result.events
            if ev.kind == "transition"]
