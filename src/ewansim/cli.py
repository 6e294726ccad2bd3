"""Command line surface: scenario generation, runs, campaigns, checks."""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from .engine import RandomStreams
from .campaign import run_campaign, write_campaign_csvs
from .metrics import (compute_all_metrics, write_events_log, write_metrics_csv,
                      write_rounds_csv)
from .protocol.run import PROTOCOLS, simulate_run
from .scenario import (ScenarioError, TOPOLOGY_KINDS, build_scenario,
                       case_study_scenario, load_scenario, save_scenario)

OUT_ENV = "EWANSIM_OUT"


def _out_dir(arg: Optional[str]) -> str:
    return arg or os.environ.get(OUT_ENV) or os.getcwd()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewansim",
        description="Deterministic simulator and evaluation harness for "
                    "energy-harvesting low-power wide-area networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    scen = sub.add_parser("scenario", help="scenario utilities")
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)
    gen = scen_sub.add_parser(
        "gen", help="generate an evaluation scenario from a seed")
    gen.add_argument("--kind", required=True,
                     choices=list(TOPOLOGY_KINDS) + ["case-study"])
    gen.add_argument("--rho", type=float, default=0.0,
                     help="cross-node correlation of the trace recipe")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--days", type=int, default=7)
    gen.add_argument("--special-deep", action="store_true",
                     help="starve host-adjacent relays (mh only)")
    gen.add_argument("--fixed-traces", action="store_true",
                     help="materialize traces now instead of per run")
    gen.add_argument("--out", default=None,
                     help=f"output directory (default ${OUT_ENV} or cwd)")

    run_p = sub.add_parser("run", help="simulate one protocol once")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--protocol", required=True, choices=list(PROTOCOLS))
    run_p.add_argument("--seed", type=int, required=True)
    run_p.add_argument("--run-index", type=int, default=0)
    run_p.add_argument("--out", default=None)

    camp = sub.add_parser("campaign", help="repeated runs with aggregation")
    camp.add_argument("--scenario-template", required=True)
    camp.add_argument("--protocols", required=True,
                      help="comma-separated protocol names")
    camp.add_argument("--runs", type=int, required=True)
    camp.add_argument("--seed", type=int, required=True)
    camp.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="check a scenario's invariants")
    ver.add_argument("--scenario", required=True)
    return parser


def _cmd_scenario_gen(args) -> int:
    out = _out_dir(args.out)
    if args.kind == "case-study":
        scenario = case_study_scenario()
    else:
        stream = np.random.default_rng(args.seed)
        scenario = build_scenario(args.kind, rho=args.rho, stream=stream,
                                  days=args.days,
                                  special_deep=args.special_deep)
        if args.fixed_traces:
            traces = scenario.traces_for_run(
                RandomStreams(args.seed, 0).stream("traces"))
            scenario.traces = traces
            scenario.trace_gen = None
    path = save_scenario(scenario, out)
    print(path)
    return 0


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args.out)
    os.makedirs(out, exist_ok=True)
    result = simulate_run(scenario, args.protocol, args.seed,
                          run_index=args.run_index)
    metrics = compute_all_metrics(result)
    write_metrics_csv(os.path.join(out, "metrics.csv"), metrics)
    write_rounds_csv(os.path.join(out, "rounds.csv"), result)
    write_events_log(os.path.join(out, "events.log"), result)
    delivered = sum(m.packets for m in metrics.values())
    print(f"{args.protocol}: {delivered} packets delivered over "
          f"{result.horizon_s:.0f} s; outputs in {out}")
    return 0


def _cmd_campaign(args) -> int:
    scenario = load_scenario(args.scenario_template)
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    for p in protocols:
        if p not in PROTOCOLS:
            raise ScenarioError(
                f"unknown protocol {p!r}; choose from {', '.join(PROTOCOLS)}")
    if not protocols:
        raise ScenarioError("no protocols given")
    out = _out_dir(args.out)

    def progress(i: int, n_runs: int):
        print(f"run {i + 1}/{n_runs} done", file=sys.stderr)

    result = run_campaign(scenario, protocols, args.runs, args.seed,
                          on_run_done=progress)
    for path in write_campaign_csvs(result, out):
        print(path)
    return 0


def _cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    print(f"scenario ok: kind={scenario.kind} nodes={scenario.n_nodes} "
          f"horizon={scenario.horizon_s:.0f}s")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "scenario":
            return _cmd_scenario_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
