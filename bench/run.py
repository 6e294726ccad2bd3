"""ewansim benchmark: a week with and without the flood memo, and a campaign.

One run of one workload:

    python3 bench/run.py --workload campaign-mh --seed 1 --seconds 45 --trace 0

sets the workload up from the seed, times whole passes of it until
``--seconds`` have passed, checks every output outside the timed
section, and prints one JSON line last: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a further traced pass with
``--trace 1``.

Two sets of runs of the same code, judged against the bounds in
BENCHMARK.json (``--against DIR`` runs the first set on another
checkout's ``src/`` instead, to compare two commits):

    python3 bench/run.py --steady [--against DIR]

See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("week-mh-lossy", "campaign-mh")
SETUP_REPS = 5


def _import_ewansim(src_dir):
    """Import ewansim from src_dir and nowhere else."""
    if not os.path.isfile(os.path.join(src_dir, "ewansim", "__init__.py")):
        raise SystemExit(f"error: no ewansim package under {src_dir}")
    sys.path.insert(0, src_dir)
    names = ("ewansim.cli", "ewansim.campaign", "ewansim.engine",
             "ewansim.scenario")
    mods = [importlib.import_module(n) for n in names]
    where = os.path.realpath(mods[0].__file__)
    if not where.startswith(os.path.realpath(src_dir) + os.sep):
        raise SystemExit(f"error: ewansim was imported from {where}, "
                         f"not from {src_dir}")
    return mods


def run_once(args):
    """One run of one workload; returns the result object printed last."""
    from workloads import Workload
    import tracing

    cli, campaign, engine, scenario_mod = _import_ewansim(args.src)
    work_dir = os.path.join(RESULTS, args.workload, f"seed-{args.seed}")
    wl = Workload(args.workload, args.seed, work_dir, args.src)
    wl.clean()

    setup = []

    def set_up():
        setup.append(wl.import_seconds() + wl.generate(cli))

    set_up()
    horizon = scenario_mod.load_scenario(wl.scen_dir).horizon_s
    weeks = wl.weeks_per_pass(horizon)

    remove_tap = wl.install_tap((cli, campaign))
    attempted = failed = 0
    digests = set()

    def passes(budget_s, between=None):
        nonlocal attempted, failed
        times = []
        t_end = time.perf_counter() + budget_s
        while not times or time.perf_counter() < t_end:
            gc.collect()
            seconds, n_ops, n_failed = wl.run_pass(cli)
            times.append(seconds)
            attempted += n_ops
            failed += n_failed
            digests.add(wl.digest())
            if between:
                between()
        return times

    try:
        # set-up is repeated between the timed passes, so that its median,
        # like theirs, samples the host over the whole run
        walls = passes(args.seconds, between=set_up)
        while len(setup) < SETUP_REPS:
            set_up()
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        traced_walls = []
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_walls = passes(0)
            finally:
                tracer.uninstall()
            tracer.write_spans(os.path.join(work_dir, "spans.jsonl"))
            for layer in sorted(tracer.absent):
                print(f"layer {layer}: absent, its boundaries are gone",
                      file=sys.stderr)
    finally:
        remove_tap()

    problems = wl.check(scenario_mod.load_scenario, engine.RandomStreams)
    if len(digests) != 1:
        problems.append(f"outputs differ between passes: {sorted(digests)}")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"digest {args.workload} {' '.join(sorted(digests))}")

    if args.trace:
        layers = tracer.layer_metrics(wl.round_counts())
        layers["trace.overhead_s"] = traced_walls[0] - statistics.median(walls)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in _per_layer_units().items()
                   if name in layers}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "sim_weeks_per_s": {
                "value": statistics.median([weeks / w for w in walls]),
                "unit": "1/s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(work_dir, f"result-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "passes_s": walls, "traced_passes_s": traced_walls,
                   "setup_s": setup, "digests": sorted(digests),
                   "problems": problems, "result": result}, fh, indent=1)
    return result


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _per_layer_units():
    return {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=_benchmark_json()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the ewansim package")
    parser.add_argument("--steady", action="store_true",
                        help="run two sets of repetitions and judge them "
                             "against the bounds in BENCHMARK.json")
    parser.add_argument("--against", default=None,
                        help="checkout whose src/ the first set runs")
    args = parser.parse_args(argv)
    if args.steady:
        import steady
        return steady.main(args, __file__, WORKLOADS, _benchmark_json())
    if args.workload is None:
        parser.error("--workload is required")
    result = run_once(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
