"""Check that two checkouts of ewansim produce byte-identical outputs.

    python tools/equivalence.py --against DIR

DIR is another checkout of this repository, for example the parent
commit made with `git clone` or `git archive`. The tool runs one fixed
matrix in this checkout and in DIR, each in its own subprocess whose
PYTHONPATH is that checkout's src/, so neither side imports the other's
code. The matrix (MATRIX below) is:

- the four protocols, run seeds 1 and 2;
- mh/ob/bn/fh at rho 0 and 0.95 (scenario seeds 11-14, as in the
  acceptance tests), two days each;
- special-deep mh;
- the case study;
- the seed-7 lossy mh: every decodable multi-hop link 1 dB above
  sensitivity, so every flood draws;
- fh with severed links (RunHooks).

It compares the pickled RunResult fields of every run, the three files
of `ewansim run`, the CSVs of a two-run campaign and the outputs of
`ewansim scenario gen`. On a mismatch it names the first differing case
and, per differing field, the first differing item: for the events, the
RunEvent index rendered by metrics.event_line on both sides. Exit status
is 0 when every output is equal and 1 otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROTOCOLS = ("ewan", "single_hop", "multi_hop", "drb")
RUN_SEEDS = (1, 2)
DAYS = 2
SCENARIO_SEEDS = {"mh": 11, "ob": 12, "bn": 13, "fh": 14}
CAMPAIGN_SEED = 7
# case name -> (kind, rho, variant)
MATRIX = {
    **{f"{kind}-rho{rho}": (kind, rho, None)
       for kind in ("mh", "ob", "bn", "fh") for rho in (0.0, 0.95)},
    "mh-special-deep": ("mh", 0.0, "special_deep"),
    "case-study": ("case_study", 0.0, None),
    "mh-lossy": ("mh", 0.0, "lossy"),
    "fh-hooked": ("fh", 0.0, "hooked"),
}
# severed-link ranges [a, b) of round indices for the hooked case
HOOKS = {"blocked_multi_hop": {3: [(10, 40)], 7: [(100, 130)]},
         "blocked_single_hop": {3: [(20, 30)], 9: [(150, 170)]}}


# ---------------------------------------------------------------------------
# one side: runs inside the checkout's subprocess


def _scenario(kind: str, rho: float, variant, days: int):
    import numpy as np

    from ewansim import build_scenario, case_study_scenario
    from ewansim.links import LinkMatrix

    if kind == "case_study":
        return case_study_scenario()
    seed = 7 if variant == "lossy" else SCENARIO_SEEDS[kind]
    sc = build_scenario(kind, rho, np.random.default_rng(seed), days=days,
                        special_deep=variant == "special_deep")
    if variant == "lossy":
        cfg = sc.vsn_configs.multi_hop
        budget = cfg.tx_power_dbm - cfg.sensitivity_dbm
        loss = sc.links_multi_hop.loss.copy()
        loss[(loss <= budget) & ~np.eye(len(loss), dtype=bool)] = budget - 1.0
        sc = dataclasses.replace(
            sc, links_multi_hop=LinkMatrix(n=len(loss), loss=loss))
    return sc


def _digest(obj) -> bytes:
    return hashlib.blake2b(pickle.dumps(obj), digest_size=16).digest()


def _itemize(name: str, value):
    """A field as (label, digest, text) items, for naming the first one
    that differs."""
    from ewansim.metrics import event_line

    if name == "events":
        return [(str(i), _digest(ev), event_line(ev))
                for i, ev in enumerate(value)]
    if isinstance(value, dict):
        return [(repr(k), _digest(v), repr(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [(str(i), _digest(v), repr(v)) for i, v in enumerate(value)]
    return [("value", _digest(value), repr(value))]


def _cli(*argv: str):
    from ewansim.cli import main

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        if main(list(argv)) != 0:
            raise RuntimeError(f"ewansim {' '.join(argv)} failed")


def emit(out: Path, cases, protocols, seeds, days: int):
    """Write this checkout's outputs of the given matrix under out."""
    import ewansim
    from ewansim import RunHooks, simulate_run

    runs = out / "runs"
    runs.mkdir(parents=True)
    (out / "source").write_text(os.path.dirname(ewansim.__file__))
    hooks = RunHooks(**{vsn: {node: tuple(r) for node, r in ranges.items()}
                        for vsn, ranges in HOOKS.items()})
    for case in cases:
        kind, rho, variant = MATRIX[case]
        sc = _scenario(kind, rho, variant, days)
        for protocol in protocols:
            for seed in seeds:
                res = simulate_run(sc, protocol, seed, hooks=(
                    hooks if variant == "hooked" else None))
                fields = {f.name: getattr(res, f.name)
                          for f in dataclasses.fields(res)}
                doc = {name: (pickle.dumps(v), _itemize(name, v))
                       for name, v in fields.items()}
                with open(runs / f"{case}.{protocol}.{seed}.pkl", "wb") as fh:
                    pickle.dump(doc, fh)

    files = out / "files"
    gen = files / "gen"
    for kind in SCENARIO_SEEDS:
        _cli("scenario", "gen", "--kind", kind, "--rho", "0.95", "--seed",
             str(SCENARIO_SEEDS[kind]), "--days", str(days),
             "--out", str(gen / kind))
    _cli("scenario", "gen", "--kind", "mh", "--seed", "11", "--days",
         str(days), "--special-deep", "--out", str(gen / "mh-special-deep"))
    _cli("scenario", "gen", "--kind", "fh", "--seed", "14", "--days", "1",
         "--fixed-traces", "--out", str(gen / "fh-fixed"))
    _cli("scenario", "gen", "--kind", "case-study", "--seed", "0",
         "--out", str(gen / "case-study"))
    for protocol in protocols:
        _cli("run", "--scenario", str(gen / "mh"), "--protocol", protocol,
             "--seed", str(seeds[0]), "--out", str(files / "run" / protocol))
    _cli("campaign", "--scenario-template", str(gen / "fh"), "--protocols",
         ",".join(protocols), "--runs", "2", "--seed", str(CAMPAIGN_SEED),
         "--out", str(files / "campaign"))


# ---------------------------------------------------------------------------
# the comparison


def _run_side(checkout: Path, out: Path, spec: dict) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--emit", str(out),
         "--spec", json.dumps(spec)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def _first_diff(a: list, b: list):
    """The first (label, text a, text b) whose digests differ, or a
    length difference."""
    for x, y in zip(a, b):
        if x[1] != y[1]:
            return x[0], x[2], y[2]
    if len(a) != len(b):
        return f"count {len(a)} vs {len(b)}", "", ""
    return None


def _compare_runs(a: Path, b: Path, names: list[str]) -> list[str]:
    for name in names:
        with open(a / "runs" / name, "rb") as fh:
            doc_a = pickle.load(fh)
        with open(b / "runs" / name, "rb") as fh:
            doc_b = pickle.load(fh)
        if doc_a.keys() != doc_b.keys():
            return [f"{name}: RunResult fields {sorted(doc_a)} vs "
                    f"{sorted(doc_b)}"]
        lines = []
        # the events first: they explain most other differences
        for field in sorted(doc_a, key=lambda f: f != "events"):
            if doc_a[field][0] == doc_b[field][0]:
                continue
            diff = _first_diff(doc_a[field][1], doc_b[field][1])
            label, text_a, text_b = diff or ("pickled bytes", "", "")
            what = "RunEvent" if field == "events" else "item"
            lines.append(f"{name}: field {field} differs, first at {what} "
                         f"{label}")
            if text_a or text_b:
                lines += [f"  this:    {text_a}", f"  against: {text_b}"]
        if lines:
            return lines
    return []


def _tree(root: Path) -> dict[str, Path]:
    return {str(p.relative_to(root)): p for p in sorted(root.rglob("*"))
            if p.is_file()}


def _compare_files(a: Path, b: Path) -> list[str]:
    tree_a, tree_b = _tree(a), _tree(b)
    if tree_a.keys() != tree_b.keys():
        return [f"files differ: {sorted(tree_a.keys() ^ tree_b.keys())}"]
    for rel, path in tree_a.items():
        bytes_a, bytes_b = path.read_bytes(), tree_b[rel].read_bytes()
        if bytes_a == bytes_b:
            continue
        lines_a, lines_b = bytes_a.splitlines(), bytes_b.splitlines()
        for i, (x, y) in enumerate(zip(lines_a, lines_b), 1):
            if x != y:
                return [f"{rel} differs, first at line {i}",
                        f"  this:    {x.decode(errors='replace')}",
                        f"  against: {y.decode(errors='replace')}"]
        return [f"{rel} differs: {len(lines_a)} vs {len(lines_b)} lines"]
    return []


def compare(this: Path, against: Path, cases=tuple(MATRIX),
            protocols=PROTOCOLS, seeds=RUN_SEEDS, days: int = DAYS) -> str:
    """Run the matrix in both checkouts; 'equal: ...' or the report of
    the first differing case."""
    spec = {"cases": list(cases), "protocols": list(protocols),
            "seeds": list(seeds), "days": days}
    with tempfile.TemporaryDirectory(prefix="equivalence-") as tmp:
        outs = (Path(tmp) / "this", Path(tmp) / "against")
        procs = [_run_side(Path(c), o, spec)
                 for c, o in zip((this, against), outs)]
        for proc, checkout in zip(procs, (this, against)):
            log, _ = proc.communicate()
            if proc.returncode != 0:
                return f"error: the matrix failed in {checkout}:\n{log}"
        names = [f"{case}.{protocol}.{seed}.pkl" for case in cases
                 for protocol in protocols for seed in seeds]
        report = (_compare_runs(*outs, names)
                  or _compare_files(outs[0] / "files", outs[1] / "files"))
        sources = [(o / "source").read_text() for o in outs]
    if report:
        return "\n".join(["differ"] + report)
    return (f"equal: {len(names)} runs and every run, campaign and "
            f"scenario file byte-identical ({sources[0]} against "
            f"{sources[1]})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path,
                        help="root of the checkout to compare with")
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--spec", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit is not None:
        spec = json.loads(args.spec)
        emit(args.emit, spec["cases"], spec["protocols"], spec["seeds"],
             spec["days"])
        return 0
    if args.against is None:
        parser.error("--against DIR is required")
    if not (args.against / "src" / "ewansim").is_dir():
        parser.error(f"{args.against} holds no src/ewansim")
    report = compare(ROOT, args.against)
    print(report)
    return 0 if report.startswith("equal") else 1


if __name__ == "__main__":
    sys.exit(main())
