"""Traced pass: wraps the calls into each ewansim layer from outside.

The benchmark patches the layer boundaries in the already imported
``ewansim`` modules, runs one pass of the workload, and restores every
patched attribute afterwards. Nothing under ``src/`` knows about it.

Coarse boundaries (commands, runs, event loops, scenario loading, trace
generation, metrics, writers, aggregation) become spans with an id, a
parent id, start and end. Hot boundaries (energy integration, flood
requests, flood simulation, capture resolution) run up to a million
times per simulated week, so each is kept as a call count, an inclusive
time and a self time on its nearest enclosing span instead of as a span
of its own. Spans stay in memory and are written out once, at the end.

A boundary whose attribute no longer exists in the program is reported
as an absent layer; the pass still runs.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

# (layer, span name, module, attribute path, kind)
#   coarse      -> a span of its own
#   hot         -> counted on the enclosing span
#   transparent -> timed and counted, but its children's time is charged
#                  to the caller, so the caller's self time excludes them
BOUNDARIES = (
    ("scenario", "load_scenario", "ewansim.cli", "load_scenario", "coarse"),
    ("scenario", "traces_for_run", "ewansim.scenario",
     "Scenario.traces_for_run", "coarse"),
    ("protocol", "simulate_run", "ewansim.cli", "simulate_run", "coarse"),
    ("protocol", "simulate_run", "ewansim.campaign", "simulate_run", "coarse"),
    ("engine", "run_until", "ewansim.engine", "EventQueue.run_until",
     "transparent"),
    ("energy", "integrate", "ewansim.protocol.run", "NodeAccount.integrate",
     "hot"),
    ("flood", "flood_request", "ewansim.protocol.run", "ProtocolRun._flood",
     "hot"),
    ("flood", "simulate_flood", "ewansim.protocol.run", "simulate_flood",
     "transparent"),
    ("flood", "simulate_contention_flood", "ewansim.protocol.run",
     "simulate_contention_flood", "transparent"),
    ("radio", "resolve_concurrent", "ewansim.flood", "resolve_concurrent",
     "hot"),
    ("radio", "resolve_concurrent", "ewansim.protocol.run",
     "resolve_concurrent", "hot"),
    ("metrics", "compute_all_metrics", "ewansim.cli", "compute_all_metrics",
     "coarse"),
    ("metrics", "compute_all_metrics", "ewansim.campaign",
     "compute_all_metrics", "coarse"),
    ("metrics", "write_metrics_csv", "ewansim.cli", "write_metrics_csv",
     "coarse"),
    ("metrics", "write_rounds_csv", "ewansim.cli", "write_rounds_csv",
     "coarse"),
    ("metrics", "write_events_log", "ewansim.cli", "write_events_log",
     "coarse"),
    ("campaign", "write_campaign_csvs", "ewansim.cli", "write_campaign_csvs",
     "coarse"),
)

WRITERS = ("write_metrics_csv", "write_rounds_csv", "write_events_log")


class _Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_s", "hot",
                 "attrs")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.child_s = 0.0
        # hot boundary name -> [calls, inclusive s, self s]
        self.hot = {}
        self.attrs = {}

    def as_dict(self):
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end,
                "self_s": self.end - self.start - self.child_s,
                "hot": self.hot, "attrs": self.attrs}


class Tracer:
    """Installs wrappers at the layer boundaries and keeps their records."""

    def __init__(self):
        self.spans = []
        self.absent = set()
        self.present = set()
        self.counts = Counter()
        self.transparent_s = Counter()
        self._patched = []
        self._next_id = 0
        # the root span collects hot calls made outside every coarse span
        self._root = _Span(self._new_id(), None, "pass", time.perf_counter())
        self.spans.append(self._root)
        # open calls, innermost last; each frame accumulates its children's
        # time in child_s, and the coarse ones are spans
        self._frames = [self._root]
        self._coarse = [self._root]

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    # -- installation -----------------------------------------------------

    def install(self):
        for layer, name, module, attr, kind in BOUNDARIES:
            owner, leaf = self._resolve(module, attr)
            if owner is None:
                self.absent.add(layer)
                continue
            original = getattr(owner, leaf)
            wrapper = {"coarse": self._coarse_wrapper,
                       "hot": self._hot_wrapper,
                       "transparent": self._transparent_wrapper}[kind](
                           name, original)
            setattr(owner, leaf, wrapper)
            self._patched.append((owner, leaf, original))
            self.present.add(layer)
        self.absent -= self.present

    def uninstall(self):
        self._root.end = time.perf_counter()
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    @staticmethod
    def _resolve(module, attr):
        mod = sys.modules.get(module)
        if mod is None:
            return None, None
        owner = mod
        parts = attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if not callable(getattr(owner, parts[-1], None)):
            return None, None
        return owner, parts[-1]

    # -- wrappers -----------------------------------------------------------

    def _coarse_wrapper(self, name, fn):
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            frames = tracer._frames
            span = _Span(tracer._new_id(), tracer._coarse[-1].id, name, perf())
            tracer.spans.append(span)
            frames.append(span)
            tracer._coarse.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf()
                frames.pop()
                tracer._coarse.pop()
                frames[-1].child_s += span.end - span.start
            tracer._observe(name, span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hot_wrapper(self, name, fn):
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            frames = tracer._frames
            frame = _HotFrame()
            frames.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                frames.pop()
                frames[-1].child_s += dt
                rec = tracer._coarse[-1].hot.get(name)
                if rec is None:
                    rec = tracer._coarse[-1].hot[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame.child_s
            if name == "resolve_concurrent" and result is not None:
                tracer.counts["capture_useful"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _transparent_wrapper(self, name, fn):
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            tracer.transparent_s[name] += perf() - t0
            tracer.counts[name] += 1
            if name == "run_until":
                tracer.counts["events"] += result
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name, span, args, result):
        if name in WRITERS:
            span.attrs["bytes"] = os.path.getsize(args[0])

    # -- results ------------------------------------------------------------

    def _by_name(self):
        """span name -> [count, inclusive s, self s], hot ones included."""
        out = {}
        for span in self.spans:
            if span is not self._root:
                rec = out.setdefault(span.name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += span.end - span.start
                rec[2] += span.end - span.start - span.child_s
            for hot, (calls, incl, self_s) in span.hot.items():
                rec = out.setdefault(hot, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += incl
                rec[2] += self_s
        return out

    def layer_metrics(self, rounds):
        """Per-layer metrics of the pass, named as in BENCHMARK.json.

        ``rounds`` is the pass's rounds per VSN, as the workload's tap
        counted them.
        """
        by = self._by_name()

        def count(name):
            return by.get(name, (0, 0.0, 0.0))[0]

        def incl(name):
            return by.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return by.get(name, (0, 0.0, 0.0))[2]

        def attr_sum(name, key):
            return sum(s.attrs.get(key, 0) for s in self.spans
                       if s.name == name)

        m = {}
        if "engine" not in self.absent:
            m["engine.events"] = self.counts["events"]
            m["engine.loop_s"] = self.transparent_s["run_until"]
        if "protocol" not in self.absent:
            m["protocol.runs"] = count("simulate_run")
            m["protocol.run_s"] = incl("simulate_run")
            m["protocol.self_s"] = self_s("simulate_run")
            m["protocol.mh_rounds"] = rounds["multi_hop"]
            m["protocol.sh_rounds"] = rounds["single_hop"]
        if "energy" not in self.absent:
            calls = count("integrate")
            m["energy.integrate_calls"] = calls
            m["energy.integrate_s"] = incl("integrate")
            m["energy.ns_per_integrate"] = (
                1e9 * incl("integrate") / calls if calls else 0.0)
        if "flood" not in self.absent:
            requests = count("flood_request")
            simulated = (self.counts["simulate_flood"]
                         + self.counts["simulate_contention_flood"])
            sim_s = (self.transparent_s["simulate_flood"]
                     + self.transparent_s["simulate_contention_flood"])
            m["flood.requests"] = requests
            m["flood.simulated"] = simulated
            m["flood.memo_hit_ratio"] = (
                (requests - simulated) / requests if requests else 0.0)
            m["flood.self_s"] = self_s("flood_request")
            m["flood.us_per_flood"] = (
                1e6 * sim_s / simulated if simulated else 0.0)
        if "radio" not in self.absent:
            calls = count("resolve_concurrent")
            m["radio.capture_calls"] = calls
            m["radio.capture_s"] = incl("resolve_concurrent")
            m["radio.capture_useful_ratio"] = (
                self.counts["capture_useful"] / calls if calls else 0.0)
        if "scenario" not in self.absent:
            m["scenario.load_s"] = incl("load_scenario")
            m["scenario.traces_calls"] = count("traces_for_run")
            m["scenario.traces_s"] = incl("traces_for_run")
        if "metrics" not in self.absent:
            m["metrics.compute_s"] = incl("compute_all_metrics")
            m["metrics.write_s"] = sum(incl(w) for w in WRITERS)
            m["metrics.bytes_written"] = sum(attr_sum(w, "bytes")
                                             for w in WRITERS)
        if "campaign" not in self.absent:
            m["campaign.aggregate_s"] = incl("write_campaign_csvs")
        return m

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


class _HotFrame:
    __slots__ = ("child_s",)

    def __init__(self):
        self.child_s = 0.0
