"""Span tracer and per-layer ledger for the traced benchmark run.

The tracer wraps attostm's public functions from outside the package: each
function is replaced, in every attostm module namespace that bound it (the
package uses ``from ... import``), by a wrapper that records a span
(name, start, end, parent) and, for a few functions, an inspected count.
Spans opened in a worker thread with nothing open on that thread take the
main thread's innermost open span (the scan) as their parent. Spans stay in
memory until ``write`` dumps them at the end of the run.

This module imports only the standard library, so importing it does not
shift numpy/attostm import time out of the measured set-up.
"""

import functools
import gzip
import importlib
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict


def _propagate_info(args, kwargs, result):
    # (steps, grid points) of one propagation
    return (result.records[0].times.size - 1,
            result.final_state.grid.n_points)


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _useful_root(args, kwargs, result):
    # anti-Stokes partner roots (Im S < 0) are discarded by the caller
    return bool(result.imag >= 0)


# span name -> (module, attribute, inspector of (args, kwargs, result))
TARGETS = {
    "cli.main": ("attostm.cli", "main", None),
    "experiments.delay_scan_tdse": ("attostm.experiments", "delay_scan_tdse", None),
    "experiments.delay_scan_strongfield":
        ("attostm.experiments", "delay_scan_strongfield", None),
    "solver.propagate": ("attostm.solver", "propagate", _propagate_info),
    "solver.initial_state": ("attostm.solver", "initial_state", None),
    "potential.sample_static_profile":
        ("attostm.potential", "sample_static_profile", None),
    "potential.mean_image_magnitude":
        ("attostm.potential", "mean_image_magnitude", None),
    "laser.vector_potential": ("attostm.laser", "vector_potential", None),
    "strongfield.solve_saddle": ("attostm.strongfield", "solve_saddle", None),
    "strongfield.action": ("attostm.strongfield", "action", _useful_root),
    "strongfield.directional_weight":
        ("attostm.strongfield", "directional_weight", None),
    "strongfield.emission_phase_curve":
        ("attostm.strongfield", "emission_phase_curve", None),
    "strongfield.cutoff_energy": ("attostm.strongfield", "cutoff_energy", None),
    "results.write_csv": ("attostm.results", "write_csv", _written_bytes),
    "results.write_json": ("attostm.results", "write_json", _written_bytes),
    "results.record_to_csv": ("attostm.results", "record_to_csv", None),
    "results.save_scan": ("attostm.results", "save_scan", None),
    "results.state_to_json": ("attostm.results", "state_to_json", None),
    "lockin.forward_lockin": ("attostm.lockin", "forward_lockin", None),
    "lockin.reconstruct": ("attostm.lockin", "reconstruct", None),
    "lockin.select_beta": ("attostm.lockin", "select_beta", None),
}


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "error", "info")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.error = None
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Wraps TARGETS while installed; collects spans from every thread."""

    def __init__(self):
        self.spans = []
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._patched = []

    def _wrap(self, name, fn, inspect):
        spans, stacks, main = self.spans, self._stacks, self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                outer = stacks.get(main) if ident != main else None
                parent = outer[-1] if outer else None
            span = Span(name, parent, ident)
            stack.append(span)
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                stack.pop()
                raise
            span.end = time.perf_counter()
            stack.pop()
            if inspect is not None:
                span.info = inspect(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target that exists; a renamed one simply sees no calls."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "attostm" or n.startswith("attostm.")]
        for name, (modname, attr, inspect) in TARGETS.items():
            original = getattr(importlib.import_module(modname), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, inspect)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path):
        """Dump the spans as gzipped JSON rows
        [id, parent id, name, start, end, thread, error, info]."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[ids[id(s)], ids[id(s.parent)] if s.parent is not None else None,
                 s.name, s.start, s.end, s.thread, s.error, s.info]
                for s in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump(rows, fh)


# metric -> the span whose calls it needs: a workload that reaches that span
# but records no call of it reports the metric as missing, not 0
LEDGER = {
    "solver.propagate.calls": "solver.propagate",
    "solver.steps": "solver.propagate",
    "solver.propagate.self_s": "solver.propagate",
    "solver.step_us": "solver.propagate",
    "solver.point_update_ns": "solver.propagate",
    "solver.initial_state.calls": "solver.initial_state",
    "solver.initial_state_s": "solver.initial_state",
    "potential.static_profile_s": "potential.sample_static_profile",
    "experiments.delay_scan_s": "experiments.delay_scan_tdse",
    "experiments.concurrency": "experiments.delay_scan_tdse",
    "results.write_s": "results.write_csv",
    "results.bytes_written": "results.write_csv",
    "strongfield.solve_saddle.calls": "strongfield.solve_saddle",
    "strongfield.solve_saddle.failed": "strongfield.solve_saddle",
    "strongfield.solve_saddle_us.p50": "strongfield.solve_saddle",
    "strongfield.solve_saddle_us.p99": "strongfield.solve_saddle",
    "strongfield.useful_root_ratio": "strongfield.action",
    "strongfield.directional_weight_s": "strongfield.directional_weight",
    "strongfield.emission_phase_curve_s":
        "strongfield.emission_phase_curve",
    "strongfield.cutoff_energy_s": "strongfield.cutoff_energy",
    "laser.vector_potential.calls": "laser.vector_potential",
    "laser.vector_potential_s": "laser.vector_potential",
    "potential.mean_image.calls": "potential.mean_image_magnitude",
    "potential.mean_image_s": "potential.mean_image_magnitude",
    "lockin.forward_s": "lockin.forward_lockin",
    "lockin.reconstruct_s": "lockin.reconstruct",
    "lockin.select_beta_s": "lockin.select_beta",
    "cli.self_s": "cli.main",
    "trace.coverage": "cli.main",
}


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile(values, q):
    # inclusive-method quantile; a single value is its own percentile
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ledger(spans, wall_s):
    """Per-layer values from one traced repetition of wall time wall_s.
    Returns (values, number of spans per span name)."""
    by = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
        if s.parent is not None:
            children[id(s.parent)].append(s)

    def total(name):
        return sum(s.duration for s in by[name])

    def self_time(name):
        return sum(s.duration - sum(c.duration for c in children[id(s)])
                   for s in by[name])

    def under(span, ancestors):
        p = span.parent
        while p is not None:
            if p.name in ancestors:
                return True
            p = p.parent
        return False

    done = [s for s in by["solver.propagate"] if s.info is not None]
    steps = sum(s.info[0] for s in done)
    point_updates = sum(s.info[0] * s.info[1] for s in done)
    prop_self = self_time("solver.propagate")
    scan_prop = sum(s.duration for s in by["solver.propagate"]
                    if under(s, {"experiments.delay_scan_tdse"}))
    writes = [s for s in spans if s.name.startswith("results.")
              and not (s.parent is not None
                       and s.parent.name.startswith("results."))]
    saddle_us = sorted(s.duration * 1e6 for s in by["strongfield.solve_saddle"])
    saddles = len(saddle_us)
    useful = sum(1 for s in by["strongfield.action"] if s.info)
    # time spent below the CLI, in the layers' own spans, on the main thread
    covered = sum(s.duration for s in spans
                  if not s.name.startswith("cli.")
                  and (s.parent is None or s.parent.name == "cli.main"))

    values = {
        "solver.propagate.calls": len(by["solver.propagate"]),
        "solver.steps": steps,
        "solver.propagate.self_s": prop_self,
        "solver.step_us": _ratio(prop_self, steps) * 1e6,
        "solver.point_update_ns": _ratio(prop_self, point_updates) * 1e9,
        "solver.initial_state.calls": len(by["solver.initial_state"]),
        "solver.initial_state_s": total("solver.initial_state"),
        "potential.static_profile_s": total("potential.sample_static_profile"),
        "experiments.delay_scan_s": total("experiments.delay_scan_tdse"),
        "experiments.concurrency":
            _ratio(scan_prop, total("experiments.delay_scan_tdse")),
        "results.write_s": sum(s.duration for s in writes),
        "results.bytes_written": sum(
            s.info for s in by["results.write_csv"] + by["results.write_json"]
            if s.info is not None),
        "strongfield.solve_saddle.calls": saddles,
        "strongfield.solve_saddle.failed": sum(
            1 for s in by["strongfield.solve_saddle"]
            if s.error == "SaddleConvergenceError"),
        "strongfield.solve_saddle_us.p50": _percentile(saddle_us, 50),
        "strongfield.solve_saddle_us.p99": _percentile(saddle_us, 99),
        "strongfield.useful_root_ratio": _ratio(useful, saddles),
        "strongfield.directional_weight_s":
            total("strongfield.directional_weight"),
        "strongfield.emission_phase_curve_s":
            total("strongfield.emission_phase_curve"),
        "strongfield.cutoff_energy_s": total("strongfield.cutoff_energy"),
        "laser.vector_potential.calls": len(by["laser.vector_potential"]),
        "laser.vector_potential_s": total("laser.vector_potential"),
        "potential.mean_image.calls":
            len(by["potential.mean_image_magnitude"]),
        "potential.mean_image_s": total("potential.mean_image_magnitude"),
        "lockin.forward_s": total("lockin.forward_lockin"),
        "lockin.reconstruct_s": total("lockin.reconstruct"),
        "lockin.select_beta_s": total("lockin.select_beta"),
        "cli.self_s": self_time("cli.main"),
        "trace.coverage": _ratio(covered, wall_s),
    }
    return values, {name: len(v) for name, v in by.items()}
