"""Traced in-process run: spans around the calls into each preisach module.

The program is not modified. For the duration of :meth:`Tracer.patched`,
each public function or method named in ``TARGETS`` is replaced, wherever a
preisach module binds it, by a wrapper that records a span ``(name, start,
end, parent)`` in memory. The CLI's own ``main`` is then called in-process
with the same arguments the subprocess run uses, so the traced run executes
the same code and must write byte-identical files.

A target that no longer exists is skipped; its metrics then read 0 with a
sample count of 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "fileio", "signal", "memory", "classical", "hysteron", "generalized", "verify")


def _readout_count(result) -> int:
    # loop_gap_at / midline_at evaluate both branches of every agent
    return 2 * len(result)


def _sat_bytes(result) -> int:
    prefix = getattr(result, "prefix", None)
    return int(getattr(prefix, "nbytes", 0))


# (span name, layer, owner "module" or "module:Class", attribute, counter)
TARGETS = [
    ("cli.main", "cli", "preisach.cli", "main", None),
    ("fileio.read_agents", "fileio", "preisach.fileio", "read_agents_csv", None),
    ("fileio.read_agents", "fileio", "preisach.fileio", "read_shift_json", None),
    ("fileio.read_agents", "fileio", "preisach.fileio", "read_generalized_json", None),
    ("fileio.read_series", "fileio", "preisach.fileio", "read_series_csv", None),
    ("fileio.write_rows", "fileio", "preisach.fileio", "write_rows_csv", None),
    ("signal.extract_reversals", "signal", "preisach.signal", "extract_reversals", None),
    ("memory.push_extremum", "memory", "preisach.memory", "push_extremum", None),
    ("memory.states_of", "memory", "preisach.memory", "states_of", None),
    ("memory.save", "memory", "preisach.memory", "save_memory", None),
    ("memory.load", "memory", "preisach.memory", "load_memory", None),
    ("classical.from_agents", "classical", "preisach.classical", "from_agents", _sat_bytes),
    ("classical.eval_geometric", "classical", "preisach.classical", "eval_geometric", None),
    ("classical.minor_loop", "classical", "preisach.classical", "minor_loop", None),
    ("classical.direct.push", "classical", "preisach.classical:PopulationSimulator", "push", None),
    ("classical.direct.value", "classical", "preisach.classical:PopulationSimulator", "value", None),
    ("classical.grid.push", "classical", "preisach.classical:GridSimulator", "push", None),
    ("classical.grid.value", "classical", "preisach.classical:GridSimulator", "value", None),
    ("hysteron.readout", "hysteron", "preisach.generalized:GeneralizedPopulation",
     "loop_gap_at", _readout_count),
    ("hysteron.readout", "hysteron", "preisach.generalized:GeneralizedPopulation",
     "midline_at", _readout_count),
    ("generalized.soft.push", "generalized", "preisach.generalized:GeneralizedSimulator",
     "push", None),
    ("generalized.soft.value", "generalized", "preisach.generalized:GeneralizedSimulator",
     "value", None),
    ("generalized.shift.push", "generalized", "preisach.generalized:ShiftedSimulator",
     "push", None),
    ("generalized.shift.value", "generalized", "preisach.generalized:ShiftedSimulator",
     "value", None),
    ("generalized.chord", "generalized", "preisach.generalized", "chord_generalized", None),
    ("verify.run_suite", "verify", "preisach.verify", "run_suite", None),
    ("verify.erasure", "verify", "preisach.verify", "check_erasure", None),
    ("verify.shift_equivalence", "verify", "preisach.verify", "check_shift_equivalence", None),
]


class Tracer:
    """Spans kept in memory: ``spans[i] = (name, start_ns, end_ns, parent_index)``."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._layer: dict[str, str] = {}

    def _wrap(self, name: str, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counts.setdefault(name, []).append(counter(result))
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers; restore every original binding on exit."""
        undo = []
        modules = [m for k, m in list(sys.modules.items())
                   if k == "preisach" or k.startswith("preisach.")]
        try:
            for name, layer, owner, attr, counter in TARGETS:
                module_name, _, cls_name = owner.partition(":")
                obj = importlib.import_module(module_name)
                if cls_name:
                    obj = getattr(obj, cls_name, None)
                if obj is None or not hasattr(obj, attr):
                    continue
                self._layer[name] = layer
                original = inspect.getattr_static(obj, attr)
                wrapped = self._wrap(name, original, counter)
                if cls_name:
                    setattr(obj, attr, wrapped)
                    undo.append((obj, attr, original))
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
                            undo.append((module, key, original))
            yield self
        finally:
            for obj, attr, original in reversed(undo):
                setattr(obj, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start},{end},{parent}\n")

    def durations(self, name: str, outside: str | None = None) -> np.ndarray:
        """Seconds per ``name`` span, leaving out spans under any ``outside*`` span."""
        def excluded(parent):
            while outside is not None and parent >= 0:
                if self.spans[parent][0].startswith(outside):
                    return True
                parent = self.spans[parent][3]
            return False

        return np.array([(e - s) * 1e-9 for n, s, e, parent in self.spans
                         if n == name and not excluded(parent)])

    def self_time_by_layer(self) -> dict[str, float]:
        """Each span's duration minus what its child spans cover, summed per layer."""
        own = [(e - s) for _, s, e, _ in self.spans]
        for _, s, e, parent in self.spans:
            if parent >= 0:
                own[parent] -= e - s
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, _, _, _), ns in zip(self.spans, own):
            out[self._layer[name]] += ns * 1e-9
        return out

    def steps(self, prefix: str) -> np.ndarray:
        """Simulator step times: each ``value`` plus the ``push`` calls before it."""
        push, value = prefix + ".push", prefix + ".value"
        out, pending = [], 0
        for name, s, e, _ in self.spans:
            if name == push:
                pending += e - s
            elif name == value:
                out.append((pending + e - s) * 1e-9)
                pending = 0
        return np.array(out)


def tail(values) -> float:
    """Highest percentile with at least 10 samples beyond it (0 with too few)."""
    values = np.sort(np.asarray(values))
    return float(values[-11]) if values.size > 10 else 0.0


def timing(metrics: dict, name: str, values, unit: str, scale: float, with_tail: bool) -> None:
    values = np.asarray(values) * scale
    metrics[f"{name}.p50"] = (float(np.median(values)) if values.size else 0.0, unit)
    if with_tail:
        metrics[f"{name}.tail"] = (tail(values), unit)
    metrics[f"{name}.n"] = (int(values.size), "count")


def layer_metrics(tracer: Tracer, sessions: int) -> dict:
    """Per-layer metrics from the spans of ``sessions`` identical traced sessions."""
    m: dict = {}
    d = tracer.durations
    timing(m, "fileio.read_agents_s", d("fileio.read_agents"), "s", 1, False)
    timing(m, "fileio.read_series_s", d("fileio.read_series"), "s", 1, False)
    timing(m, "fileio.write_rows_s", d("fileio.write_rows"), "s", 1, False)
    # verify folds its own random histories; these metrics are about the workload's
    timing(m, "memory.push_extremum_us", d("memory.push_extremum", "verify."), "us", 1e6, True)
    timing(m, "memory.states_of_s", d("memory.states_of", "verify."), "s", 1, False)
    timing(m, "memory.save_s", d("memory.save"), "s", 1, False)
    timing(m, "memory.load_s", d("memory.load"), "s", 1, False)
    timing(m, "classical.from_agents_s", d("classical.from_agents"), "s", 1, False)
    m["classical.sat_bytes"] = (max(tracer.counts.get("classical.from_agents", [0])), "bytes")
    timing(m, "classical.eval_geometric_us", d("classical.eval_geometric"), "us", 1e6, True)
    timing(m, "classical.direct_step_us", tracer.steps("classical.direct"), "us", 1e6, True)
    timing(m, "classical.minor_loop_s", d("classical.minor_loop"), "s", 1, False)
    evals = sum(tracer.counts.get("hysteron.readout", []))
    m["hysteron.branch_evals"] = (evals // sessions, "count")
    readout = float(d("hysteron.readout").sum())
    m["hysteron.branch_eval_ns"] = (readout * 1e9 / evals if evals else 0.0, "ns")
    timing(m, "generalized.soft_step_us", tracer.steps("generalized.soft"), "us", 1e6, True)
    timing(m, "generalized.chord_us", d("generalized.chord"), "us", 1e6, True)
    timing(m, "generalized.shift_step_us", tracer.steps("generalized.shift"), "us", 1e6, True)
    timing(m, "verify.erasure_s", d("verify.erasure"), "s", 1, False)
    timing(m, "verify.shift_equivalence_s", d("verify.shift_equivalence"), "s", 1, False)
    for layer, seconds in tracer.self_time_by_layer().items():
        m[f"{layer}.self_s"] = (seconds / sessions, "s")
    return m


def fingerprint(invocations, start: float) -> dict:
    """Exact input counts of one session, through the public signal and memory API."""
    from preisach.memory import RISING, initial_memory, push_extremum
    from preisach.signal import SampledSeries, extract_reversals

    samples = reversals = erasures = 0
    depths: list[int] = []
    carried: dict[int, object] = {}  # resumed runs continue the same memory
    for inv in invocations:
        if inv.kind != "simulate" or inv.samples == 0:
            continue
        values = inv.path[inv.offset:inv.offset + inv.samples].tolist()
        mem = carried[id(inv.path)] if inv.offset else initial_memory(start)
        series = SampledSeries.from_pairs(enumerate(values))
        reversals += len(extract_reversals(series, mem.current_u).extrema)
        samples += len(values)
        for u in values:
            if u == mem.current_u:
                continue
            new = push_extremum(mem, u)
            falling_from_rise = u < mem.current_u and mem.trend == RISING
            erasures += len(mem.vertex_pairs) - len(new.vertex_pairs) + falling_from_rise
            depths.append(len(new.vertex_pairs))
            mem = new
        carried[id(inv.path)] = mem
    return {
        "signal.samples": (samples, "count"),
        "signal.reversals": (reversals, "count"),
        "memory.stored_pairs_max": (max(depths, default=0), "count"),
        "memory.stored_pairs_mean": (statistics.fmean(depths) if depths else 0.0, "count"),
        "memory.erasures": (erasures, "count"),
    }
