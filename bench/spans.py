"""Span tracer for the traced run, applied to dakit from outside.

Each layer's functions are wrapped and every binding a caller looks up is
replaced, in the dakit modules (including `from ... import` copies such as
the package's re-exports) and in numpy.linalg. Spans are recorded only
inside an op, as (name, start, end, parent, op id, raised), kept in memory
and written out at the end. A call into a layer from the same layer is
not a span of its own, so a module aggregate's time is its outermost calls.
A span's self time is its duration minus the time its child spans cover;
an op's own self time is the op time no named layer accounts for.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

# (layer, module, function); a None function wraps every function the
# module defines, which makes the layer a module aggregate
LAYERS = (
    ("mna.s_parameters_at", "dakit.mna", "s_parameters_at"),
    ("linalg", "numpy.linalg", "solve"),
    ("linalg", "numpy.linalg", "inv"),
    ("mna.sweep", "dakit.mna", "sweep"),
    ("mna.build_network", "dakit.mna", "build_network"),
    ("mna.extract_metrics", "dakit.mna", "extract_metrics"),
    ("design.report_from_json", "dakit.design", "report_from_json"),
    ("design.report_to_json", "dakit.design", "report_to_json"),
    ("design.synthesize_design", "dakit.design", "synthesize_design"),
    ("design.screen_catalog", "dakit.design", "screen_catalog"),
    ("design.verify_table1", "dakit.design", "verify_table1"),
    ("ladder", "dakit.ladder", None),
    ("microstrip", "dakit.microstrip", None),
    ("gain", "dakit.gain", None),
    ("taper", "dakit.taper", None),
    ("device.load_catalog", "dakit.device", "load_catalog"),
    ("cli.run", "dakit.cli", "run"),
    ("cli.write_touchstone", "dakit.cli", "write_touchstone"),
    ("cli.write_csv", "dakit.cli", "write_csv"),
)
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))
OP = "op"
_NAMES = (OP, *LAYER_NAMES)


def _patched_module(name: str) -> bool:
    return name == "dakit" or name.startswith("dakit.") or name == "numpy.linalg"


class Tracer:
    def __init__(self) -> None:
        # one column per span field, so a long run stays small in memory
        self._name = array("B")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op_id = array("i")
        self._raised = array("b")
        self.sweeps: list[tuple[int, int]] = []  # (node count, points) per sweep
        self._stack: list[int] = []
        self._layer = None  # innermost open span's name index, None outside ops
        self._undo: list = []

    def install(self) -> None:
        for layer, module_name, function in LAYERS:
            module = importlib.import_module(module_name)
            if function is None:
                names = [
                    n
                    for n, v in vars(module).items()
                    if inspect.isfunction(v) and v.__module__ == module_name
                ]
            else:
                names = [function]
            for name in names:
                original = getattr(module, name)
                self._rebind(original, self._wrap(layer, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()

    def _rebind(self, original, wrapped) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not _patched_module(module_name):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
                    self._undo.append((module, name, original))

    def _wrap(self, layer: str, fn):
        # the hot path of a traced run: bound methods are looked up once
        tracer = self
        code = _NAMES.index(layer)
        is_sweep = layer == "mna.sweep"
        stack, names, op_ids, ends, raised = (
            self._stack, self._name, self._op_id, self._end, self._raised
        )
        add_name, add_parent, add_op = names.append, self._parent.append, op_ids.append
        add_start, add_end, add_raised = self._start.append, ends.append, raised.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            current = tracer._layer
            if current is None or current == code:
                return fn(*args, **kwargs)
            parent = stack[-1]
            index = len(names)
            add_name(code)
            add_parent(parent)
            add_op(op_ids[parent])
            add_end(0.0)
            add_raised(1)
            stack.append(index)
            tracer._layer = code
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                tracer._layer = current
            raised[index] = 0
            if is_sweep:
                net = args[0] if args else kwargs["net"]
                tracer.sweeps.append((net.node_count, len(result.frequencies)))
            return result

        return traced

    def op(self, op_id: int, run_op, spec):
        """Run one op as a root span; return its result and duration."""
        index = len(self._name)
        self._name.append(0)
        self._parent.append(-1)
        self._op_id.append(op_id)
        self._end.append(0.0)
        self._raised.append(1)
        self._stack.append(index)
        self._layer = 0
        self._start.append(time.perf_counter())
        try:
            result = run_op(spec)
        finally:
            self._end[index] = time.perf_counter()
            self._stack.pop()
            self._layer = None
        self._raised[index] = 0
        return result, self._end[index] - self._start[index]

    def summary(self) -> dict:
        """Per-layer calls, self time (ms) and errors, plus op-level totals."""
        spans = range(len(self._name))
        duration = [self._end[i] - self._start[i] for i in spans]
        covered = [0.0] * len(duration)
        for i in spans:
            if self._parent[i] >= 0:
                covered[self._parent[i]] += duration[i]
        layers = {name: {"calls": 0, "self_ms": 0.0, "errors": 0} for name in LAYER_NAMES}
        op_ms = unattributed_ms = sweep_ms = 0.0
        for i in spans:
            name = _NAMES[self._name[i]]
            own_ms = 1e3 * (duration[i] - covered[i])
            if name == OP:
                op_ms += 1e3 * duration[i]
                unattributed_ms += own_ms
                continue
            entry = layers[name]
            entry["calls"] += 1
            entry["self_ms"] += own_ms
            entry["errors"] += self._raised[i]
            if name == "mna.sweep":
                sweep_ms += 1e3 * duration[i]
        points = sum(p for _, p in self.sweeps)
        return {
            "layers": layers,
            "op_ms": op_ms,
            "unattributed_ms": unattributed_ms,
            "sweep_us_per_point": 1e3 * sweep_ms / points if points else 0.0,
            "nodes_mean": sum(n for n, _ in self.sweeps) / len(self.sweeps)
            if self.sweeps
            else 0.0,
        }

    def write(self, path) -> None:
        """Write the recorded spans as gzip-compressed JSON columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {
            "names": _NAMES,
            "name": self._name.tolist(),
            "start_s": self._start.tolist(),
            "end_s": self._end.tolist(),
            "parent": self._parent.tolist(),
            "op": self._op_id.tolist(),
            "raised": self._raised.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as out:
            json.dump(columns, out)
