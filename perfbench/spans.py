"""Layer spans recorded from outside the program.

The benchmark wraps the public entry point of every layer (the functions
in :data:`LAYERS`) for the duration of a traced pass, and restores the
originals afterwards, so untraced passes run the unmodified program.  A
span is ``(layer, function, start, end, parent, cell)``; spans stay in
memory and are written out when the run ends.

A layer's *self* time is its spans' duration minus the time covered by
their child spans.  The pass itself is the root span (layer
``harness``), so the self times of all layers add up to the traced wall
time exactly.  A layer's *busy* time counts only its outermost spans, so
``compile_with_ordering`` calling ``form_module`` is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: layer -> (metric prefix, entry points as "module:attribute").
#: ``module:Class.method`` patches the class; a plain function is replaced
#: in every ``repro`` module that imported it by name.
LAYERS = {
    "frontend": ("frontend.", ["repro.workloads.microbench:Workload.module"]),
    "profiles": ("profiles.", ["repro.profiles.collect:collect_profile"]),
    "core": ("core.", [
        "repro.core.phases:compile_with_ordering",
        "repro.core.phases:phase_unroll_peel_bb",
        "repro.core.phases:phase_unroll_peel_hyper",
        "repro.core.convergent:form_module",
    ]),
    "opt": ("opt.", ["repro.opt.pipeline:optimize_module"]),
    "ir.verify": ("ir.verify_", ["repro.ir.verify:verify_module"]),
    "ir.copy": ("ir.copy_", ["repro.ir.function:Module.copy"]),
    "sim.functional": ("sim.functional.", ["repro.sim.functional:run_module"]),
    "sim.timing": ("sim.timing.", ["repro.sim.timing:simulate_cycles"]),
    "robustness": ("robustness.", [
        "repro.robustness.oracle:differential_check",
        "repro.robustness.oracle:probe_behavior",
    ]),
}

ROOT_LAYER = "harness"

#: Entry points that interpret a whole program once per call.
INTERPRETERS = ("run_module", "simulate_cycles", "collect_profile",
                "probe_behavior")


def _counts(func_name: str, result) -> tuple:
    """Work done by one call, read from what the entry point returned:
    (attempts, merges) for formation, (blocks, instructions) for the
    simulators.  Instructions count executed plus nullified ones."""
    if func_name == "run_module":
        stats = result[1]
        return stats.blocks_executed, (
            stats.instrs_executed + stats.instrs_nullified
        )
    if func_name == "simulate_cycles":
        return result.blocks, result.instructions
    if hasattr(result, "attempts") and hasattr(result, "merges"):
        return result.attempts, result.merges
    return None


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    ``cell_id()`` names the cell in progress; spans record it.
    """

    def __init__(self, cell_id) -> None:
        #: [layer, function, start, end, parent index, cell, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.cell_id = cell_id

    # -- recording ------------------------------------------------------

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [layer, name, 0.0, 0.0, stack[-1] if stack else -1,
                      self.cell_id(), None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            record[6] = _counts(name, result)
            return result

        return traced

    def root(self, fn, *args):
        """Run ``fn(*args)`` as the root span of one traced pass."""
        return self._wrap(ROOT_LAYER, fn)(*args)

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        for layer, (_, entries) in LAYERS.items():
            for entry in entries:
                module_name, attr = entry.split(":")
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    self._patch(getattr(owner, cls_name), attr, layer)
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(layer, original)
                for name, module in list(sys.modules.items()):
                    if name.startswith("repro") and getattr(
                        module, attr, None
                    ) is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def _patch(self, owner, attr: str, layer: str) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------

    def layer_table(self, first: int, last: int) -> dict:
        """Per-layer busy/self seconds, calls and counts over the spans
        ``first:last`` (one traced pass, opened by its root span)."""
        spans = self.spans
        table = {
            layer: {"busy_s": 0.0, "self_s": 0.0, "calls": 0,
                    "interpretations": 0, "a": 0, "b": 0}
            for layer in (ROOT_LAYER, *LAYERS)
        }
        for index in range(first, last):
            layer, name, start, end, parent, _, counts = spans[index]
            duration = end - start
            row = table[layer]
            row["self_s"] += duration
            if parent >= first:
                table[spans[parent][0]]["self_s"] -= duration
            if name in INTERPRETERS:
                row["interpretations"] += 1
            if not self._nested_in_same_layer(index, first):
                row["busy_s"] += duration
                row["calls"] += 1
                if counts is not None:
                    row["a"] += counts[0]
                    row["b"] += counts[1]
        return table

    def _nested_in_same_layer(self, index: int, first: int) -> bool:
        spans = self.spans
        layer = spans[index][0]
        parent = spans[index][4]
        while parent >= first:
            if spans[parent][0] == layer:
                return True
            parent = spans[parent][4]
        return False

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for layer, name, start, end, parent, cell, _ in self.spans:
                handle.write(json.dumps({
                    "layer": layer, "function": name, "start": start,
                    "end": end, "parent": parent, "cell": cell,
                }) + "\n")


def _per(value, count):
    return value / count if count else 0.0


def layer_metrics(table: dict, wall_s: float, cells: int) -> dict:
    """Every per-layer metric of one traced pass, by name."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer, (prefix, _) in LAYERS.items():
        put(f"{prefix}busy_s", table[layer]["busy_s"], "s")
        put(f"{prefix}self_s", table[layer]["self_s"], "s")
        put(f"{prefix}calls", table[layer]["calls"], "count")
    put("harness.self_s", table[ROOT_LAYER]["self_s"], "s")

    core = table["core"]
    put("core.attempts", core["a"], "count")
    put("core.merges", core["b"], "count")
    put("core.accept_ratio", _per(core["b"], core["a"]), "ratio")
    put("core.us_per_attempt", 1e6 * _per(core["busy_s"], core["a"]), "us")
    timing = table["sim.timing"]
    put("sim.timing.dyn_blocks", timing["a"], "count")
    put("sim.timing.us_per_block",
        1e6 * _per(timing["busy_s"], timing["a"]), "us")
    functional = table["sim.functional"]
    put("sim.functional.dyn_blocks", functional["a"], "count")
    put("sim.functional.ns_per_instr",
        1e9 * _per(functional["busy_s"], functional["b"]), "ns")
    interpretations = sum(row["interpretations"] for row in table.values())
    put("sim.interpretations_per_cell", _per(interpretations, cells), "count")
    put("trace.wall_s", wall_s, "s")
    return out
