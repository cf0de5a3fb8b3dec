"""Intra-block dataflow dependence graphs and dependence height.

Used by the VLIW block-selection heuristic (static path height, see
:class:`repro.core.policies.VLIWPolicy`) and by the backend's list
scheduler and assembler (dataflow edges within a hyperblock).

Dependence rules:

- A consumer of register ``r`` depends on every *active* writer of ``r``:
  an unpredicated write kills earlier writers; predicated writes accumulate
  (any of them may be the one that executes).
- The predicate register is an ordinary input.
- Stores are serialized among themselves (TRIPS assigns LSIDs in order);
  loads are treated as speculative and do not wait on earlier stores,
  matching the TRIPS load/store queue's optimistic disambiguation.
"""

from __future__ import annotations

from repro.ir.block import BasicBlock
from repro.ir.opcodes import Opcode


def dep_preds(block: BasicBlock) -> list[tuple[int, ...]]:
    """For each instruction index, the indices it depends on."""
    writers: dict[int, list[int]] = {}
    last_store: int | None = None
    result: list[tuple[int, ...]] = []
    for i, instr in enumerate(block.instrs):
        deps: set[int] = set()
        for reg in instr.uses():
            deps.update(writers.get(reg, ()))
        if instr.op is Opcode.STORE:
            if last_store is not None:
                deps.add(last_store)
            last_store = i
        result.append(tuple(sorted(deps)))
        if instr.dest is not None:
            if instr.pred is None:
                writers[instr.dest] = [i]
            else:
                writers.setdefault(instr.dest, []).append(i)
    return result


def dependence_height(block: BasicBlock) -> int:
    """Critical-path length through the block's dataflow graph, in cycles.

    This is the quantity the classical VLIW heuristic minimizes: on a
    statically scheduled machine the longest path bounds the block's
    schedule length even if that path is never taken at run time.

    An instruction completes its latency after the last of its
    :func:`dep_preds` predecessors completes; register inputs from outside
    the block are ready at cycle 0.  The maximum over a union of writer
    sets is the maximum of the per-register maxima, so one pass keeps, per
    register, the latest completion among its active writers: an
    unpredicated write replaces it, a predicated write can only raise it.
    Stores chain through the last store's completion.
    """
    ready: dict[int, int] = {}
    store_done = 0
    height = 0
    for instr in block.instrs:
        start = 0
        for reg in instr.srcs:
            t = ready.get(reg, 0)
            if t > start:
                start = t
        pred = instr.pred
        if pred is not None:
            t = ready.get(pred.reg, 0)
            if t > start:
                start = t
        is_store = instr.op is Opcode.STORE
        if is_store and store_done > start:
            start = store_done
        done = start + instr.latency
        if is_store:
            store_done = done
        dest = instr.dest
        if dest is not None and (pred is None or done > ready.get(dest, 0)):
            ready[dest] = done
        if done > height:
            height = done
    return height
