"""Functional (architectural) simulator for the predicated IR.

Executes a module instruction by instruction with classic predicated
semantics: a predicated-false instruction writes nothing and a
predicated-false branch does not fire.  The simulator doubles as the
dynamic verifier of the hyperblock invariant — on every block execution it
checks that *exactly one* branch fires — and as the measurement substrate
for block counts (Table 3 of the paper) and profile collection.

The simulator is deliberately fast-path oriented: each block is compiled
once per :class:`Interpreter` instance into a flat tuple form and executed
by a tight dispatch loop.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.ir.function import Function, Module
from repro.ir.instruction import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.semantics import EVAL_BINOP


class SimulationError(Exception):
    """Raised on dynamic invariant violations or runaway executions."""


class SimStats:
    """Counters accumulated over one program execution."""

    def __init__(self) -> None:
        self.blocks_executed = 0
        self.instrs_executed = 0
        self.instrs_nullified = 0
        self.loads = 0
        self.stores = 0
        self.calls = 0
        self.block_counts: dict[tuple[str, str], int] = {}
        self.edge_counts: dict[tuple[str, str, Optional[str]], int] = {}

    def useful_fraction(self) -> float:
        total = self.instrs_executed + self.instrs_nullified
        return self.instrs_executed / total if total else 1.0

    def __repr__(self) -> str:
        return (
            f"<SimStats blocks={self.blocks_executed} "
            f"instrs={self.instrs_executed} nullified={self.instrs_nullified}>"
        )


# Compiled-instruction kind codes (small ints dispatch faster than enums).
_K_BIN = 0  # binary arithmetic with python function
_K_MOVI = 1
_K_MOV = 2
_K_LOAD = 3
_K_STORE = 4
_K_BR = 5
_K_RET = 6
_K_CALL = 7
_K_NOT = 8
_K_NEG = 9
_K_NULL = 10  # NULLW / NULLS / FANOUT behave as near-no-ops


_BINOPS = EVAL_BINOP


class Interpreter:
    """Executes a :class:`Module`, gathering :class:`SimStats`.

    Args:
        module: the program.
        max_blocks: abort after this many dynamic block executions.
        max_steps: abort after this many dynamic instruction events
            (executed + nullified); bounds runaway straight-line code the
            same way ``max_blocks`` bounds runaway control flow.
        trace: optional callback ``(func_name, block_name, fired_instr,
            depth, nullified)`` invoked after each block execution;
            ``fired_instr`` is the branch :class:`Instruction` that fired
            (``BR`` or ``RET``), ``depth`` the current call depth (1 for
            the outermost call) and ``nullified`` the tuple of instruction
            indices whose predicates evaluated false on this execution
            (needed by the timing model: nullified instructions resolve as
            null tokens at predicate time, they do not execute).
    """

    def __init__(
        self,
        module: Module,
        max_blocks: int = 5_000_000,
        max_steps: int = 100_000_000,
        trace: Optional[Callable[[str, str, Instruction, int, tuple], None]] = None,
    ):
        self.module = module
        self.max_blocks = max_blocks
        self.max_steps = max_steps
        self.trace = trace
        self.memory: dict[int, object] = {}
        self.stats = SimStats()
        #: compiled blocks, one dict per function name
        self._compiled: dict[str, dict[str, list]] = {}
        self._call_depth = 0
        self._max_call_depth = 200

    # -- memory helpers ---------------------------------------------------

    def preload(self, base: int, values) -> None:
        """Write ``values`` into memory starting at address ``base``."""
        for offset, value in enumerate(values):
            self.memory[base + offset] = value

    def read_array(self, base: int, length: int) -> list:
        return [self.memory.get(base + i, 0) for i in range(length)]

    # -- compilation ----------------------------------------------------

    def _compile_block(self, func: Function, block_name: str) -> list:
        compiled = []
        for instr in func.blocks[block_name].instrs:
            pred = instr.pred
            guard = (pred.reg, pred.sense) if pred is not None else None
            op = instr.op
            if op in _BINOPS:
                entry = (_K_BIN, _BINOPS[op], instr.dest, instr.srcs, guard, instr)
            elif op is Opcode.MOVI:
                entry = (_K_MOVI, instr.imm, instr.dest, (), guard, instr)
            elif op in (Opcode.MOV, Opcode.FANOUT):
                entry = (_K_MOV, None, instr.dest, instr.srcs, guard, instr)
            elif op is Opcode.NOT:
                entry = (_K_NOT, None, instr.dest, instr.srcs, guard, instr)
            elif op is Opcode.NEG:
                entry = (_K_NEG, None, instr.dest, instr.srcs, guard, instr)
            elif op is Opcode.LOAD:
                entry = (_K_LOAD, instr.imm or 0, instr.dest, instr.srcs, guard, instr)
            elif op is Opcode.STORE:
                entry = (_K_STORE, instr.imm or 0, None, instr.srcs, guard, instr)
            elif op is Opcode.BR:
                entry = (_K_BR, instr.target, None, (), guard, instr)
            elif op is Opcode.RET:
                entry = (_K_RET, None, None, instr.srcs, guard, instr)
            elif op is Opcode.CALL:
                entry = (_K_CALL, instr.callee, instr.dest, instr.srcs, guard, instr)
            elif op in (Opcode.NULLW, Opcode.NULLS):
                entry = (_K_NULL, None, instr.dest, (), guard, instr)
            else:  # pragma: no cover - exhaustiveness guard
                raise SimulationError(f"cannot interpret {instr!r}")
            compiled.append(entry)
        return compiled

    # -- execution --------------------------------------------------------

    def run(self, func_name: str = "main", args: tuple = ()) -> object:
        """Execute ``func_name(*args)`` and return its result."""
        if func_name not in self.module:
            raise SimulationError(f"no function @{func_name}")
        return self._call(func_name, tuple(args))

    def _call(self, func_name: str, args: tuple) -> object:
        self._call_depth += 1
        if self._call_depth > self._max_call_depth:
            raise SimulationError("call depth limit exceeded")
        try:
            func = self.module.function(func_name)
            if len(args) != len(func.params):
                raise SimulationError(
                    f"@{func_name} expects {len(func.params)} args, got {len(args)}"
                )
            regs: dict[int, object] = dict(zip(func.params, args))
            block_name = func.entry
            stats = self.stats
            memory = self.memory
            get = regs.get
            compiled = self._compiled.setdefault(func_name, {})
            while True:
                stats.blocks_executed += 1
                if stats.blocks_executed > self.max_blocks:
                    raise SimulationError("dynamic block limit exceeded")
                if (
                    stats.instrs_executed + stats.instrs_nullified
                    > self.max_steps
                ):
                    raise SimulationError("dynamic step limit exceeded")
                key = (func_name, block_name)
                stats.block_counts[key] = stats.block_counts.get(key, 0) + 1
                code = compiled.get(block_name)
                if code is None:
                    code = compiled[block_name] = self._compile_block(
                        func, block_name
                    )
                fired: Optional[Instruction] = None
                fired_target: Optional[str] = None
                is_return = False
                ret_value: object = 0
                nullified: list[int] = []
                # Instruction counts are added once per block; a call first
                # flushes the part of the block before it, so every
                # block-start step check sees exact totals.
                flushed_executed = flushed_nullified = 0
                for index, (kind, aux, dest, srcs, guard, instr) in enumerate(
                    code
                ):
                    if guard is not None:
                        pval = get(guard[0], 0)
                        if bool(pval) != guard[1]:
                            nullified.append(index)
                            continue
                    if kind == _K_BIN:
                        regs[dest] = aux(get(srcs[0], 0), get(srcs[1], 0))
                    elif kind == _K_MOVI:
                        regs[dest] = aux
                    elif kind == _K_MOV:
                        regs[dest] = get(srcs[0], 0)
                    elif kind == _K_LOAD:
                        stats.loads += 1
                        regs[dest] = memory.get(get(srcs[0], 0) + aux, 0)
                    elif kind == _K_STORE:
                        stats.stores += 1
                        memory[get(srcs[0], 0) + aux] = get(srcs[1], 0)
                    elif kind == _K_BR:
                        if fired is not None:
                            raise SimulationError(
                                f"@{func_name}/{block_name}: multiple branches "
                                f"fired ({fired!r} then {instr!r})"
                            )
                        fired = instr
                        fired_target = aux
                    elif kind == _K_RET:
                        if fired is not None:
                            raise SimulationError(
                                f"@{func_name}/{block_name}: multiple branches "
                                f"fired ({fired!r} then {instr!r})"
                            )
                        fired = instr
                        is_return = True
                        ret_value = get(srcs[0], 0) if srcs else 0
                    elif kind == _K_CALL:
                        stats.calls += 1
                        executed = index + 1 - len(nullified)
                        stats.instrs_executed += executed - flushed_executed
                        stats.instrs_nullified += (
                            len(nullified) - flushed_nullified
                        )
                        flushed_executed = executed
                        flushed_nullified = len(nullified)
                        call_args = tuple(get(s, 0) for s in srcs)
                        regs[dest] = self._call(aux, call_args)
                    elif kind == _K_NOT:
                        regs[dest] = 0 if get(srcs[0], 0) else 1
                    elif kind == _K_NEG:
                        regs[dest] = -get(srcs[0], 0)
                    elif kind == _K_NULL:
                        if dest is not None:
                            regs[dest] = 0
                stats.instrs_executed += (
                    len(code) - len(nullified) - flushed_executed
                )
                stats.instrs_nullified += len(nullified) - flushed_nullified
                if fired is None:
                    raise SimulationError(
                        f"@{func_name}/{block_name}: no branch fired"
                    )
                edge = (func_name, block_name, fired_target)
                stats.edge_counts[edge] = stats.edge_counts.get(edge, 0) + 1
                if self.trace is not None:
                    self.trace(
                        func_name, block_name, fired, self._call_depth,
                        tuple(nullified),
                    )
                if is_return:
                    return ret_value
                block_name = fired_target
        finally:
            self._call_depth -= 1


def run_module(
    module: Module,
    args: tuple = (),
    preload: Optional[dict[int, list]] = None,
    max_blocks: int = 5_000_000,
    max_steps: int = 100_000_000,
    trace: Optional[Callable] = None,
) -> tuple[object, SimStats, dict[int, object]]:
    """Convenience wrapper: run ``main`` and return (result, stats, memory)."""
    interp = Interpreter(module, max_blocks, max_steps, trace)
    if preload:
        for base, values in preload.items():
            interp.preload(base, values)
    result = interp.run("main", args)
    return result, interp.stats, interp.memory
