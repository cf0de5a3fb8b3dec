"""TRIPS-like cycle timing model (block-pipelined dataflow simulation).

The model consumes the dynamic block trace produced by the functional
simulator and computes a cycle count that is sensitive to exactly the
effects the paper's evaluation hinges on:

- **per-block overhead** — every dynamic block pays fetch/map latency, so
  merging blocks (fewer, fuller blocks) directly buys cycles;
- **next-block mispredictions** — a wrong exit prediction flushes the
  speculative window and restarts fetch after the branch resolves;
- **dataflow dependence height** — instructions issue when their operands
  (including the predicate) arrive; the extra predication that tail
  duplication introduces lengthens real dependence chains (the paper's
  bzip2_3 pathology), while falsely-predicated long paths do *not* delay
  commit beyond their own output resolution;
- **issue contention** — all in-flight instructions share ``issue_width``
  slots per cycle, so speculative useless instructions cost bandwidth;
- **window pressure** — at most ``window_blocks`` blocks are in flight;
  small blocks waste window capacity.

Within a block the schedule is a greedy list schedule over the dataflow
graph, with each operand's in-block producer precompiled once per block;
across blocks, register ready times are forwarded and fetch is pipelined.
The simulation is O(dynamic instructions).

The model is a trace hook on the functional interpreter, so a timing run
is also the functional run: :class:`TimingStats` carries the program's
result, memory and :class:`SimStats`, and an extra ``trace`` hook can ride
along on the same run (see ``docs/TIMING_MODEL.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.ir.function import Module
from repro.ir.opcodes import Opcode
from repro.sim.functional import Interpreter, SimStats
from repro.sim.machine import TRIPS_MACHINE, MachineConfig
from repro.sim.predictor import NextBlockPredictor


@dataclass
class TimingStats:
    """Results of one timing simulation."""

    cycles: int = 0
    blocks: int = 0
    instructions: int = 0
    mispredictions: int = 0
    flushes: int = 0
    #: functional outcome of the same run: ``main``'s return value, the
    #: final memory and the interpreter's counters
    result: object = None
    memory: dict = field(default_factory=dict)
    functional: Optional[SimStats] = None

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.blocks if self.blocks else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def __repr__(self) -> str:
        return (
            f"<TimingStats cycles={self.cycles} blocks={self.blocks} "
            f"mispredicts={self.mispredictions}>"
        )


class _BlockTiming:
    """Static per-block information reused across dynamic executions.

    Every operand is precompiled to a slot of the ``done_at`` list: its
    static producer (the register's last writer earlier in the block,
    nullified or not), else a live-in slot after the instructions' slots.
    """

    __slots__ = ("instrs", "livein", "outputs", "fired_slot", "size",
                 "fetch_cycles")

    def __init__(self, block, config: MachineConfig):
        instrs = block.instrs
        size = self.size = len(instrs)
        writer: dict[int, int] = {}
        livein: dict[int, int] = {}

        def slot(reg: int) -> int:
            if reg in writer:
                return writer[reg]
            return size + livein.setdefault(reg, len(livein))

        # Precompile to (index, latency + route, operand slots, predicate slot).
        self.instrs = []
        for index, instr in enumerate(instrs):
            latency = instr.latency + config.route_latency
            if instr.op is Opcode.LOAD:
                latency += config.load_extra
            pred = slot(instr.pred.reg) if instr.pred is not None else None
            operands = tuple(slot(reg) for reg in instr.srcs)
            if pred is not None:
                operands += (pred,)
            self.instrs.append((index, latency, operands, pred))
            if instr.dest is not None:
                writer[instr.dest] = index
        self.livein = tuple(livein)
        self.outputs = tuple(writer.items())
        self.fired_slot = {instr.uid: i for i, instr in enumerate(instrs)}
        self.fetch_cycles = config.block_fetch_cycles(size)


class TimingSimulator:
    """Runs a module functionally while accumulating a cycle model."""

    def __init__(
        self,
        module: Module,
        config: Optional[MachineConfig] = None,
        predictor: Optional[NextBlockPredictor] = None,
    ):
        self.module = module
        self.config = config or TRIPS_MACHINE
        self.predictor = predictor or NextBlockPredictor()
        self.stats = TimingStats()
        self._block_cache: dict[tuple[str, str], _BlockTiming] = {}
        # Microarchitectural clock state.  Register ready times are keyed
        # by function, not by activation (see docs/TIMING_MODEL.md).
        self._reg_ready: dict[str, dict[int, int]] = {}
        self._issued: dict[int, int] = {}
        self._issue_floor = 0
        self._next_fetch = 0
        self._commit_times: list[int] = []
        self._last_commit = 0

    # -- driving --------------------------------------------------------------

    def run(
        self,
        args: tuple = (),
        preload: Optional[dict[int, list]] = None,
        func_name: str = "main",
        max_blocks: int = 5_000_000,
        trace: Optional[Callable] = None,
    ) -> TimingStats:
        hook = self._on_block
        if trace is not None:
            def hook(*event):
                self._on_block(*event)
                trace(*event)
        interp = Interpreter(self.module, max_blocks=max_blocks, trace=hook)
        if preload:
            for base, values in preload.items():
                interp.preload(base, values)
        stats = self.stats
        stats.result = interp.run(func_name, args)
        stats.memory = interp.memory
        stats.functional = interp.stats
        stats.cycles = self._last_commit
        return stats

    # -- per-block timing ------------------------------------------------------

    def _on_block(
        self,
        func_name: str,
        block_name: str,
        fired,
        depth: int,
        nullified: tuple = (),
    ) -> None:
        config = self.config
        stats = self.stats
        stats.blocks += 1
        key = (func_name, block_name)
        timing = self._block_cache.get(key)
        if timing is None:
            block = self.module.function(func_name).blocks[block_name]
            timing = self._block_cache[key] = _BlockTiming(block, config)

        # Fetch: pipelined behind the previous block, limited by the window.
        fetch = self._next_fetch
        window = config.window_blocks
        if len(self._commit_times) >= window:
            fetch = max(fetch, self._commit_times[-window])
        map_done = fetch + config.map_latency + timing.fetch_cycles

        # Dataflow schedule.  A nullified instruction (predicate evaluated
        # false) does not execute: it resolves as a null token one cycle
        # after its predicate arrives, without taking an issue slot — this
        # is why a long dependence chain on a falsely-predicated path does
        # not delay block commit on an EDGE machine (paper, Section 5).
        reg_ready = self._reg_ready.get(func_name)
        if reg_ready is None:
            reg_ready = self._reg_ready[func_name] = {}
        get = reg_ready.get
        done_at = [0] * timing.size
        done_at += [get(reg, 0) for reg in timing.livein]
        block_done = map_done
        issued = self._issued
        width = config.issue_width
        skip = set(nullified) if nullified else ()
        for index, latency, operands, pred in timing.instrs:
            if index in skip:
                t = done_at[pred]
                done = (t if t > map_done else map_done) + 1
            else:
                ready = map_done
                for slot in operands:
                    t = done_at[slot]
                    if t > ready:
                        ready = t
                # Earliest cycle >= ready with a free issue slot.
                taken = issued.get(ready, 0)
                while taken >= width:
                    ready += 1
                    taken = issued.get(ready, 0)
                issued[ready] = taken + 1
                done = ready + latency
            done_at[index] = done
            if done > block_done:
                block_done = done
        stats.instructions += timing.size - len(nullified)

        # Commit: in order, all outputs produced.
        commit = max(block_done, self._last_commit) + config.commit_overhead
        self._last_commit = commit
        self._commit_times.append(commit)
        if len(self._commit_times) > config.window_blocks + 1:
            del self._commit_times[: -config.window_blocks - 1]

        # Forward register outputs to later blocks.
        forward = config.interblock_forward
        for reg, index in timing.outputs:
            reg_ready[reg] = done_at[index] + forward

        # Next-block prediction decides where fetch resumes.
        is_return = fired.op is Opcode.RET
        target = fired.target if not is_return else None
        correct = self.predictor.predict_and_update(
            func_name, block_name, target, is_return
        )
        if correct:
            self._next_fetch = fetch + config.fetch_gap
        else:
            stats.mispredictions += 1
            stats.flushes += 1
            self._next_fetch = (
                done_at[timing.fired_slot[fired.uid]] + config.mispredict_penalty
            )

        # Retire issue slots no later block can use: fetch never moves
        # backwards, and no instruction issues before its block is mapped.
        floor = self._next_fetch + config.map_latency
        for t in range(self._issue_floor, floor):
            issued.pop(t, None)
        self._issue_floor = floor


def simulate_cycles(
    module: Module,
    args: tuple = (),
    preload: Optional[dict[int, list]] = None,
    config: Optional[MachineConfig] = None,
    max_blocks: int = 5_000_000,
    trace: Optional[Callable] = None,
) -> TimingStats:
    """Convenience wrapper: timing-simulate ``main(*args)``; ``trace`` is
    an extra :class:`Interpreter` hook, called after the model's own."""
    sim = TimingSimulator(module, config=config)
    return sim.run(
        args=args, preload=preload, max_blocks=max_blocks, trace=trace
    )
