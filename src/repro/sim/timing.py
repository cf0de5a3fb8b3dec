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
A block that repeats an earlier execution's nullified set and live-in
arrival offsets reuses that execution's schedule when it still fits the
issue slots, at a cost of O(issue cycles + outputs) instead of
O(instructions).

The model is a trace hook on the functional interpreter, so a timing run
is also the functional run: :class:`TimingStats` carries the program's
result, memory and :class:`SimStats`, and an extra ``trace`` hook can ride
along on the same run (see ``docs/TIMING_MODEL.md``).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import repeat
from operator import add
from typing import Callable, Optional

from repro.ir.function import Module
from repro.ir.opcodes import Opcode
from repro.sim.functional import Interpreter, SimStats
from repro.sim.machine import TRIPS_MACHINE, MachineConfig
from repro.sim.predictor import NextBlockPredictor

#: Most block schedules one run keeps for reuse.
_MEMO_CAP = 1 << 14
#: Cycles the issue-count list grows by when an issue runs past its end.
_ISSUE_CHUNK = 64


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

    __slots__ = ("instrs", "livein", "outputs", "out_regs", "fired_slot",
                 "size", "fetch_cycles")

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
        self.out_regs = tuple(writer)
        self.fired_slot = {
            instr.uid: i for i, instr in enumerate(instrs)
            if instr.op is Opcode.BR or instr.op is Opcode.RET
        }
        self.fetch_cycles = config.block_fetch_cycles(size)

    def memo_entry(self, done_at: list, map_done: int, skip, block_done: int):
        """Memo entry of a contention-free schedule, relative to ``map_done``:
        the cycles instructions issue in and how many issue in each, block
        done, output done times (in ``out_regs`` order) and branch done
        times by uid."""
        cycles, counts = zip(*sorted(Counter([
            done_at[index] - latency - map_done
            for index, latency, _, _ in self.instrs if index not in skip
        ]).items()))
        return (
            cycles,
            counts,
            block_done - map_done,
            tuple([done_at[index] - map_done for _, index in self.outputs]),
            {uid: done_at[i] - map_done for uid, i in self.fired_slot.items()},
        )


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
        # Instructions issued per cycle, from cycle ``_issue_floor`` on.
        self._issued: list[int] = []
        self._issue_floor = 0
        # Reusable block schedules of this run (see ``_on_block``).
        self._memo: dict[tuple, tuple] = {}
        self._next_fetch = 0
        # Commit times of the last ``window_blocks`` blocks.
        self._commit_times = deque(maxlen=self.config.window_blocks)
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
        stats.blocks = interp.stats.blocks_executed
        stats.instructions = interp.stats.instrs_executed
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
        key = (func_name, block_name)
        timing = self._block_cache.get(key)
        if timing is None:
            block = self.module.function(func_name).blocks[block_name]
            timing = self._block_cache[key] = _BlockTiming(block, config)

        # Fetch: pipelined behind the previous block, limited by the window.
        fetch = self._next_fetch
        commits = self._commit_times
        if len(commits) == config.window_blocks and commits[0] > fetch:
            fetch = commits[0]
        map_done = fetch + config.map_latency + timing.fetch_cycles

        # Schedule reuse.  Relative to ``map_done`` a block's schedule
        # depends only on the block, its nullified set and when its live-ins
        # arrive, clamped at ``map_done`` because nothing issues earlier.  A
        # memoized schedule was one no instruction was bumped in; it applies
        # unchanged whenever its issue histogram fits the current occupancy.
        reg_ready = self._reg_ready.get(func_name)
        if reg_ready is None:
            reg_ready = self._reg_ready[func_name] = {}
        offsets = tuple([
            t - map_done if t > map_done else 0
            for t in map(reg_ready.get, timing.livein, repeat(0))
        ])
        memo_key = (timing, nullified, offsets)
        entry = self._memo.get(memo_key)
        if entry is not None:
            cycles, counts, block_rel, out_rel, fired_rel = entry
            issued = self._issued
            base = map_done - self._issue_floor
            top = base + cycles[-1]
            if top >= len(issued):
                issued.extend([0] * (top + _ISSUE_CHUNK - len(issued)))
            width = config.issue_width
            for cycle, count in zip(cycles, counts):
                count += issued[base + cycle]
                if count > width:
                    # It would bump an instruction: take back the cycles
                    # already added and schedule in full.
                    for added, count in zip(cycles, counts):
                        if added == cycle:
                            break
                        issued[base + added] -= count
                    entry = None
                    break
                issued[base + cycle] = count
            else:
                reg_ready.update(zip(timing.out_regs, map(
                    add, out_rel, repeat(map_done + config.interblock_forward)
                )))
        if entry is None:
            block_rel, fired_rel = self._list_schedule(
                timing, nullified, map_done, offsets, reg_ready, memo_key
            )

        # Commit: in order, all outputs produced.
        commit = max(map_done + block_rel, self._last_commit)
        commit += config.commit_overhead
        self._last_commit = commit
        commits.append(commit)

        # Next-block prediction decides where fetch resumes.
        is_return = fired.op is Opcode.RET
        target = fired.target if not is_return else None
        correct = self.predictor.predict_and_update(
            func_name, block_name, target, is_return
        )
        if correct:
            self._next_fetch = fetch + config.fetch_gap
        else:
            self.stats.mispredictions += 1
            self.stats.flushes += 1
            self._next_fetch = (
                map_done + fired_rel[fired.uid] + config.mispredict_penalty
            )

        # Retire issue slots no later block can use: fetch never moves
        # backwards, and no instruction issues before its block is mapped.
        floor = self._next_fetch + config.map_latency
        del self._issued[: floor - self._issue_floor]
        self._issue_floor = floor

    def _list_schedule(
        self, timing, nullified, map_done, offsets, reg_ready, memo_key
    ):
        """Greedy dataflow list schedule of one block execution.  Issues its
        instructions, forwards its outputs and memoizes the schedule if no
        instruction was bumped; returns block done and the branches' done
        times, relative to ``map_done``."""
        # A nullified instruction (predicate evaluated false) does not
        # execute: it resolves as a null token one cycle after its predicate
        # arrives, without taking an issue slot — this is why a long
        # dependence chain on a falsely-predicated path does not delay block
        # commit on an EDGE machine (paper, Section 5).
        config = self.config
        issued = self._issued
        floor = self._issue_floor
        width = config.issue_width
        # Live-ins arrive at their clamped times, so every slot an operand
        # reads holds a cycle >= map_done.
        done_at = [0] * timing.size
        done_at += [map_done + offset for offset in offsets]
        block_done = map_done
        skip = set(nullified) if nullified else ()
        bumped = False
        for index, latency, operands, pred in timing.instrs:
            if index in skip:
                done = done_at[pred] + 1
            else:
                ready = map_done
                for slot in operands:
                    t = done_at[slot]
                    if t > ready:
                        ready = t
                # Earliest cycle >= ready with a free issue slot.
                cycle = ready - floor
                try:
                    taken = issued[cycle]
                except IndexError:
                    issued.extend([0] * (cycle + _ISSUE_CHUNK - len(issued)))
                    taken = 0
                while taken >= width:
                    bumped = True
                    cycle += 1
                    if cycle == len(issued):
                        issued.extend([0] * _ISSUE_CHUNK)
                    taken = issued[cycle]
                issued[cycle] = taken + 1
                done = cycle + floor + latency
            done_at[index] = done
            if done > block_done:
                block_done = done

        # Forward register outputs to later blocks.
        forward = config.interblock_forward
        for reg, index in timing.outputs:
            reg_ready[reg] = done_at[index] + forward
        if not bumped and len(self._memo) < _MEMO_CAP:
            entry = self._memo[memo_key] = timing.memo_entry(
                done_at, map_done, skip, block_done
            )
            return entry[2], entry[4]
        return block_done - map_done, {
            uid: done_at[index] - map_done
            for uid, index in timing.fired_slot.items()
        }


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
