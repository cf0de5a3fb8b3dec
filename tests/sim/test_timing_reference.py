"""The timing model against a reference copy of its per-instruction scheduler.

``TimingSimulator`` reuses a block's schedule when the same block runs
again with the same nullified set and live-in arrival offsets, and falls
back to the full list schedule when reuse would overfill an issue cycle.
``ReferenceSimulator`` below is the model without reuse: every dynamic block
is list-scheduled instruction by instruction against a dict of issue counts.
Both must give the same counts on every program and machine configuration,
including a one-wide machine on which the fallback runs.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.convergent import form_module
from repro.ir.opcodes import Opcode
from repro.profiles import collect_profile
from repro.sim.machine import MachineConfig
from repro.sim.timing import TimingSimulator, _BlockTiming
from repro.workloads.generators import random_inputs, scaled_program

FIELDS = ("cycles", "blocks", "instructions", "mispredictions")

CONFIGS = {
    f"w{width}-win{window}-load{load}": MachineConfig(
        issue_width=width, window_blocks=window, load_extra=load
    )
    for width, window, load in itertools.product((1, 2, 16), (1, 8), (0, 2))
}

PROGRAMS = ((132, 6), (264, 1), (440, 0))


class ReferenceSimulator(TimingSimulator):
    """The timing model with every block list-scheduled in full."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._slots: dict[int, int] = {}
        self._commits: list[int] = []

    def _on_block(self, func_name, block_name, fired, depth, nullified=()):
        config = self.config
        stats = self.stats
        stats.blocks += 1
        key = (func_name, block_name)
        timing = self._block_cache.get(key)
        if timing is None:
            block = self.module.function(func_name).blocks[block_name]
            timing = self._block_cache[key] = _BlockTiming(block, config)

        fetch = self._next_fetch
        window = config.window_blocks
        if len(self._commits) >= window:
            fetch = max(fetch, self._commits[-window])
        map_done = fetch + config.map_latency + timing.fetch_cycles

        reg_ready = self._reg_ready.setdefault(func_name, {})
        get = reg_ready.get
        done_at = [0] * timing.size
        done_at += [get(reg, 0) for reg in timing.livein]
        block_done = map_done
        issued = self._slots
        width = config.issue_width
        skip = set(nullified)
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

        commit = max(block_done, self._last_commit) + config.commit_overhead
        self._last_commit = commit
        self._commits.append(commit)
        if len(self._commits) > config.window_blocks + 1:
            del self._commits[: -config.window_blocks - 1]

        forward = config.interblock_forward
        for reg, index in timing.outputs:
            reg_ready[reg] = done_at[index] + forward

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

        floor = self._next_fetch + config.map_latency
        for t in range(self._issue_floor, floor):
            issued.pop(t, None)
        self._issue_floor = floor


def _programs():
    for size, seed in PROGRAMS:
        module = scaled_program(size, seed)
        args = random_inputs(seed)
        formed = module.copy()
        form_module(formed, profile=collect_profile(module.copy(), args=args))
        yield f"scaled{size}", module, args
        yield f"scaled{size}_bf", formed, args


PROGRAM_LIST = list(_programs())


def _run(module, args, config):
    """Stats of the timing model, the number of blocks whose schedule was
    reused, and the number that fell back because reuse did not fit."""
    sim = TimingSimulator(module, config=config)
    full = fallbacks = 0
    list_schedule = sim._list_schedule

    def spy(timing, nullified, map_done, offsets, reg_ready, memo_key):
        nonlocal full, fallbacks
        full += 1
        # A key already memoized means its schedule did not fit.
        fallbacks += memo_key in sim._memo
        return list_schedule(
            timing, nullified, map_done, offsets, reg_ready, memo_key
        )

    sim._list_schedule = spy
    stats = sim.run(args=args)
    return stats, stats.blocks - full, fallbacks


@pytest.fixture(scope="module")
def runs():
    return {
        (name, config_name): _run(module, args, config)
        for name, module, args in PROGRAM_LIST
        for config_name, config in CONFIGS.items()
    }


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize(
    "program", PROGRAM_LIST, ids=[name for name, _, _ in PROGRAM_LIST]
)
def test_schedule_reuse_matches_reference(runs, program, config_name):
    name, module, args = program
    reference = ReferenceSimulator(module, config=CONFIGS[config_name]).run(
        args=args
    )
    stats, _, _ = runs[name, config_name]
    assert [getattr(stats, f) for f in FIELDS] == [
        getattr(reference, f) for f in FIELDS
    ]
    assert stats.result == reference.result


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_both_paths_run(runs, config_name):
    """Every configuration reuses schedules.  A one-wide machine with
    blocks in flight together overfills issue cycles, so the fallback runs
    there; with one block in flight the slots a block finds are free."""
    config = CONFIGS[config_name]
    reused = sum(runs[name, config_name][1] for name, _, _ in PROGRAM_LIST)
    fallbacks = sum(runs[name, config_name][2] for name, _, _ in PROGRAM_LIST)
    assert reused > 0
    if config.issue_width == 1 and config.window_blocks > 1:
        assert fallbacks > 0
