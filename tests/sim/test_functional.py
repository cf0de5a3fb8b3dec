"""Tests for the functional simulator."""

import pytest

from repro.ir import FunctionBuilder, Instruction, Opcode, Predicate, build_module
from repro.sim import Interpreter, SimulationError, run_module
from tests.conftest import make_counting_loop, make_diamond, make_while_loop


def test_counting_loop_result(counting_loop_module):
    result, stats, _ = run_module(counting_loop_module)
    assert result == sum(range(10))
    # entry + 11 head + 10 body + exit
    assert stats.blocks_executed == 1 + 11 + 10 + 1


def test_diamond_takes_correct_paths(diamond_module):
    result, _, _ = run_module(diamond_module, args=(3, 5))
    assert result == 3 * 2 + 1  # a < b -> B path
    result, _, _ = run_module(diamond_module, args=(9, 5))
    assert result == 5 * 3 + 1  # else -> C path


def test_collatz_kernel(collatz_module):
    def collatz_steps(n):
        count = 0
        while n > 1:
            n = 3 * n + 1 if n % 2 else n // 2
            count += 1
        return count

    for n in (1, 2, 7, 27):
        result, _, _ = run_module(collatz_module, args=(n,))
        assert result == collatz_steps(n)


def test_edge_counts_match_loop_structure(counting_loop_module):
    _, stats, _ = run_module(counting_loop_module)
    assert stats.edge_counts[("main", "head", "body")] == 10
    assert stats.edge_counts[("main", "head", "exit")] == 1
    assert stats.edge_counts[("main", "body", "head")] == 10
    # RET edge has target None.
    assert stats.edge_counts[("main", "exit", None)] == 1


def test_predicated_instruction_skipped():
    fb = FunctionBuilder("main", nparams=1)
    fb.block("entry")
    taken = fb.tlt(0, fb.movi(5))
    val = fb.movi(100)
    fb.movi_to(val, 200, pred=Predicate(taken, True))
    fb.ret(val)
    mod = build_module(fb.finish())
    assert run_module(mod, args=(3,))[0] == 200
    assert run_module(mod, args=(9,))[0] == 100


def test_nullified_instructions_counted():
    fb = FunctionBuilder("main", nparams=1)
    fb.block("entry")
    p = fb.tlt(0, fb.movi(5))
    fb.movi(1, pred=Predicate(p, True))
    fb.movi(2, pred=Predicate(p, False))
    fb.ret(0)
    mod = build_module(fb.finish())
    _, stats, _ = run_module(mod, args=(1,))
    assert stats.instrs_nullified == 1



def _nullified_call_module():
    """``main`` nullifies one instruction on each side of a call to a
    three-trip counting loop, then branches to a one-instruction tail."""
    fb = FunctionBuilder("main", nparams=1)
    fb.block("entry")
    p = fb.tlt(0, fb.movi(5))  # true for the argument 1
    fb.movi(1, pred=Predicate(p, True))
    fb.movi(2, pred=Predicate(p, False))  # nullified before the call
    result = fb.call("loop")
    fb.movi(3, pred=Predicate(p, False))  # nullified after the call
    fb.br("tail")
    fb.block("tail")
    fb.ret(result)
    return build_module(fb.finish(), make_counting_loop(bound=3, name="loop"))


# Instruction events (executed + nullified) counted when each dynamic block
# starts: main/entry, loop/entry (main's events up to and including the
# call), four loop/head (3 instructions, 1 nullified) interleaved with three
# loop/body (6), loop/exit, and main/tail after the rest of main/entry.
_BLOCK_START_EVENTS = [0, 5, 9, 12, 18, 21, 27, 30, 36, 39, 42]


def test_instruction_counts_across_a_call():
    result, stats, _ = run_module(_nullified_call_module(), args=(1,))
    assert result == 3
    assert stats.blocks_executed == len(_BLOCK_START_EVENTS)
    # main: 5 executed + 2 nullified in entry, 1 in tail; loop: 4 + 4*2 +
    # 3*6 + 1 executed, 4 nullified (one BR per head execution).
    assert stats.instrs_executed == 6 + 31
    assert stats.instrs_nullified == 2 + 4


@pytest.mark.parametrize("budget", range(44))
def test_step_limit_raises_at_the_same_block_start(budget):
    """The step check runs at block start, and a call flushes its block's
    counts first, so the callee's blocks see the caller's events."""
    interp = Interpreter(_nullified_call_module(), max_steps=budget)
    over = [k for k, events in enumerate(_BLOCK_START_EVENTS, 1)
            if events > budget]
    if over:
        with pytest.raises(SimulationError, match="step limit"):
            interp.run("main", (1,))
        assert interp.stats.blocks_executed == over[0]
    else:
        assert interp.run("main", (1,)) == 3

def test_memory_load_store():
    fb = FunctionBuilder("main", nparams=1)
    fb.block("entry")
    value = fb.load(0, offset=2)
    doubled = fb.add(value, value)
    fb.store(0, doubled, offset=3)
    fb.ret(doubled)
    mod = build_module(fb.finish())
    interp = Interpreter(mod)
    interp.preload(100, [0, 0, 21])
    assert interp.run("main", (100,)) == 42
    assert interp.memory[103] == 42
    assert interp.stats.loads == 1 and interp.stats.stores == 1


def test_call_and_return():
    callee = FunctionBuilder("square", nparams=1)
    callee.block("entry")
    callee.ret(callee.mul(0, 0))
    caller = FunctionBuilder("main", nparams=1)
    caller.block("entry")
    caller.ret(caller.call("square", 0))
    mod = build_module(caller.finish(), callee.finish())
    result, stats, _ = run_module(mod, args=(7,))
    assert result == 49
    assert stats.calls == 1


def test_predicated_call_skipped():
    callee = FunctionBuilder("boom", nparams=0)
    callee.block("entry")
    callee.store(callee.movi(0), callee.movi(1))
    callee.ret()
    caller = FunctionBuilder("main", nparams=1)
    caller.block("entry")
    p = caller.tlt(0, caller.movi(0))  # false for positive args
    caller.call("boom", pred=Predicate(p, True))
    caller.ret(caller.movi(5))
    mod = build_module(caller.finish(), callee.finish())
    result, stats, memory = run_module(mod, args=(1,))
    assert result == 5
    assert stats.calls == 0
    assert memory == {}


def test_no_branch_fired_is_an_error():
    fb = FunctionBuilder("main", nparams=0)
    fb.block("entry")
    c = fb.movi(0)
    fb.br("entry", pred=Predicate(c, True))  # never fires
    mod = build_module(fb.finish())
    with pytest.raises(SimulationError, match="no branch fired"):
        run_module(mod)


def test_multiple_branches_fired_is_an_error():
    fb = FunctionBuilder("main", nparams=0)
    fb.block("entry")
    c = fb.movi(1)
    fb.br("entry", pred=Predicate(c, True))
    fb.current.append(Instruction(Opcode.RET, pred=Predicate(c, True)))
    mod = build_module(fb.finish())
    with pytest.raises(SimulationError, match="multiple branches"):
        run_module(mod)


def test_infinite_loop_hits_block_limit():
    fb = FunctionBuilder("main", nparams=0)
    fb.block("entry")
    fb.br("entry")
    mod = build_module(fb.finish())
    with pytest.raises(SimulationError, match="block limit"):
        run_module(mod, max_blocks=100)


def test_division_semantics_truncate_toward_zero():
    fb = FunctionBuilder("main", nparams=2)
    fb.block("entry")
    fb.ret(fb.div(0, 1))
    mod = build_module(fb.finish())
    assert run_module(mod, args=(7, 2))[0] == 3
    assert run_module(mod, args=(-7, 2))[0] == -3
    assert run_module(mod, args=(7, -2))[0] == -3


def test_trace_callback_sees_every_block(counting_loop_module):
    events = []
    interp = Interpreter(
        counting_loop_module,
        trace=lambda f, b, fired, depth, nullified: events.append(
            (f, b, fired.op)
        ),
    )
    interp.run("main", ())
    assert len(events) == interp.stats.blocks_executed
    assert events[0][1] == "entry"
    assert events[-1] == ("main", "exit", Opcode.RET)


def test_not_is_logical():
    fb = FunctionBuilder("main", nparams=1)
    fb.block("entry")
    fb.ret(fb.op(Opcode.NOT, 0))
    mod = build_module(fb.finish())
    assert run_module(mod, args=(0,))[0] == 1
    assert run_module(mod, args=(5,))[0] == 0
