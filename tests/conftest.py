"""Shared fixtures and CFG factories used across the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.analysis import dep_preds
from repro.ir import BasicBlock, FunctionBuilder, Function, Module, Opcode, build_module


#: The CI ``fuzz`` job's profile (``--hypothesis-profile=cfg-fuzz``): ten
#: times hypothesis' default budget of 100 examples per property.
settings.register_profile("cfg-fuzz", max_examples=1000)


def reference_dependence_height(block: BasicBlock) -> int:
    """Longest completion time over the explicit ``dep_preds`` edges: each
    instruction completes its latency after its deepest predecessor.  The
    reference that ``dependence_height``'s one-pass version must match."""
    preds = dep_preds(block)
    depths: list[int] = []
    for i, instr in enumerate(block.instrs):
        start = max((depths[p] for p in preds[i]), default=0)
        depths.append(start + instr.latency)
    return max(depths, default=0)


def make_counting_loop(bound: int = 10, name: str = "main") -> Function:
    """``for (i = 0; i < bound; i++) sum += i; return sum`` as a CFG.

    Blocks: entry -> head -> body -> head, head -> exit.
    Registers: the loop counter and accumulator live in fixed registers so
    the loop body writes back via ``mov_to``.
    """
    fb = FunctionBuilder(name)
    fb.block("entry", entry=True)
    i_reg = fb.movi(0)
    sum_reg = fb.movi(0)
    bound_reg = fb.movi(bound)
    fb.br("head")

    fb.block("head")
    cond = fb.tlt(i_reg, bound_reg)
    fb.br_cond(cond, "body", "exit")

    fb.block("body")
    new_sum = fb.add(sum_reg, i_reg)
    fb.mov_to(sum_reg, new_sum)
    one = fb.movi(1)
    new_i = fb.add(i_reg, one)
    fb.mov_to(i_reg, new_i)
    fb.br("head")

    fb.block("exit")
    fb.ret(sum_reg)
    return fb.finish()


def make_diamond(name: str = "main") -> Function:
    """``return (a < b) ? a*2 : b*3`` over params v0, v1 (Figure 2 shape)."""
    fb = FunctionBuilder(name, nparams=2)
    fb.block("A", entry=True)
    cond = fb.tlt(0, 1)
    fb.br_cond(cond, "B", "C")

    result = fb.func.new_reg()

    fb.block("B")
    two = fb.movi(2)
    fb.mov_to(result, fb.mul(0, two))
    fb.br("D")

    fb.block("C")
    three = fb.movi(3)
    fb.mov_to(result, fb.mul(1, three))
    fb.br("D")

    fb.block("D")
    one = fb.movi(1)
    fb.ret(fb.add(result, one))
    return fb.finish()


def make_while_loop(name: str = "main") -> Function:
    """A while loop whose trip count depends on the argument (param v0).

    ``while (n > 1) { if (n odd) n = 3n+1 else n = n/2; count++ } ; return count``
    (a Collatz kernel: data-dependent control flow inside the loop).
    """
    fb = FunctionBuilder(name, nparams=1)
    n = 0
    fb.block("entry", entry=True)
    count = fb.movi(0)
    fb.br("head")

    fb.block("head")
    one = fb.movi(1)
    cond = fb.op(Opcode.TGT, n, one)
    fb.br_cond(cond, "body", "exit")

    fb.block("body")
    two = fb.movi(2)
    rem = fb.op(Opcode.MOD, n, two)
    isodd = fb.tne(rem, fb.movi(0))
    fb.br_cond(isodd, "odd", "even")

    fb.block("odd")
    three = fb.movi(3)
    fb.mov_to(n, fb.add(fb.mul(n, three), fb.movi(1)))
    fb.br("latch")

    fb.block("even")
    fb.mov_to(n, fb.div(n, fb.movi(2)))
    fb.br("latch")

    fb.block("latch")
    fb.mov_to(count, fb.add(count, fb.movi(1)))
    fb.br("head")

    fb.block("exit")
    fb.ret(count)
    return fb.finish()


@pytest.fixture
def counting_loop_module() -> Module:
    return build_module(make_counting_loop())


@pytest.fixture
def diamond_module() -> Module:
    return build_module(make_diamond())


@pytest.fixture
def collatz_module() -> Module:
    return build_module(make_while_loop())
