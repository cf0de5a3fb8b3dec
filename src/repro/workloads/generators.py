"""Random structured-program generation for stress testing.

Generates terminating programs with nested control flow (if/else chains,
while loops with bounded counters, array loads/stores) directly as IR.
Used by the property-based tests: any transform in the repository must
preserve the observable behaviour (return value + final memory) of every
generated program.
"""

from __future__ import annotations

import random
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Module
from repro.ir.opcodes import Opcode

#: Small memory region the generated programs may address.
MEMORY_BASE = 1000
MEMORY_SIZE = 16

#: Mask applied to every product in a :func:`random_program`.  A loop that
#: squares a loop-carried variable doubles the value's bit length on each
#: iteration; the mask keeps every product below 2**16.
PRODUCT_MASK = 0xFFFF


class _Gen:
    """One random-program construction (single function)."""

    def __init__(
        self,
        rng: random.Random,
        max_depth: int = 3,
        max_stmts: int = 5,
        mask_products: bool = False,
    ):
        self.rng = rng
        self.max_depth = max_depth
        self.max_stmts = max_stmts
        self.mask_products = mask_products
        self.fb = FunctionBuilder("main", nparams=2)
        self.vars: list[int] = []
        self._block_counter = 0

    # -- helpers ------------------------------------------------------------

    def _new_block(self, base: str) -> str:
        self._block_counter += 1
        return f"{base}{self._block_counter}"

    def _rand_var(self) -> int:
        return self.rng.choice(self.vars)

    def _rand_value(self) -> int:
        fb = self.fb
        roll = self.rng.random()
        if roll < 0.5:
            return self._rand_var()
        if roll < 0.9:
            return fb.movi(self.rng.randint(-8, 8))
        # A load from the scratch region.
        addr = fb.movi(MEMORY_BASE + self.rng.randrange(MEMORY_SIZE))
        return fb.load(addr)

    # -- statements ---------------------------------------------------------

    def _emit_assign(self) -> None:
        fb = self.fb
        op = self.rng.choice(
            [Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR,
             Opcode.XOR, Opcode.TLT, Opcode.TEQ, Opcode.TGE]
        )
        a, b = self._rand_value(), self._rand_value()
        result = fb.op(op, a, b)
        if op is Opcode.MUL and self.mask_products:
            result = fb.op(Opcode.AND, result, fb.movi(PRODUCT_MASK))
        fb.mov_to(self._rand_var(), result)

    def _emit_store(self) -> None:
        fb = self.fb
        addr = fb.movi(MEMORY_BASE + self.rng.randrange(MEMORY_SIZE))
        fb.store(addr, self._rand_var())

    def _emit_if(self, depth: int) -> None:
        fb = self.fb
        cond = fb.op(
            self.rng.choice([Opcode.TLT, Opcode.TEQ, Opcode.TNE, Opcode.TGE]),
            self._rand_var(),
            self._rand_value(),
        )
        then_name = self._new_block("then")
        else_name = self._new_block("else")
        join_name = self._new_block("join")
        fb.br_cond(cond, then_name, else_name)
        fb.block(then_name)
        self._emit_stmts(depth + 1)
        fb.br(join_name)
        fb.block(else_name)
        if self.rng.random() < 0.7:
            self._emit_stmts(depth + 1)
        fb.br(join_name)
        fb.block(join_name)

    def _emit_while(self, depth: int) -> None:
        fb = self.fb
        counter = fb.movi(0)
        self.fb.func.note_reg(counter)
        bound = fb.movi(self.rng.randint(0, 5))
        head_name = self._new_block("head")
        body_name = self._new_block("body")
        exit_name = self._new_block("exit")
        fb.br(head_name)
        fb.block(head_name)
        cond = fb.tlt(counter, bound)
        fb.br_cond(cond, body_name, exit_name)
        fb.block(body_name)
        self._emit_stmts(depth + 1)
        fb.mov_to(counter, fb.add(counter, fb.movi(1)))
        fb.br(head_name)
        fb.block(exit_name)

    def _emit_stmt(self, depth: int) -> None:
        roll = self.rng.random()
        if depth < self.max_depth and roll < 0.25:
            self._emit_if(depth)
        elif depth < self.max_depth and roll < 0.40:
            self._emit_while(depth)
        elif roll < 0.55:
            self._emit_store()
        else:
            self._emit_assign()

    def _emit_stmts(self, depth: int) -> None:
        for _ in range(self.rng.randint(1, self.max_stmts)):
            self._emit_stmt(depth)

    # -- top level ------------------------------------------------------------

    def _prologue(self, nvars: int) -> None:
        fb = self.fb
        fb.block("entry", entry=True)
        self.vars = [0, 1]  # the two parameters
        for _ in range(nvars):
            self.vars.append(fb.movi(self.rng.randint(-4, 4)))

    def _epilogue(self) -> None:
        # Checksum: fold all variables together so everything is live.
        fb = self.fb
        acc = fb.movi(0)
        for var in self.vars:
            acc = fb.add(acc, var)
            acc = fb.op(Opcode.XOR, acc, fb.mul(var, fb.movi(3)))
        fb.ret(acc)

    def build(self, nvars: int = 4) -> Module:
        self._prologue(nvars)
        self._emit_stmts(0)
        self._epilogue()
        module = Module("random")
        module.add_function(self.fb.finish())
        return module

    def build_sized(self, target_instrs: int, nvars: int = 6) -> Module:
        """Grow the function until it holds roughly ``target_instrs``."""
        self._prologue(nvars)
        blocks = self.fb.func.blocks
        size = 0
        while size < target_instrs:
            self._emit_stmt(0)
            size = sum(len(b.instrs) for b in blocks.values())
        self._epilogue()
        module = Module("scaled")
        module.add_function(self.fb.finish())
        return module


def random_program(seed: int, max_depth: int = 3, nvars: int = 4) -> Module:
    """A random, terminating, single-function program."""
    rng = random.Random(seed)
    return _Gen(rng, max_depth=max_depth, mask_products=True).build(nvars=nvars)


#: Mean function size (instructions) across the SPEC workload suite; the
#: scaling tiers in :mod:`repro.harness.bench` are multiples of this.
SPEC_MEAN_INSTRS = 44


def scaled_program(target_instrs: int, seed: int) -> Module:
    """A deterministic synthetic program of roughly ``target_instrs``.

    Same statement mix as :func:`random_program` (if/else chains, bounded
    while loops, scratch-memory loads/stores) but grown to a size target,
    so formation cost can be measured as a function of function size.
    Programs terminate, so they can be profiled like any SPEC workload.
    """
    rng = random.Random(seed)
    return _Gen(rng, max_depth=3, max_stmts=6).build_sized(target_instrs)


def random_inputs(seed: int) -> tuple[int, int]:
    rng = random.Random(seed ^ 0x5EED)
    return (rng.randint(-10, 10), rng.randint(-10, 10))
