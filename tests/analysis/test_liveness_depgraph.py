"""Tests for liveness analysis and intra-block dependence graphs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Liveness, dep_preds, dependence_height
from repro.ir import BasicBlock, FunctionBuilder, Instruction, Opcode, Predicate
from repro.ir.opcodes import OP_INFO
from repro.ir.regmask import has
from tests.conftest import make_counting_loop, make_diamond, reference_dependence_height


def test_loop_carried_registers_live_around_loop():
    func = make_counting_loop()
    live = Liveness(func)
    # The counter and accumulator (written in entry, used in head/body).
    entry = func.block("entry")
    i_reg = entry.instrs[0].dest
    sum_reg = entry.instrs[1].dest
    assert has(live.live_in["head"], i_reg)
    assert has(live.live_in["head"], sum_reg)
    assert has(live.live_out["body"], i_reg)


def test_dead_after_last_use():
    func = make_diamond()
    live = Liveness(func)
    # Params v0, v1 are not live out of the join block D.
    assert not has(live.live_out["D"], 0)
    assert not has(live.live_out["D"], 1)


def test_predicated_write_does_not_kill_liveness():
    fb = FunctionBuilder("f", nparams=2)
    fb.block("entry")
    p = fb.tlt(0, 1)
    result = fb.func.new_reg()
    fb.movi_to(result, 1, pred=Predicate(p, True))
    fb.br("next")
    fb.block("next")
    fb.ret(result)
    func = fb.finish()
    live = Liveness(func)
    # result may flow through entry unwritten (pred false), so it is
    # live-in at entry even though entry "writes" it.
    assert has(live.live_in["entry"], result)


def test_unpredicated_write_kills():
    fb = FunctionBuilder("f", nparams=1)
    fb.block("entry")
    r = fb.func.new_reg()
    fb.movi_to(r, 1)
    fb.br("next")
    fb.block("next")
    fb.ret(r)
    live = Liveness(fb.finish())
    assert not has(live.live_in["entry"], r)
    assert has(live.live_in["next"], r)


def test_live_through():
    fb = FunctionBuilder("f", nparams=2)
    fb.block("entry")
    fb.movi(0)
    fb.br("next")
    fb.block("next")
    fb.ret(fb.add(0, 1))
    live = Liveness(fb.finish())
    assert has(live.live_through("entry"), 0)
    assert has(live.live_through("entry"), 1)


def _block(*instrs):
    blk = BasicBlock("b")
    for i in instrs:
        blk.append(i)
    return blk


def test_dep_preds_register_chain():
    blk = _block(
        Instruction(Opcode.MOVI, dest=1, imm=2),
        Instruction(Opcode.ADD, dest=2, srcs=(1, 1)),
        Instruction(Opcode.MUL, dest=3, srcs=(2, 1)),
        Instruction(Opcode.RET, srcs=(3,)),
    )
    preds = dep_preds(blk)
    assert preds[0] == ()
    assert preds[1] == (0,)
    assert preds[2] == (0, 1)
    assert preds[3] == (2,)


def test_dep_preds_predicated_writers_accumulate():
    blk = _block(
        Instruction(Opcode.MOVI, dest=1, imm=0),
        Instruction(Opcode.MOVI, dest=1, imm=5, pred=Predicate(9)),
        Instruction(Opcode.ADD, dest=2, srcs=(1, 1)),
        Instruction(Opcode.RET, srcs=(2,)),
    )
    preds = dep_preds(blk)
    # The ADD may see either writer of v1.
    assert preds[2] == (0, 1)


def test_dep_preds_unpredicated_write_kills_earlier():
    blk = _block(
        Instruction(Opcode.MOVI, dest=1, imm=0),
        Instruction(Opcode.MOVI, dest=1, imm=5),
        Instruction(Opcode.ADD, dest=2, srcs=(1, 1)),
        Instruction(Opcode.RET, srcs=(2,)),
    )
    assert dep_preds(blk)[2] == (1,)


def test_dep_preds_predicate_is_an_input():
    blk = _block(
        Instruction(Opcode.TLT, dest=5, srcs=(0, 1)),
        Instruction(Opcode.MOVI, dest=2, imm=1, pred=Predicate(5)),
        Instruction(Opcode.RET, srcs=(2,)),
    )
    assert dep_preds(blk)[1] == (0,)


def test_stores_serialize_loads_do_not():
    blk = _block(
        Instruction(Opcode.STORE, srcs=(0, 1)),
        Instruction(Opcode.LOAD, dest=2, srcs=(0,)),
        Instruction(Opcode.STORE, srcs=(0, 2)),
        Instruction(Opcode.RET),
    )
    preds = dep_preds(blk)
    assert preds[1] == ()  # speculative load does not wait on the store
    assert 0 in preds[2]  # store-store ordering kept


def test_dependence_height_uses_latency():
    blk = _block(
        Instruction(Opcode.MOVI, dest=1, imm=2),  # 1 cycle
        Instruction(Opcode.MUL, dest=2, srcs=(1, 1)),  # 3 cycles
        Instruction(Opcode.ADD, dest=3, srcs=(2, 2)),  # 1 cycle
        Instruction(Opcode.RET, srcs=(3,)),
    )
    assert dependence_height(blk) == 1 + 3 + 1 + 1


def test_independent_ops_do_not_add_height():
    blk = _block(
        Instruction(Opcode.MOVI, dest=1, imm=2),
        Instruction(Opcode.MOVI, dest=2, imm=3),
        Instruction(Opcode.MOVI, dest=3, imm=4),
        Instruction(Opcode.BR, target="b"),
    )
    assert dependence_height(blk) == 1


#: Few registers, so writes to one register often overlap: predicated
#: writers accumulate, unpredicated ones kill them, and test results feed
#: predicates.  Latencies range from 1 (ALU) to 18 (DIV).
_REGS = st.integers(min_value=0, max_value=4)
_OPS = (
    Opcode.ADD, Opcode.MUL, Opcode.DIV, Opcode.MOV, Opcode.MOVI,
    Opcode.TLT, Opcode.LOAD, Opcode.STORE,
)


@st.composite
def _instructions(draw):
    op = draw(st.sampled_from(_OPS))
    info = OP_INFO[op]
    return Instruction(
        op,
        dest=draw(_REGS) if info.has_dest else None,
        srcs=tuple(draw(_REGS) for _ in range(info.nsrcs)),
        imm=0 if op is Opcode.MOVI else None,
        pred=draw(st.none() | st.builds(Predicate, _REGS, st.booleans())),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(_instructions(), max_size=24))
def test_dependence_height_matches_dep_preds_reference(instrs):
    blk = _block(*instrs)
    assert dependence_height(blk) == reference_dependence_height(blk)


def test_dependence_height_predicated_write_keeps_earlier_writer():
    blk = _block(
        Instruction(Opcode.DIV, dest=1, srcs=(0, 0)),  # done at 18
        Instruction(Opcode.MOVI, dest=1, imm=5, pred=Predicate(2)),  # done at 1
        Instruction(Opcode.ADD, dest=3, srcs=(1, 1)),
    )
    # The ADD may read the DIV's value, so it waits for it.
    assert dependence_height(blk) == 18 + 1 == reference_dependence_height(blk)
