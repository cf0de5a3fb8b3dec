"""Tests for natural-loop detection and the loop forest."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import LoopForest
from repro.ir import BasicBlock, Function, FunctionBuilder, Instruction, Opcode
from tests.conftest import make_counting_loop, make_diamond, make_while_loop


def test_counting_loop_found():
    func = make_counting_loop()
    forest = LoopForest(func)
    assert forest.is_header("head")
    loop = forest.loop_of_header("head")
    assert loop.blocks == {"head", "body"}
    assert loop.back_edges == [("body", "head")]
    assert loop.latches() == ["body"]


def test_diamond_has_no_loops():
    forest = LoopForest(make_diamond())
    assert not forest.loops


def test_while_loop_body_includes_both_arms():
    func = make_while_loop()
    forest = LoopForest(func)
    loop = forest.loop_of_header("head")
    assert loop.blocks == {"head", "body", "odd", "even", "latch"}
    assert forest.loop_depth("odd") == 1
    assert forest.loop_depth("entry") == 0


def test_exits_and_entries():
    func = make_counting_loop()
    forest = LoopForest(func)
    loop = forest.loop_of_header("head")
    cfg = func.cfg()
    assert loop.exits(cfg) == [("head", "exit")]
    assert loop.entry_edges(cfg) == [("entry", "head")]


def test_is_back_edge():
    func = make_counting_loop()
    forest = LoopForest(func)
    assert forest.is_back_edge("body", "head")
    assert not forest.is_back_edge("entry", "head")
    assert not forest.is_back_edge("head", "body")


def make_nested_loops():
    """outer: i loop containing inner: j loop (both rotated while-style)."""
    fb = FunctionBuilder("main")
    fb.block("entry", entry=True)
    i = fb.movi(0)
    total = fb.movi(0)
    fb.br("outer_head")

    fb.block("outer_head")
    c = fb.tlt(i, fb.movi(5))
    fb.br_cond(c, "inner_init", "exit")

    fb.block("inner_init")
    j = fb.movi(0)
    fb.br("inner_head")

    fb.block("inner_head")
    cj = fb.tlt(j, fb.movi(3))
    fb.br_cond(cj, "inner_body", "outer_latch")

    fb.block("inner_body")
    fb.mov_to(total, fb.add(total, j))
    fb.mov_to(j, fb.add(j, fb.movi(1)))
    fb.br("inner_head")

    fb.block("outer_latch")
    fb.mov_to(i, fb.add(i, fb.movi(1)))
    fb.br("outer_head")

    fb.block("exit")
    fb.ret(total)
    return fb.finish()


def test_nested_loop_forest():
    func = make_nested_loops()
    forest = LoopForest(func)
    outer = forest.loop_of_header("outer_head")
    inner = forest.loop_of_header("inner_head")
    assert inner.parent is outer
    assert outer.children == [inner]
    assert outer.depth == 1 and inner.depth == 2
    assert inner.blocks < outer.blocks
    assert forest.innermost_loop("inner_body") is inner
    assert forest.innermost_loop("outer_latch") is outer
    assert forest.top_level_loops() == [outer]
    ordered = forest.all_loops_innermost_first()
    assert ordered[0] is inner


def test_self_loop_detected():
    fb = FunctionBuilder("main")
    fb.block("entry", entry=True)
    i = fb.movi(0)
    fb.br("loop")
    fb.block("loop")
    fb.mov_to(i, fb.add(i, fb.movi(1)))
    c = fb.tlt(i, fb.movi(4))
    fb.br_cond(c, "loop", "exit")
    fb.block("exit")
    fb.ret(i)
    forest = LoopForest(fb.finish())
    loop = forest.loop_of_header("loop")
    assert loop.blocks == {"loop"}
    assert forest.is_back_edge("loop", "loop")


# -- in-place maintenance ---------------------------------------------------


def graph(edges: dict[str, list[str]]) -> Function:
    """A function of branch-only blocks: ``edges`` maps every block (the
    first is the entry) to its successors."""
    func = Function("main")
    for position, (name, succs) in enumerate(edges.items()):
        func.add_block(BasicBlock(name, _branches(succs)), entry=position == 0)
    return func


def _branches(succs: list[str]) -> list[Instruction]:
    if not succs:
        return [Instruction(Opcode.RET)]
    return [Instruction(Opcode.BR, target=target) for target in succs]


def tail_duplicate(func: Function, cfg, hb: str, s: str) -> list[str]:
    """Give ``hb`` the successors of ``s`` in place of ``s`` (the CFG side
    of a tail duplication), in ``func`` and in ``cfg``; returns ``hb``'s
    old successor list."""
    old = list(cfg.succs[hb])
    new = [name for name in old if name != s]
    new += [name for name in cfg.succs[s] if name not in new]
    block = func.blocks[hb]
    block.instrs = _branches(new)
    block.touch()
    cfg.update_block(hb, new)
    return old


def back_edges(forest: LoopForest) -> set[tuple[str, str]]:
    return {edge for loop in forest.loops.values() for edge in loop.back_edges}


def assert_matches_fresh(forest: LoopForest) -> LoopForest:
    """A forest kept across CFG edits equals one built from scratch on
    its function: the same idoms and tree children, a numbering with
    every idom before its child, the same headers and back edges.
    Returns the fresh forest."""
    fresh = LoopForest(forest.func)
    dom, want = forest.domtree, fresh.domtree
    assert dom.idom == want.idom
    assert {k: sorted(v) for k, v in dom.children.items()} == {
        k: sorted(v) for k, v in want.children.items()
    }
    index = dom._index
    assert set(index) == set(dom.idom)
    assert [index[name] for name in dom.rpo] == sorted(index.values())
    for name, parent in dom.idom.items():
        assert parent is None or index[parent] < index[name]
    assert set(forest.loops) == set(fresh.loops)
    assert back_edges(forest) == back_edges(fresh)
    return fresh


#: ``s`` joins two paths and heads a diamond (a, b -> c) that leads into
#: a loop h <-> d.
DIAMOND_UNDER_S = {
    "e": ["hb", "p"], "hb": ["s"], "p": ["s"], "s": ["a", "b"],
    "a": ["c"], "b": ["c"], "c": ["h"], "h": ["d", "x"], "d": ["h"],
    "x": [],
}


def test_tail_duplication_updates_forest_in_place():
    func = graph(DIAMOND_UNDER_S)
    cfg = func.cfg()
    forest = LoopForest(func, cfg)
    assert forest.domtree.idom["c"] == "s"
    old = tail_duplicate(func, cfg, "hb", "s")
    assert forest.tail_duplicated("hb", old)
    # Every block s dominated now also hangs off e; s keeps only p.
    assert forest.domtree.idom["s"] == "p"
    assert forest.domtree.children["s"] == []
    assert_matches_fresh(forest)


def test_tail_duplication_adds_a_back_edge_from_hb():
    # s -> t is a back edge (t dominates both preds of s); once hb takes
    # over s's successors, hb -> t is one too.
    func = graph({
        "e": ["t"], "t": ["hb", "q"], "hb": ["s"], "q": ["s"],
        "s": ["t", "x"], "x": [],
    })
    cfg = func.cfg()
    forest = LoopForest(func, cfg)
    old = tail_duplicate(func, cfg, "hb", "s")
    assert forest.tail_duplicated("hb", old)
    assert forest.is_back_edge("hb", "t")
    assert_matches_fresh(forest)


def test_tail_duplication_adds_a_back_edge_from_s_and_recollects_bodies():
    # b and d form a cycle entered at both.  Once e's edge to b is gone,
    # b's only predecessor is d, so b -> d becomes a back edge and b
    # joins the body of d's loop.
    func = graph({"e": ["b", "d"], "b": ["d", "x"], "d": ["d", "b"], "x": []})
    cfg = func.cfg()
    forest = LoopForest(func, cfg)
    assert forest.loop_of_header("d").blocks == {"d"}
    assert forest.tail_duplicated("e", tail_duplicate(func, cfg, "e", "b"))
    assert forest.is_back_edge("b", "d")
    assert forest.loop_of_header("d").blocks == {"d", "b"}
    assert forest.innermost_loop("b").header == "d"
    assert_matches_fresh(forest)


def test_tail_duplication_renumbers_an_idom_numbered_late():
    # An irreducible cycle c <-> d entered at both blocks: d is numbered
    # before c, yet once a's edge to d is gone, c is d's only predecessor
    # and so its idom; d (a leaf now) is renumbered after c.
    func = graph({"e": ["a", "c"], "a": ["d"], "c": ["d"], "d": ["c"]})
    cfg = func.cfg()
    forest = LoopForest(func, cfg)
    assert forest.domtree.rpo == ["e", "a", "d", "c"]
    assert not forest.loops
    assert forest.tail_duplicated("a", tail_duplicate(func, cfg, "a", "d"))
    assert forest.domtree.idom["d"] == "c"
    assert forest.domtree.rpo == ["e", "a", "c", "d"]
    assert_matches_fresh(forest)


@pytest.mark.parametrize(
    "edges, hb, s",
    [
        # s heads a loop.
        ({"e": ["hb", "p"], "hb": ["s"], "p": ["s"], "s": ["l", "x"],
          "l": ["s"], "x": []}, "hb", "s"),
        # s's only other predecessor is unreachable.
        ({"e": ["hb"], "hb": ["s"], "s": ["x"], "x": [], "u": ["s"]},
         "hb", "s"),
    ],
    ids=["s-is-header", "s-unreachable-after"],
)
def test_tail_duplication_falls_back(edges, hb, s):
    func = graph(edges)
    cfg = func.cfg()
    forest = LoopForest(func, cfg)
    idom = dict(forest.domtree.idom)
    assert not forest.tail_duplicated(hb, tail_duplicate(func, cfg, hb, s))
    assert forest.domtree.idom == idom


def test_tail_duplication_needs_exactly_the_successors_of_s():
    func = graph(DIAMOND_UNDER_S)
    cfg = func.cfg()
    forest = LoopForest(func, cfg)
    old = list(cfg.succs["hb"])
    # A commit that kept only one of s's successors (as if the optimizer
    # had folded the other branch away) is not the shape the update knows.
    func.blocks["hb"].instrs = _branches(["a"])
    func.blocks["hb"].touch()
    cfg.update_block("hb", ["a"])
    assert not forest.tail_duplicated("hb", old)
    # Nor one that dropped two successors.
    assert not forest.tail_duplicated("hb", ["s", "p"])


def test_rename_contracts_the_dominator_tree():
    func = graph({"e": ["a"], "a": ["b"], "b": ["c", "d"], "c": [], "d": []})
    cfg = func.cfg()
    forest = LoopForest(func, cfg)
    # SIMPLE merge of b into a: a takes b's successors, b disappears.
    func.blocks["a"].instrs = _branches(["c", "d"])
    func.blocks["a"].touch()
    func.remove_block("b")
    cfg.update_block("a", ["c", "d"])
    cfg.remove_node("b")
    forest.rename_block("b", "a")
    assert "b" not in forest.domtree.idom
    assert forest.domtree.idom["c"] == "a"
    assert_matches_fresh(forest)


_NAMES = [f"n{i}" for i in range(7)]


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(
        st.lists(st.sampled_from(_NAMES), max_size=3, unique=True),
        min_size=len(_NAMES), max_size=len(_NAMES),
    ),
    picks=st.lists(st.integers(0, 10 ** 6), max_size=8),
)
def test_tail_duplication_sequences_match_fresh_builds(edges, picks):
    """Random graphs, random tail duplications: every in-place update
    equals a fresh build; a refused one leaves the forest to a rebuild."""
    func = graph(dict(zip(_NAMES, edges)))
    cfg = func.cfg()
    forest = LoopForest(func, cfg)
    for pick in picks:
        reachable = forest.domtree.idom
        pairs = [
            (hb, s) for hb in reachable for s in cfg.succs[hb]
            if s != hb and s != func.entry and cfg.num_preds(s) > 1
        ]
        if not pairs:
            break
        hb, s = pairs[pick % len(pairs)]
        old = tail_duplicate(func, cfg, hb, s)
        if forest.tail_duplicated(hb, old):
            assert_matches_fresh(forest)
        else:
            forest = LoopForest(func, cfg)


def test_tail_duplication_on_the_interval_facts_path():
    pytest.importorskip("numpy")
    from repro.ir import arena

    arena.set_backend("numpy")
    try:
        func = graph(DIAMOND_UNDER_S)
        cfg = func.cfg()
        forest = LoopForest(func, cfg)
        assert forest.domtree._facts is not None
        old = tail_duplicate(func, cfg, "hb", "s")
        assert forest.tail_duplicated("hb", old)
        assert forest.domtree._facts is None
        assert_matches_fresh(forest)
    finally:
        arena.set_backend(None)
