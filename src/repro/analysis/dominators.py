"""Dominator analysis (Cooper-Harvey-Kennedy iterative algorithm)."""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from repro.ir import arena as _arena
from repro.ir.function import CFG, Function


def reverse_postorder(func: Function, cfg: Optional[CFG] = None) -> list[str]:
    """Blocks reachable from the entry, in reverse postorder."""
    cfg = cfg or func.cfg()
    if _arena.NUMPY:
        from repro.ir import arena_np

        order = arena_np.rpo_names(func.entry, cfg.succs)
        if order is not None:
            return order
    visited: set[str] = set()
    order: list[str] = []

    # Iterative DFS with explicit stack to avoid recursion limits on the
    # long chains that unrolling produces.
    stack: list[tuple[str, int]] = [(func.entry, 0)]
    visited.add(func.entry)
    while stack:
        name, idx = stack[-1]
        succs = cfg.succs.get(name, [])
        if idx < len(succs):
            stack[-1] = (name, idx + 1)
            nxt = succs[idx]
            if nxt not in visited and nxt in cfg.succs:
                visited.add(nxt)
                stack.append((nxt, 0))
        else:
            order.append(name)
            stack.pop()
    order.reverse()
    return order


class DominatorTree:
    """Immediate dominators for every reachable block of a function."""

    def __init__(self, func: Function, cfg: Optional[CFG] = None):
        self.func = func
        cfg = cfg or func.cfg()
        self._facts = None
        if _arena.NUMPY and func.entry in cfg.succs:
            # Int-indexed construction: same reverse postorder, same CHK
            # fixpoint, plus Euler-tour intervals for O(1) dominance
            # queries.  The dict-shaped rpo/idom/children views match
            # the scalar path's contents and iteration order exactly —
            # but materialize lazily (cached_property): the loop forest
            # consumes the int facts directly, and most trees built per
            # commit never need the dicts at all.
            from repro.ir import arena_np

            self._facts = arena_np.DomFacts(
                arena_np.FlatCFG(func.entry, cfg.succs)
            )
        else:
            self.rpo = reverse_postorder(func, cfg)
            self._index = {name: i for i, name in enumerate(self.rpo)}
            self.idom: dict[str, Optional[str]] = {func.entry: func.entry}
            self._compute(cfg)
            self.idom[func.entry] = None
            children: dict[str, list[str]] = {name: [] for name in self.rpo}
            for name, parent in self.idom.items():
                if parent is not None:
                    children[parent].append(name)
            self.children = children

    # -- lazy dict views (facts path; the scalar path assigns instance
    # attributes in __init__, which shadow these non-data descriptors) --

    @cached_property
    def rpo(self) -> list[str]:
        return self._facts.flat.rpo_names()

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.rpo)}

    @cached_property
    def idom(self) -> dict[str, Optional[str]]:
        return self._facts.idom_dict(self.func.entry)

    @cached_property
    def children(self) -> dict[str, list[str]]:
        children: dict[str, list[str]] = {name: [] for name in self.rpo}
        for name, parent in self.idom.items():
            if parent is not None:
                children[parent].append(name)
        return children

    def _intersect(self, a: str, b: str) -> str:
        index = self._index
        idom = self.idom
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    def _compute(self, cfg: CFG) -> None:
        changed = True
        while changed:
            changed = False
            for name in self.rpo:
                if name == self.func.entry:
                    continue
                preds = [p for p in cfg.preds.get(name, []) if p in self.idom]
                if not preds:
                    continue
                new_idom = preds[0]
                for pred in preds[1:]:
                    new_idom = self._intersect(pred, new_idom)
                if self.idom.get(name) != new_idom:
                    self.idom[name] = new_idom
                    changed = True

    def dominates(self, a: str, b: str) -> bool:
        """True if block ``a`` dominates block ``b`` (reflexively)."""
        index = self._index
        ia = index.get(a)
        ib = index.get(b)
        if ia is None or ib is None:
            # Unreachable blocks dominate only themselves, exactly as
            # the idom chain walk answers.
            return a == b
        facts = self._facts
        if facts is not None:
            tin = facts.tin
            return tin[ia] <= tin[ib] <= facts.tout[ia]
        # Every idom is numbered below its child, so the walk up from
        # ``b`` can stop as soon as it passes ``a``'s number.
        idom = self.idom
        while ib > ia:
            b = idom[b]
            ib = index[b]
        return b == a

    # -- incremental update -------------------------------------------------
    #
    # Both updates keep the dict form (``idom``/``children``) and the
    # numbering ``_intersect`` and ``dominates`` rely on: every idom is
    # numbered below its child.  ``rpo`` stays sorted by that number, so
    # after an update it is such a numbering, not necessarily the current
    # reverse postorder.  A tree on the interval-facts path is first
    # brought into dict form (the intervals cannot be patched).

    def _to_dicts(self) -> None:
        if self._facts is not None:
            for view in ("rpo", "_index", "idom", "children"):
                getattr(self, view)  # materialize the cached views
            self._facts = None

    def tail_duplicated(self, hb: str, s: str, cfg: CFG) -> bool:
        """Account for ``hb``'s edge to ``s``, a block that heads no loop,
        being replaced by edges to every successor of ``s``; ``cfg``
        already shows the new edges.

        As ``s`` heads no loop the old edge was a forward edge, and every
        block ``s`` dominated stays reachable from ``hb`` through the new
        edges without passing ``s``.  So ``s`` becomes a leaf: its
        children move to its old idom, its own idom becomes the nearest
        common ancestor of its remaining reachable predecessors, and no
        other block's dominators change.  Returns ``False``, with the tree
        untouched, when ``hb`` or ``s`` was unreachable or ``s`` no longer
        is reachable; the caller must rebuild then.
        """
        index = self._index
        if s not in index or hb not in index:
            return False
        preds = [pred for pred in cfg.preds.get(s, ()) if pred in index]
        if not preds:
            return False
        new_idom = preds[0]
        for pred in preds[1:]:
            new_idom = self._intersect(pred, new_idom)
        self._to_dicts()
        if index[new_idom] > index[s]:
            # ``s`` is a leaf now, so numbering it after every other block
            # keeps each idom below its child.
            rpo = self.rpo
            rpo.remove(s)
            index[s] = index[rpo[-1]] + 1
            rpo.append(s)
        idom = self.idom
        children = self.children
        old_idom = idom[s]
        moved = children[s]
        if moved:
            for child in moved:
                idom[child] = old_idom
            children[old_idom].extend(moved)
            children[s] = []
        if new_idom != old_idom:
            children[old_idom].remove(s)
            children[new_idom].append(s)
            idom[s] = new_idom
        return True

    def contract(self, old: str, new: str) -> None:
        """Account for ``old`` being absorbed into ``new``, its unique
        predecessor (a SIMPLE merge): ``old``'s children move to ``new``
        and no other block's dominators change."""
        if old not in self._index:
            return
        self._to_dicts()
        idom = self.idom
        children = self.children
        del idom[old]
        moved = children.pop(old)
        for child in moved:
            idom[child] = new
        siblings = children[new]
        siblings.remove(old)
        siblings.extend(moved)
        del self._index[old]
        self.rpo.remove(old)

    def strictly_dominates(self, a: str, b: str) -> bool:
        return a != b and self.dominates(a, b)

    def dom_depth(self, name: str) -> int:
        depth = 0
        node = self.idom.get(name)
        while node is not None:
            depth += 1
            node = self.idom.get(node)
        return depth
