"""Natural-loop detection and the loop forest.

Head duplication needs to know, for a candidate merge edge ``HB -> S``:

- whether ``S`` is a loop header (peeling applies),
- whether the edge is a back edge (unrolling applies),

so the loop forest is the central analysis of the whole reproduction.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.dominators import DominatorTree
from repro.ir.function import CFG, Function


class Loop:
    """A natural loop: header block plus the body block set."""

    def __init__(self, header: str):
        self.header = header
        self.blocks: set[str] = {header}
        self.back_edges: list[tuple[str, str]] = []  # (latch, header)
        self.parent: Optional["Loop"] = None
        self.children: list["Loop"] = []

    @property
    def depth(self) -> int:
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def latches(self) -> list[str]:
        return [src for src, _ in self.back_edges]

    def exits(self, cfg: CFG) -> list[tuple[str, str]]:
        """Edges leaving the loop, as (inside_block, outside_block)."""
        result = []
        for name in sorted(self.blocks):
            for succ in cfg.succs.get(name, []):
                if succ not in self.blocks:
                    result.append((name, succ))
        return result

    def entry_edges(self, cfg: CFG) -> list[tuple[str, str]]:
        """Edges entering the header from outside the loop."""
        return [
            (pred, self.header)
            for pred in cfg.preds.get(self.header, [])
            if pred not in self.blocks
        ]

    def __repr__(self) -> str:
        return f"<Loop header={self.header} blocks={len(self.blocks)}>"


class LoopForest:
    """All natural loops of a function, nested into a forest."""

    def __init__(self, func: Function, cfg: Optional[CFG] = None,
                 domtree: Optional[DominatorTree] = None):
        self.func = func
        self.cfg = cfg or func.cfg()
        self.domtree = domtree or DominatorTree(func, self.cfg)
        self.loops: dict[str, Loop] = {}  # keyed by header
        self._block_loops: dict[str, list[Loop]] = {}
        #: bodies/nesting are materialized on first query that needs
        #: them: the formation hot path only asks ``is_header`` /
        #: ``is_back_edge``, which headers and back edges answer alone.
        self._bodies_done = False
        self._find_loops()

    # -- construction -------------------------------------------------------

    def _find_loops(self) -> None:
        dom = self.domtree
        facts = getattr(dom, "_facts", None)
        if facts is not None and facts.flat.succs_src is self.cfg.succs:
            # Vectorized dominance-interval back-edge scan over the same
            # successor lists; edge order matches the scalar walk (rpo of
            # src, successor order within), so loop discovery order —
            # and everything keyed on it downstream — is identical.
            for src, dst in facts.back_edges():
                loop = self.loops.setdefault(dst, Loop(dst))
                loop.back_edges.append((src, dst))
            return
        for src in dom.rpo:
            for dst in self.cfg.succs.get(src, []):
                if dst in dom.idom or dst == self.func.entry:
                    if dom.dominates(dst, src):
                        loop = self.loops.setdefault(dst, Loop(dst))
                        loop.back_edges.append((src, dst))

    def _ensure_bodies(self) -> None:
        """Collect loop bodies and nest the forest (idempotent, lazy)."""
        if self._bodies_done:
            return
        self._bodies_done = True
        for loop in self.loops.values():
            for src, _ in loop.back_edges:
                self._collect_body(loop, src)
        self._nest_loops()

    def _collect_body(self, loop: Loop, latch: str) -> None:
        stack = [latch]
        while stack:
            name = stack.pop()
            if name in loop.blocks:
                continue
            loop.blocks.add(name)
            stack.extend(self.cfg.preds.get(name, []))

    def _nest_loops(self) -> None:
        ordered = sorted(self.loops.values(), key=lambda l: len(l.blocks))
        for i, inner in enumerate(ordered):
            for outer in ordered[i + 1 :]:
                if inner.header in outer.blocks and inner is not outer:
                    inner.parent = outer
                    outer.children.append(inner)
                    break
        for loop in self.loops.values():
            for name in loop.blocks:
                self._block_loops.setdefault(name, []).append(loop)
        for loops in self._block_loops.values():
            loops.sort(key=lambda l: -l.depth)

    # -- incremental update -------------------------------------------------

    def rename_block(self, old: str, new: str) -> None:
        """Account for ``old`` being absorbed into ``new`` (a SIMPLE merge).

        A SIMPLE merge target has ``new`` as its unique predecessor, so
        contracting the edge maps every occurrence of ``old`` in the forest
        to ``new``: loop membership, back-edge latches, and (defensively)
        headers.  Every loop containing ``old`` already contains ``new`` —
        the only path into ``old`` runs through ``new`` — so no loop gains
        or loses any *other* block and the nesting is unchanged.

        When bodies are still unmaterialized only the header / back-edge
        rename happens here (the hot queries read those); body collection,
        when it eventually runs, walks the already-contracted CFG — which
        yields exactly the renamed body sets, since contracting a block
        into its unique predecessor preserves backward reachability
        modulo the rename.
        """
        for loop in self.loops.values():
            if old in loop.blocks:
                loop.blocks.discard(old)
                loop.blocks.add(new)
            if loop.back_edges:
                loop.back_edges = [
                    (new if src == old else src, new if dst == old else dst)
                    for src, dst in loop.back_edges
                ]
        if old in self.loops:
            loop = self.loops.pop(old)
            loop.header = new
            self.loops[new] = loop
        self.domtree.contract(old, new)
        if not self._bodies_done:
            return
        old_loops = self._block_loops.pop(old, None)
        if old_loops:
            mine = self._block_loops.setdefault(new, [])
            for loop in old_loops:
                if loop not in mine:
                    mine.append(loop)
            mine.sort(key=lambda l: -l.depth)

    def tail_duplicated(self, hb: str, old_succs: list[str]) -> bool:
        """Account for a tail duplication into ``hb``, whose successor list
        was ``old_succs``; ``self.cfg`` already holds the new one.

        Applies when the commit dropped exactly one successor ``s``, which
        heads no loop, and gave ``hb`` every successor of ``s`` in its
        place.  The dominator tree is updated in place (see
        :meth:`DominatorTree.tail_duplicated`); since only ``s`` and the
        blocks it dominated change dominators, and ``s`` now dominates
        nothing but itself, an edge can start or stop being a back edge
        only if it leaves ``hb`` or ``s``, so just those are re-scanned
        (the back edges they had stay back edges, so no loop is lost).
        Bodies and nesting are dropped for lazy re-collection.  Returns
        ``False``, with the forest untouched, when the update does not
        apply; the caller must rebuild then.
        """
        succs = self.cfg.succs
        new_succs = succs.get(hb, ())
        dropped = [name for name in old_succs if name not in new_succs]
        if len(dropped) != 1:
            return False
        s = dropped[0]
        if s in self.loops or set(new_succs) != (
            set(old_succs) - {s} | set(succs.get(s, ()))
        ):
            return False
        if not self.domtree.tail_duplicated(hb, s, self.cfg):
            return False
        loops = self.loops
        for loop in loops.values():
            loop.back_edges = [
                edge for edge in loop.back_edges if edge[0] not in (hb, s)
            ]
        dom = self.domtree
        for src in (hb, s):
            for dst in succs.get(src, ()):
                if dom.dominates(dst, src):
                    loops.setdefault(dst, Loop(dst)).back_edges.append(
                        (src, dst)
                    )
        if self._bodies_done:
            self._bodies_done = False
            self._block_loops = {}
            for loop in loops.values():
                loop.blocks = {loop.header}
                loop.parent = None
                loop.children = []
        return True

    # -- queries ------------------------------------------------------------

    def is_header(self, name: str) -> bool:
        # Hot path (merge classification): headers are known from back-edge
        # discovery alone — never materializes bodies.
        return name in self.loops

    def loop_of_header(self, name: str) -> Optional[Loop]:
        self._ensure_bodies()
        return self.loops.get(name)

    def innermost_loop(self, name: str) -> Optional[Loop]:
        self._ensure_bodies()
        loops = self._block_loops.get(name)
        return loops[0] if loops else None

    def loop_depth(self, name: str) -> int:
        loop = self.innermost_loop(name)
        return loop.depth if loop else 0

    def is_back_edge(self, src: str, dst: str) -> bool:
        # Hot path (merge classification): back edges are discovered
        # eagerly — never materializes bodies.
        loop = self.loops.get(dst)
        return loop is not None and (src, dst) in loop.back_edges

    def top_level_loops(self) -> list[Loop]:
        self._ensure_bodies()
        return [l for l in self.loops.values() if l.parent is None]

    def all_loops_innermost_first(self) -> list[Loop]:
        self._ensure_bodies()
        return sorted(self.loops.values(), key=lambda l: -l.depth)
