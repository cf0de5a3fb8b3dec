"""Formation on CFG shapes the 43 workloads lack.

A ``hypothesis`` strategy draws structured programs mixing the shapes
the curated workloads do not have: irreducible regions (a cycle entered
at two blocks), both arms of a branch to one target, deep predicate
nesting, and chains of single-entry/single-exit blocks, inside counted
natural loops.  Each program is formed with the commit-level self-check
(``selfcheck="commit"``: verifier plus differential oracle after every
merge), and after every commit the formation context's maintained loop
forest must equal one built from scratch (see
``tests/core/test_forest_maintenance.py``).

The example budget follows the loaded hypothesis profile: 25 examples
in tier-1, ten times as many under the ``cfg-fuzz`` profile registered
in ``tests/conftest.py``::

    PYTHONPATH=src python -m pytest tests/core/test_cfg_fuzz.py \\
        --hypothesis-profile=cfg-fuzz
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.convergent import form_module
from repro.ir import FunctionBuilder, build_module
from repro.profiles import collect_profile
from repro.robustness.oracle import BehaviorProbe
from repro.sim import run_module
from tests.core.test_forest_maintenance import assert_clean, cross_checked


class _Emitter:
    """Lowers a shape tree into ``main(p0, p1)`` returning an accumulator.

    Every loop and cycle is counted, and values only ever grow by small
    additions, so every program terminates quickly on any input.
    """

    def __init__(self) -> None:
        self.fb = FunctionBuilder("main", nparams=2)
        self.fb.block("entry", entry=True)
        self.acc = self.fb.func.new_reg()
        self.fb.movi_to(self.acc, 0)
        self.names = 0

    def fresh(self, tag: str) -> str:
        self.names += 1
        return f"{tag}{self.names}"

    def jump(self, target: str) -> None:
        """End the open block with a branch to ``target`` and open it."""
        self.fb.br(target)
        self.fb.block(target)

    def test(self, param: int, bound: int) -> int:
        """A predicate on one parameter plus the accumulator."""
        fb = self.fb
        return fb.tlt(fb.add(param, self.acc), fb.movi(bound))

    def emit(self, node) -> None:
        fb = self.fb
        kind = node[0]
        if kind == "leaf":
            _, param, step = node
            fb.mov_to(self.acc, fb.add(fb.addi(self.acc, step), param))
        elif kind == "chain":
            # Single-entry/single-exit blocks in a row.
            for step in range(node[1]):
                self.jump(self.fresh("c"))
                fb.mov_to(self.acc, fb.addi(self.acc, step + 1))
        elif kind == "same":
            # Both arms of a conditional branch to one target.
            join = self.fresh("s")
            fb.br_cond(self.test(node[1], node[2]), join, join)
            fb.block(join)
        elif kind == "nest":
            # Deep predicate nesting: each level tests a tighter bound and
            # its else arm leaves straight for the common join.
            _, depth, param = node
            join = self.fresh("n")
            for level in range(depth):
                inner, other = self.fresh("t"), self.fresh("e")
                fb.br_cond(self.test(param, depth - level), inner, other)
                fb.block(other)
                fb.mov_to(self.acc, fb.addi(self.acc, level))
                fb.br(join)
                fb.block(inner)
                fb.mov_to(self.acc, fb.addi(self.acc, 1))
            self.jump(join)
        elif kind == "seq":
            for child in node[1]:
                self.emit(child)
        elif kind == "if":
            _, param, bound, then, other = node
            then_name, else_name = self.fresh("t"), self.fresh("e")
            join = self.fresh("j")
            fb.br_cond(self.test(param, bound), then_name, else_name)
            fb.block(then_name)
            self.emit(then)
            fb.br(join)
            fb.block(else_name)
            self.emit(other)
            self.jump(join)
        elif kind == "loop":
            _, trips, body = node
            count = fb.func.new_reg()
            fb.movi_to(count, 0)
            head, body_name, done = (
                self.fresh("h"), self.fresh("b"), self.fresh("x")
            )
            self.jump(head)
            fb.br_cond(fb.tlt(count, fb.movi(trips)), body_name, done)
            fb.block(body_name)
            self.emit(body)
            fb.mov_to(count, fb.addi(count, 1))
            fb.br(head)
            fb.block(done)
        elif kind == "irreducible":
            # A cycle a -> b -> a entered at both a and b, left after
            # ``trips`` passes.
            _, trips, param, left, right = node
            count = fb.func.new_reg()
            fb.movi_to(count, 0)
            a, b, done = self.fresh("a"), self.fresh("b"), self.fresh("x")
            fb.br_cond(self.test(param, 0), a, b)
            for here, there, body in ((a, b, left), (b, a, right)):
                fb.block(here)
                self.emit(body)
                fb.mov_to(count, fb.addi(count, 1))
                fb.br_cond(fb.tlt(count, fb.movi(trips)), there, done)
            fb.block(done)
        else:  # pragma: no cover - the strategy draws only the kinds above
            raise ValueError(kind)

    def finish(self):
        self.fb.ret(self.acc)
        return self.fb.finish()


PARAMS = st.integers(0, 1)
SMALL = st.integers(-4, 4)

LEAVES = st.one_of(
    st.tuples(st.just("leaf"), PARAMS, SMALL),
    st.tuples(st.just("chain"), st.integers(2, 5)),
    st.tuples(st.just("same"), PARAMS, SMALL),
    st.tuples(st.just("nest"), st.integers(2, 7), PARAMS),
)


def _compound(children):
    return st.one_of(
        st.tuples(st.just("seq"), st.lists(children, min_size=2, max_size=3)),
        st.tuples(st.just("if"), PARAMS, SMALL, children, children),
        st.tuples(st.just("loop"), st.integers(1, 3), children),
        st.tuples(
            st.just("irreducible"), st.integers(1, 4), PARAMS, children,
            children,
        ),
    )


SHAPES = st.recursive(LEAVES, _compound, max_leaves=10)


def build_shape(shape):
    emitter = _Emitter()
    emitter.emit(shape)
    return build_module(emitter.finish())


@settings(
    # A quarter of the loaded profile's budget: 25 examples under the
    # default profile, 250 under ``cfg-fuzz``.
    max_examples=settings.default.max_examples // 4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(shape=SHAPES, args=st.tuples(SMALL, SMALL))
def test_fuzzed_cfg_forms_exactly(shape, args):
    module = build_shape(shape)
    expected = run_module(module.copy(), args=args)[0]
    formed = module.copy()
    profile = collect_profile(module.copy(), args=args)
    with cross_checked() as mismatches:
        report = form_module(
            formed,
            profile=profile,
            selfcheck="commit",
            oracle_probes=[BehaviorProbe(args=args)],
        )
    assert not mismatches
    assert_clean(report)
    assert run_module(formed, args=args)[0] == expected
