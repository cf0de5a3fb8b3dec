"""Tests for ExpandBlock and the formation drivers."""

from repro.core.constraints import TripsConstraints
from repro.core.convergent import expand_block, form_function, form_module, _next_seed
from repro.core.merge import FormationContext
from repro.core.policies import BreadthFirstPolicy
from repro.ir import FunctionBuilder, build_module
from repro.profiles import ProfileData, collect_profile
from repro.sim import run_module
from tests.conftest import make_counting_loop, make_diamond, make_while_loop


def test_expand_block_converges_diamond_to_one_block():
    func = make_diamond()
    ctx = FormationContext(func)
    merges = expand_block(ctx, BreadthFirstPolicy(), "A")
    func.remove_unreachable_blocks()
    assert merges == 3
    assert list(func.blocks) == ["A"]


def test_expand_block_readds_successors_of_merged_blocks():
    """Merging the loop body re-candidates the (now self-) loop header,
    which is how repeated unrolling falls out of the candidate set."""
    func = make_counting_loop()
    ctx = FormationContext(func)
    merges = expand_block(ctx, BreadthFirstPolicy(), "head")
    assert ctx.stats.unrolls >= 1  # self-merges happened via re-added cands
    assert merges > 1


def test_expand_block_missing_seed_is_noop():
    func = make_diamond()
    ctx = FormationContext(func)
    assert expand_block(ctx, BreadthFirstPolicy(), "ghost") == 0


def test_expand_block_respects_attempt_limit():
    func = make_counting_loop()
    ctx = FormationContext(func, max_merges_per_block=1)
    merges = expand_block(ctx, BreadthFirstPolicy(), "head")
    assert merges <= 1


def test_next_seed_prefers_hot_blocks():
    func = make_counting_loop()
    profile = collect_profile(build_module(make_counting_loop()))
    ctx = FormationContext(func, profile=profile)
    # head executes 11 times, entry once: head seeds first.
    assert _next_seed(ctx, set()) == "head"
    assert _next_seed(ctx, {"head"}) == "body"
    assert _next_seed(ctx, set(func.blocks)) is None


def test_next_seed_order_matches_a_fresh_cfg(monkeypatch):
    """Seeds come from the context's patched CFG; a fresh CFG per seed
    must pick the same block every time."""
    from repro.analysis.dominators import reverse_postorder
    from repro.core import convergent
    from repro.workloads import SPEC_BENCHMARKS, SPEC_ORDER

    chosen = []

    def checked(ctx, processed):
        seed = _next_seed(ctx, processed)
        func = ctx.func
        fresh = [
            (-ctx.profile.block_count(func.name, name), index, name)
            for index, name in enumerate(reverse_postorder(func))
            if name not in processed
        ]
        assert seed == (min(fresh)[2] if fresh else None)
        chosen.append(seed)
        return seed

    monkeypatch.setattr(convergent, "_next_seed", checked)
    for name in SPEC_ORDER:
        workload = SPEC_BENCHMARKS[name]
        module = workload.module()
        profile = collect_profile(
            module, args=workload.args, preload=workload.preload
        )
        form_module(module, profile=profile)
    assert len(chosen) > 90


def test_next_seed_without_profile_uses_rpo():
    func = make_counting_loop()
    ctx = FormationContext(func, profile=ProfileData())
    assert _next_seed(ctx, set()) == "entry"


def test_form_function_removes_unreachable_remnants():
    func = make_diamond()
    form_function(func)
    assert list(func.blocks) == ["A"]


def test_form_module_accumulates_stats_across_functions():
    helper = FunctionBuilder("helper", nparams=1)
    helper.block("a", entry=True)
    c = helper.tlt(0, helper.movi(0))
    helper.br_cond(c, "neg", "pos")
    helper.block("neg")
    helper.ret(helper.movi(-1))
    helper.block("pos")
    helper.ret(helper.movi(1))

    main = FunctionBuilder("main", nparams=1)
    main.block("entry", entry=True)
    main.ret(main.call("helper", 0))

    module = build_module(main.finish(), helper.finish())
    stats = form_module(module)
    assert stats.merges >= 2  # helper's diamond merged
    assert run_module(module.copy(), args=(-5,))[0] == -1
    assert run_module(module.copy(), args=(5,))[0] == 1


def test_formation_is_deterministic():
    def run_once():
        module = build_module(make_while_loop())
        profile = collect_profile(module.copy(), args=(27,))
        stats = form_module(module, profile=profile)
        return stats.mtup, sorted(
            (n, len(b)) for n, b in module.function("main").blocks.items()
        )

    assert run_once() == run_once()


def test_formation_under_tiny_limits_leaves_cfg_unchanged_shape():
    """With a limit below any merge result, nothing merges but the program
    still runs (formation must never be forced to transform)."""
    module = build_module(make_while_loop())
    profile = collect_profile(module.copy(), args=(6,))
    stats = form_module(
        module, profile=profile,
        constraints=TripsConstraints(max_instructions=1),
    )
    assert stats.merges == 0
    assert run_module(module, args=(6,))[0] == 8
