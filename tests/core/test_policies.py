"""Tests for block-selection policies."""

import pytest

from repro.core.merge import FormationContext
from repro.core.policies import (
    BreadthFirstPolicy,
    Candidate,
    DepthFirstPolicy,
    VLIWPolicy,
    policy_by_name,
)
from repro.ir import FunctionBuilder, Instruction, Opcode
from repro.profiles import ProfileData, collect_profile
from repro.ir import build_module
from repro.workloads import MICROBENCH_ORDER
from tests.conftest import make_diamond


def _profile_with_counts(counts: dict[str, int]) -> ProfileData:
    profile = ProfileData()
    for block, count in counts.items():
        for _ in range(count):
            profile.record_block("main", block)
    return profile


def _candidates(*specs):
    return [Candidate(name, depth, seq) for seq, (name, depth) in enumerate(specs)]


def test_breadth_first_is_fifo_by_depth():
    func = make_diamond()
    ctx = FormationContext(func)
    policy = BreadthFirstPolicy()
    cands = _candidates(("D", 2), ("B", 1), ("C", 1))
    index = policy.select(ctx, "A", cands)
    assert cands[index].name == "B"  # shallowest, earliest discovered


def test_depth_first_prefers_deepest():
    func = make_diamond()
    ctx = FormationContext(func)
    policy = DepthFirstPolicy()
    cands = _candidates(("B", 1), ("D", 2))
    assert cands[policy.select(ctx, "A", cands)].name == "D"


def test_depth_first_filters_to_hottest_successor():
    func = make_diamond()
    profile = _profile_with_counts({"B": 100, "C": 3})
    ctx = FormationContext(func, profile=profile)
    policy = DepthFirstPolicy()
    kept = policy.filter_new(ctx, "A", ["B", "C"])
    assert kept == ["B"]
    # Single successors pass through untouched.
    assert policy.filter_new(ctx, "A", ["D"]) == ["D"]


def test_breadth_first_keeps_all_successors():
    func = make_diamond()
    ctx = FormationContext(func)
    assert BreadthFirstPolicy().filter_new(ctx, "A", ["B", "C"]) == ["B", "C"]


def make_branchy_function():
    """hot path A->B->D, cold arm C with big dependent chain."""
    fb = FunctionBuilder("main", nparams=2)
    fb.block("A", entry=True)
    c = fb.tlt(0, 1)
    fb.br_cond(c, "B", "C")
    fb.block("B")
    fb.movi(1)
    fb.br("D")
    fb.block("C")
    acc = fb.movi(1)
    for _ in range(12):
        acc = fb.mul(acc, acc)
    fb.br("D")
    fb.block("D")
    fb.ret(fb.movi(0))
    return fb.finish()


def test_vliw_excludes_cold_high_latency_paths():
    func = make_branchy_function()
    profile = _profile_with_counts({"A": 100, "B": 97, "C": 3, "D": 100})
    # Edge probabilities drive the path frequencies.
    for _ in range(97):
        profile.record_edge("main", "A", "B")
        profile.record_edge("main", "B", "D")
    for _ in range(3):
        profile.record_edge("main", "A", "C")
        profile.record_edge("main", "C", "D")
    ctx = FormationContext(func, profile=profile)
    policy = VLIWPolicy(threshold=0.2)
    policy.begin_block(ctx, "A")
    hot = Candidate("B", 1, 0)
    cold = Candidate("C", 1, 1)
    assert policy.admits(ctx, "A", hot)
    assert not policy.admits(ctx, "A", cold)


def test_vliw_includes_everything_when_balanced():
    func = make_diamond()
    profile = _profile_with_counts({"A": 100, "B": 50, "C": 50, "D": 100})
    for _ in range(50):
        profile.record_edge("main", "A", "B")
        profile.record_edge("main", "A", "C")
        profile.record_edge("main", "B", "D")
        profile.record_edge("main", "C", "D")
    ctx = FormationContext(func, profile=profile)
    policy = VLIWPolicy(threshold=0.2)
    policy.begin_block(ctx, "A")
    assert policy.admits(ctx, "A", Candidate("B", 1, 0))
    assert policy.admits(ctx, "A", Candidate("C", 1, 1))


def test_vliw_admits_loop_headers_for_head_dup():
    from tests.conftest import make_counting_loop

    func = make_counting_loop()
    profile = collect_profile(build_module(make_counting_loop()))
    ctx = FormationContext(func, profile=profile, allow_head_dup=True)
    policy = VLIWPolicy()
    policy.begin_block(ctx, "entry")
    assert policy.admits(ctx, "entry", Candidate("head", 1, 0))


def test_policy_by_name():
    assert isinstance(policy_by_name("bf"), BreadthFirstPolicy)
    assert isinstance(policy_by_name("breadth-first"), BreadthFirstPolicy)
    assert isinstance(policy_by_name("df"), DepthFirstPolicy)
    assert isinstance(policy_by_name("vliw", threshold=0.5), VLIWPolicy)
    import pytest

    with pytest.raises(ValueError):
        policy_by_name("nonsense")


def test_lookahead_policy_closes_small_diamonds():
    """A diamond that fits the budget is admitted (single-exit restored)."""
    from repro.core.policies import LookaheadPolicy
    from repro.core.constraints import TripsConstraints

    func = make_diamond()
    ctx = FormationContext(func, constraints=TripsConstraints())
    policy = LookaheadPolicy()
    assert policy.admits(ctx, "A", Candidate("B", 1, 0))


def test_lookahead_policy_vetoes_unclosable_exits():
    """When the region past the branch cannot fit, the merge that would
    add a dangling exit is vetoed."""
    from repro.core.policies import LookaheadPolicy
    from repro.core.constraints import TripsConstraints
    from repro.ir import FunctionBuilder

    fb = FunctionBuilder("main", nparams=2)
    fb.block("A", entry=True)
    c = fb.tlt(0, 1)
    fb.br_cond(c, "Branchy", "Other")
    fb.block("Branchy")
    c2 = fb.tlt(1, 0)
    fb.br_cond(c2, "Big1", "Big2")
    for name in ("Big1", "Big2"):
        fb.block(name)
        acc = fb.movi(0)
        for _ in range(30):
            acc = fb.add(acc, acc)
        fb.br("Join")
    fb.block("Other")
    fb.br("Join")
    fb.block("Join")
    fb.ret(fb.movi(0))
    func = fb.finish()

    tight = TripsConstraints(max_instructions=24)
    ctx = FormationContext(func, constraints=tight)
    policy = LookaheadPolicy()
    # Branchy has two successors whose region is far larger than the
    # remaining budget -> vetoed; Other is single-successor -> admitted.
    assert not policy.admits(ctx, "A", Candidate("Branchy", 1, 0))
    assert policy.admits(ctx, "A", Candidate("Other", 1, 1))


def test_lookahead_policy_preserves_semantics():
    from repro.core.convergent import form_module
    from repro.core.policies import LookaheadPolicy
    from repro.profiles import collect_profile
    from repro.sim import run_module
    from repro.workloads.generators import random_inputs, random_program

    for seed in (11, 222, 3333):
        module = random_program(seed)
        args = random_inputs(seed)
        ref, _, refmem = run_module(module.copy(), args=args)
        profile = collect_profile(module.copy(), args=args)
        form_module(module, profile=profile, policy=LookaheadPolicy())
        r, _, mem = run_module(module, args=args)
        assert r == ref and mem == refmem


def test_lookahead_named_in_factory():
    from repro.core.policies import LookaheadPolicy

    assert isinstance(policy_by_name("lookahead"), LookaheadPolicy)


# -- VLIW path prepass: exactness and the per-version height memo -----------


def _reference_paths(policy, ctx, seed):
    """The path walk that scores each path from scratch at its leaf, with
    heights taken over explicit ``dep_preds`` edges."""
    from tests.conftest import reference_dependence_height

    func, cfg, loops, profile = ctx.func, ctx.cfg, ctx.loops, ctx.profile
    paths = []

    def walk(name, acc, prob):
        if len(paths) >= policy.max_paths:
            return
        acc.append(name)
        succs = [
            s
            for s in cfg.succs.get(name, [])
            if s not in acc
            and not loops.is_back_edge(name, s)
            and not loops.is_header(s)
            and s != func.entry
            and not func.blocks[s].has_call()
        ]
        if not succs or len(acc) >= policy.max_path_blocks:
            blocks = [func.blocks[b] for b in acc]
            paths.append((
                tuple(acc),
                prob,
                max(1, sum(reference_dependence_height(b) for b in blocks)),
                max(1, sum(len(b) for b in blocks)),
            ))
        else:
            for succ in succs:
                p = profile.edge_probability(func.name, name, succ)
                walk(succ, acc, prob * max(p, 1e-3))
        acc.pop()

    walk(seed, [], float(max(1, profile.block_count(func.name, seed))))
    return paths


class _CheckedVLIWPolicy(VLIWPolicy):
    """Compares every seed's paths with the reference walk before use.

    Formation's fail-safe guard would contain an assertion raised here, so
    seeds are counted and mismatches recorded for the test to check."""

    seeds_checked = 0
    mismatches: list = []

    def begin_block(self, ctx, hb_name):
        got = [
            (p.blocks, p.frequency, p.height, p.ops)
            for p in self._enumerate_paths(ctx, hb_name)
        ]
        if got != _reference_paths(self, ctx, hb_name):
            _CheckedVLIWPolicy.mismatches.append((ctx.func.name, hb_name))
        _CheckedVLIWPolicy.seeds_checked += 1
        super().begin_block(ctx, hb_name)


@pytest.mark.parametrize("name", MICROBENCH_ORDER)
def test_vliw_paths_match_reference_walk(name, monkeypatch):
    """Every hyperblock seed that Table 2's two VLIW columns form (after
    the unroll prepass, under TRIPS constraints, sharing one profile as
    the harness does) scores its paths exactly as the from-scratch walk
    does, with heights memoized across the merges that came before."""
    from repro.harness import experiment
    from repro.workloads import MICROBENCHMARKS

    workload = MICROBENCHMARKS[name]
    base = workload.module()

    def columns():
        profile = collect_profile(
            base.copy(),
            args=workload.args,
            preload={k: list(v) for k, v in workload.preload.items()},
        )
        return [
            experiment.heuristic_config(column)(base.copy(), profile).mtup
            for column in ("VLIW", "Convergent VLIW")
        ]

    expected = columns()
    monkeypatch.setattr(experiment, "VLIWPolicy", _CheckedVLIWPolicy)
    monkeypatch.setattr(_CheckedVLIWPolicy, "seeds_checked", 0)
    monkeypatch.setattr(_CheckedVLIWPolicy, "mismatches", [])
    assert columns() == expected
    assert _CheckedVLIWPolicy.seeds_checked > 0
    assert _CheckedVLIWPolicy.mismatches == []


def test_vliw_rescores_a_mutated_block():
    func = make_branchy_function()
    ctx = FormationContext(func)
    policy = VLIWPolicy()
    before = {p.blocks: p.height for p in policy._enumerate_paths(ctx, "A")}
    block = func.blocks["B"]
    block.instrs.insert(0, Instruction(Opcode.DIV, dest=50, srcs=(0, 1)))
    block.touch()
    after = {p.blocks: p.height for p in policy._enumerate_paths(ctx, "A")}
    assert after[("A", "B", "D")] == before[("A", "B", "D")] + 18 - 1
    assert after[("A", "C", "D")] == before[("A", "C", "D")]


def test_vliw_computes_each_block_version_height_once(monkeypatch):
    """Within one policy, a block version's height is computed once, not
    once per path through it."""
    from collections import Counter

    import repro.core.policies as policies
    from repro.harness.tables import table2

    calls = []
    current = []
    begin_block = VLIWPolicy.begin_block

    def spy_begin_block(self, ctx, hb_name):
        current[:] = [self]
        return begin_block(self, ctx, hb_name)

    def spy_height(block):
        calls.append((current[0], block.name, block.version))
        return real_height(block)

    real_height = policies.dependence_height
    monkeypatch.setattr(VLIWPolicy, "begin_block", spy_begin_block)
    monkeypatch.setattr(policies, "dependence_height", spy_height)
    table2(["sieve", "parser_1"])

    per_policy = Counter((id(p), name, version) for p, name, version in calls)
    assert calls, "the VLIW prepass never scored a block"
    # Two workloads, two VLIW columns each: four policies, one per
    # form_module call.
    assert len({id(p) for p, _, _ in calls}) == 4
    assert max(per_policy.values()) == 1
