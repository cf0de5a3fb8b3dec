"""The formation context's loop forest stays exact across commits.

``FormationContext.note_commit`` keeps its dominator tree and loop forest
across SIMPLE merges (contraction) and tail duplications of blocks that
head no loop (an in-place update) instead of rebuilding them.  Here every
commit of BF formation is followed by a from-scratch ``LoopForest`` on
the committed IR, which must agree with the maintained one: the same
immediate dominators and dominator-tree children, a numbering that puts
every idom before its child, the same loop headers and the same back
edges.  It runs over all 43 workloads and the 80 generated ``synth``
programs of the paper-regeneration benchmark (seed 7).
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from repro.core.convergent import form_module
from repro.core.merge import FormationCacheStats, FormationContext
from repro.profiles import collect_profile
from repro.workloads import (
    MICROBENCH_ORDER,
    MICROBENCHMARKS,
    SPEC_BENCHMARKS,
    SPEC_ORDER,
)
from repro.workloads.generators import random_inputs, scaled_program
from tests.analysis.test_loops import assert_matches_fresh


def assert_clean(report) -> None:
    """No trial of the formation run failed (a contained failure would
    hide a bug behind a rollback)."""
    assert report.all_ok, report.summary()


@contextmanager
def cross_checked():
    """Check the maintained forest after every commit inside the block.

    Yields the list of mismatches found.  They are collected rather than
    raised, since the trial guard would contain an exception raised in a
    commit and roll that commit back.
    """
    real = FormationContext.note_commit
    mismatches: list[str] = []

    def note_commit(self, *args, **kwargs):
        real(self, *args, **kwargs)
        if self._loops is None:
            return
        try:
            assert_matches_fresh(self._loops)
        except AssertionError as exc:
            mismatches.append(f"{self.func.name}: {exc}")

    FormationContext.note_commit = note_commit
    try:
        yield mismatches
    finally:
        FormationContext.note_commit = real


@pytest.mark.parametrize("name", MICROBENCH_ORDER + SPEC_ORDER)
def test_forest_exact_after_every_commit_on_workloads(name):
    workload = MICROBENCHMARKS.get(name) or SPEC_BENCHMARKS[name]
    module = workload.module()
    profile = collect_profile(
        module, args=workload.args, preload=workload.preload
    )
    with cross_checked() as mismatches:
        report = form_module(module, profile=profile)
    assert not mismatches
    assert_clean(report)


#: The ``synth`` workload of ``perfbench``: 80 ``scaled_program``s evenly
#: spaced from 44 to 440 instructions, program ``i`` generated from seed
#: ``i``, inputs drawn from ``random.Random(seed)``.
SYNTH_SEED = 7
SYNTH_PROGRAMS = 80
SYNTH_SIZES = (44, 440)
SYNTH_CHUNK = 10


def synth_programs(seed: int = SYNTH_SEED):
    low, high = SYNTH_SIZES
    rng = random.Random(seed)
    for index in range(SYNTH_PROGRAMS):
        size = low + (high - low) * index // (SYNTH_PROGRAMS - 1)
        yield index, size, random_inputs(rng.randrange(2 ** 31))


@pytest.mark.parametrize("first", range(0, SYNTH_PROGRAMS, SYNTH_CHUNK))
def test_forest_exact_after_every_commit_on_synth(first):
    programs = list(synth_programs())[first:first + SYNTH_CHUNK]
    cache = FormationCacheStats()
    with cross_checked() as mismatches:
        for index, size, args in programs:
            base = scaled_program(size, index)
            profile = collect_profile(base.copy(), args=args)
            report = form_module(base, profile=profile)
            assert_clean(report)
            cache.add(report.stats.cache)
    assert not mismatches
    # Tail duplication dominates these programs' commits, and nearly all
    # of it keeps the forest.
    assert cache.loop_updates > cache.loop_rebuilds
