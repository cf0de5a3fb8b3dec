"""Phase-ordering drivers: the paper's Table 1/3 configurations.

Each driver compiles a module with one ordering of **U**\\ nrolling,
**P**\\ eeling, **I**\\ f-conversion and scalar **O**\\ ptimization:

- ``BB`` — basic blocks as TRIPS blocks (the baseline).
- ``UPIO`` — discrete unroll/peel on the basic-block CFG (factors chosen
  from *pre-if-conversion* size estimates), then incremental acyclic
  if-conversion with tail duplication, then scalar optimizations.
- ``IUPO`` — if-conversion first, then discrete unroll/peel with accurate
  post-if-conversion sizes (implemented with head duplication against a
  precomputed factor), then optimizations.
- ``(IUP)O`` — convergent formation with head duplication integrated
  (per-iteration legality decisions) but optimization only at the end.
- ``(IUPO)`` — the full convergent algorithm: optimization inside every
  trial merge.

Each ordering, and each Table 2 column, is a :class:`FormationConfig`
value, which :func:`compile_with_ordering` applies.  Equal values are one
pipeline: Table 1's (IUPO) is Table 2's BF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.loops import Loop, LoopForest
from repro.core.constraints import TripsConstraints
from repro.core.convergent import form_module
from repro.core.merge import (
    FormationContext,
    MergeStats,
    legal_merge,
    merge_blocks,
)
from repro.core.policies import BreadthFirstPolicy, MergePolicy
from repro.ir.function import Function, Module
from repro.opt.pipeline import optimize_module
from repro.profiles.data import ProfileData
from repro.transform.loop_transforms import peel_loop, unroll_loop

@dataclass
class LoopFactors:
    """Chosen duplication amounts for one loop."""

    peel: int = 0
    unroll: int = 0


@dataclass
class FactorPolicy:
    """Heuristic knobs for discrete unroll/peel factor selection."""

    peel_limit: int = 4  # never peel more than this many iterations
    peel_coverage: float = 0.5  # fraction of visits the peel must cover
    unroll_cap: int = 7  # max extra iterations appended
    #: UPIO's handicap: the expected code-size growth of if-converting one
    #: iteration (predicate chains, merge duplication) that a pre-I size
    #: estimate cannot see.  1.0 = the (wrong) assumption the paper's UPIO
    #: baseline effectively makes.
    post_ifconvert_growth: float = 1.0
    #: if True, do not derive a capacity bound from the size estimate —
    #: the caller validates each appended iteration with the scratch-space
    #: legality check instead (IUPO: sizes are accurate post-I).
    ignore_capacity: bool = False


def choose_factors(
    func: Function,
    loop: Loop,
    profile: ProfileData,
    constraints: TripsConstraints,
    body_size: int,
    policy: Optional[FactorPolicy] = None,
) -> LoopFactors:
    """Pick peel/unroll factors for one loop from its trip-count profile.

    ``body_size`` is the caller's estimate of one iteration's instruction
    footprint — a basic-block sum for UPIO (inaccurate) or the measured
    hyperblock size for IUPO (accurate).
    """
    policy = policy or FactorPolicy()
    factors = LoopFactors()
    header = loop.header
    trips = profile.expected_trips(func.name, header)
    if trips <= 0 or body_size <= 0:
        return factors
    iterations = max(trips - 1.0, 0.0)  # header executions include exit test
    common_iters = max(profile.common_trip_count(func.name, header) - 1, 0)

    effective_size = max(1, int(body_size * policy.post_ifconvert_growth))
    if policy.ignore_capacity:
        capacity = policy.unroll_cap
    else:
        capacity = max(constraints.max_instructions // effective_size - 1, 0)

    if (
        0 < common_iters <= policy.peel_limit
        and profile.trip_count_coverage(func.name, header, common_iters + 1)
        >= policy.peel_coverage
    ):
        factors.peel = min(common_iters, capacity)
    if iterations > common_iters + 1 or factors.peel == 0:
        factors.unroll = int(min(max(iterations - 1, 0), capacity, policy.unroll_cap))
    return factors


# ---------------------------------------------------------------------------
# Discrete phases
# ---------------------------------------------------------------------------


def phase_unroll_peel_bb(
    module: Module,
    profile: ProfileData,
    constraints: TripsConstraints,
    factor_policy: Optional[FactorPolicy] = None,
    stats: Optional[MergeStats] = None,
) -> None:
    """UPIO's U/P: whole-body CFG duplication before if-conversion.

    This phase carries the two inaccuracies the paper attributes to
    pre-if-conversion unrolling:

    - factors are sized from the *hot path* through the loop (the classic
      trace-era estimate), which underestimates the real post-if-conversion
      footprint of an iteration (cold blocks get merged too, and
      predication adds instructions), so the chosen factors over-duplicate;
    - peeling is applied only to single-block loops — profile-driven
      peeling of while loops with internal control flow is exactly what
      requires head duplication.
    """
    for func in module:
        forest = LoopForest(func)
        for loop in forest.all_loops_innermost_first():
            if any(func.blocks[b].has_call() for b in loop.blocks):
                continue
            header_count = max(
                profile.block_count(func.name, loop.header), 1
            )
            body_size = sum(
                len(func.blocks[b])
                for b in loop.blocks
                if profile.block_count(func.name, b) * 2 >= header_count
            )
            factors = choose_factors(
                func, loop, profile, constraints, body_size, factor_policy
            )
            if factors.peel and len(loop.blocks) == 1:
                peel_loop(func, loop, factors.peel)
                if stats is not None:
                    stats.peels += factors.peel
            if factors.unroll:
                unroll_loop(func, loop, factors.unroll)
                if stats is not None:
                    stats.unrolls += factors.unroll


def phase_unroll_peel_hyper(
    module: Module,
    profile: ProfileData,
    constraints: TripsConstraints,
    optimize_during: bool = False,
    factor_policy: Optional[FactorPolicy] = None,
) -> MergeStats:
    """IUPO's U/P: head-duplication against factors from measured sizes.

    Runs after if-conversion, so loop bodies are hyperblocks and their real
    sizes are known.  Peeling merges the header into its (unique) outside
    predecessor; unrolling merges single-block loops with themselves.  Each
    step still goes through the scratch-space legality check.
    """
    if factor_policy is None:
        # Post-if-conversion sizes are accurate, so the per-step scratch
        # legality check *is* the capacity bound (paper: "the unroller has
        # more accurate block counts and size estimates ... after
        # if-conversion").
        factor_policy = FactorPolicy(ignore_capacity=True)
    stats = MergeStats()
    for func in module:
        ctx = FormationContext(
            func,
            profile=profile,
            constraints=constraints,
            optimize_during=optimize_during,
            allow_head_dup=True,
        )
        for header in [l.header for l in LoopForest(func).all_loops_innermost_first()]:
            loop = ctx.loops.loop_of_header(header)
            if loop is None:
                continue
            body_size = sum(len(func.blocks[b]) for b in loop.blocks)
            factors = choose_factors(
                func, loop, profile, constraints, body_size, factor_policy
            )
            for _ in range(factors.peel):
                entries = loop.entry_edges(ctx.cfg)
                if len({pred for pred, _ in entries}) != 1:
                    break
                pred = entries[0][0]
                if not legal_merge(ctx, pred, header):
                    break
                if merge_blocks(ctx, pred, header) is None:
                    break
            for _ in range(factors.unroll):
                if not legal_merge(ctx, header, header):
                    break
                if merge_blocks(ctx, header, header) is None:
                    break
        stats.add(ctx.stats)
        func.remove_unreachable_blocks()
    return stats


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormationConfig:
    """One column of Tables 1-3 as a value: what the columns vary.

    ``policy`` is the :class:`MergePolicy` class, or ``None`` for the BB
    baseline, which forms nothing.  ``prepass`` runs
    :func:`phase_unroll_peel_bb` before formation: ``"counted"`` adds its
    unrolls and peels to m/t/u/p (UPIO), ``"uncounted"`` does not (Table
    2's VLIW columns show ``u = 0``).  ``postpass`` runs
    :func:`phase_unroll_peel_hyper` after formation.  Every column forms
    under ``TripsConstraints()`` and ends with ``optimize_module``.
    """

    policy: Optional[type] = None
    prepass: Optional[str] = None
    optimize_during: bool = False
    allow_head_dup: bool = False
    postpass: bool = False

    def __call__(self, module: Module, profile: ProfileData) -> MergeStats:
        return compile_with_ordering(module, self, profile)


#: Table 1/3's orderings as :class:`FormationConfig` fields.
_ORDERINGS = {
    "BB": dict(policy=None),
    "UPIO": dict(prepass="counted"),
    "IUPO": dict(postpass=True),
    "(IUP)O": dict(allow_head_dup=True),
    "(IUPO)": dict(optimize_during=True, allow_head_dup=True),
}
ORDERINGS = tuple(_ORDERINGS)


def ordering_formation(
    ordering: str, policy: type = BreadthFirstPolicy
) -> FormationConfig:
    """The :class:`FormationConfig` of one of :data:`ORDERINGS`."""
    if ordering not in _ORDERINGS:
        raise ValueError(
            f"unknown ordering {ordering!r}; expected one of {ORDERINGS}"
        )
    return FormationConfig(**{"policy": policy, **_ORDERINGS[ordering]})


def compile_with_ordering(
    module: Module,
    ordering: str | FormationConfig,
    profile: ProfileData,
    constraints: Optional[TripsConstraints] = None,
    policy: Optional[MergePolicy] = None,
    factor_policy: Optional[FactorPolicy] = None,
) -> MergeStats:
    """Compile ``module`` in place under ``ordering``: a
    :class:`FormationConfig` or a name from :data:`ORDERINGS`.  ``policy``
    replaces a fresh instance of the configuration's policy class."""
    config = (
        ordering if isinstance(ordering, FormationConfig)
        else ordering_formation(ordering)
    )
    stats = MergeStats()
    if config.policy is None:
        return stats
    constraints = constraints or TripsConstraints()
    if config.prepass is not None:
        phase_unroll_peel_bb(
            module, profile, constraints, factor_policy,
            stats if config.prepass == "counted" else None,
        )
    stats.add(
        form_module(
            module,
            profile=profile,
            policy=policy or config.policy(),
            constraints=constraints,
            optimize_during=config.optimize_during,
            allow_head_dup=config.allow_head_dup,
        )
    )
    if config.postpass:
        stats.add(
            phase_unroll_peel_hyper(
                module, profile, constraints,
                optimize_during=config.optimize_during,
                factor_policy=factor_policy,
            )
        )
    optimize_module(module)
    return stats
