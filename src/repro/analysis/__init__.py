"""CFG analyses: dominators, loops, liveness, dependence graphs."""

from repro.analysis.depgraph import dep_preds, dependence_height
from repro.analysis.dominators import DominatorTree, reverse_postorder
from repro.analysis.liveness import Liveness
from repro.analysis.loops import Loop, LoopForest

__all__ = [
    "DominatorTree",
    "Liveness",
    "Loop",
    "LoopForest",
    "dep_preds",
    "dependence_height",
    "reverse_postorder",
]
