"""QAOA-in-QAOA (QAOA²): the paper's divide-and-conquer MaxCut method."""

from repro.qaoa2.merge import (
    MergeProblem,
    apply_flips,
    assemble_global_assignment,
    build_merge_problem,
)
from repro.qaoa2.selection import ClassifierPolicy, DensityPolicy, KnowledgeBasePolicy
from repro.qaoa2.solver import (
    LevelRecord,
    QAOA2Result,
    QAOA2Solver,
    SubgraphRecord,
    expected_subproblem_count,
)

__all__ = [
    "MergeProblem",
    "assemble_global_assignment",
    "build_merge_problem",
    "apply_flips",
    "DensityPolicy",
    "KnowledgeBasePolicy",
    "ClassifierPolicy",
    "QAOA2Solver",
    "QAOA2Result",
    "SubgraphRecord",
    "LevelRecord",
    "expected_subproblem_count",
]
