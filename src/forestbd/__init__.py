"""Backdoor sets of CNF formulas to the class of acyclic formulas.

Detects weak, strong, and deletion backdoor sets, and counts satisfying
assignments exactly by summing acyclic counts over a strong backdoor's
restrictions.
"""

from .acyclic import ModelCount, count_models, satisfying_assignment
from .backdoors import (
    BackdoorVerdict,
    is_deletion_backdoor,
    is_strong_backdoor,
    restriction_is_acyclic,
    weak_backdoor_witness,
)
from .errors import (
    ContractError,
    CyclicInputError,
    DimacsError,
    ForestBDError,
    ResourceLimitError,
)
from .formula import Assignment, Clause, Formula, emit_dimacs, parse_dimacs
from .generators import grid_formula, hitting_set_formula, random_rcnf
from .graphs import (
    Cycle,
    CyclePacking,
    FeedbackSet,
    disjoint_cycles_or_feedback,
    incidence_graph,
    is_acyclic,
    shortest_cycle,
)
from .oracle import OracleReport, brute_count, brute_min_backdoor
from .strong import (
    StrongParameters,
    count_with_backdoor,
    detect_deletion,
    detect_strong,
    strong_exact_search,
)
from .weak import WeakParameters, detect_weak, weak_exact_search

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BackdoorVerdict",
    "Clause",
    "ContractError",
    "CyclicInputError",
    "Cycle",
    "CyclePacking",
    "DimacsError",
    "FeedbackSet",
    "Formula",
    "ForestBDError",
    "ModelCount",
    "OracleReport",
    "ResourceLimitError",
    "StrongParameters",
    "WeakParameters",
    "brute_count",
    "brute_min_backdoor",
    "count_models",
    "count_with_backdoor",
    "detect_deletion",
    "detect_strong",
    "detect_weak",
    "disjoint_cycles_or_feedback",
    "emit_dimacs",
    "grid_formula",
    "hitting_set_formula",
    "incidence_graph",
    "is_acyclic",
    "is_deletion_backdoor",
    "is_strong_backdoor",
    "parse_dimacs",
    "random_rcnf",
    "restriction_is_acyclic",
    "satisfying_assignment",
    "shortest_cycle",
    "strong_exact_search",
    "weak_backdoor_witness",
    "weak_exact_search",
    "__version__",
]
