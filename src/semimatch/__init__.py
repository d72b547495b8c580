"""All-norm load balancing (semi-matching) solver suite.

Sequential near-linear O(1)-approximation, round-accounted CONGEST/LOCAL
simulations, and brute-force oracles for small instances.
"""

from .instance import (
    Instance,
    InstanceError,
    WeightClass,
    build_instance,
    generate_instance,
    normalize_weights,
    read_instance,
    weight_classes,
    write_instance,
)
from .matching import (
    CapacityProfile,
    CapMatching,
    blocking_flow_matching,
    eliminate_short_paths,
    is_client_perfect,
)
from .rounding import SplitAssignment, cancel_cycles, round_split, star_round
from .simulate import SimTrace, round_budget, run_simulation, verify_message_budget
from .solvers import (
    Assignment,
    InfeasibleError,
    LoadVector,
    MultiAssignment,
    solve_backup,
    solve_sequential,
    solve_unweighted,
    solve_weighted_congest,
    solve_weighted_local,
    split_assignment_seq,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
