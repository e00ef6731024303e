"""Reachability analysis for user attributes under administrative rule sets.

The package answers: starting from a concrete assignment of attribute values
and group memberships, can a set of administrative roles drive the user's
*effective* attribute values to a requested target, and if so by what sequence
of requests?  It ships a bounded exhaustive search (the oracle), two
polynomial-time planners for restricted rule sets, a text format with a
formatter, and a command-line front end.
"""

from .model import (
    DirectState,
    GroupHierarchy,
    ModelError,
    ProblemInstance,
    canonical_key,
    effective_group_attr,
    effective_groups,
    effective_user_attr,
    validate_instance,
)
from .policy import (
    And,
    DirectGroup,
    DirectVal,
    EffGroup,
    EffVal,
    Level,
    Not,
    PolicyError,
    Relation,
    RestrictionFlags,
    Rule,
    RuleSet,
    TrueCond,
    check_restrictions,
    classify_level,
    conjunction,
    eval_precondition,
)
from .transition import (
    InvalidAt,
    NotAuthorized,
    Plan,
    QueryType,
    QueryUnsatisfied,
    ReachabilityQuery,
    Request,
    Valid,
    apply_request,
    authorized_rules,
    eval_query,
    step,
    validate_plan,
)
from .search import (
    Analysis,
    BoundExceeded,
    Reachable,
    SearchBounds,
    Unreachable,
    analyze,
    bfs_solve,
)
from .planner import (
    PlanResult,
    RestrictionViolation,
    solve_no_negation,
    solve_srd_no_delete,
)
from .dsl import Diagnostic, ParseResult, parse, serialize

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
