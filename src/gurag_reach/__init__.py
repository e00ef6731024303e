"""Reachability analysis for user attributes under administrative rule sets.

The package answers: starting from a concrete assignment of attribute values
and group memberships, can a set of administrative roles drive the user's
*effective* attribute values to a requested target, and if so by what sequence
of requests?  It ships a bounded exhaustive search (the oracle), two
polynomial-time planners for restricted rule sets, a text format with a
formatter, and a command-line front end.

Each public name is imported from its module on first access, so that
``import gurag_reach`` (and a CLI run, which imports the package first) loads
no engine it does not use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each module and the public names it defines
_NAMES = {
    "model": ("DirectState", "GroupHierarchy", "ModelError", "ProblemInstance",
              "effective_group_attr", "effective_groups", "effective_user_attr",
              "validate_instance"),
    "policy": ("And", "DirectGroup", "DirectVal", "EffGroup", "EffVal", "Level", "Not",
               "PolicyError", "Relation", "RestrictionFlags", "RestrictionViolation", "Rule",
               "RuleSet", "TrueCond", "conjunction"),
    "transition": ("InvalidAt", "Plan", "QueryType", "QueryUnsatisfied", "ReachabilityQuery",
                   "Request", "Valid", "eval_query", "validate_plan"),
    "search": ("Analysis", "BoundExceeded", "Reachable", "SearchBounds", "Unreachable",
               "analyze", "bfs_solve"),
    "planner": ("PlanResult", "solve_no_negation", "solve_srd_no_delete"),
    "dsl": ("Diagnostic", "ParseResult", "parse", "serialize"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

# the public names, not the submodules
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
