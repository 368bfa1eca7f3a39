"""The paper's primary contribution: temporal integrity checking.

Grounding and the Theorem 4.1 reduction, the potential-satisfaction checker
(with certifiable witnesses), the incremental online monitor, and the dual
trigger machinery.
"""

from .analysis import (
    AnalysisResult,
    equivalent_universal,
    implies_universal,
    redundant_constraints,
)
from .checker import (
    CheckResult,
    certify,
    check_extension,
    potentially_satisfied,
    validate_constraint,
)
from .grounding import (
    Anon,
    EqAtom,
    GroundAtom,
    GroundContext,
    GroundElement,
    RelAtom,
    build_axioms,
    decide_equality,
    eq_prop,
    ground,
    rel_prop,
)
from .monitor import EntrySnapshot, IntegrityMonitor, MonitorStats, UpdateReport
from .parallel import parallel_map, resolve_jobs, split_chunks
from .plan import (
    ConstraintPlan,
    MonitorPlan,
    partition_constraints,
    plan_constraints,
)
from .reduction import (
    Reduction,
    constraint_relevant_elements,
    decode_lasso,
    decode_state,
    ground_domain,
    reduce_universal,
    state_to_props,
)
from .triggers import (
    Firing,
    Trigger,
    TriggerManager,
    candidate_substitutions,
    fires,
    firings,
)

__all__ = [
    "AnalysisResult",
    "Anon",
    "CheckResult",
    "ConstraintPlan",
    "EntrySnapshot",
    "EqAtom",
    "Firing",
    "GroundAtom",
    "GroundContext",
    "GroundElement",
    "IntegrityMonitor",
    "MonitorPlan",
    "MonitorStats",
    "Reduction",
    "RelAtom",
    "Trigger",
    "TriggerManager",
    "UpdateReport",
    "build_axioms",
    "candidate_substitutions",
    "certify",
    "check_extension",
    "constraint_relevant_elements",
    "decide_equality",
    "decode_lasso",
    "decode_state",
    "eq_prop",
    "equivalent_universal",
    "fires",
    "firings",
    "ground",
    "ground_domain",
    "implies_universal",
    "parallel_map",
    "partition_constraints",
    "plan_constraints",
    "potentially_satisfied",
    "reduce_universal",
    "redundant_constraints",
    "rel_prop",
    "resolve_jobs",
    "split_chunks",
    "state_to_props",
    "validate_constraint",
]
