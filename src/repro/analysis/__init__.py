"""Static update–constraint dependence analysis.

Everything here is computed *before* any history arrives: which relations a
constraint mentions and with what polarity (:mod:`.affect`), and how a
formula behaves across instants that do not touch it (:mod:`.idle`).  The
TIC12x lint passes, ``repro-tic analyze-deps`` and the trigger manager's
sweep skip consume these; DESIGN.md section 9 carries the soundness
arguments.
"""

from .affect import (
    AffectSet,
    Polarity,
    RelationProfile,
    UpdateDependencyIndex,
    affect_set,
)
from .hierarchy import (
    RETIRABLE_CLASSES,
    SAFE_CLASSES,
    HierarchyClass,
    HierarchyInfo,
    backend_for,
    classify_hierarchy,
    classify_ptl_hierarchy,
    is_past_closed,
)
from .idle import IdleClass, idle_class, static_verdict

__all__ = [
    "AffectSet",
    "Polarity",
    "RelationProfile",
    "UpdateDependencyIndex",
    "affect_set",
    "HierarchyClass",
    "HierarchyInfo",
    "SAFE_CLASSES",
    "RETIRABLE_CLASSES",
    "backend_for",
    "classify_hierarchy",
    "classify_ptl_hierarchy",
    "is_past_closed",
    "IdleClass",
    "idle_class",
    "static_verdict",
]
