"""Temporal database substrate: vocabularies, states, histories, lassos.

Implements the paper's data model (Section 2): finite relations over a
countable universe (the naturals), rigid constants, finite-time temporal
databases (histories), and ultimately-periodic infinite-time databases
(lasso witnesses), plus the relevant-domain machinery of Lemma 4.1.
"""

from .history import History
from .lasso import LassoDatabase
from .relevant import (
    canonical_form,
    fresh_elements,
    irrelevant_elements,
    relevant_elements,
    restricted_to_relevant,
)
from .serialize import (
    MONITOR_SNAPSHOT_FORMAT,
    dump_history,
    history_from_dict,
    history_to_dict,
    lasso_from_dict,
    lasso_to_dict,
    load_history,
    monitor_from_dict,
    monitor_to_dict,
    ptl_from_jsonable,
    ptl_to_jsonable,
    state_from_dict,
    state_to_dict,
    vocabulary_from_dict,
    vocabulary_to_dict,
)
from .state import DatabaseState, Fact
from .updates import Update, UpdateLog, diff_states
from .vocabulary import BUILTIN_PREDICATES, Vocabulary, vocabulary

__all__ = [
    "BUILTIN_PREDICATES",
    "DatabaseState",
    "Fact",
    "History",
    "LassoDatabase",
    "MONITOR_SNAPSHOT_FORMAT",
    "Update",
    "UpdateLog",
    "Vocabulary",
    "canonical_form",
    "diff_states",
    "dump_history",
    "fresh_elements",
    "history_from_dict",
    "history_to_dict",
    "irrelevant_elements",
    "lasso_from_dict",
    "lasso_to_dict",
    "load_history",
    "monitor_from_dict",
    "monitor_to_dict",
    "ptl_from_jsonable",
    "ptl_to_jsonable",
    "relevant_elements",
    "restricted_to_relevant",
    "state_from_dict",
    "state_to_dict",
    "vocabulary",
    "vocabulary_from_dict",
    "vocabulary_to_dict",
]
