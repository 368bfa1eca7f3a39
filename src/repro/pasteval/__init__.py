"""Past-formula evaluation machinery and the weaker-notion baseline.

* :class:`IncrementalPastEvaluator` — the history-less evaluation scheme
  the paper's Section 6 points at (Chomicki, ICDE 1992): per-update cost
  and memory independent of the history length.
  :class:`repro.core.IntegrityMonitor` checks each ``forall* G (past)``
  constraint of Proposition 2.1 on one of these, and checkpoints it as
  its seen-set and memory tables.
* :class:`WeakTruncationChecker` — the weaker detection notion of prior
  monitoring methods (Section 5), used as the comparison baseline in
  experiment E7.
"""

from .baseline import BaselineReport, WeakTruncationChecker
from .incremental import IncrementalPastEvaluator

__all__ = [
    "BaselineReport",
    "IncrementalPastEvaluator",
    "WeakTruncationChecker",
]
