"""Updates: the transitions between consecutive database states.

The paper's framework checks constraints "after an update": the history
grows by one state at a time, each new state obtained from the previous one
by inserting and deleting tuples.  An :class:`Update` is such a delta; it is
what applications hand to the online monitor
(:class:`repro.core.monitor.IntegrityMonitor`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StateError
from .state import DatabaseState, Fact


@dataclass(frozen=True)
class Update:
    """A set of insertions and deletions applied atomically.

    An update inserting and deleting the same fact is rejected (the paper's
    model has no ordering within a transition).
    """

    inserts: frozenset[Fact] = frozenset()
    deletes: frozenset[Fact] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "inserts",
            frozenset((p, tuple(a)) for p, a in self.inserts),
        )
        object.__setattr__(
            self,
            "deletes",
            frozenset((p, tuple(a)) for p, a in self.deletes),
        )
        overlap = self.inserts & self.deletes
        if overlap:
            raise StateError(
                f"update both inserts and deletes: {sorted(overlap)}"
            )

    @classmethod
    def insert(cls, *facts: Fact) -> "Update":
        """An update that only inserts."""
        return cls(inserts=frozenset(facts))

    @classmethod
    def delete(cls, *facts: Fact) -> "Update":
        """An update that only deletes."""
        return cls(deletes=frozenset(facts))

    @classmethod
    def noop(cls) -> "Update":
        """The empty update (the state persists unchanged)."""
        return cls()

    def is_noop(self) -> bool:
        return not self.inserts and not self.deletes

    def apply(self, state: DatabaseState) -> DatabaseState:
        """The successor state after this update."""
        return state.without_facts(self.deletes).with_facts(self.inserts)

    def touched_elements(self) -> frozenset[int]:
        """Universe elements mentioned by the update."""
        elements: set[int] = set()
        for _pred, args in self.inserts | self.deletes:
            elements.update(args)
        return frozenset(elements)

    def __or__(self, other: "Update") -> "Update":
        """Merge two updates (conflicts raise via the constructor check)."""
        return Update(
            inserts=self.inserts | other.inserts,
            deletes=self.deletes | other.deletes,
        )


def diff_states(before: DatabaseState, after: DatabaseState) -> Update:
    """The update transforming ``before`` into ``after``."""
    inserts: set[Fact] = set()
    deletes: set[Fact] = set()
    predicates = set(before.relations) | set(after.relations)
    for pred in predicates:
        old = before.relations.get(pred, frozenset())
        new = after.relations.get(pred, frozenset())
        inserts.update((pred, args) for args in new - old)
        deletes.update((pred, args) for args in old - new)
    return Update(inserts=frozenset(inserts), deletes=frozenset(deletes))
