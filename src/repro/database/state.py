"""A single database state: finite relations over the countable universe.

The paper's standard assumptions (Section 2): the universe is infinite and
countable — by convention the naturals — and every predicate symbol denotes
a *finite* relation in every state.  A :class:`DatabaseState` therefore
stores only the finite set of tuples in each relation; every tuple not
stored is false (closed world).

States are immutable; updates produce new states (see
:mod:`repro.database.updates`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from ..errors import SchemaError
from .vocabulary import Vocabulary

#: A ground fact: predicate name and argument tuple.
Fact = tuple[str, tuple[int, ...]]

#: Relations of at most this many tuples are shared between states.
_SHARED_ROWS = 8


@lru_cache(maxsize=256)
def _shared(rows: frozenset[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    """One frozenset per distinct small relation content.

    A stream over a small domain repeats the same few-row relations at
    almost every instant; sharing them keeps a long history's states at
    a fraction of their size.  Bounded: at most 256 contents of at most
    :data:`_SHARED_ROWS` tuples each are held.
    """
    return rows


@dataclass(frozen=True, slots=True)
class DatabaseState:
    """An interpretation of the vocabulary at one time instant.

    Attributes
    ----------
    vocabulary:
        The schema this state conforms to.
    relations:
        ``predicate name -> finite set of tuples``.  Predicates without an
        entry are empty.
    """

    vocabulary: Vocabulary
    relations: Mapping[str, frozenset[tuple[int, ...]]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        normalized: dict[str, frozenset[tuple[int, ...]]] = {}
        for pred, tuples in self.relations.items():
            frozen = frozenset(tuple(t) for t in tuples)
            for args in frozen:
                self.vocabulary.check_fact(pred, args)
            if len(frozen) > _SHARED_ROWS:
                normalized[pred] = frozen
            elif frozen:
                normalized[pred] = _shared(frozen)
        object.__setattr__(self, "relations", normalized)

    @classmethod
    def empty(cls, vocabulary: Vocabulary) -> "DatabaseState":
        """The state in which every relation is empty."""
        return cls(vocabulary=vocabulary, relations={})

    @classmethod
    def from_facts(
        cls, vocabulary: Vocabulary, facts: Iterable[Fact]
    ) -> "DatabaseState":
        """Build a state from an iterable of ``(pred, args)`` facts."""
        relations: dict[str, set[tuple[int, ...]]] = {}
        for pred, args in facts:
            relations.setdefault(pred, set()).add(tuple(args))
        return cls(
            vocabulary=vocabulary,
            relations={p: frozenset(ts) for p, ts in relations.items()},
        )

    def holds(self, pred: str, args: tuple[int, ...]) -> bool:
        """Is the predicate true about the tuple in this state?"""
        self.vocabulary.check_fact(pred, tuple(args))
        return tuple(args) in self.relations.get(pred, frozenset())

    def relation(self, pred: str) -> frozenset[tuple[int, ...]]:
        """The (finite) interpretation of a predicate."""
        if not self.vocabulary.has_predicate(pred):
            raise SchemaError(f"unknown predicate symbol {pred!r}")
        return self.relations.get(pred, frozenset())

    def facts(self) -> Iterator[Fact]:
        """All facts of the state, predicate by predicate."""
        for pred in sorted(self.relations):
            for args in sorted(self.relations[pred]):
                yield (pred, args)

    def fact_count(self) -> int:
        """Total number of stored tuples."""
        return sum(len(tuples) for tuples in self.relations.values())

    def active_domain(self) -> frozenset[int]:
        """All universe elements occurring in some relation of this state."""
        elements: set[int] = set()
        for tuples in self.relations.values():
            for args in tuples:
                elements.update(args)
        return frozenset(elements)

    def with_facts(self, facts: Iterable[Fact]) -> "DatabaseState":
        """A new state with the given facts added."""
        relations = {p: set(ts) for p, ts in self.relations.items()}
        for pred, args in facts:
            relations.setdefault(pred, set()).add(tuple(args))
        return DatabaseState(
            vocabulary=self.vocabulary,
            relations={p: frozenset(ts) for p, ts in relations.items()},
        )

    def without_facts(self, facts: Iterable[Fact]) -> "DatabaseState":
        """A new state with the given facts removed (missing facts ignored)."""
        relations = {p: set(ts) for p, ts in self.relations.items()}
        for pred, args in facts:
            relations.get(pred, set()).discard(tuple(args))
        return DatabaseState(
            vocabulary=self.vocabulary,
            relations={p: frozenset(ts) for p, ts in relations.items() if ts},
        )

    def rename(self, mapping: Mapping[int, int]) -> "DatabaseState":
        """Apply an injective renaming of universe elements."""
        values = list(mapping.values())
        if len(set(values)) != len(values):
            raise ValueError("renaming must be injective")
        return DatabaseState(
            vocabulary=self.vocabulary,
            relations={
                pred: frozenset(
                    tuple(mapping.get(value, value) for value in args)
                    for args in tuples
                )
                for pred, tuples in self.relations.items()
            },
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseState):
            return NotImplemented
        return self.relations == other.relations

    def __hash__(self) -> int:
        return hash(
            frozenset((pred, tuples) for pred, tuples in self.relations.items())
        )
