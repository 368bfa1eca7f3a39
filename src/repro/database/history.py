"""Finite-time temporal databases: histories.

A history is the paper's ``D = (D0, ..., Dt)``: a non-empty finite sequence
of database states over one vocabulary and one universe, together with the
(rigid) interpretation of the constant symbols.  Temporal integrity
constraints are checked against histories; the infinite-time objects of the
semantics only ever appear as lasso witnesses
(:mod:`repro.database.lasso`).

Histories are immutable; :meth:`History.extended` and :meth:`History.updated`
return new histories sharing state objects with the old one.  The states
are held in a tuple, so each of them copies the ``t + 1`` state
references: an append costs O(t) pointer copies, not O(1), and the cost
grows with the history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from ..errors import SchemaError, StateError
from .state import DatabaseState, Fact
from .updates import Update
from .vocabulary import Vocabulary


@dataclass(frozen=True)
class History:
    """A finite-time temporal database ``(D0, ..., Dt)``.

    Attributes
    ----------
    vocabulary:
        The shared schema of all states.
    states:
        The sequence of database states; always non-empty.
    constant_bindings:
        Interpretation of each declared constant symbol as a universe
        element — the same in every state (constants are rigid).
    """

    vocabulary: Vocabulary
    states: tuple[DatabaseState, ...]
    constant_bindings: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(
            self, "constant_bindings", dict(self.constant_bindings)
        )
        if not self.states:
            raise StateError("a history must contain at least one state")
        for state in self.states:
            self._check_state(state)
        for symbol, value in self.constant_bindings.items():
            if symbol not in self.vocabulary.constant_symbols:
                raise SchemaError(f"undeclared constant symbol {symbol!r}")
            if not isinstance(value, int) or value < 0:
                raise SchemaError(
                    f"constant {symbol!r} must denote a natural, got {value!r}"
                )
        missing = self.vocabulary.constant_symbols - set(
            self.constant_bindings
        )
        if missing:
            raise SchemaError(
                "constants without interpretation: "
                + ", ".join(sorted(missing))
            )

    def _check_state(self, state: DatabaseState) -> None:
        if state.vocabulary is not self.vocabulary and (
            state.vocabulary != self.vocabulary
        ):
            raise SchemaError(
                "all states of a history must share its vocabulary"
            )

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(
        cls,
        vocabulary: Vocabulary,
        constant_bindings: Mapping[str, int] | None = None,
    ) -> "History":
        """A history with a single empty state at instant 0."""
        return cls(
            vocabulary=vocabulary,
            states=(DatabaseState.empty(vocabulary),),
            constant_bindings=constant_bindings or {},
        )

    @classmethod
    def from_facts(
        cls,
        vocabulary: Vocabulary,
        per_state_facts: Sequence[Iterable[Fact]],
        constant_bindings: Mapping[str, int] | None = None,
    ) -> "History":
        """Build a history from one iterable of facts per time instant.

        >>> from .vocabulary import vocabulary
        >>> v = vocabulary({"Sub": 1})
        >>> h = History.from_facts(v, [[("Sub", (1,))], []])
        >>> len(h)
        2
        """
        states = tuple(
            DatabaseState.from_facts(vocabulary, facts)
            for facts in per_state_facts
        )
        return cls(
            vocabulary=vocabulary,
            states=states,
            constant_bindings=constant_bindings or {},
        )

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        """Number of states (``t + 1`` for a history ``(D0, ..., Dt)``)."""
        return len(self.states)

    def __getitem__(self, instant: int) -> DatabaseState:
        return self.states[instant]

    def __iter__(self) -> Iterator[DatabaseState]:
        return iter(self.states)

    @property
    def current(self) -> DatabaseState:
        """The latest state ``Dt``."""
        return self.states[-1]

    @property
    def now(self) -> int:
        """The current time instant ``t``."""
        return len(self.states) - 1

    def constant(self, symbol: str) -> int:
        """The (rigid) interpretation of a constant symbol."""
        try:
            return self.constant_bindings[symbol]
        except KeyError:
            raise SchemaError(
                f"constant symbol {symbol!r} has no interpretation"
            ) from None

    def active_domain(self) -> frozenset[int]:
        """Union of the active domains of all states (without constants)."""
        elements: set[int] = set()
        for state in self.states:
            elements |= state.active_domain()
        return frozenset(elements)

    def relevant_elements(self) -> frozenset[int]:
        """The paper's ``R_D``: elements interpreting a constant or occurring
        in some relation of some state."""
        return self.active_domain() | frozenset(
            self.constant_bindings.values()
        )

    def fact_count(self) -> int:
        """Total number of stored tuples across all states."""
        return sum(state.fact_count() for state in self.states)

    # -- growth -------------------------------------------------------------

    def extended(self, state: DatabaseState) -> "History":
        """A new history with one more state appended.

        Only ``state`` is validated: the earlier states and the constant
        bindings were checked when this history was built, so re-running
        ``__post_init__`` over all of them would make every append O(t)
        vocabulary comparisons.
        """
        self._check_state(state)
        history = object.__new__(History)
        object.__setattr__(history, "vocabulary", self.vocabulary)
        object.__setattr__(history, "states", self.states + (state,))
        object.__setattr__(
            history, "constant_bindings", self.constant_bindings
        )
        return history

    def updated(self, update: Update) -> "History":
        """A new history whose final state is the update applied to ``Dt``.

        This is the paper's "history ending in the state resulting from the
        update".
        """
        return self.extended(update.apply(self.current))

    # -- Lemma 4.1 machinery -----------------------------------------------

    def rename(self, mapping: Mapping[int, int]) -> "History":
        """Apply an injective renaming of universe elements everywhere."""
        return History(
            vocabulary=self.vocabulary,
            states=tuple(state.rename(mapping) for state in self.states),
            constant_bindings={
                symbol: mapping.get(value, value)
                for symbol, value in self.constant_bindings.items()
            },
        )
