"""Database vocabularies: predicate symbols with arities, constant symbols.

Section 2 of the paper fixes a finite vocabulary of predicate symbols (each
with arity >= 1) and constant symbols.  Equality is *not* a database
predicate (it denotes an infinite relation), and in the extended vocabulary
of Section 3 the symbols ``<=``, ``succ``, and ``Zero`` likewise denote
fixed, infinite relations over the universe; those are handled by the
evaluators directly (see :mod:`repro.eval`) rather than stored in states.

A :class:`Vocabulary` is immutable; build one with :func:`vocabulary` or
infer one from a formula with :meth:`Vocabulary.from_formula`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..errors import SchemaError
from ..logic.formulas import Formula

#: Names reserved for the extended vocabulary of Section 3; they are
#: interpreted rigidly by the evaluators and cannot be declared as
#: database predicates.
BUILTIN_PREDICATES: Mapping[str, int] = {"leq": 2, "succ": 2, "Zero": 1}


@dataclass(frozen=True)
class Vocabulary:
    """A finite database vocabulary.

    Attributes
    ----------
    predicates:
        Mapping from predicate name to arity (>= 1).
    constant_symbols:
        The declared constant symbol names.  Their interpretation (which
        universe element each denotes) belongs to the database, not the
        vocabulary.
    """

    predicates: Mapping[str, int] = field(default_factory=dict)
    constant_symbols: frozenset[str] = frozenset()
    _hash: int = field(
        init=False, repr=False, compare=False, default=0
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "predicates", dict(self.predicates))
        object.__setattr__(
            self, "constant_symbols", frozenset(self.constant_symbols)
        )
        for name, arity in self.predicates.items():
            if name in BUILTIN_PREDICATES:
                raise SchemaError(
                    f"predicate name {name!r} is reserved for the extended "
                    "vocabulary (interpreted rigidly by the evaluators)"
                )
            if not isinstance(arity, int) or arity < 1:
                raise SchemaError(
                    f"predicate {name!r} must have arity >= 1, got {arity!r}"
                )
        # Predicates are stored as a plain dict (picklable, preserves the
        # declaration interface), which would make the frozen dataclass
        # unhashable; an explicit order-independent hash restores it so
        # vocabularies can key memo tables (e.g. the lint report cache).
        object.__setattr__(
            self,
            "_hash",
            hash(
                (
                    frozenset(self.predicates.items()),
                    self.constant_symbols,
                )
            ),
        )

    def __hash__(self) -> int:
        return self._hash

    def arity(self, name: str) -> int:
        """Arity of a declared predicate."""
        try:
            return self.predicates[name]
        except KeyError:
            raise SchemaError(f"unknown predicate symbol {name!r}") from None

    def has_predicate(self, name: str) -> bool:
        return name in self.predicates

    def check_fact(self, pred: str, args: tuple[int, ...]) -> None:
        """Validate one ground fact against the vocabulary.

        Raises :class:`SchemaError` on unknown predicate, wrong arity, or
        non-natural arguments (the universe is the set of naturals;
        ``True``/``False`` are refused, as the history codec refuses them).
        """
        arity = self.arity(pred)
        if len(args) != arity:
            raise SchemaError(
                f"predicate {pred!r} has arity {arity}, got {len(args)} "
                f"argument(s): {args!r}"
            )
        for value in args:
            if not isinstance(value, int) or isinstance(value, bool) or (
                value < 0
            ):
                raise SchemaError(
                    f"universe elements are naturals; got {value!r} in "
                    f"{pred}{args!r}"
                )

    def max_arity(self) -> int:
        """The ``l`` of Theorem 4.2: maximum arity of database relations."""
        if not self.predicates:
            return 1
        return max(self.predicates.values())

    def merge(self, other: "Vocabulary") -> "Vocabulary":
        """Union of two vocabularies; conflicting arities raise."""
        merged = dict(self.predicates)
        for name, arity in other.predicates.items():
            if merged.get(name, arity) != arity:
                raise SchemaError(
                    f"predicate {name!r} declared with arities "
                    f"{merged[name]} and {arity}"
                )
            merged[name] = arity
        return Vocabulary(
            predicates=merged,
            constant_symbols=self.constant_symbols | other.constant_symbols,
        )

    @classmethod
    def from_formula(cls, formula: Formula) -> "Vocabulary":
        """Infer the vocabulary used by a formula.

        Built-in extended-vocabulary predicates are skipped (they are not
        database relations).
        """
        predicates: dict[str, int] = {}
        for pred, arity in formula.predicates():
            if pred in BUILTIN_PREDICATES:
                if BUILTIN_PREDICATES[pred] != arity:
                    raise SchemaError(
                        f"built-in predicate {pred!r} used with arity {arity}"
                    )
                continue
            if predicates.get(pred, arity) != arity:
                raise SchemaError(
                    f"predicate {pred!r} used with arities "
                    f"{predicates[pred]} and {arity}"
                )
            predicates[pred] = arity
        constant_symbols = frozenset(c.name for c in formula.constants())
        return cls(predicates=predicates, constant_symbols=constant_symbols)


def vocabulary(
    predicates: Mapping[str, int] | Iterable[tuple[str, int]],
    constants: Iterable[str] = (),
) -> Vocabulary:
    """Convenience constructor.

    >>> v = vocabulary({"Sub": 1, "Fill": 1})
    >>> v.arity("Sub")
    1
    """
    if not isinstance(predicates, Mapping):
        predicates = dict(predicates)
    return Vocabulary(
        predicates=predicates, constant_symbols=frozenset(constants)
    )
