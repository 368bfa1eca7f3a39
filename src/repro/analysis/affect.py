"""Polarity-aware affect sets and the update-dependence index.

The classic integrity-checking observation (Nicolas' simplification method,
restated for the temporal setting): whether an update *can* violate a
constraint is decidable statically from the polarity of the constraint's
literal occurrences.  Inserting a tuple into ``R`` can only falsify a
constraint in which ``R`` occurs *negatively*; deleting one can only falsify
a constraint in which ``R`` occurs *positively*.  (Monotone occurrences are
preserved by growing the relation, anti-monotone ones by shrinking it; every
temporal connective of the paper's language is monotone, so polarity is the
usual propositional count with ``Not`` flips.)

Two layers live here:

* :func:`affect_set` — a single constraint's :class:`AffectSet`: for every
  relation the number of positive and negative literal occurrences.
* :class:`UpdateDependencyIndex` — the inverted map over a whole monitored
  set: relation -> constraints it can violate (on insert / on delete), plus
  the coarser "mentions at all" map.

Polarity is computed on the *original* formula with an explicit negation
flag rather than on the NNF: the repo's :func:`repro.logic.transform.nnf`
deliberately leaves ``Not`` in front of past connectives, so counting after
NNF would misclassify past-time constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Mapping

from ..logic.formulas import Atom, Formula, Iff, Implies, Not

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..database.vocabulary import Vocabulary

__all__ = [
    "Polarity",
    "RelationProfile",
    "AffectSet",
    "affect_set",
    "UpdateDependencyIndex",
]


class Polarity(Enum):
    """Sign of a literal occurrence."""

    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class RelationProfile:
    """Occurrence counts of one relation inside one constraint."""

    relation: str
    positive: int = 0
    negative: int = 0

    @property
    def pure_positive(self) -> bool:
        """Every occurrence is positive (so deletes are the only threat)."""
        return self.positive > 0 and self.negative == 0

    @property
    def pure_negative(self) -> bool:
        """Every occurrence is negative (so inserts are the only threat)."""
        return self.negative > 0 and self.positive == 0

    @property
    def mixed(self) -> bool:
        """Both polarities occur: any update to the relation is a threat."""
        return self.positive > 0 and self.negative > 0


@dataclass(frozen=True)
class AffectSet:
    """The statically computed update-sensitivity of one constraint.

    ``profiles`` is sorted by relation name so equal affect sets are equal
    (and hashable) regardless of traversal order.
    """

    profiles: tuple[RelationProfile, ...] = ()

    def relations(self) -> frozenset[str]:
        """The relations the constraint mentions at all."""
        return frozenset(p.relation for p in self.profiles)

    def profile(self, relation: str) -> RelationProfile | None:
        """The occurrence profile of ``relation`` (None if unmentioned)."""
        for p in self.profiles:
            if p.relation == relation:
                return p
        return None

    def pairs(self) -> tuple[tuple[str, Polarity], ...]:
        """The flat ``(relation, polarity)`` view of the affect set."""
        out: list[tuple[str, Polarity]] = []
        for p in self.profiles:
            if p.positive:
                out.append((p.relation, Polarity.POSITIVE))
            if p.negative:
                out.append((p.relation, Polarity.NEGATIVE))
        return tuple(out)

    def can_violate(self, relation: str, kind: str) -> bool:
        """Can an update of ``kind`` (``"insert"``/``"delete"``) to
        ``relation`` falsify the constraint?

        Insertions threaten negative occurrences; deletions threaten
        positive ones.  A relation the constraint never mentions threatens
        nothing.
        """
        if kind not in ("insert", "delete"):
            raise ValueError(f"unknown update kind: {kind!r}")
        p = self.profile(relation)
        if p is None:
            return False
        return p.negative > 0 if kind == "insert" else p.positive > 0

    @property
    def pure_negative(self) -> bool:
        """Every literal occurrence in the constraint is negative."""
        return bool(self.profiles) and all(
            p.pure_negative for p in self.profiles
        )

    @property
    def state_independent(self) -> bool:
        """The constraint mentions no database relation at all."""
        return not self.profiles


def affect_set(formula: Formula) -> AffectSet:
    """Compute the :class:`AffectSet` of ``formula``.

    Counts literal occurrences with an explicit polarity flag: ``Not`` and
    the antecedent of ``Implies`` flip it, ``Iff`` contributes both signs,
    every other connective (boolean, quantifier, temporal — all monotone)
    passes it through.  Equality atoms are not database literals and are
    ignored.
    """
    counts: dict[str, list[int]] = {}

    def walk(node: Formula, negate: bool) -> None:
        if isinstance(node, Atom):
            slot = counts.setdefault(node.pred, [0, 0])
            slot[1 if negate else 0] += 1
            return
        if isinstance(node, Not):
            walk(node.operand, not negate)
            return
        if isinstance(node, Implies):
            walk(node.antecedent, not negate)
            walk(node.consequent, negate)
            return
        if isinstance(node, Iff):
            for side in (node.left, node.right):
                walk(side, negate)
                walk(side, not negate)
            return
        for child in node.children:
            walk(child, negate)

    walk(formula, False)
    profiles = tuple(
        RelationProfile(relation=name, positive=pos, negative=neg)
        for name, (pos, neg) in sorted(counts.items())
    )
    return AffectSet(profiles=profiles)


class UpdateDependencyIndex:
    """Inverted dependence map over a whole monitored constraint set.

    Built once from a constraint set, before any history arrives.
    ``repro-tic analyze-deps`` emits it as the dependence matrix; its
    :meth:`dead` and :meth:`unmonitored` views are the claims behind lint
    codes TIC120 and TIC121.
    """

    def __init__(self, constraints: Mapping[str, Formula]) -> None:
        self.affects: dict[str, AffectSet] = {
            name: affect_set(f) for name, f in constraints.items()
        }
        monitored: dict[str, list[str]] = {}
        insert_v: dict[str, list[str]] = {}
        delete_v: dict[str, list[str]] = {}
        for name, aff in self.affects.items():
            for p in aff.profiles:
                monitored.setdefault(p.relation, []).append(name)
                if p.negative:
                    insert_v.setdefault(p.relation, []).append(name)
                if p.positive:
                    delete_v.setdefault(p.relation, []).append(name)
        self.monitored_by: dict[str, tuple[str, ...]] = {
            rel: tuple(names) for rel, names in monitored.items()
        }
        self.insert_violates: dict[str, tuple[str, ...]] = {
            rel: tuple(names) for rel, names in insert_v.items()
        }
        self.delete_violates: dict[str, tuple[str, ...]] = {
            rel: tuple(names) for rel, names in delete_v.items()
        }

    def constraints(self) -> tuple[str, ...]:
        """The monitored constraint names, in registration order."""
        return tuple(self.affects)

    def affect(self, name: str) -> AffectSet:
        """The affect set of the named constraint."""
        return self.affects[name]

    def relations(self) -> frozenset[str]:
        """Every relation mentioned by at least one constraint."""
        return frozenset(self.monitored_by)

    def unmonitored(self, vocab: "Vocabulary") -> tuple[str, ...]:
        """Declared relations no constraint mentions (updates free-fly)."""
        return tuple(
            sorted(
                name
                for name in vocab.predicates
                if name not in self.monitored_by
            )
        )

    def dead(self, vocab: "Vocabulary") -> tuple[str, ...]:
        """Constraints whose relations all fall outside the vocabulary.

        No expressible update can ever affect such a constraint: its
        verdict is fixed by the initial state.  Constraints mentioning *no*
        relation are reported by the idle analysis instead (TIC123).
        """
        out = []
        for name, aff in self.affects.items():
            rels = aff.relations()
            if rels and not any(vocab.has_predicate(r) for r in rels):
                out.append(name)
        return tuple(out)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready view (used by ``repro-tic analyze-deps``)."""
        return {
            "constraints": {
                name: {
                    "relations": {
                        p.relation: {
                            "positive": p.positive,
                            "negative": p.negative,
                        }
                        for p in aff.profiles
                    },
                    "pure_negative": aff.pure_negative,
                    "state_independent": aff.state_independent,
                }
                for name, aff in self.affects.items()
            },
            "relations": {
                rel: {
                    "monitored_by": list(self.monitored_by.get(rel, ())),
                    "insert_violates": list(self.insert_violates.get(rel, ())),
                    "delete_violates": list(self.delete_violates.get(rel, ())),
                }
                for rel in sorted(self.monitored_by)
            },
        }

