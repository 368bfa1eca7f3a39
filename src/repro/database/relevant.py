"""Relevant-domain machinery (Section 4 / Lemma 4.1).

An element of the universe is *relevant* to a database if it interprets a
constant symbol or occurs in some relation of some state; everything else is
irrelevant.  Lemma 4.1 is the key model-theoretic step behind the reduction:
if a history extends to a model of a universal safety sentence at all, it
extends to one whose relevant set never grows beyond ``R_D`` — so the
grounding only ever needs ``R_D`` plus ``k`` anonymous placeholder elements
(one per external quantifier).

This module also provides canonicalization: two histories that differ only
by an injective renaming of irrelevant structure are equivalent for every
constraint, and tests use :func:`canonical_form` to exploit that.
"""

from __future__ import annotations

from typing import Iterator

from .history import History


def relevant_elements(history: History) -> frozenset[int]:
    """The paper's ``R_D`` for a finite history."""
    return history.relevant_elements()


def irrelevant_elements(history: History, bound: int) -> Iterator[int]:
    """Irrelevant naturals below ``bound`` (the set ``I_D``, truncated).

    ``I_D`` is infinite for a finite history; callers take as many fresh
    elements as they need.
    """
    relevant = history.relevant_elements()
    for value in range(bound):
        if value not in relevant:
            yield value


def fresh_elements(history: History, count: int) -> tuple[int, ...]:
    """``count`` irrelevant elements, smallest first.

    These play the role of the symbols ``z1, ..., zk`` in Theorem 4.1: a
    supply of anonymous elements outside ``R_D``.
    """
    relevant = history.relevant_elements()
    result: list[int] = []
    candidate = 0
    while len(result) < count:
        if candidate not in relevant:
            result.append(candidate)
        candidate += 1
    return tuple(result)


def canonical_form(history: History) -> History:
    """Rename the relevant elements onto ``0..|R_D|-1``, order-preserving.

    Two histories with the same canonical form are isomorphic, hence
    indistinguishable by any constraint (formulas cannot name raw universe
    elements, only constants).
    """
    relevant = sorted(history.relevant_elements())
    mapping = {value: index for index, value in enumerate(relevant)}
    return history.rename(mapping)

