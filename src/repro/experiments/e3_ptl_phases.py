"""E3 — Lemma 4.2: the two phases of the propositional extension check.

Phase 1 (progression through the prefix) is ``O(t * |psi|)``; phase 2
(satisfiability of the remainder) is ``2^O(|psi|)`` and independent of
``t``.  Two sweeps make the shapes visible:

* prefix-length sweep at fixed formula, over prefixes *consistent* with
  the formula (so progression neither collapses to false nor to true and
  must do the full linear pass): phase 1 linear, phase 2 flat;
* formula-size sweep at fixed prefix, over a ring of obligations whose
  automaton product is exponential: phase 2 explodes, phase 1 stays
  proportional to ``t * |psi|``.

The ring ``G (p_i -> X (q_i | q_{i+1 mod n}))`` chains every obligation to
its neighbour through a shared ``q`` letter.  The family of *independent*
obligations ``G (p_i -> X q_i)`` is swept too (``formula-disjoint``
rows) and stays flat: its conjuncts share no letter, so the Büchi kernel
decides each one alone and the exponent only covers the largest
letter-connected group.
"""

from __future__ import annotations

from ..ptl.caches import clear_all_caches
from ..ptl.extension import check_extension_detailed
from ..ptl.formulas import (
    PTLFormula,
    palways,
    pand,
    pimplies,
    pnext,
    por,
    prop,
)
from .common import print_table


def _cycle_formula(letters: int) -> PTLFormula:
    """``G (p_i -> X p_{i+1 mod n})`` for all i — satisfiable, never
    collapsing under progression along its own cyclic models."""
    return pand(
        *(
            palways(
                pimplies(
                    prop(f"p{index}"),
                    pnext(prop(f"p{(index + 1) % letters}")),
                )
            )
            for index in range(letters)
        )
    )


def _cycle_prefix(length: int, letters: int) -> list[frozenset[PTLFormula]]:
    """States tracing the formula's intended model: p_{t mod n} at t."""
    return [
        frozenset({prop(f"p{instant % letters}")})
        for instant in range(length)
    ]


def _ring_formula(width: int) -> PTLFormula:
    """``G (p_i -> X (q_i | q_{i+1 mod n}))``: neighbouring obligations
    share a ``q`` letter, so the conjunction is one letter-connected group
    and its automaton a product over all ``width`` obligations."""
    q = [prop(f"q{index}") for index in range(width)]
    return pand(
        *(
            palways(
                pimplies(
                    prop(f"p{index}"),
                    pnext(por(q[index], q[(index + 1) % width])),
                )
            )
            for index in range(width)
        )
    )


def _obligation_formula(width: int) -> PTLFormula:
    """``G (p_i -> X q_i)`` for independent letter pairs: the undecomposed
    automaton is a product over pairs, but no two conjuncts share a
    letter, so the kernel decides them one by one."""
    return pand(
        *(
            palways(pimplies(prop(f"p{index}"), pnext(prop(f"q{index}"))))
            for index in range(width)
        )
    )


def _all_p_prefix(length: int, width: int) -> list[frozenset[PTLFormula]]:
    """Every p letter in every state: keeps all obligations alive."""
    state = frozenset(
        {prop(f"p{index}") for index in range(width)}
        | {prop(f"q{index}") for index in range(width)}
    )
    return [state] * length


def run(fast: bool = False) -> list[dict]:
    rows: list[dict] = []

    # Sweep 1: prefix length, fixed formula.
    lengths = (100, 400, 1600) if fast else (100, 400, 1600, 6400)
    formula = _cycle_formula(3)
    for length in lengths:
        prefix = _cycle_prefix(length, 3)
        # Measure each point cold: the PTL core memoizes progression, NNF,
        # and automata across calls, which would otherwise turn every
        # sweep point after the first into a cache replay and hide the
        # Lemma 4.2 phase shapes this experiment exists to show.
        clear_all_caches()
        result = check_extension_detailed(prefix, formula)
        assert result.extendable
        rows.append(
            {
                "sweep": "prefix",
                "t": length,
                "|psi|": formula.size(),
                "progress_s": result.progression_seconds,
                "sat_s": result.satisfiability_seconds,
            }
        )

    # Sweep 2: formula size, fixed prefix; the ring, then the disjoint
    # family for the record.
    widths = (2, 3, 4, 5) if fast else (2, 3, 4, 5, 6)
    for sweep, family in (
        ("formula", _ring_formula),
        ("formula-disjoint", _obligation_formula),
    ):
        for width in widths:
            formula = family(width)
            prefix = _all_p_prefix(10, width)
            clear_all_caches()
            result = check_extension_detailed(prefix, formula)
            assert result.extendable
            rows.append(
                {
                    "sweep": sweep,
                    "t": 10,
                    "|psi|": formula.size(),
                    "progress_s": result.progression_seconds,
                    "sat_s": result.satisfiability_seconds,
                }
            )

    print_table(
        "E3  Lemma 4.2 phase split: progression O(t*|psi|) vs "
        "satisfiability 2^O(|psi|)",
        ["sweep", "t", "|psi|", "progress_s", "sat_s"],
        rows,
        note="prefix sweep: progress_s grows linearly with t, sat_s flat; "
        "formula sweep (ring of shared letters): sat_s multiplies per "
        "extra obligation; formula-disjoint: letter-disjoint obligations "
        "are decided one by one, sat_s stays flat",
    )
    return rows
