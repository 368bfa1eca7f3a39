"""The bitset satisfiability kernel agrees with the reference engines.

The kernels compile the *same* constructions — GPVW node expansion and the
classical atom tableau — to integer masks; faithfulness is checked by
property tests against the frozenset reference implementations on random
formulas, plus targeted cases for the encodings' edge conditions.
"""

from __future__ import annotations

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ptl import (
    BuchiKernel,
    ClosureIndex,
    bitset_cache_clear,
    bitset_cache_info,
    is_satisfiable,
    is_satisfiable_buchi,
    is_satisfiable_buchi_bitset,
    is_satisfiable_tableau,
    is_satisfiable_tableau_bitset,
    palways,
    pand,
    peventually,
    pimplies,
    pnext,
    pnot,
    por,
    progress_sequence,
    prop,
    ptl_nnf,
    puntil,
)
from repro.ptl.formulas import PFALSE, PTRUE, PTLFormula, Prop

from ..conftest import prop_states, ptl_formulas

P, Q, R = prop("p0"), prop("p1"), prop("p2")


def renamed(formula: PTLFormula, names: dict[str, str]) -> PTLFormula:
    """``formula`` with every letter ``p`` replaced by ``names[p]``."""
    if isinstance(formula, Prop):
        return prop(names[formula.name])
    values = {}
    for field in fields(formula):
        value = getattr(formula, field.name)
        if isinstance(value, tuple):
            value = tuple(renamed(op, names) for op in value)
        elif isinstance(value, PTLFormula):
            value = renamed(value, names)
        values[field.name] = value
    return type(formula)(**values)


#: Letter sets for the second and third conjunct: disjoint from p0..p2,
#: or overlapping it (the second permutes p0..p2, the third keeps p2).
LETTERS = {
    "disjoint": (
        {"p0": "q0", "p1": "q1", "p2": "q2"},
        {"p0": "r0", "p1": "r1", "p2": "r2"},
    ),
    "overlapping": (
        {"p0": "p1", "p1": "p2", "p2": "p0"},
        {"p0": "p2", "p1": "q1", "p2": "r2"},
    ),
}


def renamed_conjunction(parts, overlap: str) -> PTLFormula:
    first, second, third = parts
    names_second, names_third = LETTERS[overlap]
    return pand(
        first, renamed(second, names_second), renamed(third, names_third)
    )


def obligation_copies(n: int) -> PTLFormula:
    """``n`` letter-disjoint copies of
    ``G (s_i -> X (s_i | d_i | X (s_i | d_i))) & X (s_i | d_i | X (s_i | d_i))``:
    a staleness-deadline remainder per value id."""
    copies = []
    for index in range(n):
        stale, done = prop(f"s{index}"), prop(f"d{index}")
        window = pnext(por(stale, done, pnext(por(stale, done))))
        copies.append(pand(palways(pimplies(stale, window)), window))
    return pand(*copies)


@pytest.fixture(scope="module")
def reused_kernel():
    """One kernel shared by every example (the monitor's pattern)."""
    return BuchiKernel()


class TestBuchiAgreement:
    @settings(max_examples=150, deadline=None)
    @given(ptl_formulas())
    def test_matches_reference(self, formula):
        assert is_satisfiable_buchi_bitset(formula) == is_satisfiable_buchi(
            formula, engine="reference"
        )

    @settings(max_examples=60, deadline=None)
    @given(ptl_formulas(), prop_states(), prop_states())
    def test_progressed_remainders_agree(self, formula, s0, s1):
        """Monitor-shaped inputs: remainders after consuming states."""
        remainder = progress_sequence(ptl_nnf(formula), [s0, s1])
        assert is_satisfiable_buchi_bitset(
            remainder
        ) == is_satisfiable_buchi(remainder, engine="reference")

    @settings(max_examples=100, deadline=None)
    @given(ptl_formulas())
    def test_shared_kernel_consistent(self, formula):
        """One long-lived kernel (the monitor's usage pattern) answers the
        same as a fresh per-formula decision."""
        shared = BuchiKernel()
        assert shared.is_satisfiable(formula) == is_satisfiable_buchi_bitset(
            formula
        )
        # Asking again must hit the verdict memo, not recompute wrongly.
        assert shared.is_satisfiable(formula) == is_satisfiable_buchi_bitset(
            formula
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(*[ptl_formulas(max_props=3, max_depth=3)] * 3),
        st.sampled_from(sorted(LETTERS)),
    )
    def test_letter_split_matches_reference(
        self, reused_kernel, parts, overlap
    ):
        """Conjunctions that split into letter groups, and ones joined by
        shared letters, agree with the undecomposed reference engine on a
        fresh kernel and on one reused across examples."""
        formula = renamed_conjunction(parts, overlap)
        expected = is_satisfiable_buchi(formula, engine="reference")
        assert BuchiKernel().is_satisfiable(formula) == expected
        assert reused_kernel.is_satisfiable(formula) == expected


class TestLetterSplit:
    def test_states_linear_in_disjoint_copies(self):
        """Letter-disjoint copies are decided one group at a time, so the
        state space grows by the same 19 states per copy instead of
        multiplying (19, 293, 4921, 83537 undecomposed)."""
        states = []
        for n in range(1, 5):
            kernel = BuchiKernel()
            assert kernel.is_satisfiable(obligation_copies(n))
            assert kernel.stats()["decisions"] == 1
            states.append(kernel.stats()["states"])
        assert states == [19 * n for n in range(1, 5)]

    def test_unsatisfiable_group_refutes_the_conjunction(self):
        contradiction = pand(palways(R), peventually(pnot(R)))
        kernel = BuchiKernel()
        assert kernel.is_satisfiable(obligation_copies(3))
        assert not kernel.is_satisfiable(
            pand(obligation_copies(3), contradiction)
        )

    def test_shared_letter_joins_groups(self):
        """``G p0`` and ``F p1`` are separate groups, each satisfiable;
        ``G (p1 -> !p0)`` shares a letter with both, joining all three
        into one unsatisfiable group."""
        kernel = BuchiKernel()
        apart = pand(palways(P), peventually(Q))
        assert kernel.is_satisfiable(apart)
        assert kernel.is_satisfiable(palways(pimplies(Q, pnot(P))))
        assert not kernel.is_satisfiable(
            pand(apart, palways(pimplies(Q, pnot(P))))
        )


class TestTableauAgreement:
    @settings(max_examples=100, deadline=None)
    @given(ptl_formulas(max_props=2, max_depth=3))
    def test_matches_reference(self, formula):
        try:
            expected = is_satisfiable_tableau(
                formula, max_base=10, engine="reference"
            )
        except ValueError:
            with pytest.raises(ValueError):
                is_satisfiable_tableau_bitset(formula, max_base=10)
            return
        assert (
            is_satisfiable_tableau_bitset(formula, max_base=10) == expected
        )

    def test_base_cap_enforced(self):
        wide = pand(
            *(puntil(prop(f"p{i}"), prop(f"p{i + 1}")) for i in range(6))
        )
        with pytest.raises(ValueError):
            is_satisfiable_tableau_bitset(wide, max_base=3)


class TestKernelBasics:
    def test_constants(self):
        kernel = BuchiKernel()
        assert kernel.is_satisfiable(PTRUE)
        assert not kernel.is_satisfiable(PFALSE)
        assert is_satisfiable_tableau_bitset(PTRUE)
        assert not is_satisfiable_tableau_bitset(PFALSE)

    def test_classic_verdicts(self):
        kernel = BuchiKernel()
        assert kernel.is_satisfiable(puntil(P, Q))
        assert not kernel.is_satisfiable(pand(palways(P), pnot(P)))
        assert not kernel.is_satisfiable(
            pand(peventually(P), palways(pnot(P)))
        )
        assert kernel.is_satisfiable(
            pand(palways(por(P, Q)), peventually(pnot(P)))
        )
        # G X (p U q): the eventuality lives under nesting.
        assert kernel.is_satisfiable(palways(pnext(puntil(P, Q))))

    def test_closure_index_stable_bits(self):
        index = ClosureIndex()
        bit_p = index.bit(P)
        index.bit(Q)
        index.bit(R)
        assert index.bit(P) == bit_p  # re-registration never moves a bit
        assert index.get(P) == bit_p
        assert set(index.formulas((1 << bit_p))) == {P}

    def test_engine_dispatch(self):
        formula = puntil(P, palways(Q))
        for method in ("buchi", "tableau"):
            assert is_satisfiable(
                formula, method=method, engine="bitset"
            ) == is_satisfiable(formula, method=method, engine="reference")
        with pytest.raises(ValueError):
            is_satisfiable(formula, engine="nonsense")

    def test_cache_clear_and_info(self):
        is_satisfiable_buchi_bitset(puntil(P, Q))
        info = bitset_cache_info()
        assert info["buchi_kernel"]["verdicts"] >= 1
        bitset_cache_clear()
        info = bitset_cache_info()
        assert info["buchi_kernel"]["verdicts"] == 0
        # Still correct after a clear.
        assert is_satisfiable_buchi_bitset(puntil(P, Q))
