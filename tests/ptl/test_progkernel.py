"""The compiled progression kernel pinned to the reference engine.

Every test compares :class:`repro.ptl.progkernel.ProgressionKernel` (and
the module-level convenience functions) against the recursive
:func:`repro.ptl.progression.progress` on the same inputs.  Because both
sides intern through :mod:`repro.ptl.formulas`, agreement is asserted as
pointer identity, not mere equality — the strongest form the faithfulness
argument of DESIGN.md §10 admits.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ptl import PFALSE, PTRUE, palways, pand, pnext, prop, puntil
from repro.ptl.formulas import (
    PAlways,
    PAnd,
    PEventually,
    PImplies,
    PNext,
    PNot,
    POr,
    PRelease,
    PUntil,
    PWeakUntil,
    Prop,
    peventually,
    pimplies,
    pnot,
    por,
    prelease,
    pweak_until,
)
from repro.ptl.progkernel import (
    ProgressionKernel,
    progkernel_cache_clear,
    progkernel_cache_info,
    progress_compiled,
    progress_sequence_compiled,
    progress_trace_compiled,
)
from repro.ptl.progression import (
    progress,
    progress_cache_clear,
    progress_cache_info,
    progress_sequence,
    progress_trace,
)

from repro.ptl.sat import quick_model_check

from ..conftest import prop_states, ptl_formulas

state_seqs = st.lists(prop_states(), min_size=1, max_size=6)


class TestKernelMatchesReference:
    @given(formula=ptl_formulas(), state=prop_states())
    @settings(max_examples=300, deadline=None)
    def test_single_step_identity(self, formula, state):
        kernel = ProgressionKernel()
        assert kernel.progress_formula(formula, state) is progress(
            formula, state
        )

    @given(formula=ptl_formulas(), states=state_seqs)
    @settings(max_examples=200, deadline=None)
    def test_sequence_identity(self, formula, states):
        kernel = ProgressionKernel()
        expected = formula
        oid = kernel.intern(formula)
        for state in states:
            expected = progress(expected, state)
            oid = kernel.progress_id(oid, kernel.encode_state(state))
            assert kernel.formula(oid) is expected

    @given(formula=ptl_formulas(), states=state_seqs)
    @settings(max_examples=100, deadline=None)
    def test_warm_table_is_still_exact(self, formula, states):
        # Drive the same trajectory twice through one kernel: the second
        # run answers from the compiled rows and must not drift.
        kernel = ProgressionKernel()
        first = [
            kernel.progress_formula(formula, state) for state in states
        ]
        hits_before = kernel.hits
        second = [
            kernel.progress_formula(formula, state) for state in states
        ]
        assert all(a is b for a, b in zip(first, second))
        assert kernel.hits > hits_before

    @given(formula=ptl_formulas(), states=state_seqs)
    @settings(max_examples=200, deadline=None)
    def test_replay_matches_reference_sequence(self, formula, states):
        # Progression distributes over top-level conjuncts (DESIGN.md
        # §10, "Replay distribution"): chaining each conjunct through
        # progress_replay and folding with pand_ids must give the very
        # object the reference stepwise sequence produces.
        kernel = ProgressionKernel()
        oid = kernel.intern(formula)
        masks = [kernel.encode_state(state) for state in states]
        chains = list(kernel.conjunct_ids(oid))
        if kernel.progress_replay(chains, masks):
            final = kernel.pand_ids(chains)
        else:
            final = kernel.false_id
        replayed = kernel.formula(final)
        assert replayed is progress_sequence(formula, states)


class TestConjunctionDecomposition:
    def test_ground_conjunction_goes_through_conjunct_rows(self):
        # The monitoring shape: a big conjunction of G-obligations whose
        # conjuncts repeat across instants.
        conjuncts = [
            palways(pand(prop(f"p{i}"), pnext(prop(f"q{i}"))))
            for i in range(4)
        ]
        formula = pand(*conjuncts)
        kernel = ProgressionKernel()
        # Every guard holds, so no conjunct collapses to FALSE and the
        # decomposition visits every conjunct row (a falsified conjunct
        # legitimately short-circuits the reassembly).
        state = frozenset(prop(f"p{i}") for i in range(4))
        assert kernel.progress_formula(formula, state) is progress(
            formula, state
        )
        stats = kernel.stats()
        # The top-level miss recursed into one row per distinct conjunct.
        assert stats["transitions"] > len(conjuncts)

    def test_constants_are_fixed_points(self):
        kernel = ProgressionKernel()
        mask = kernel.encode_state(frozenset({prop("p0")}))
        assert kernel.progress_id(kernel.true_id, mask) == kernel.true_id
        assert kernel.progress_id(kernel.false_id, mask) == kernel.false_id


class TestEviction:
    @given(formula=ptl_formulas(), states=state_seqs)
    @settings(max_examples=50, deadline=None)
    def test_tiny_table_stays_exact(self, formula, states):
        # max_transitions=1 forces an eviction on nearly every step; ids
        # and letter bits survive, so results must be unchanged.
        kernel = ProgressionKernel(max_transitions=1)
        expected = formula
        for state in states:
            expected = progress(expected, state)
            assert kernel.progress_formula(formula, state) is progress(
                formula, state
            )
        kernel2 = ProgressionKernel(max_transitions=1)
        out = formula
        for state in states:
            out = kernel2.progress_formula(out, state)
        assert out is expected

    def test_eviction_counter_and_bound(self):
        kernel = ProgressionKernel(max_transitions=1)
        f = puntil(prop("p0"), prop("p1"))
        kernel.progress_formula(f, frozenset({prop("p0")}))
        kernel.progress_formula(f, frozenset({prop("p1")}))
        assert kernel.evictions >= 1
        assert kernel.stats()["transitions"] <= 1

    def test_rejects_nonpositive_bound(self):
        try:
            ProgressionKernel(max_transitions=0)
        except ValueError:
            pass
        else:
            raise AssertionError("max_transitions=0 must be rejected")


class TestModuleLevelFunctions:
    @given(formula=ptl_formulas(), state=prop_states())
    @settings(max_examples=100, deadline=None)
    def test_progress_compiled(self, formula, state):
        assert progress_compiled(formula, state) is progress(formula, state)

    @given(formula=ptl_formulas(), states=state_seqs)
    @settings(max_examples=100, deadline=None)
    def test_sequence_parity(self, formula, states):
        assert progress_sequence_compiled(
            formula, states
        ) is progress_sequence(formula, states)

    @given(formula=ptl_formulas(), states=state_seqs)
    @settings(max_examples=100, deadline=None)
    def test_trace_parity(self, formula, states):
        compiled = progress_trace_compiled(formula, states)
        reference = progress_trace(formula, states)
        assert len(compiled) == len(reference)
        assert all(a is b for a, b in zip(compiled, reference))

    def test_cache_clear_resets_default_kernel(self):
        progress_compiled(
            puntil(prop("p0"), prop("p1")), frozenset({prop("p0")})
        )
        assert progkernel_cache_info()["obligations"] > 2
        progkernel_cache_clear()
        info = progkernel_cache_info()
        # Only the constants remain interned.
        assert info["obligations"] == 2
        assert info["transitions"] == 0
        assert info["hits"] == 0


class TestDiagnostics:
    def test_stats_shape(self):
        kernel = ProgressionKernel()
        kernel.progress_formula(
            palways(prop("p0")), frozenset({prop("p0")})
        )
        stats = kernel.stats()
        assert set(stats) == {
            "obligations",
            "letters",
            "transitions",
            "hits",
            "misses",
            "evictions",
            "reference_delegations",
            "misses_by_rule",
        }
        assert stats["misses"] >= 1
        assert stats["letters"] >= 1
        assert stats["reference_delegations"] == 0
        assert stats["misses_by_rule"]["always"] >= 1
        assert sum(stats["misses_by_rule"].values()) == stats["misses"]

    def test_constants_short_circuit_sequences(self):
        # PFALSE after one step: the sequence must stop progressing.
        f = prop("p0")
        out = progress_sequence_compiled(
            f, [frozenset(), frozenset({prop("p0")})]
        )
        assert out is PFALSE
        trace = progress_trace_compiled(
            f, [frozenset(), frozenset({prop("p0")})]
        )
        assert trace == [f, PFALSE, PFALSE]


#: One entry per native rewrite rule: (constructor over random operand
#: formulas, the node type the constructed formula must keep for the rule
#: to be the one exercised, the rule's ``misses_by_rule`` key).
_RULE_SHAPES = [
    ("always", lambda ops: palways(ops[0]), PAlways, "always"),
    ("until", lambda ops: puntil(ops[0], ops[1]), PUntil, "until"),
    (
        "weak_until",
        lambda ops: pweak_until(ops[0], ops[1]),
        PWeakUntil,
        "weak_until",
    ),
    ("release", lambda ops: prelease(ops[0], ops[1]), PRelease, "release"),
    (
        "eventually",
        lambda ops: peventually(ops[0]),
        PEventually,
        "eventually",
    ),
    ("next", lambda ops: pnext(ops[0]), PNext, "next"),
    ("or", lambda ops: por(ops[0], ops[1]), POr, "or"),
    ("implies", lambda ops: pimplies(ops[0], ops[1]), PImplies, "implies"),
    ("not", lambda ops: pnot(ops[0]), PNot, "not"),
    ("literal", lambda ops: prop("p0"), Prop, "literal"),
]


class TestPerRuleOracle:
    """Each native id-space rewrite rule pinned, in isolation, to the
    reference engine on random operands — pointer identity, the rule's
    own miss counter bumped, and zero reference delegations."""

    @pytest.mark.parametrize(
        "build,node_type,rule",
        [shape[1:] for shape in _RULE_SHAPES],
        ids=[shape[0] for shape in _RULE_SHAPES],
    )
    @given(operands=st.lists(ptl_formulas(), min_size=2, max_size=2),
           state=prop_states())
    @settings(max_examples=60, deadline=None)
    def test_rule_matches_reference(
        self, build, node_type, rule, operands, state
    ):
        formula = build(operands)
        # The smart constructors may simplify the shape away (e.g. G of a
        # constant); the rule is only exercised when the node survives.
        assume(isinstance(formula, node_type))
        kernel = ProgressionKernel()
        assert kernel.progress_formula(formula, state) is progress(
            formula, state
        )
        info = kernel.info()
        assert info.misses_by_rule[rule] >= 1
        assert info.reference_delegations == 0

    @given(formula=ptl_formulas(), states=state_seqs)
    @settings(max_examples=100, deadline=None)
    def test_negated_literal_and_deep_chains(self, formula, states):
        # ¬literal has a dedicated mask-test fast path; wrap random
        # formulas in ¬ and chain to cover it alongside the generic rule.
        wrapped = pnot(formula)
        kernel = ProgressionKernel()
        expected = wrapped
        oid = kernel.intern(wrapped)
        for state in states:
            expected = progress(expected, state)
            oid = kernel.progress_id(oid, kernel.encode_state(state))
            assert kernel.formula(oid) is expected
        assert kernel.reference_delegations == 0


class TestNoDelegation:
    """The reference engine is oracle-only: the supported fragment never
    reaches it, and a warmed table answers every repeat from rows."""

    @given(formulas=st.lists(ptl_formulas(), min_size=1, max_size=6),
           states=state_seqs)
    @settings(max_examples=100, deadline=None)
    def test_random_run_never_delegates(self, formulas, states):
        kernel = ProgressionKernel()
        for formula in formulas:
            oid = kernel.intern(formula)
            for state in states:
                oid = kernel.progress_id(oid, kernel.encode_state(state))
        info = kernel.info()
        assert info.reference_delegations == 0
        assert info.misses_by_rule["reference"] == 0
        assert sum(info.misses_by_rule.values()) == info.misses

    @given(formula=ptl_formulas(), states=state_seqs)
    @settings(max_examples=100, deadline=None)
    def test_second_pass_records_zero_misses(self, formula, states):
        kernel = ProgressionKernel()
        masks = [kernel.encode_state(state) for state in states]
        oid = kernel.intern(formula)
        first = oid
        for mask in masks:
            first = kernel.progress_id(first, mask)
        misses_before = kernel.misses
        second = oid
        for mask in masks:
            second = kernel.progress_id(second, mask)
        assert second == first
        assert kernel.misses == misses_before


class TestCacheIsolation:
    """Compiled-kernel traffic must not consult nor populate the
    reference engine's formula-level LRU (regression: the PR 6 kernel
    delegated case-(b) misses to ``progress``, churning that memo)."""

    @given(formulas=st.lists(ptl_formulas(), min_size=1, max_size=4),
           states=state_seqs)
    @settings(max_examples=60, deadline=None)
    def test_compiled_traffic_leaves_reference_lru_cold(
        self, formulas, states
    ):
        progress_cache_clear()
        kernel = ProgressionKernel()
        for formula in formulas:
            oid = kernel.intern(formula)
            for state in states:
                oid = kernel.progress_id(oid, kernel.encode_state(state))
            kernel.formula(oid)
        info = progress_cache_info()
        assert info.hits == 0
        assert info.misses == 0
        assert info.currsize == 0


class TestIdMirrors:
    """The id-level smart constructors fold exactly like the formula
    ones, ids stay canonical whichever side sees a structure first, and
    the all-false check on ids is the formula check (DESIGN.md §10)."""

    MIRRORS = [
        ("pnot_id", pnot, 1),
        ("pand_ids", pand, 2),
        ("por_ids", por, 2),
        ("pimplies_id", pimplies, 2),
    ]

    operands = st.one_of(st.just(PTRUE), st.just(PFALSE), ptl_formulas())

    @given(
        which=st.integers(0, len(MIRRORS) - 1),
        left=operands,
        right=operands,
        real_first=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_mirror_matches_smart_constructor(
        self, which, left, right, real_first
    ):
        name, smart, arity = self.MIRRORS[which]
        args = (left, right)[:arity]
        expected = smart(*args)
        kernel = ProgressionKernel()
        if real_first:
            kernel.intern(expected)
        ids = [kernel.intern(arg) for arg in args]
        mirror = getattr(kernel, name)
        rid = mirror(ids) if name in ("pand_ids", "por_ids") else mirror(*ids)
        # Canonical: interning the expected node after (or before) the
        # mirror built its id finds that very id.
        assert kernel.intern(expected) == rid
        assert kernel.formula(rid) is expected

    @given(formula=ptl_formulas(), states=state_seqs)
    @settings(max_examples=150, deadline=None)
    def test_progression_ids_are_canonical(self, formula, states):
        kernel = ProgressionKernel()
        oid = kernel.intern(formula)
        for state in states:
            oid = kernel.progress_id(oid, kernel.encode_state(state))
        members = kernel._oblig.members
        virtual = [i for i, member in enumerate(members) if member is None]
        for vid in virtual:
            assert kernel.intern(kernel.formula(vid)) == vid
        assert len(set(members)) == len(members)

    @given(formula=ptl_formulas(), states=state_seqs)
    @settings(max_examples=200, deadline=None)
    def test_quiescent_check_matches_quick_model_check(self, formula, states):
        kernel = ProgressionKernel()
        oid = kernel.intern(formula)
        assert kernel.holds_quiescent(oid) == quick_model_check(formula)
        # Also on the virtual ids progression builds, before they are
        # materialized.
        for state in states:
            oid = kernel.progress_id(oid, kernel.encode_state(state))
            value = kernel.holds_quiescent(oid)
            assert value == quick_model_check(kernel.formula(oid))

    def test_node_reads_ids_without_materializing(self):
        kernel = ProgressionKernel()
        p, q = kernel.intern(prop("p")), kernel.intern(prop("q"))
        implies = kernel.pimplies_id(p, q)
        not_p = kernel.pnot_id(p)
        both = kernel.pand_ids((implies, not_p))
        assert kernel._oblig.members[both] is None
        assert kernel.node(both) == (PAnd, (implies, not_p))
        assert kernel.node(implies) == (PImplies, (p, q))
        assert kernel.node(p) == (Prop, ())


class TestRename:
    """An injective renaming of letters commutes with the smart
    constructors and with progression (DESIGN.md §10.1)."""

    SMART = {
        PNot: pnot,
        PNext: pnext,
        PEventually: peventually,
        PAlways: palways,
        PImplies: pimplies,
        PUntil: puntil,
        PWeakUntil: pweak_until,
        PRelease: prelease,
    }

    @classmethod
    def renamed(cls, formula):
        """``formula`` with each ``p_i`` as ``q_i``, rebuilt through the
        smart constructors."""
        if isinstance(formula, Prop):
            return prop("q" + formula.name[1:])
        if isinstance(formula, (PAnd, POr)):
            smart = pand if isinstance(formula, PAnd) else por
            return smart(*(cls.renamed(op) for op in formula.operands))
        if not formula.children:
            return formula
        return cls.SMART[type(formula)](
            *(cls.renamed(child) for child in formula.children)
        )

    @given(formula=ptl_formulas(), states=state_seqs)
    @settings(max_examples=200, deadline=None)
    def test_rename_commutes_with_progression(self, formula, states):
        kernel = ProgressionKernel()
        letters = {
            kernel.intern(prop(f"p{i}")): kernel.intern(prop(f"q{i}"))
            for i in range(3)
        }
        oid = kernel.intern(formula)
        image = kernel.rename(oid, letters, {})
        assert kernel.formula(image) is self.renamed(formula)
        for state in states:
            oid = kernel.progress_id(oid, kernel.encode_state(state))
            image = kernel.progress_id(
                image,
                kernel.encode_state(
                    frozenset(self.renamed(letter) for letter in state)
                ),
            )
            assert kernel.rename(oid, letters, {}) == image
            assert kernel.formula(image) is self.renamed(kernel.formula(oid))
