"""Serialize hardening: malformed payloads raise repro errors that name
the offending relation/state, never bare KeyError/TypeError tracebacks.

The durability sweep also added the PTL codec and monitor snapshot
formats; the decoder half is validated here (the semantic round-trip
lives in ``tests/core/test_resume.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import vocabulary
from repro.database.serialize import (
    history_from_dict,
    history_to_dict,
    lasso_from_dict,
    lasso_to_dict,
    ptl_from_jsonable,
    ptl_to_jsonable,
    state_from_dict,
    vocabulary_from_dict,
)
from repro.errors import StateError
from repro.ptl.formulas import (
    PAlways,
    PAnd,
    PEventually,
    PNext,
    PNot,
    POr,
    Prop,
    PTLFalse,
    PTLTrue,
    PUntil,
)

V = vocabulary({"Sub": 1, "Pair": 2})


class TestStateValidation:
    def test_unknown_relation_names_offender(self):
        with pytest.raises(StateError, match="'Bogus'"):
            state_from_dict(V, {"Bogus": [[1]]})

    def test_unknown_relation_lists_declared(self):
        with pytest.raises(StateError, match="declared relations"):
            state_from_dict(V, {"Bogus": [[1]]})

    def test_arity_mismatch_names_relation(self):
        with pytest.raises(StateError, match="'Pair'"):
            state_from_dict(V, {"Pair": [[1]]})

    def test_non_integer_element_rejected(self):
        with pytest.raises(StateError, match="non-integer"):
            state_from_dict(V, {"Sub": [["one"]]})

    def test_bool_element_rejected(self):
        # bool is an int subclass; a serialized element must still be a
        # plain integer.
        with pytest.raises(StateError, match="non-integer"):
            state_from_dict(V, {"Sub": [[True]]})

    def test_rows_must_be_a_list(self):
        with pytest.raises(StateError, match="'Sub'"):
            state_from_dict(V, {"Sub": 3})

    def test_where_context_is_propagated(self):
        with pytest.raises(StateError, match="state 1"):
            history_from_dict(
                {
                    "vocabulary": {"predicates": {"Sub": 1}},
                    "states": [{"Sub": [[1]]}, {"Bogus": [[2]]}],
                }
            )

    def test_missing_vocabulary_key(self):
        with pytest.raises(StateError, match="vocabulary"):
            history_from_dict({"states": []})

    def test_constant_bindings_must_be_a_mapping(self):
        with pytest.raises(StateError, match="constant_bindings"):
            history_from_dict(
                {
                    "vocabulary": {"predicates": {"Sub": 1}},
                    "constant_bindings": [1],
                    "states": [{}],
                }
            )

    def test_vocabulary_arity_must_be_nonnegative_int(self):
        with pytest.raises(StateError):
            vocabulary_from_dict({"predicates": {"Sub": -1}})
        with pytest.raises(StateError):
            vocabulary_from_dict({"predicates": {"Sub": "one"}})

    def test_vocabulary_constants_string_is_not_a_list_of_symbols(self):
        # Iterated, "vip" would declare the symbols v, i and p.
        with pytest.raises(StateError, match="'constants'"):
            vocabulary_from_dict({"predicates": {}, "constants": "vip"})

    def test_vocabulary_constants_must_be_a_list(self):
        with pytest.raises(StateError, match="'constants'"):
            vocabulary_from_dict({"predicates": {}, "constants": 5})

    def test_lasso_missing_key(self):
        lasso = lasso_to_dict(self.lasso())
        del lasso["loop"]
        with pytest.raises(StateError, match="'loop'"):
            lasso_from_dict(lasso)

    def test_lasso_constant_bindings_must_be_a_mapping(self):
        lasso = lasso_to_dict(self.lasso())
        lasso["constant_bindings"] = [["vip", 1]]
        with pytest.raises(StateError, match="'constant_bindings'"):
            lasso_from_dict(lasso)

    @staticmethod
    def lasso():
        from repro.database import DatabaseState, LassoDatabase

        state = DatabaseState.from_facts(V, [("Sub", (1,))])
        return LassoDatabase(vocabulary=V, stem=(state,), loop=(state,))

    def test_valid_history_still_round_trips(self):
        from repro.database import History

        history = History.from_facts(
            V, [[("Sub", (1,)), ("Pair", (1, 2))], []]
        )
        assert history_from_dict(history_to_dict(history)) == history


props = st.sampled_from(
    [Prop("a"), Prop("b"), PTLTrue(), PTLFalse()]
)
ptl_formulas = st.recursive(
    props,
    lambda children: st.one_of(
        st.builds(PNot, children),
        st.builds(PNext, children),
        st.builds(PAlways, children),
        st.builds(PEventually, children),
        st.builds(lambda a, b: PAnd((a, b)), children, children),
        st.builds(lambda a, b: POr((a, b)), children, children),
        st.builds(PUntil, children, children),
    ),
    max_leaves=8,
)


class TestPTLCodec:
    @settings(max_examples=50, deadline=None)
    @given(formula=ptl_formulas)
    def test_round_trip_is_identity(self, formula):
        decoded = ptl_from_jsonable(ptl_to_jsonable(formula))
        # Interning makes structural equality pointer identity.
        assert decoded is formula

    def test_unknown_tag_rejected(self):
        with pytest.raises(StateError, match="bogus"):
            ptl_from_jsonable(["bogus"])

    def test_malformed_node_rejected(self):
        with pytest.raises(StateError):
            ptl_from_jsonable(["and"])
        with pytest.raises(StateError):
            ptl_from_jsonable(42)
