"""E3 — Lemma 4.2 phases: linear progression, exponential satisfiability."""

import pytest

from repro.experiments.e3_ptl_phases import (
    _all_p_prefix,
    _cycle_formula,
    _cycle_prefix,
    _ring_formula,
)
from repro.ptl.progression import progress_sequence
from repro.ptl.sat import is_satisfiable

FORMULA = _cycle_formula(3)


@pytest.mark.parametrize("length", [100, 400, 1600])
def test_e3_progression_phase(benchmark, length):
    prefix = _cycle_prefix(length, 3)
    remainder = benchmark(lambda: progress_sequence(FORMULA, prefix))
    assert remainder is not None


@pytest.mark.parametrize("width", [2, 4, 6])
def test_e3_satisfiability_phase(benchmark, width):
    formula = _ring_formula(width)
    prefix = _all_p_prefix(10, width)
    remainder = progress_sequence(formula, prefix)
    assert benchmark.pedantic(
        lambda: is_satisfiable(remainder), rounds=1, iterations=1
    )
