"""Acceptance criteria, one test per criterion.

Each test runs its criterion at full size, asserts the exact outcome,
enforces the runtime budget, and prints one pass/fail line (visible
with pytest -s and in the CLI selftest).
"""

import time

import pytest

from polyhom.algebra import abelian_group
from polyhom.polygroupoid import check_all_associativity, scramble, standard
from polyhom.selftest import (
    action_law,
    blind_extraction,
    chain_axioms,
    criterion2_grid,
    fault_sensitivity,
    homology_kernel,
    horn_filling,
    hurewicz_verdicts,
    standard_axioms,
    tower_pipeline,
)

FULL_GRID = criterion2_grid(include_eight=True)


def report(criterion, name, passed, seconds, budget, detail):
    line = (
        f"{'PASS' if passed else 'FAIL'} criterion {criterion} ({name}) "
        f"[{seconds:.2f}s / budget {budget}s] {detail}"
    )
    print(line)
    assert passed, detail
    assert seconds <= budget, f"criterion {criterion} exceeded its {budget}s budget: {seconds:.1f}s"


def timed(fn):
    start = time.perf_counter()
    passed, detail = fn()
    return passed, time.perf_counter() - start, detail


def test_criterion_1_chain_axioms():
    passed, seconds, detail = timed(lambda: chain_axioms(random_chains=500))
    report(1, "chain-axioms", passed, seconds, 5, detail)


def test_criterion_2_standard_polygroupoid_axioms():
    passed, seconds, detail = timed(lambda: standard_axioms(FULL_GRID))
    report(2, "standard-axioms", passed, seconds, 60, detail)


def test_criterion_3_horn_filling_count():
    passed, seconds, detail = timed(lambda: horn_filling(FULL_GRID))
    report(3, "horn-filling", passed, seconds, 10, detail)


def test_criterion_4_blind_extraction():
    passed, seconds, detail = timed(lambda: blind_extraction(FULL_GRID, seeds=100))
    report(4, "blind-extraction", passed, seconds, 120, detail)


def test_criterion_5_action_law():
    passed, seconds, detail = timed(lambda: action_law(FULL_GRID))
    report(5, "action-law", passed, seconds, 60, detail)


def test_criterion_6_hurewicz_verdict():
    passed, seconds, detail = timed(lambda: hurewicz_verdicts(FULL_GRID))
    report(6, "hurewicz-verdict", passed, seconds, 180, detail)


def test_criterion_7_tower():
    passed, seconds, detail = timed(tower_pipeline)
    report(7, "tower", passed, seconds, 30, detail)


def test_criterion_8_fault_sensitivity():
    passed, seconds, detail = timed(fault_sensitivity)
    report(8, "fault-sensitivity", passed, seconds, 30, detail)


def test_criterion_9_homology_kernel():
    passed, seconds, detail = timed(lambda: homology_kernel(random_matrices=500))
    report(9, "homology-kernel", passed, seconds, 10, detail)


@pytest.mark.parametrize("order,size", [(3, 7), (4, 6)])
def test_associativity_frontier_n4(order, size):
    h = scramble(standard(abelian_group(order), range(size), 4), 1)
    start = time.perf_counter()
    passed = check_all_associativity(h).passed
    seconds = time.perf_counter() - start
    print(f"{'PASS' if passed else 'FAIL'} associativity n=4 Z/{order} V={size} [{seconds:.2f}s / budget 5s]")
    assert passed
    assert seconds <= 5, f"n=4 Z/{order} V={size} associativity took {seconds:.1f}s"
