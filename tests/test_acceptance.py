"""Acceptance criteria, one test per check, each printing its pass/fail line.

The Monte Carlo checks run at fixed seeds with stated tolerances (three
standard errors plus explicit discretization budgets); the full module takes
a few minutes.
"""

import pytest

from levyfn.acceptance import (
    check_classification_table,
    check_conditional_exp,
    check_expectation_routes,
    check_functional_corroboration,
    check_hitprob_mc,
    check_laplace_identity,
    check_mc_determinism,
    check_occupation,
    check_property_sweeps,
    check_scale_oracles,
)

BUDGETS = {
    "scale_function_oracles": 5.0,
    "laplace_transform_identity": 10.0,
    "classification_table": 5.0,
    "property_sweeps": 60.0,
    "expectation_routes_agree": 60.0,
    "mc_worker_determinism": 60.0,
    "hitting_probability_mc": 120.0,
    "conditional_exp_functional": 120.0,
    "occupation_formula": 120.0,
    "functional_finiteness_mc": 300.0,
}

ALL_CHECKS = [
    check_scale_oracles,
    check_laplace_identity,
    check_hitprob_mc,
    check_conditional_exp,
    check_occupation,
    check_classification_table,
    check_functional_corroboration,
    check_property_sweeps,
    check_mc_determinism,
    check_expectation_routes,
]


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_acceptance_criterion(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: measured {result.measured}; "
          f"expected {result.expected}; tol {result.tolerance} "
          f"({result.seconds:.1f}s)")
    assert result.passed, f"{result.name}: {result.measured} vs {result.expected}"
    assert result.seconds <= BUDGETS[result.name], (
        f"{result.name} exceeded its runtime budget: {result.seconds:.1f}s")
