"""Tests of the benchmark's independent checker.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checker.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
from spbe import EquilibriumPolicy, belief_key, instances, solve  # noqa: E402


def _points(generator):
    return [(t, b.weights, s.prescription.rows, s.values)
            for (t, b, s) in generator.cached_points()]


def _next_values(points, t):
    values = {belief_key(w): v for (s, w, _r, v) in points if s == t + 1}
    return lambda post: values[belief_key(post)]


@pytest.fixture(scope="module")
def reference():
    spec = instances.reference_instance()
    return spec, solve(spec)


def test_hand_values_of_matching_pennies():
    spec = instances.matching_pennies_instance()
    uniform = (np.full((1, 2), 0.5), np.full((1, 2), 0.5))
    assert checker.stage_residual(spec, 1, spec.prior, uniform, None) == 0.0
    pure = (np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    # player 1 loses 1 by matching and would win 1 by switching
    assert checker.stage_residual(spec, 1, spec.prior, pure, None) == pytest.approx(2.0)
    assert checker.profile_values(spec, lambda h: uniform)[0][0] == pytest.approx(0.0)


def test_posterior_conventions():
    weights = np.array([0.5, 0.5, 0.0, 0.0])
    assert checker.posterior(weights, np.array([0.0, 0.0, 1.0, 1.0])) is weights
    assert checker.posterior(weights, np.array([0.3, 0.3, 0.9, 0.1])) is weights
    post = checker.posterior(weights, np.array([0.2, 0.6, 1.0, 1.0]))
    np.testing.assert_allclose(post, [0.25, 0.75, 0.0, 0.0])


def test_exact_solve_passes_and_values_match(reference):
    spec, result = reference
    points = _points(result.generator)
    residuals = checker.exact_residuals(spec, points, belief_key)
    assert len(residuals) == len(points) and max(residuals.values()) <= 1e-8
    policy = EquilibriumPolicy(spec, result.generator)
    values = checker.profile_values(
        spec, lambda h: policy.prescription_for_history(h).rows)
    for solved, mine in zip(result.root.values, values):
        np.testing.assert_allclose(mine, solved, atol=1e-12)
        np.testing.assert_allclose(mine, 0.24, atol=1e-12)


def test_perturbed_prescription_is_flagged(reference):
    spec, result = reference
    points = _points(result.generator)
    rows = [np.array(r) for r in result.root.prescription.rows]
    rows[0][:] = [0.7, 0.3]
    gap = checker.stage_residual(spec, 1, spec.prior, rows, _next_values(points, 1))
    # player 1 mismatches a 0.7/0.3 coin: 0.4 - 0 = 0.4
    assert gap == pytest.approx(0.4)


def test_grid_solve_passes_and_perturbed_point_is_flagged():
    spec = instances.reference_instance()
    result = solve(spec, mode="grid", resolution=4)
    gen = result.generator
    tables = {t: [(s.prescription.rows, s.values) for s in gen.tables[t]]
              for t in gen.tables}
    assert max(checker.grid_residuals(spec, gen.grid, tables).values()) <= 1e-8
    rows, values = tables[2][0]
    flipped = [np.array(r) for r in rows]
    flipped[1] = flipped[1][:, ::-1]
    tables[2][0] = (flipped, values)
    residuals = checker.grid_residuals(spec, gen.grid, tables)
    assert residuals[(2, 0)] > 1e-8
    assert max(v for k, v in residuals.items() if k != (2, 0)) <= 1e-8
