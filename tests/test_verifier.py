import numpy as np
import pytest

from spbe import (
    EquilibriumPolicy,
    ExactGenerator,
    HybridGenerator,
    Prescription,
    ResourceLimitError,
    best_deviation_value,
    check_strategy_independence,
    equilibrium_continuation_value,
    instances,
    load_policy,
    one_shot_gaps,
    policy_document,
    run_certification,
    solve,
    verify_one_shot,
    verify_pbe,
)

import oracles


class RowPerturbedPolicy(EquilibriumPolicy):
    """Equilibrium play with one stage-1 row mixed toward the other action.

    The perturbation flows through the belief process too, exactly as a
    real unilateral commonly-known tremble would.
    """

    def __init__(self, spec, generator, player=0, xi=0, eps=0.05):
        super().__init__(spec, generator)
        self.player, self.xi, self.eps = player, xi, eps

    def prescription_at(self, t, pi):
        gamma = super().prescription_at(t, pi)
        if t != 1:
            return gamma
        rows = [np.array(r) for r in gamma.rows]
        row = rows[self.player][self.xi]
        # shift mass toward the row's least-played action so the tremble
        # is never a no-op (uniform rows are invariant under reversal)
        basis = np.zeros_like(row)
        basis[int(np.argmin(row))] = 1.0
        rows[self.player][self.xi] = (1 - self.eps) * row + self.eps * basis
        return Prescription(tuple(rows))


@pytest.fixture(scope="module")
def reference_policy(reference_solved):
    spec, result = reference_solved
    return spec, EquilibriumPolicy(spec, result.generator)


def test_reference_certifies(reference_policy):
    spec, policy = reference_policy
    report = verify_pbe(spec, policy, tol=1e-6)
    assert report.ok
    assert report.max_gain <= 1e-6
    assert report.agents_checked == 4
    assert report.violations == ()
    doc = report.to_document()
    assert doc["ok"] is True
    assert "off_path_rule" in doc


def test_zero_reward_gains_exactly_zero():
    spec = instances.zero_reward_instance()
    result = solve(spec)
    report = verify_pbe(spec, EquilibriumPolicy(spec, result.generator))
    assert report.max_gain == 0.0


def test_single_player_is_optimal_control(corpus_solves):
    for name in ("single_player", "single_player_tied"):
        spec, result = corpus_solves[name]
        policy = EquilibriumPolicy(spec, result.generator)
        report = verify_pbe(spec, policy)
        assert report.max_gain <= 1e-10
        best = best_deviation_value(spec, policy, 0, 0)
        assert best == pytest.approx(float(result.root.values[0][0]),
                                     abs=1e-10)


def test_gain_nonnegativity(corpus_solves):
    for name in ("reference", "dominant_types", "signaling_pennies"):
        spec, result = corpus_solves[name]
        policy = EquilibriumPolicy(spec, result.generator)
        histories = [()] + [((a0, a1),) for a0 in range(2) for a1 in range(2)]
        for h in histories:
            for i in range(spec.num_players):
                for xi in range(spec.type_counts[i]):
                    dev = best_deviation_value(spec, policy, i, xi, h)
                    eq = equilibrium_continuation_value(spec, policy, i, xi, h)
                    assert dev >= eq - 1e-10


def test_perturbation_is_flagged(reference_solved):
    spec, result = reference_solved
    tampered = RowPerturbedPolicy(spec, result.generator, eps=0.05)
    report = verify_pbe(spec, tampered, tol=1e-6)
    assert not report.ok
    assert report.max_gain > 1e-3
    assert report.worst is not None
    assert report.worst.gain == pytest.approx(report.max_gain)
    # monotone tolerance: the same gains pass a loose enough bar
    loose = verify_pbe(spec, tampered, tol=10.0)
    assert loose.ok
    assert set(loose.violations) <= set(report.violations)


def test_one_shot_reference(reference_policy):
    spec, policy = reference_policy
    result = verify_one_shot(spec, policy)
    assert result["ok"]
    assert result["histories_checked"] == 5
    assert result["max_gap"] <= 1e-8


def test_one_shot_static_equals_stage_check():
    zero = lambda *a: 0.0
    for spec in (instances.bayesian_coordination_instance(),
                 instances.random_instance(0, players=3, horizon=1),
                 instances.random_instance(2, types=3, horizon=1)):
        result = solve(spec)
        assert result.ok
        policy = EquilibriumPolicy(spec, result.generator)
        report = one_shot_gaps(spec, policy)
        assert report["stage"] == 1 and report["gaps"]
        rows = [np.asarray(r) for r in result.root.prescription.rows]
        for (i, xi), gap in report["gaps"].items():
            q = oracles.q_vector_brute(spec, 1, spec.prior, rows, i, xi, zero)
            eq = sum(rows[i][xi][a] * q[a] for a in range(len(q)))
            assert gap == pytest.approx(max(q) - eq, abs=1e-12)
            # at horizon 1 the deviation walk makes the same comparison
            assert best_deviation_value(spec, policy, i, xi) == \
                pytest.approx(max(q), abs=1e-12)
            assert equilibrium_continuation_value(spec, policy, i, xi) == \
                pytest.approx(eq, abs=1e-12)
        static = verify_one_shot(spec, policy)
        assert static["ok"] and static["histories_checked"] == 1


def test_one_shot_catches_perturbation(reference_solved):
    spec, result = reference_solved
    tampered = RowPerturbedPolicy(spec, result.generator, eps=0.05)
    out = verify_one_shot(spec, tampered)
    assert not out["ok"]
    assert out["max_gap"] > 1e-3


def test_strategy_independence_reference(reference_policy):
    spec, policy = reference_policy
    out = check_strategy_independence(spec, policy, samples=10, seed=4)
    assert out["ok"]
    assert out["skipped"] == 0
    assert out["checked"] == 10 * 4 * 2
    assert out["max_diff"] <= 1e-12


def test_strategy_independence_skips_unreachable(corpus_solves):
    spec, result = corpus_solves["dominant_types"]
    policy = EquilibriumPolicy(spec, result.generator)
    out = check_strategy_independence(spec, policy, samples=10, seed=4)
    assert out["ok"]
    assert out["skipped"] > 0       # pure rows make half the actions off-path
    assert out["checked"] > 0


def test_strategy_independence_fixed_player_stage(reference_policy):
    spec, policy = reference_policy
    out = check_strategy_independence(spec, policy, i=1, t=1, samples=5,
                                      seed=0)
    assert out["ok"] and out["checked"] == 5 * 4 * 2


def test_tree_budget_guard():
    spec = instances.random_instance(2, horizon=11)
    with pytest.raises(ResourceLimitError):
        verify_pbe(spec, None)
    with pytest.raises(ResourceLimitError):
        verify_one_shot(spec, None)


def test_certificate_document(reference_solved):
    spec, result = reference_solved
    doc = policy_document(result)
    table = load_policy(doc, spec)
    hybrid = HybridGenerator(table, ExactGenerator(spec))
    cert = run_certification(spec, EquilibriumPolicy(spec, hybrid),
                             consistency_samples=10)
    assert cert["all_checks_ok"]
    assert cert["game"] == spec.digest()
    assert cert["one_shot"]["ok"]
    assert cert["belief_consistency"]["ok"]
    assert cert["table_completions"] == 0
    assert "tolerance" in cert and "max_gain" in cert
