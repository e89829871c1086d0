import dataclasses

import numpy as np
import pytest

import spbe.verify
from spbe import (
    EquilibriumPolicy,
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


def deep_reference():
    """The reference game lengthened to horizon 5 (four matching-pennies
    stages, then its coordination stage), where every belief pair of the
    two-path check is bit-identical."""
    ref = instances.reference_instance()
    return dataclasses.replace(ref, horizon=5,
                               rewards=ref.rewards[:1] * 4 + ref.rewards[1:])


@pytest.fixture(scope="module")
def deep_solved():
    spec = deep_reference()
    return spec, solve(spec)


@pytest.mark.parametrize("case, samples", [
    ("reference", 50), ("deep_reference", 12), ("signaling_pennies", 50),
    ("random_20", 50), ("dominant_types", 50), ("perturbed", 50),
])
def test_strategy_independence_matches_brute_force(corpus_solves, deep_solved,
                                                   case, samples):
    if case == "deep_reference":
        spec, result = deep_solved
    elif case == "random_20":   # its belief pairs differ
        spec = instances.random_instance(20)
        result = solve(spec)
    else:
        spec, result = corpus_solves[
            "reference" if case == "perturbed" else case]
    if case == "perturbed":
        policy = RowPerturbedPolicy(spec, result.generator, eps=0.05)
    else:
        policy = EquilibriumPolicy(spec, result.generator)
    out = check_strategy_independence(spec, policy, samples=samples, seed=0)
    assert repr(out) == repr(oracles.two_path_brute(spec, policy,
                                                    samples=samples, seed=0))


class NoUpdatePolicy(EquilibriumPolicy):
    """Plays the solved prescriptions but never updates the common belief."""

    def common_belief(self, history):
        return super().common_belief(())


def test_strategy_independence_catches_a_frozen_belief(corpus_solves):
    spec, result = corpus_solves["signaling_pennies"]
    out = check_strategy_independence(spec, NoUpdatePolicy(spec, result.generator))
    assert not out["ok"]
    assert out["max_diff"] > 1e-12
    cert = run_certification(spec, NoUpdatePolicy(spec, result.generator))
    assert not cert["belief_consistency"]["ok"]
    assert not cert["all_checks_ok"]


@pytest.mark.parametrize("case, recursions, conditionings", [
    ("deep_reference", 0, 1360), ("signaling_pennies", 125, 32),
])
def test_strategy_independence_builds_pairs_once(corpus_solves, deep_solved,
                                                 monkeypatch, case, recursions,
                                                 conditionings):
    spec, result = (deep_solved if case == "deep_reference"
                    else corpus_solves[case])
    policy = EquilibriumPolicy(spec, result.generator)
    verify_pbe(spec, policy)
    calls = {"expected_rewards": 0, "condition_on_type": 0}
    for name in calls:
        real = getattr(spbe.verify, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(spbe.verify, name, counting)
    check_strategy_independence(spec, policy)
    # the recursion runs only where a belief pair differs, and each
    # (player, stage) pair's beliefs are conditioned once, not per sample
    assert calls == {"expected_rewards": recursions,
                     "condition_on_type": conditionings}


def test_tree_budget_guard():
    spec = instances.random_instance(2, horizon=11)
    with pytest.raises(ResourceLimitError):
        verify_pbe(spec, None)
    with pytest.raises(ResourceLimitError):
        verify_one_shot(spec, None)
    with pytest.raises(ResourceLimitError):
        check_strategy_independence(spec, None)


def test_certificate_document(reference_solved):
    spec, result = reference_solved
    doc = policy_document(result)
    cert = run_certification(spec, EquilibriumPolicy(spec, load_policy(doc, spec)),
                             consistency_samples=10)
    assert cert["all_checks_ok"]
    assert cert["game"] == spec.digest()
    assert cert["one_shot"]["ok"]
    assert cert["belief_consistency"]["ok"]
    assert cert["table_completions"] == 0
    assert "tolerance" in cert and "max_gain" in cert


class NanClaimsPolicy(EquilibriumPolicy):
    """Equilibrium play whose claimed continuation values are all NaN."""

    def continuation_value(self, history, i, xi):
        return float("nan")


def test_nan_claimed_values_fail_one_shot(reference_solved):
    spec, result = reference_solved
    policy = NanClaimsPolicy(spec, result.generator)
    out = verify_one_shot(spec, policy)
    assert not out["ok"]
    assert np.isnan(out["max_gap"])
    assert out["worst"]["history"] == ()
    cert = run_certification(spec, policy, consistency_samples=0)
    assert not cert["one_shot"]["ok"]
    assert not cert["all_checks_ok"]


def test_certificate_conditions_each_node_once(reference_solved, monkeypatch):
    spec, result = reference_solved
    calls = []
    real = spbe.verify.condition_on_type

    def counting(pi, i, xi):
        calls.append((i, xi))
        return real(pi, i, xi)

    monkeypatch.setattr(spbe.verify, "condition_on_type", counting)
    run_certification(spec, EquilibriumPolicy(spec, result.generator),
                      consistency_samples=0)
    # 4 agents x 5 histories (the root and its 4 children), each once
    assert sorted(calls) == sorted([(0, 0), (0, 1), (1, 0), (1, 1)] * 5)


@pytest.fixture(scope="module")
def reference_grid():
    spec = instances.reference_instance()
    result = solve(spec, mode="grid", resolution=3)
    assert result.ok
    return result.generator


@pytest.mark.parametrize("kind", ["reference", "perturbed", "grid"])
def test_certificate_agrees_with_the_separate_checks(reference_solved,
                                                     reference_grid, kind):
    spec, result = reference_solved

    def policy():
        if kind == "perturbed":
            return RowPerturbedPolicy(spec, result.generator, eps=0.05)
        if kind == "grid":
            return EquilibriumPolicy(spec, reference_grid)
        return EquilibriumPolicy(spec, result.generator)

    cert = run_certification(spec, policy(), consistency_samples=0)
    walk = verify_pbe(spec, policy()).to_document()
    assert {key: cert[key] for key in walk} == walk
    one_shot = verify_one_shot(spec, policy(), tol=1e-8)
    assert cert["one_shot"] == {key: one_shot[key] for key in
                                ("ok", "max_gap", "histories_checked")}
    assert cert["all_checks_ok"] == (kind != "perturbed")
    worst = one_shot["worst"]
    assert worst == one_shot_gaps(spec, policy(), worst["history"])
