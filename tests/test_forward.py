import dataclasses
import itertools
import re

import numpy as np
import pytest

import spbe.forward
from spbe import (
    Belief,
    EquilibriumPolicy,
    Prescription,
    ResourceLimitError,
    belief_key,
    expected_payoffs_exact,
    initial_belief,
    instances,
    load_policy,
    render_report,
    run_certification,
    simulate,
    solve,
    traces_to_delimited,
    update,
)
from spbe.beliefs import posterior_weights
from spbe.forward import expected_rewards
from spbe.game import component_maps

import oracles


@pytest.fixture(scope="module")
def reference_policy(reference_solved):
    spec, result = reference_solved
    return spec, EquilibriumPolicy(spec, result.generator)


def test_pooling_keeps_prior(reference_policy):
    spec, policy = reference_policy
    prior = policy.common_belief(())
    np.testing.assert_array_equal(prior.weights, spec.prior)
    for a in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert policy.common_belief((a,)) is prior


def test_strategy_query_depends_only_on_belief(reference_policy):
    spec, policy = reference_policy
    histories = [((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)]
    base = policy.strategy_query(histories[0], 0, 1)
    for h in histories[1:]:
        np.testing.assert_array_equal(policy.strategy_query(h, 0, 1), base)


def test_strategy_query_differs_when_beliefs_do():
    spec = instances.dominant_types_instance()
    result = solve(spec)
    policy = EquilibriumPolicy(spec, result.generator)
    after_00 = policy.common_belief(((0, 0),))
    after_11 = policy.common_belief(((1, 1),))
    assert not np.array_equal(after_00.weights, after_11.weights)


def test_belief_query_separating_and_pooling():
    # hand-built stage prescription: player 0 reveals its type, player 1
    # pools; the separator's own conditional keeps the prior pattern while
    # the observer pins the separator's type
    spec = instances.reference_instance()
    entry = {"t": 1, "belief": list(belief_key(spec.prior)),
             "rows": [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]]],
             "values": [[0.0, 0.0], [0.0, 0.0]],
             "residual": 0.0, "status": "converged"}
    doc = {"format": "repeated-game-policy", "game": spec.digest(),
           "mode": "exact", "entries": [entry]}
    policy = EquilibriumPolicy(spec, load_policy(doc, spec))
    own = policy.belief_query(((0, 0),), 0, 0)
    np.testing.assert_array_equal(own.weights, [0.8, 0.2])
    observer = policy.belief_query(((0, 0),), 1, 0)
    np.testing.assert_array_equal(observer.weights, [1.0, 0.0])


def test_continuation_value(reference_policy):
    spec, policy = reference_policy
    for i in range(2):
        for xi in range(2):
            assert policy.continuation_value((), i, xi) == \
                pytest.approx(0.24, abs=1e-12)


def test_strategy_query_returns_copy(reference_policy):
    spec, policy = reference_policy
    row = policy.strategy_query((), 0, 0)
    row[0] = 99.0
    np.testing.assert_array_equal(policy.strategy_query((), 0, 0), [0.5, 0.5])


def test_simulation_reproducible(reference_policy):
    spec, policy = reference_policy
    a = simulate(spec, policy, episodes=40, seed=11)
    b = simulate(spec, policy, episodes=40, seed=11)
    np.testing.assert_array_equal(a.summary.per_player_mean,
                                  b.summary.per_player_mean)
    for ta, tb in zip(a.traces, tb_ := b.traces):
        assert ta.joint_type == tb.joint_type
        assert ta.actions == tb.actions
    c = simulate(spec, policy, episodes=40, seed=12)
    assert any(ta.actions != tc.actions for ta, tc in zip(a.traces, c.traces))


def test_trace_beliefs_recomputable(reference_policy):
    spec, policy = reference_policy
    sim = simulate(spec, policy, episodes=10, seed=3)
    for trace in sim.traces:
        pi = initial_belief(spec)
        for s, a in enumerate(trace.actions):
            np.testing.assert_array_equal(trace.beliefs[s].weights, pi.weights)
            gamma = policy.prescription_at(s + 1, pi)
            pi = update(pi, gamma, a)


def test_trace_rewards_and_totals(reference_policy):
    spec, policy = reference_policy
    sim = simulate(spec, policy, episodes=10, seed=3)
    for trace in sim.traces:
        xf = spec.flatten_types(trace.joint_type)
        for s, a in enumerate(trace.actions):
            af = spec.flatten_actions(a)
            for i in range(2):
                assert trace.stage_rewards[s][i] == spec.reward(s + 1, i, xf, af)
        discounts = spec.discount ** np.arange(spec.horizon)
        np.testing.assert_allclose(trace.totals,
                                   discounts @ trace.stage_rewards, atol=1e-12)


def test_trace_limit_and_counts(reference_policy):
    spec, policy = reference_policy
    sim = simulate(spec, policy, episodes=50, seed=5, trace_limit=10)
    assert len(sim.traces) == 10
    assert sim.summary.episodes == 50
    for counts in sim.summary.per_type_count:
        assert counts.sum() == 50
    assert sim.summary.entropy_trajectory.shape == (spec.horizon,)


def test_traces_delimited_format(reference_policy):
    spec, policy = reference_policy
    sim = simulate(spec, policy, episodes=4, seed=1)
    text = traces_to_delimited(sim.traces)
    lines = text.strip().split("\n")
    assert lines[0].split("\t") == ["episode", "stage", "joint_type",
                                    "belief", "actions", "rewards"]
    assert len(lines) == 1 + 4 * spec.horizon


def test_summary_document_round_trips(reference_policy):
    spec, policy = reference_policy
    doc = simulate(spec, policy, episodes=8, seed=2).summary.to_document()
    assert doc["episodes"] == 8
    assert len(doc["per_player_mean"]) == 2
    assert len(doc["entropy_trajectory"]) == spec.horizon


def test_exact_payoffs_zero_game():
    spec = instances.zero_reward_instance()
    result = solve(spec)
    ep = expected_payoffs_exact(spec, EquilibriumPolicy(spec, result.generator))
    np.testing.assert_array_equal(ep.per_player, [0.0, 0.0])
    np.testing.assert_array_equal(ep.per_joint_type, np.zeros((2, 4)))


def test_exact_payoffs_single_player_matches_enumeration():
    spec = instances.single_player_instance()
    result = solve(spec)
    ep = expected_payoffs_exact(spec, EquilibriumPolicy(spec, result.generator))
    np.testing.assert_allclose(ep.per_type[0],
                               oracles.single_player_optimum(spec), atol=1e-9)


def test_exact_payoffs_one_shot_is_stage_reward():
    spec = instances.bayesian_coordination_instance()
    result = solve(spec)
    ep = expected_payoffs_exact(spec, EquilibriumPolicy(spec, result.generator))
    np.testing.assert_allclose(ep.per_player, [1.0, 1.0], atol=1e-12)


def test_exact_payoffs_budget_guard():
    spec = instances.random_instance(1, horizon=13)
    with pytest.raises(ResourceLimitError):
        expected_payoffs_exact(spec, None)


def test_monte_carlo_agrees_with_exact(reference_policy):
    spec, policy = reference_policy
    sim = simulate(spec, policy, episodes=4000, seed=9)
    ep = expected_payoffs_exact(spec, policy)
    for i in range(2):
        half_width = 4 * float(sim.summary.per_player_stderr[i]) + 1e-6
        assert abs(float(sim.summary.per_player_mean[i]) -
                   float(ep.per_player[i])) <= half_width


class RandomRowsPolicy(EquilibriumPolicy):
    """Seeded random rows at every history, about a third of them pure, so
    zero-probability actions and unreached joint types occur."""

    def __init__(self, spec, seed):
        super().__init__(spec, generator=None)
        self.rng = np.random.default_rng(seed)

    def random_rows(self, types, actions):
        rows = self.rng.dirichlet(np.ones(actions), size=types)
        pure = self.rng.random(types) < 0.3
        rows[pure] = np.eye(actions)[self.rng.integers(actions, size=int(pure.sum()))]
        return rows

    def prescription_at(self, t, pi):
        return Prescription(tuple(
            self.random_rows(c, a)
            for c, a in zip(self.spec.type_counts, self.spec.action_counts)))


RECURSION_GAMES = pytest.mark.parametrize("spec", [
    instances.reference_instance(),
    instances.random_instance(3, discount=0.9),
    instances.random_instance(0, players=3, horizon=2),
], ids=["reference", "random_3_discounted", "random_0_three_players"])


@RECURSION_GAMES
def test_expected_rewards_match_path_enumeration(spec):
    policy = RandomRowsPolicy(spec, seed=5)
    rows_at = lambda h: policy.prescription_for_history(h).rows
    last = spec.num_players - 1
    deviation = (last, {t: policy.random_rows(spec.type_counts[last],
                                              spec.action_counts[last])
                        for t in range(1, spec.horizon + 1)})
    reach = policy.rng.random(spec.num_joint_types) < 0.5
    later = ((1,) * spec.num_players,)
    for history in [(), later]:
        want = np.array(oracles.path_payoffs_brute(spec, rows_at, history))
        np.testing.assert_allclose(expected_rewards(spec, policy, history), want,
                                   rtol=0, atol=1e-12)
        want = np.array(oracles.path_payoffs_brute(spec, rows_at, history, deviation))
        np.testing.assert_allclose(expected_rewards(spec, policy, history, deviation),
                                   want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            expected_rewards(spec, policy, history, deviation, reach),
            np.where(reach, want, 0.0), rtol=0, atol=1e-12)


@RECURSION_GAMES
def test_expected_rewards_stack_samples(spec):
    """Deviation rows stacked over samples give, sample by sample, the
    bytes of a call with that sample's rows alone, also for a sample that
    reaches no joint type and one whose rows hold a zero."""
    policy = RandomRowsPolicy(spec, seed=7)
    last = spec.num_players - 1
    samples = [{t: policy.rng.dirichlet(np.ones(spec.action_counts[last]),
                                        size=spec.type_counts[last])
                for t in range(1, spec.horizon + 1)} for _ in range(4)]
    samples[2][1][0, 0] = 0.0
    samples[2][1][0] /= samples[2][1][0].sum()
    reach = policy.rng.random((4, spec.num_joint_types)) < 0.6
    reach[1] = False
    reach[2, 0] = True
    stacked = {t: np.array([rows[t] for rows in samples])
               for t in range(1, spec.horizon + 1)}
    later = ((1,) * spec.num_players,)
    for history in [(), later]:
        got = expected_rewards(spec, policy, history, (last, stacked), reach)
        assert got.shape == (4, spec.num_players, spec.num_joint_types)
        for s, rows in enumerate(samples):
            want = expected_rewards(spec, policy, history, (last, rows), reach[s])
            assert got[s].tobytes() == want.tobytes()
        assert not got[1].any()


def test_prescription_asked_once_per_history(reference_solved):
    spec, result = reference_solved

    class CountingPolicy(EquilibriumPolicy):
        calls = 0

        def prescription_at(self, t, pi):
            CountingPolicy.calls += 1
            return super().prescription_at(t, pi)

    policy = CountingPolicy(spec, result.generator)
    assert run_certification(spec, policy)["all_checks_ok"]
    simulate(spec, policy, episodes=200, seed=1)
    histories = sum(spec.num_joint_actions ** k for k in range(spec.horizon))
    assert CountingPolicy.calls == histories


def test_history_spellings_share_one_cache_entry():
    """A history written as lists or with NumPy ints reaches the same cached
    belief and prescription as its tuple form, whichever is asked first."""
    spec = instances.dominant_types_instance()
    policy = EquilibriumPolicy(spec, solve(spec).generator)
    as_lists = [[1, 0]]
    as_tuples = ((1, 0),)
    as_numpy = (tuple(np.array([1, 0], dtype=np.int64)),)
    belief = policy.common_belief(as_lists)
    prescription = policy.prescription_for_history(as_lists)
    for history in (as_tuples, as_numpy, as_lists):
        assert policy.common_belief(history) is belief
        assert policy.prescription_for_history(history) is prescription
    assert policy.common_belief(()) is not belief
    with pytest.raises(ValueError, match="longer than the horizon"):
        policy.common_belief([[0, 0]] * (spec.horizon + 1))


def _one_update(pi, gamma, a):
    """The public update after one joint action, with the likelihood
    built as a 1-d product of the players' rows."""
    maps = component_maps(pi.type_counts)
    like = np.ones(pi.weights.size)
    for i, row in enumerate(gamma.rows):
        like = like * row[maps[i], a[i]]
    post, moved = posterior_weights(pi.weights, like)
    return Belief(post, pi.type_counts) if moved else pi


def _check_siblings(spec, policy) -> tuple[int, int]:
    """Makes every history's children in one batch and compares each
    child's belief with the scalar update of its parent's; returns how
    many children moved and how many kept the parent's belief."""
    joint = [spec.unflatten_actions(a) for a in range(spec.num_joint_actions)]
    moved = kept = 0
    for depth in range(spec.horizon):
        for parent in itertools.product(joint, repeat=depth):
            policy.expand(parent)
            for a in joint:
                got = policy.common_belief(parent + (a,))
                prev = policy.common_belief(parent)
                gamma = policy.prescription_for_history(parent)
                want = update(prev, gamma, a)
                assert (got is prev) == (want is prev)
                assert got.weights.tobytes() == want.weights.tobytes()
                assert (_one_update(prev, gamma, a).weights.tobytes()
                        == want.weights.tobytes())
                kept += got is prev
                moved += got is not prev
    return moved, kept


@pytest.mark.parametrize("name", list(instances.corpus()))
def test_sibling_beliefs_match_update_on_the_corpus(corpus_solves, name):
    """Beliefs made a sibling group at a time are the bytes ``update``
    gives one child at a time; a child where the belief does not move is
    the parent's object."""
    spec, result = corpus_solves[name]
    _check_siblings(spec, EquilibriumPolicy(spec, result.generator))
    _check_siblings(spec, RandomRowsPolicy(spec, seed=3))


def test_sibling_beliefs_match_update_on_random_shapes():
    counts = np.zeros(2, dtype=int)
    for shape in (dict(players=3, horizon=1), dict(types=3), dict(actions=3)):
        for seed in range(4):
            spec = instances.random_instance(seed, **shape)
            counts += _check_siblings(spec, RandomRowsPolicy(spec, seed=seed))
    assert counts.all()   # children that moved, and children that did not


def test_sibling_beliefs_keep_the_update_errors():
    """A history whose last action is no joint action of the game raises
    what ``update`` raises, and siblings made before still serve."""
    spec = instances.reference_instance()
    policy = EquilibriumPolicy(spec, solve(spec).generator)
    gamma = policy.prescription_for_history(())
    cases = [(((5, 0),), "action component 5 out of range for player 0"),
             (((0, -1),), "action component -1 out of range for player 1"),
             (((0,),), r"joint action \(0,\) has 1 components for 2 players"),
             (((0, 0, 1),), r"joint action \(0, 0, 1\) has 3 components for 2 players")]
    policy.expand(())
    nodes = len(policy._nodes)
    for history, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            update(policy.common_belief(()), gamma, history[-1])
        with pytest.raises(ValueError, match=f"^{message}$"):
            policy.common_belief(history)
        with pytest.raises(ValueError, match=f"^{message}$"):
            policy.prescription_for_history(history)
    with pytest.raises(ValueError, match="^history longer than the horizon$"):
        policy.common_belief([[0, 0]] * (spec.horizon + 1))
    with pytest.raises(ValueError, match="^no stage after this history$"):
        policy.expand([[0, 0]] * spec.horizon)
    assert len(policy._nodes) == nodes   # a failed query leaves no node behind
    assert policy.common_belief(((1, 1),)) is policy.common_belief([[1, 1]])


def test_simulation_makes_only_the_beliefs_it_reads(monkeypatch):
    """Sparse traffic stays lazy: a simulation on a fresh policy updates
    one belief per history it reaches and makes no sibling batch."""
    ref = instances.reference_instance()
    spec = dataclasses.replace(ref, horizon=5,
                               rewards=ref.rewards[:1] * 4 + ref.rewards[1:])
    generator = solve(spec).generator
    updates, batches = [], []
    for name, calls in (("update", updates), ("posteriors", batches)):
        real = getattr(spbe.forward, name)
        monkeypatch.setattr(spbe.forward, name,
                            lambda *args, calls=calls, real=real:
                            calls.append(args) or real(*args))
    policy = EquilibriumPolicy(spec, generator)
    traces = simulate(spec, policy, episodes=3, seed=1).traces
    reached = {trace.actions[:k] for trace in traces for k in range(spec.horizon)}
    assert batches == []
    assert len(updates) == len(reached) - 1
    assert len(policy._nodes) == len(reached)


def _deep_reference():
    """The reference game lengthened to horizon 5."""
    ref = instances.reference_instance()
    return dataclasses.replace(ref, horizon=5,
                               rewards=ref.rewards[:1] * 4 + ref.rewards[1:])


SIM_GAMES = [*sorted(instances.corpus()), "reference_h5", "coordination_grid"]


def _sim_generator(corpus_solves, game):
    if game == "reference_h5":
        spec = _deep_reference()
        return spec, solve(spec).generator
    if game == "coordination_grid":
        spec = instances.coordination_instance()
        return spec, solve(spec, mode="grid", resolution=4).generator
    spec, result = corpus_solves[game]
    return spec, result.generator


def _played(sim) -> tuple[str, str]:
    return (render_report(sim.summary.to_document()),
            traces_to_delimited(sim.traces))


@pytest.mark.parametrize("game", SIM_GAMES)
def test_simulate_matches_the_episode_loop(corpus_solves, game, monkeypatch):
    """Play in blocks gives the summary and traces of the episode-by-episode
    loop, byte for byte, with the block shrunk to 7 episodes: 1 episode,
    one short of a block, a block, and two blocks and 3; no trace, one,
    and more than there are episodes. Each run starts from a fresh policy,
    and asks for the beliefs and prescriptions of the same histories."""
    spec, generator = _sim_generator(corpus_solves, game)
    block = 7
    monkeypatch.setattr(spbe.forward, "SIM_BLOCK", block)
    for seed, episodes in enumerate((1, block - 1, block, 2 * block + 3)):
        for trace_limit in (0, 1, episodes + 2):
            fresh, brute = (EquilibriumPolicy(spec, generator) for _ in range(2))
            got = simulate(spec, fresh, episodes, seed=seed,
                           trace_limit=trace_limit)
            want = oracles.simulate_brute(spec, brute, episodes, seed=seed,
                                          trace_limit=trace_limit)
            assert _played(got) == _played(want)
            assert len(got.traces) == min(episodes, trace_limit)
            assert set(fresh._nodes) == set(brute._nodes)


def test_simulate_matches_the_episode_loop_across_full_blocks():
    """The same at the module's own block size, with traces kept from more
    than one block."""
    spec = _deep_reference()
    generator = solve(spec).generator
    block = spbe.forward.SIM_BLOCK
    fresh, brute = (EquilibriumPolicy(spec, generator) for _ in range(2))
    got = simulate(spec, fresh, 2 * block + 3, seed=4, trace_limit=block + 1)
    want = oracles.simulate_brute(spec, brute, 2 * block + 3, seed=4,
                                  trace_limit=block + 1)
    assert _played(got) == _played(want)
    assert set(fresh._nodes) == set(brute._nodes)


def test_simulate_raises_after_asking_stage_by_stage():
    """A policy that raises at one history makes ``simulate`` raise its
    error. A block is played stage by stage, so by then the policy was
    asked for every history the block reaches at earlier stages, and for
    those at that stage that episodes reach before it, and for none
    deeper; the episode loop would have played the episodes before the
    first to reach it to the end."""
    spec = _deep_reference()
    generator = solve(spec).generator
    paths = oracles.simulate_brute(spec, EquilibriumPolicy(spec, generator), 40,
                                   seed=2, trace_limit=40).traces
    second = list(dict.fromkeys(trace.actions[:1] for trace in paths))
    assert len(second) > 1
    bad = second[-1]

    class Refusing(EquilibriumPolicy):
        def prescription_for_history(self, history):
            if tuple(map(tuple, history)) == bad:
                raise RuntimeError(f"refused at {bad}")
            return super().prescription_for_history(history)

    policy, brute = Refusing(spec, generator), Refusing(spec, generator)
    with pytest.raises(RuntimeError, match=re.escape(f"refused at {bad}")):
        simulate(spec, policy, 40, seed=2)
    assert set(policy._nodes) == {(), *second}
    with pytest.raises(RuntimeError, match=re.escape(f"refused at {bad}")):
        oracles.simulate_brute(spec, brute, 40, seed=2)
    assert max(map(len, brute._nodes)) == spec.horizon - 1


def test_inverse_cdf_is_searchsorted_row_by_row():
    """Each row's draw is ``np.searchsorted(cum, u, side="right")``,
    clipped, also on cumulative rows that dip (a row entry of -1e-12),
    where counting the entries at or below u gives another index, and at
    keys equal to an entry."""
    rng = np.random.default_rng(0)
    for width in (1, 2, 3, 4, 7):
        rows = rng.dirichlet(np.ones(width), size=200)
        if width > 2:
            rows[::2, 1] = -1e-12
        cum = np.cumsum(rows, axis=1)
        keys = np.concatenate([rng.random(200) * cum[:, -1],
                               cum[np.arange(200), rng.integers(width, size=200)],
                               cum[:, 0] - 5e-13])
        cum = np.concatenate([cum] * 3)
        want = [int(np.searchsorted(c, u, side="right").clip(0, width - 1))
                for c, u in zip(cum, keys)]
        assert spbe.forward._inverse_cdf(cum, keys).tolist() == want
    dip = np.cumsum([[0.5, -1e-12, 0.5 + 1e-12]], axis=1)
    u = np.array([0.5 - 5e-13])
    assert spbe.forward._inverse_cdf(dip, u).tolist() == [2]
    assert int((dip <= u[:, None]).sum()) == 1
