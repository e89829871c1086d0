"""Independent equilibrium verification by best-deviation dynamic programming.

The verifier takes a constructed policy as a black box over public
histories and asks, for every player and every type with positive prior
mass, whether any unilateral deviation plan beats sticking to the policy.
It walks the full public history tree once per (player, type): at each
node it re-derives that agent's private belief by conditioning the
policy's public belief on the type, then computes in one post-order pass
both the on-policy continuation value and the best achievable deviation
value, where the deviator may change actions at this node and at every
descendant. Deviations are private, so the public belief still advances
with the prescribed profile along every branch.

Beliefs are recomputed from the policy at every node rather than carried
through the recursion, so the check exercises the same conditioning a
player would actually perform. Conditioning on a type the public belief
has ruled out falls back to the uniform conditional, matching the
solver's treatment of those rows.

The one-shot check and the two-path belief consistency check here are
cheaper spot checks of the same construction; the tree walk is the
certificate.

All three checks share one stage evaluation, :func:`_agent_stage`: for
an agent (i, xi), per flat joint action, the weight of the others' type
profiles times their prescribed probability of playing that action's
other components, and the expected stage reward it earns. It is written
here from the definition and shares no arithmetic with the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backward import ResourceLimitError
from .beliefs import Belief, Prescription, condition_on_type, initial_belief, update
from .forward import EquilibriumPolicy, History
from .game import GameSpec, component_maps, embedding_map, unflatten_joint

TREE_BUDGET = 1_000_000


def _tree_size(spec: GameSpec) -> int:
    return spec.num_joint_actions ** spec.horizon


def _guard_tree(spec: GameSpec) -> None:
    size = _tree_size(spec)
    if size > TREE_BUDGET:
        raise ResourceLimitError(
            f"verification would enumerate {size} histories, over the "
            f"budget of {TREE_BUDGET}",
            TREE_BUDGET,
        )


@dataclass(frozen=True)
class DeviationFinding:
    """Best deviation at one (player, type, history) node."""

    player: int
    type_index: int
    history: History
    equilibrium_value: float
    deviation_value: float

    @property
    def gain(self) -> float:
        return self.deviation_value - self.equilibrium_value

    def to_document(self) -> dict:
        return {
            "player": self.player,
            "type": self.type_index,
            "history": [list(a) for a in self.history],
            "equilibrium_value": self.equilibrium_value,
            "deviation_value": self.deviation_value,
            "gain": self.gain,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the full best-deviation walk."""

    ok: bool
    tolerance: float
    max_gain: float
    worst: DeviationFinding | None
    violations: tuple[DeviationFinding, ...]
    agents_checked: int
    histories_per_agent: int

    def to_document(self) -> dict:
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "max_gain": self.max_gain,
            "worst": self.worst.to_document() if self.worst else None,
            "violations": [v.to_document() for v in self.violations],
            "agents_checked": self.agents_checked,
            "histories_per_agent": self.histories_per_agent,
            "off_path_rule": "zero-probability public actions leave the "
                             "common belief unchanged",
        }


def _agent_stage(spec: GameSpec, t: int, cond: np.ndarray, gamma: Prescription,
                 i: int, xi: int) -> tuple[np.ndarray, np.ndarray]:
    """Agent (i, xi)'s view of stage t, per flat joint action a.

    ``cond`` is the agent's belief over the others' type profiles k
    (:func:`condition_on_type`). Returns ``w[a, k]``, the weight of k times
    the probability that the others' rows in gamma play a's other
    components, and ``stage[a] = sum_k w[a, k] * R_i(x(k), a)``, with x(k)
    the joint type of xi and k. Summing ``w`` over k gives the
    probability that the others play a's other components.
    """
    x_full = embedding_map(spec.type_counts, i, xi)
    xmaps = component_maps(spec.type_counts)
    amaps = component_maps(spec.action_counts)
    p = np.ones((spec.num_joint_actions, x_full.size))
    for j in range(spec.num_players):
        if j != i:
            p = p * gamma.rows[j][xmaps[j][x_full][None, :], amaps[j][:, None]]
    w = cond * p
    stage = (w * spec.reward_tensor(t)[i][x_full].T).sum(axis=1)
    return w, stage


def _action_values(spec: GameSpec, i: int, w: np.ndarray, stage: np.ndarray,
                   cont: np.ndarray) -> np.ndarray:
    """q[b]: sum over the joint actions a with own component b of
    ``stage[a] + mass[a] * discount * cont[a]``, in flat order, where
    ``cont[a]`` is the agent's continuation value after a."""
    terms = stage + w.sum(axis=1) * spec.discount * cont
    return np.bincount(component_maps(spec.action_counts)[i], weights=terms,
                       minlength=spec.action_counts[i])


class _AgentWalk:
    """One post-order pass over the history tree for a fixed (player, type)."""

    def __init__(self, spec: GameSpec, policy: EquilibriumPolicy, i: int, xi: int,
                 tol: float = np.inf):
        self.spec = spec
        self.policy = policy
        self.i = i
        self.xi = xi
        self.tol = tol
        self.worst: DeviationFinding | None = None
        self.violations: list[DeviationFinding] = []
        self.nodes = 0
        self._joint_actions = [unflatten_joint(a, spec.action_counts)
                               for a in range(spec.num_joint_actions)]

    def run(self, history: History = ()) -> tuple[float, float]:
        """Returns (on-policy value, best deviation value) at this node."""
        t = len(history) + 1
        if t > self.spec.horizon:
            return 0.0, 0.0
        self.nodes += 1
        spec, i, xi = self.spec, self.i, self.xi
        pi = self.policy.common_belief(history)
        gamma = self.policy.prescription_for_history(history)
        cond = condition_on_type(pi, i, xi).weights
        w, stage = _agent_stage(spec, t, cond, gamma, i, xi)
        eq_c, dev_c = np.array([self.run(history + (a,))
                                for a in self._joint_actions]).T
        eq_value = float(np.asarray(gamma.rows[i][xi], dtype=float)
                         @ _action_values(spec, i, w, stage, eq_c))
        dev_value = float(_action_values(spec, i, w, stage, dev_c).max())
        found = DeviationFinding(player=i, type_index=xi, history=history,
                                 equilibrium_value=eq_value, deviation_value=dev_value)
        if self.worst is None or found.gain > self.worst.gain:
            self.worst = found
        if found.gain > self.tol:
            self.violations.append(found)
        return eq_value, dev_value


def best_deviation_value(spec: GameSpec, policy: EquilibriumPolicy,
                         i: int, xi: int, history: History = ()) -> float:
    """Value of the best full deviation plan of (i, xi) from this node on."""
    _guard_tree(spec)
    walk = _AgentWalk(spec, policy, i, xi)
    return walk.run(_history_tuple(history))[1]


def equilibrium_continuation_value(spec: GameSpec, policy: EquilibriumPolicy,
                                   i: int, xi: int, history: History = ()) -> float:
    """On-policy continuation value of (i, xi) from this node on, computed
    by the verifier's own recursion rather than read from the solver."""
    _guard_tree(spec)
    walk = _AgentWalk(spec, policy, i, xi)
    return walk.run(_history_tuple(history))[0]


def _history_tuple(history) -> History:
    return tuple(tuple(int(a) for a in joint) for joint in history)


def verify_pbe(spec: GameSpec, policy: EquilibriumPolicy,
               tol: float = 1e-6) -> VerificationReport:
    """Certify that no agent gains more than tol by deviating anywhere.

    Every (player, type) with positive prior type marginal is checked at
    every public history node of every length up to the horizon.
    """
    _guard_tree(spec)
    prior = initial_belief(spec)
    max_gain = -np.inf
    worst: DeviationFinding | None = None
    violations: list[DeviationFinding] = []
    agents = 0
    nodes = 0
    for i in range(spec.num_players):
        marginal = prior.type_marginal(i)
        for xi in range(spec.type_counts[i]):
            if marginal[xi] <= 0.0:
                continue
            agents += 1
            walk = _AgentWalk(spec, policy, i, xi, tol=tol)
            walk.run()
            nodes = walk.nodes
            if walk.worst is not None and walk.worst.gain > max_gain:
                max_gain = walk.worst.gain
                worst = walk.worst
            violations.extend(walk.violations)
    violations.sort(key=lambda f: (-f.gain, f.player, f.type_index, f.history))
    return VerificationReport(
        ok=not violations,
        tolerance=tol,
        max_gain=float(max_gain),
        worst=worst,
        violations=tuple(violations),
        agents_checked=agents,
        histories_per_agent=nodes,
    )


# ---------------------------------------------------------------------------
# One-shot optimality check
# ---------------------------------------------------------------------------

def one_shot_gaps(spec: GameSpec, policy: EquilibriumPolicy,
                  history: History = ()) -> dict:
    """Best one-stage deviation gain at a single history, per agent.

    Continuations after this stage are read from the policy's own claimed
    values, so the check isolates the current stage's rows: it re-derives
    what each row earns and what the best single action would earn against
    the same opponents and continuations. For a converged solve the
    maximal gap equals that stage's residual.

    The arithmetic is the definition, written out here rather than shared
    with the solver: the belief conditioned on the agent's type, the
    others' prescribed play, and one public posterior per joint action the
    agent can meet, at which the policy's stage-(t+1) value is read.
    """
    history = _history_tuple(history)
    t = len(history) + 1
    if t > spec.horizon:
        raise ValueError("history already spans the whole horizon")
    pi = policy.common_belief(history)
    gamma = policy.prescription_for_history(history)
    prior = initial_belief(spec)
    posteriors: dict[int, Belief] = {}
    gaps = {}
    worst = 0.0
    for i in range(spec.num_players):
        marginal = prior.type_marginal(i)
        for xi in range(spec.type_counts[i]):
            if marginal[xi] <= 0.0:
                continue
            cond = condition_on_type(pi, i, xi).weights
            w, stage = _agent_stage(spec, t, cond, gamma, i, xi)
            cont = np.zeros(spec.num_joint_actions)
            if t < spec.horizon:
                for a_flat in np.flatnonzero(w.sum(axis=1)).tolist():
                    if a_flat not in posteriors:
                        posteriors[a_flat] = update(
                            pi, gamma, unflatten_joint(a_flat, spec.action_counts))
                    cont[a_flat] = policy.generator.value(
                        t + 1, posteriors[a_flat], i, xi)
            q = _action_values(spec, i, w, stage, cont)
            gap = float(q.max()) - float(np.asarray(gamma.rows[i][xi]) @ q)
            gaps[(i, xi)] = gap
            worst = max(worst, gap)
    return {"history": history, "stage": t, "max_gap": worst, "gaps": gaps}


def verify_one_shot(spec: GameSpec, policy: EquilibriumPolicy,
                    tol: float = 1e-6) -> dict:
    """One-stage deviation check at every public history within the horizon.

    Weaker than the full deviation walk (it trusts the policy's claimed
    continuation values) but pinpoints the stage whose prescription is
    off. Passes iff no (history, agent) gap exceeds tol.
    """
    _guard_tree(spec)
    worst_gap = 0.0
    worst_at: dict | None = None
    checked = 0

    def visit(history: History) -> None:
        nonlocal worst_gap, worst_at, checked
        if len(history) >= spec.horizon:
            return
        result = one_shot_gaps(spec, policy, history)
        checked += 1
        if worst_at is None or result["max_gap"] > worst_gap:
            worst_gap = result["max_gap"]
            worst_at = result
        for a_flat in range(spec.num_joint_actions):
            visit(history + (unflatten_joint(a_flat, spec.action_counts),))

    visit(())
    return {
        "ok": worst_gap <= tol,
        "tolerance": tol,
        "max_gap": worst_gap,
        "worst": worst_at,
        "histories_checked": checked,
    }


# ---------------------------------------------------------------------------
# Belief-consistency check (two-path continuation identity)
# ---------------------------------------------------------------------------

def _random_deviation_rows(spec: GameSpec, i: int, stages, rng) -> dict:
    """One random row-stochastic matrix per stage for player i."""
    nt, na = spec.type_counts[i], spec.action_counts[i]
    return {n: rng.dirichlet(np.ones(na), size=nt) for n in stages}


def _continuation(spec: GameSpec, policy: EquilibriumPolicy, i: int,
                  dev_rows: dict, history: History, reach: np.ndarray) -> np.ndarray:
    """E[sum of i's rewards from stage len(history)+1 on | joint type x]
    for every flat joint type x, with player i playing its sampled
    deviation rows and everyone else the prescribed profile. Discounted
    relative to the starting stage. Entries where ``reach`` is False are
    zero, and only joint actions some reached type can play are followed."""
    total = np.zeros(spec.num_joint_types)
    t = len(history) + 1
    if t > spec.horizon:
        return total
    rows = list(policy.prescription_for_history(history).rows)
    rows[i] = dev_rows[t]
    xmaps = component_maps(spec.type_counts)
    amaps = component_maps(spec.action_counts)
    like = np.ones((spec.num_joint_types, spec.num_joint_actions))
    for j, row in enumerate(rows):
        like = like * row[xmaps[j][:, None], amaps[j][None, :]]
    like[~reach] = 0.0
    reward = spec.reward_tensor(t)[i]
    for a_flat in range(spec.num_joint_actions):
        p = like[:, a_flat]
        if not p.any():
            continue
        child = _continuation(spec, policy, i, dev_rows,
                              history + (unflatten_joint(a_flat, spec.action_counts),),
                              p > 0.0)
        total += p * (reward[:, a_flat] + spec.discount * child)
    return total


def check_strategy_independence(spec: GameSpec, policy: EquilibriumPolicy,
                                i: int | None = None, t: int | None = None,
                                samples: int = 50, seed: int = 0,
                                tol: float = 1e-12) -> dict:
    """Compare two derivations of a player's continuation expectation.

    For each sampled set of deviation rows for player i at stages t..T and
    every (stage-t history, own type), the expected continuation payoff
    from stage t+1 on is computed under two beliefs over the others'
    types: (path 1) the pre-stage public belief conditioned on own type
    and reweighted by the others' prescribed stage-t action probabilities,
    and (path 2) the post-stage public belief conditioned on own type.
    The two must agree: the public update divides out exactly the factors
    private conditioning supplies, and own-action factors are constant
    across the others' types. Histories the conditioning type cannot reach
    (own prescribed probability zero, or either side massless) are skipped
    and counted.

    When ``i`` or ``t`` is omitted, samples cycle deterministically over
    players and over stages 1..max(T-1, 1).
    """
    rng = np.random.default_rng(seed)
    n = spec.num_players
    t_range = list(range(1, max(spec.horizon - 1, 1) + 1))
    max_diff = 0.0
    skipped = 0
    checked = 0
    sample_reports = []
    for s in range(samples):
        player = i if i is not None else s % n
        stage = t if t is not None else t_range[s % len(t_range)]
        dev_rows = _random_deviation_rows(
            spec, player, range(stage, spec.horizon + 1), rng)
        sample_diff = 0.0
        for history in _histories_of_length(spec, stage):
            before = policy.common_belief(history[:-1])
            after = policy.common_belief(history)
            gamma = policy.prescription_at(stage, before)
            a = history[-1]
            # per own type: the belief over the others' types along each path
            paths = {}
            reach = np.zeros(spec.num_joint_types, dtype=bool)
            for xi in range(spec.type_counts[player]):
                if float(gamma.rows[player][xi, a[player]]) == 0.0:
                    skipped += 1
                    continue
                cond_before = condition_on_type(before, player, xi)
                cond_after = condition_on_type(after, player, xi)
                if cond_before.degenerate or cond_after.degenerate:
                    skipped += 1
                    continue
                w, _ = _agent_stage(spec, stage, cond_before.weights, gamma,
                                    player, xi)
                lhs_belief = w[spec.flatten_actions(a)]
                mass = float(lhs_belief.sum())
                if mass <= 1e-12:
                    skipped += 1
                    continue
                paths[xi] = (lhs_belief / mass, cond_after.weights)
                reach[embedding_map(spec.type_counts, player, xi)] = True
            if not paths:
                continue
            phi = _continuation(spec, policy, player, dev_rows, history, reach)
            for xi, (lhs_belief, rhs_belief) in paths.items():
                phi_xi = phi[embedding_map(spec.type_counts, player, xi)]
                diff = abs(float(lhs_belief @ phi_xi) - float(rhs_belief @ phi_xi))
                belief_gap = float(np.abs(lhs_belief - rhs_belief).max())
                diff = max(diff, belief_gap)
                checked += 1
                sample_diff = max(sample_diff, diff)
        max_diff = max(max_diff, sample_diff)
        sample_reports.append({
            "player": player, "stage": stage, "max_diff": sample_diff,
        })
    return {
        "checked": checked,
        "skipped": skipped,
        "max_diff": max_diff,
        "ok": max_diff <= tol,
        "tolerance": tol,
        "samples": sample_reports,
    }


def _histories_of_length(spec: GameSpec, length: int):
    """All public histories with `length` joint actions, lexicographic."""
    if length == 0:
        yield ()
        return
    for prefix in _histories_of_length(spec, length - 1):
        for a_flat in range(spec.num_joint_actions):
            yield prefix + (unflatten_joint(a_flat, spec.action_counts),)


# ---------------------------------------------------------------------------
# Certification bundle
# ---------------------------------------------------------------------------

def run_certification(spec: GameSpec, policy: EquilibriumPolicy,
                      tol: float = 1e-6, consistency_samples: int = 50,
                      seed: int = 0) -> dict:
    """Full certificate: the deviation walk plus the one-shot and
    belief-consistency spot checks, as one JSON-ready document."""
    report = verify_pbe(spec, policy, tol=tol)
    doc = report.to_document()
    one_shot = verify_one_shot(spec, policy, tol=max(tol, 1e-8))
    doc["one_shot"] = {
        "ok": one_shot["ok"],
        "max_gap": one_shot["max_gap"],
        "histories_checked": one_shot["histories_checked"],
    }
    doc["belief_consistency"] = {
        k: v for k, v in check_strategy_independence(
            spec, policy, samples=consistency_samples, seed=seed,
        ).items() if k != "samples"
    }
    doc["game"] = spec.digest()
    doc["all_checks_ok"] = bool(
        doc["ok"] and one_shot["ok"] and doc["belief_consistency"]["ok"]
    )
    completions = getattr(policy.generator, "completions", None)
    if completions is not None:
        doc["table_completions"] = completions
    return doc
