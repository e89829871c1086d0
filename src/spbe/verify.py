"""Independent equilibrium verification by best-deviation dynamic programming.

The verifier takes a constructed policy as a black box over public
histories and asks, for every player and every type with positive prior
mass, whether any unilateral deviation plan beats sticking to the policy.
It passes over the public history tree once for all of them, one depth
at a time, deepest first. A depth's histories are taken in lexicographic
order; the policy's belief and prescription are read once per history
and stacked, and each player's types are conditioned once on the whole
stack. From these arrays it takes every agent's one-shot gap against the
policy's claimed values, and, from the values of the depth below, the
on-policy continuation value and the best achievable deviation value,
where the deviator may change actions at this node and at every
descendant. Deviations are private, so the public belief still advances
with the prescribed profile along every branch.

Beliefs are read from the policy at every history rather than carried
through the recursion, so the check exercises the same conditioning a
player would actually perform. Conditioning on a type the public belief
has ruled out falls back to the uniform conditional, matching the
solver's treatment of those rows.

The level pass is the certificate and the one-shot check; it visits
every history once, and has the policy make each sibling group's
beliefs in one batch (:meth:`~spbe.forward.EquilibriumPolicy.expand`),
as the two-path check does too. The two-path check builds its belief
pairs once per (player, stage), from the same stacked arrays, and runs
the forward pass's payoff recursion over a subtree once per (player,
stage) and stage-t history whose pair differs, for all the samples that
draw that (player, stage) at once. In process on a 2-core Xeon, median
of 15 calls, over three runs: on the horizon-5 reference game, where no
pair differs, with the policy's caches warm, level pass 0.005-0.008 s,
two-path with its default 50 samples 0.0024-0.0026 s, and the whole
certificate on a fresh policy 0.019-0.020 s; on signaling_pennies, where
five histories' pairs differ, two-path 0.0026-0.0037 s and the
certificate on a fresh policy 0.004 s.

All three checks share one stage evaluation, :func:`_agent_weights`: for
an agent (i, xi) at a stack of histories, per flat joint action, the
weight of the others' type profiles times their prescribed probability of
playing that action's other components. The expected stage reward is
summed from it. It is written here from the definition and shares no
arithmetic with the solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .beliefs import (
    EPS_DENOMINATOR,
    condition_on_type,  # noqa: F401  (bound here so profilers can wrap it by name)
    conditional_weights,
    initial_belief,
)
from .forward import EquilibriumPolicy, History, _normalize_history, expected_rewards
from .game import (GameSpec, ResourceLimitError, component_maps, embedding_map,
                   unflatten_joint)

TREE_BUDGET = 1_000_000


def _guard_tree(spec: GameSpec) -> None:
    size = spec.num_joint_actions ** spec.horizon
    if size > TREE_BUDGET:
        raise ResourceLimitError(
            f"verification would enumerate {size} histories, over the "
            f"budget of {TREE_BUDGET}",
            TREE_BUDGET,
        )


def _check_agent(spec: GameSpec, i: int, xi: int | None = None) -> None:
    """Refuse a player ``i`` outside 0..N-1 and a type ``xi`` outside
    0..T_i-1, naming the argument."""
    if not 0 <= i < spec.num_players:
        raise ValueError(f"player i={i} out of range 0..{spec.num_players - 1}")
    if xi is not None and not 0 <= xi < spec.type_counts[i]:
        raise ValueError(f"type xi={xi} out of range 0..{spec.type_counts[i] - 1} "
                         f"for player {i}")


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
    """Outcome of the full best-deviation check."""

    ok: bool
    tolerance: float
    max_gain: float
    worst: DeviationFinding | None
    violations: tuple[DeviationFinding, ...]
    agents_checked: int
    histories_per_agent: int
    # one_shot_gaps of every history, in pre-order; not part of the report
    one_shot: tuple[dict, ...] = field(default=(), repr=False, compare=False)

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


def _joint_actions(spec: GameSpec) -> list[tuple[int, ...]]:
    return [unflatten_joint(a, spec.action_counts)
            for a in range(spec.num_joint_actions)]


def _agent_weights(spec: GameSpec, cond: np.ndarray, rows: list[np.ndarray],
                   i: int, xi: int) -> np.ndarray:
    """Agent (i, xi)'s ``w[h, a, k]`` at a stack of histories h.

    ``cond[h]`` is the agent's belief over the others' type profiles k
    (:func:`conditional_weights`) and ``rows[j][h]`` player j's prescribed
    rows there. ``w[h, a, k]`` is the weight of k times the probability
    that the others' rows play a's other components, so summing it over k
    gives the probability that the others play them.
    """
    x_full = embedding_map(spec.type_counts, i, xi)
    xmaps = component_maps(spec.type_counts)
    amaps = component_maps(spec.action_counts)
    p = np.ones((len(cond), spec.num_joint_actions, x_full.size))
    for j in range(spec.num_players):
        if j != i:
            p = p * rows[j][:, xmaps[j][x_full][None, :], amaps[j][:, None]]
    return cond[:, None, :] * p


def _level(spec: GameSpec, policy: EquilibriumPolicy, histories: list,
           agents: list[tuple[int, int]], siblings: bool) -> list[tuple]:
    """Every agent's view of the stage after each of ``histories``, which
    have one length: its own rows, and per joint action a the mass
    ``sum_k w[h, a, k]`` and the expected stage reward
    ``sum_k w[h, a, k] * R_i(x(k), a)``, with x(k) the joint type of xi
    and k, each as an (H, ...) array.

    The policy's belief and prescription are read once per history, in
    order; each player's types are conditioned once, on the whole stack.
    With ``siblings`` the histories are whole sibling groups, and each
    group's beliefs are made in one batch.
    """
    weights, gammas = [], []
    for history in histories:
        if siblings:
            policy.expand(history[:-1])
        weights.append(policy.common_belief(history).weights)
        gammas.append(policy.prescription_for_history(history))
    rows = [np.array([g.rows[j] for g in gammas]) for j in range(spec.num_players)]
    weights = np.array(weights)
    cond = {i: conditional_weights(weights, spec.type_counts, i)[0]
            for i in dict.fromkeys(i for i, _ in agents)}
    reward = spec.reward_tensor(len(histories[0]) + 1)
    views = []
    for i, xi in agents:
        w = _agent_weights(spec, cond[i][:, xi], rows, i, xi)
        stage = (w * reward[i][embedding_map(spec.type_counts, i, xi)].T).sum(axis=-1)
        views.append((np.ascontiguousarray(rows[i][:, xi]), w.sum(axis=-1), stage))
    return views


def _action_values(spec: GameSpec, i: int, mass: np.ndarray, stage: np.ndarray,
                   cont: np.ndarray) -> np.ndarray:
    """q[h, b]: sum over the joint actions a with own component b of
    ``stage[h, a] + mass[h, a] * discount * cont[h, a]``, in flat order,
    where ``cont[h, a]`` is the agent's continuation value after a."""
    terms = stage + mass * spec.discount * cont
    own = spec.action_counts[i]
    bins = np.arange(len(terms))[:, None] * own + component_maps(spec.action_counts)[i]
    return np.bincount(bins.ravel(), weights=terms.ravel(),
                       minlength=len(terms) * own).reshape(-1, own)


def _dot(row: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``row[h] @ q[h]`` for every h, through the same BLAS dot as ``@``
    on one pair (an elementwise product and sum rounds differently)."""
    return np.matmul(row[:, None, :], q[:, :, None])[:, 0, 0]


def _one_shot(spec: GameSpec, policy: EquilibriumPolicy,
              agents: list[tuple[int, int]], views: list[tuple],
              children: list | None) -> np.ndarray:
    """(H, agents) one-shot gaps at a level, read against the policy's
    claimed value of each child ``children[h * A + a]`` that the agent
    reaches; ``children=None`` at the last stage, where continuations are
    zero."""
    out = np.empty((len(views[0][0]), len(agents)))
    for k, ((i, xi), (row, mass, stage)) in enumerate(zip(agents, views)):
        cont = np.zeros(mass.size)
        if children is not None:
            for c in np.flatnonzero(mass).tolist():
                cont[c] = policy.continuation_value(children[c], i, xi)
        q = _action_values(spec, i, mass, stage, cont.reshape(mass.shape))
        with np.errstate(invalid="ignore"):   # inf - inf is NaN, as in floats
            out[:, k] = q.max(axis=-1) - _dot(row, q)
    return out


def _agents(spec: GameSpec) -> list[tuple[int, int]]:
    """Every (player, type) with positive prior marginal, in order."""
    prior = initial_belief(spec)
    return [(i, xi) for i in range(spec.num_players)
            for xi, mass in enumerate(prior.type_marginal(i)) if mass > 0.0]


def _first_worst(values) -> int:
    """Index of the first NaN among ``values``, else of the first largest:
    the one rule by which every check picks its worst finding."""
    return int(np.argmax(values))


def _gap_document(history: History, agents: list[tuple[int, int]],
                  gaps: list[float]) -> dict:
    """The :func:`one_shot_gaps` result at one history; ``max_gap`` is NaN
    if a gap is, else the largest gap or 0."""
    pool = [0.0, *gaps]
    return {"history": history, "stage": len(history) + 1,
            "max_gap": pool[_first_worst(pool)], "gaps": dict(zip(agents, gaps))}


def _walk(spec: GameSpec, policy: EquilibriumPolicy, agents: list[tuple[int, int]],
          root: History = (), gaps: bool = True) -> tuple[list, list, list]:
    """One pass over the subtree below ``root`` for every agent at once,
    one depth at a time from the deepest up.

    Returns, per depth below the root, the histories in lexicographic
    order, each agent's (on-policy value, best deviation value) at them
    as (H, agents, 2), and with ``gaps`` their (H, agents) one-shot gaps.
    The children of a depth's h-th history are entries h * A .. h * A +
    A - 1 of the next, and each depth's values are formed from the next
    one's alone.
    """
    joint = _joint_actions(spec)
    levels = [[root + tail for tail in itertools.product(joint, repeat=r)]
              for r in range(spec.horizon - len(root))]
    values, gap_levels = [None] * len(levels), [None] * len(levels)
    child = np.zeros((len(joint) ** len(levels), len(agents), 2))
    for r in reversed(range(len(levels))):
        views = _level(spec, policy, levels[r], agents, siblings=r > 0)
        children = levels[r + 1] if r + 1 < len(levels) else None
        if gaps:
            gap_levels[r] = _one_shot(spec, policy, agents, views, children)
        out = np.empty((len(levels[r]), len(agents), 2))
        for k, ((i, xi), (row, mass, stage)) in enumerate(zip(agents, views)):
            eq, dev = (child[:, k, m].reshape(mass.shape) for m in (0, 1))
            out[:, k, 0] = _dot(row, _action_values(spec, i, mass, stage, eq))
            out[:, k, 1] = _action_values(spec, i, mass, stage, dev).max(axis=-1)
        values[r] = child = out
    return levels, values, gap_levels


def best_deviation_value(spec: GameSpec, policy: EquilibriumPolicy,
                         i: int, xi: int, history: History = ()) -> float:
    """Value of the best full deviation plan of (i, xi) from this node on."""
    _check_agent(spec, i, xi)
    _guard_tree(spec)
    _, values, _ = _walk(spec, policy, [(i, xi)], _normalize_history(history),
                         gaps=False)
    return float(values[0][0, 0, 1]) if values else 0.0


def equilibrium_continuation_value(spec: GameSpec, policy: EquilibriumPolicy,
                                   i: int, xi: int, history: History = ()) -> float:
    """On-policy continuation value of (i, xi) from this node on, computed
    by the verifier's own recursion rather than read from the solver."""
    _check_agent(spec, i, xi)
    _guard_tree(spec)
    _, values, _ = _walk(spec, policy, [(i, xi)], _normalize_history(history),
                         gaps=False)
    return float(values[0][0, 0, 0]) if values else 0.0


def verify_pbe(spec: GameSpec, policy: EquilibriumPolicy,
               tol: float = 1e-6) -> VerificationReport:
    """Certify that no agent gains more than tol by deviating anywhere.

    Every (player, type) with positive prior type marginal is checked at
    every public history node of every length up to the horizon. An
    agent's worst finding is its first NaN gain in post-order, else its
    first largest; the report's worst is, by the same rule, the first
    agent's in agent order. The check passes iff that gain is at most tol,
    so a NaN gain anywhere fails it. The report also keeps every history's
    one-shot gaps, in pre-order.
    """
    if not tol >= 0:   # NaN too: no gain would ever exceed it
        raise ValueError("tol must be >= 0")
    _guard_tree(spec)
    agents = _agents(spec)
    levels, values, gaps = _walk(spec, policy, agents)
    histories = [h for level in levels for h in level]
    values = np.concatenate(values)
    with np.errstate(invalid="ignore"):   # inf - inf is NaN, as in floats
        gain = values[:, :, 1] - values[:, :, 0]
    nodes = range(len(histories))
    in_pre = sorted(nodes, key=histories.__getitem__)
    # a history ends with a sentinel above every joint action, so that it
    # sorts after its extensions
    in_post = sorted(nodes, key=lambda node: histories[node] + ((math.inf,),))

    def finding(node: int, k: int) -> DeviationFinding:
        eq, dev = values[node, k].tolist()
        return DeviationFinding(player=agents[k][0], type_index=agents[k][1],
                                history=histories[node], equilibrium_value=eq,
                                deviation_value=dev)

    post = gain[in_post]
    node_of = np.argmax(post, axis=0)   # _first_worst of each agent's column
    k = _first_worst(post[node_of, np.arange(len(agents))])
    worst = finding(in_post[node_of[k]], k)
    violations = sorted((finding(node, k) for node, k in
                         zip(*np.nonzero(gain > tol))),
                        key=lambda f: (-f.gain, f.player, f.type_index, f.history))
    gaps = np.concatenate(gaps).tolist()
    return VerificationReport(
        ok=worst.gain <= tol,
        tolerance=tol,
        max_gain=float(worst.gain),
        worst=worst,
        violations=tuple(violations),
        agents_checked=len(agents),
        histories_per_agent=len(histories),
        one_shot=tuple(_gap_document(histories[node], agents, gaps[node])
                       for node in in_pre),
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
    with the solver; it is the level pass's evaluation on a stack of one
    history.
    """
    history = _normalize_history(history)
    if len(history) >= spec.horizon:
        raise ValueError("history already spans the whole horizon")
    agents = _agents(spec)
    children = ([history + (a,) for a in _joint_actions(spec)]
                if len(history) + 1 < spec.horizon else None)
    gaps = _one_shot(spec, policy, agents,
                     _level(spec, policy, [history], agents, siblings=False),
                     children)
    return _gap_document(history, agents, gaps[0].tolist())


def _one_shot_summary(gaps: tuple[dict, ...], tol: float) -> dict:
    """Passes iff no (history, agent) gap exceeds tol, and none is NaN.
    ``worst`` is the first history whose ``max_gap`` is NaN, else the first
    with the largest ``max_gap``."""
    worst = gaps[_first_worst([g["max_gap"] for g in gaps])]
    return {
        "ok": worst["max_gap"] <= tol,
        "tolerance": tol,
        "max_gap": worst["max_gap"],
        "worst": worst,
        "histories_checked": len(gaps),
    }


def verify_one_shot(spec: GameSpec, policy: EquilibriumPolicy,
                    tol: float = 1e-6) -> dict:
    """One-stage deviation check at every public history within the horizon.

    Weaker than the full deviation check (it trusts the policy's claimed
    continuation values) but pinpoints the stage whose prescription is
    off. It summarizes the gaps recorded by :func:`verify_pbe`'s pass.
    """
    return _one_shot_summary(verify_pbe(spec, policy, tol).one_shot, tol)


# ---------------------------------------------------------------------------
# Belief-consistency check (two-path continuation identity)
# ---------------------------------------------------------------------------

def _random_deviation_rows(spec: GameSpec, i: int, stages: range, rng) -> dict:
    """One random row-stochastic matrix per stage for player i, all drawn
    by one call, which gives the stream of one call per stage."""
    draws = rng.dirichlet(np.ones(spec.action_counts[i]),
                          size=(len(stages), spec.type_counts[i]))
    return dict(zip(stages, draws))


def _belief_pairs(spec: GameSpec, policy: EquilibriumPolicy, player: int,
                  stage: int) -> tuple[int, int, list]:
    """The two-path check's sample-free part for (player, stage).

    Returns the number of (stage-``stage`` history, own type) pairs
    compared and skipped, and, in lexicographic history order, each
    history where some pair's two beliefs are not bit-identical, as
    (history, {own type: (lhs, rhs) belief}, reach mask). A pair is
    skipped where the own prescribed probability of the last action is
    zero, where either belief is the degenerate fallback, and where the
    lhs belief's mass is at most ``EPS_DENOMINATOR``.

    The histories' parents are stacked in lexicographic order, so the
    children of the p-th parent are histories p * A .. p * A + A - 1;
    each side's beliefs are conditioned once, on the whole stack.
    """
    joint = _joint_actions(spec)
    before, gammas, histories, after = [], [], [], []
    for parent in itertools.product(joint, repeat=stage - 1):
        before.append(policy.common_belief(parent).weights)
        gammas.append(policy.prescription_for_history(parent))
        policy.expand(parent)
        for a in joint:
            histories.append(parent + (a,))
            after.append(policy.common_belief(histories[-1]).weights)
    rows = [np.array([g.rows[j] for g in gammas]) for j in range(spec.num_players)]
    cond_before, degenerate_before = conditional_weights(
        np.array(before), spec.type_counts, player)
    cond_after, degenerate_after = conditional_weights(
        np.array(after), spec.type_counts, player)
    own = rows[player][:, :, component_maps(spec.action_counts)[player]]
    # per own type: (H, K) beliefs along each path, and which pairs count
    sides, kept = [], []
    for xi in range(spec.type_counts[player]):
        lhs = _agent_weights(spec, cond_before[:, xi], rows, player, xi)
        lhs = lhs.reshape(len(histories), -1)
        mass = lhs.sum(axis=-1)
        keep = ~((own[:, xi].ravel() == 0.0)
                 | np.repeat(degenerate_before[:, xi], len(joint))
                 | degenerate_after[:, xi] | (mass <= EPS_DENOMINATOR))
        lhs = lhs / np.where(keep, mass, 1.0)[:, None]
        sides.append((lhs, cond_after[:, xi]))
        kept.append(keep)
    kept = np.array(kept)
    differs = kept & np.array([(lhs.view(np.uint64) != rhs.view(np.uint64)).any(axis=-1)
                               for lhs, rhs in sides])
    differing = []
    for h in np.flatnonzero(differs.any(axis=0)).tolist():
        types = np.flatnonzero(kept[:, h]).tolist()
        reach = np.zeros(spec.num_joint_types, dtype=bool)
        for xi in types:
            reach[embedding_map(spec.type_counts, player, xi)] = True
        differing.append((histories[h],
                          {xi: (sides[xi][0][h], sides[xi][1][h]) for xi in types},
                          reach))
    checked = int(kept.sum())
    return checked, kept.size - checked, differing


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
    players and over stages 1..max(T-1, 1); a given ``i`` must be a player
    and a given ``t`` a stage 1..T.

    Every sample's rows are drawn first, in sample order, so each
    sample's rows depend only on ``seed`` and its index. The samples are
    then grouped by (player, stage), in first-seen order. A sample's rows
    enter only the payoff recursion, so a group's belief pairs, skips and
    reach masks are built once (:func:`_belief_pairs`), and the recursion
    runs once per history where some pair's two beliefs differ in some
    bit, over the stacked rows of all the group's samples. A
    bit-identical pair has diff exactly 0 for any continuation: the same
    bytes dotted with the same vector give the same sum, so both terms of
    its diff are 0 (or NaN, which the running maximum ignores), and it
    cannot raise the sample's maximum.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    if i is not None:
        _check_agent(spec, i)
    if t is not None and not 1 <= t <= spec.horizon:
        raise ValueError(f"stage t={t} out of range 1..{spec.horizon}")
    _guard_tree(spec)
    rng = np.random.default_rng(seed)
    n = spec.num_players
    t_range = list(range(1, max(spec.horizon - 1, 1) + 1))
    plan = [(i if i is not None else s % n,
             t if t is not None else t_range[s % len(t_range)])
            for s in range(samples)]
    draws = [_random_deviation_rows(spec, player, range(stage, spec.horizon + 1), rng)
             for player, stage in plan]
    groups: dict[tuple[int, int], list[int]] = {}
    for s, key in enumerate(plan):
        groups.setdefault(key, []).append(s)
    sample_diff = [0.0] * samples
    skipped = 0
    checked = 0
    for (player, stage), members in groups.items():
        pair_checked, pair_skipped, differing = _belief_pairs(spec, policy, player, stage)
        checked += pair_checked * len(members)
        skipped += pair_skipped * len(members)
        if not differing:
            continue
        dev_rows = {m: np.array([draws[s][m] for s in members])
                    for m in range(stage, spec.horizon + 1)}
        for history, paths, reach in differing:
            phi = expected_rewards(
                spec, policy, history, (player, dev_rows),
                np.broadcast_to(reach, (len(members), reach.size)))[:, player]
            for xi, (lhs_belief, rhs_belief) in paths.items():
                # unit-stride rows, so each dot takes the BLAS path of one
                # sample's contiguous slice
                phi_xi = np.ascontiguousarray(
                    phi[:, embedding_map(spec.type_counts, player, xi)])
                lhs = _dot(np.broadcast_to(lhs_belief, phi_xi.shape), phi_xi).tolist()
                rhs = _dot(np.broadcast_to(rhs_belief, phi_xi.shape), phi_xi).tolist()
                belief_gap = float(np.abs(lhs_belief - rhs_belief).max())
                for s, lhs_s, rhs_s in zip(members, lhs, rhs):
                    diff = max(abs(lhs_s - rhs_s), belief_gap)
                    sample_diff[s] = max(sample_diff[s], diff)
    max_diff = max([0.0, *sample_diff])
    sample_reports = [{"player": player, "stage": stage, "max_diff": diff}
                      for (player, stage), diff in zip(plan, sample_diff)]
    return {
        "checked": checked,
        "skipped": skipped,
        "max_diff": max_diff,
        "ok": max_diff <= tol,
        "tolerance": tol,
        "samples": sample_reports,
    }


# ---------------------------------------------------------------------------
# Certification bundle
# ---------------------------------------------------------------------------

def run_certification(spec: GameSpec, policy: EquilibriumPolicy,
                      tol: float = 1e-6, consistency_samples: int = 50,
                      seed: int = 0) -> dict:
    """Full certificate: the deviation check plus the one-shot and
    belief-consistency spot checks, as one JSON-ready document."""
    report = verify_pbe(spec, policy, tol=tol)
    doc = report.to_document()
    one_shot = _one_shot_summary(report.one_shot, max(tol, 1e-8))
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
    if policy.generator.completions is not None:
        doc["table_completions"] = policy.generator.completions
    return doc
