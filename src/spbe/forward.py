"""Forward construction of play from solved stage prescriptions.

An :class:`EquilibriumPolicy` turns a prescription generator into an
actual strategy profile over public histories: the common belief starts
at the prior, each stage's prescription is the solved one at the current
belief, and the belief advances with the public update applied to the
realized joint action. Beliefs, prescriptions and the generator's
claimed values are cached per history, so repeated queries along shared
prefixes (simulation episodes, verification passes) ask the generator
once and are reproducible. A belief is made from its parent's alone,
so sparse traffic (one simulated path after another) makes only the
beliefs it reads; a caller about to read every child of a history, as
the verifier's passes over the tree do, asks
:meth:`EquilibriumPolicy.expand` to make them in one batch
(:func:`~spbe.beliefs.posteriors`). Claimed values are read once per
history, for every agent at once.

The verifier reaches a policy only through four override points:
``common_belief``, ``prescription_at``, ``prescription_for_history`` and
``continuation_value``. The belief recursion goes through the first
three, so an override of any of them reaches the belief process too.
``expand`` is no override point: it only fills the default
``common_belief``'s cache, through the other three.

Also here: Monte Carlo simulation of the constructed profile, and
:func:`expected_rewards`, the one payoff recursion over the history tree,
which gives the exact expected payoffs of :func:`expected_payoffs_exact`
and the continuations of the verifier's two-path check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .beliefs import (
    Belief,
    ConditionalBelief,
    Prescription,
    belief_entropy,
    condition_on_type,
    initial_belief,
    posteriors,
    update,
)
from .game import GameSpec, ResourceLimitError, component_maps, unflatten_joint

History = tuple[tuple[int, ...], ...]

EXACT_ENUMERATION_BUDGET = 10_000_000


def _normalize_history(history) -> History:
    return tuple(tuple(int(a) for a in joint) for joint in history)


@dataclass(slots=True)
class _Node:
    """What a policy has read at one history, filled in as it is asked:
    the common belief, the prescription, the generator's solved values,
    and whether every child's belief was made
    (:meth:`EquilibriumPolicy.expand`), under the history's normal form."""

    history: History
    belief: Belief | None = None
    prescription: Prescription | None = None
    values: tuple[np.ndarray, ...] | None = None
    expanded: bool = False


class EquilibriumPolicy:
    """Strategy profile induced by a generator along public histories.

    A history is a tuple of joint action tuples, one per elapsed stage;
    the empty history is the start of play. ``stage_of(history)`` is the
    stage about to be played. Subclasses may override the four methods
    the module docstring names.
    """

    def __init__(self, spec: GameSpec, generator):
        self.spec = spec
        self.generator = generator
        self._nodes: dict[History, _Node] = {}

    def _find(self, history) -> tuple[History, _Node | None]:
        """(normal form of a history, its node or None). Any spelling of a
        history (lists, NumPy ints) reaches its node; one is normalized
        only when no node answers to it as written."""
        try:
            node = self._nodes.get(history)
        except TypeError:   # unhashable spelling, e.g. lists
            node = None
        if node is not None:
            return node.history, node
        history = _normalize_history(history)
        return history, self._nodes.get(history)

    def _add(self, history: History) -> _Node:
        """The node of a history in normal form, made if it has none yet.
        Called only once the history is known to be valid."""
        node = self._nodes.get(history)
        if node is None:
            node = self._nodes[history] = _Node(history)
        return node

    def stage_of(self, history) -> int:
        return len(history) + 1

    def common_belief(self, history) -> Belief:
        """Public belief held entering stage len(history)+1: the parent's
        belief updated after the last joint action, unless
        :meth:`expand` made it with its siblings."""
        history, node = self._find(history)
        if node is not None and node.belief is not None:
            return node.belief
        if len(history) > self.spec.horizon:
            raise ValueError("history longer than the horizon")
        if history:
            parent = history[:-1]
            belief = update(self.common_belief(parent),
                            self.prescription_for_history(parent), history[-1])
        else:
            belief = initial_belief(self.spec)
        self._add(history).belief = belief
        return belief

    def expand(self, history) -> None:
        """Make the belief after every joint action at this history in one
        batch (:func:`~spbe.beliefs.posteriors`), for a caller about to read
        them all, as the verifier's passes over the history tree do. An
        ancestor whose own belief is not made yet is expanded first.
        Each child's belief is the bytes, or the object, that
        :meth:`common_belief` would make alone, and the prescriptions it
        asks for, this history's and its ancestors', are those reading
        any one child asks for, in the same order.
        """
        history, node = self._find(history)
        if node is not None and node.expanded:
            return
        if len(history) >= self.spec.horizon:
            raise ValueError("no stage after this history")
        if history and (node is None or node.belief is None):
            self.expand(history[:-1])
        pi = self.common_belief(history)
        gamma = self.prescription_for_history(history)
        joint = list(itertools.product(*map(range, gamma.action_counts)))
        for a, belief in zip(joint, posteriors(pi, gamma, joint)):
            child = self._add(history + (a,))   # in normal form, as history is
            if child.belief is None:
                child.belief = belief
        self._add(history).expanded = True

    def prescription_at(self, t: int, pi: Belief) -> Prescription:
        """Prescription used at stage t when the common belief is pi.

        Subclasses may override this (the belief recursion routes through
        it, so overrides propagate into the belief process too).
        """
        return self.generator.solution_at(t, pi).prescription

    def prescription_for_history(self, history) -> Prescription:
        """Prescription after this history, asked of ``prescription_at`` once."""
        history, node = self._find(history)
        if node is not None and node.prescription is not None:
            return node.prescription
        gamma = self.prescription_at(self.stage_of(history), self.common_belief(history))
        self._add(history).prescription = gamma
        return gamma

    def strategy_query(self, history, i: int, xi: int) -> np.ndarray:
        """Mixed action of player i with type xi after this public history."""
        row = self.prescription_for_history(history).rows[i][xi]
        return np.array(row, dtype=float)

    def belief_query(self, history, i: int, xi: int) -> ConditionalBelief:
        """Player i's belief over the others' types given xi and the history."""
        return condition_on_type(self.common_belief(history), i, xi)

    def continuation_value(self, history, i: int, xi: int) -> float:
        """Solved value of (i, xi) entering the stage after this history.

        The generator's solution there is read once per history, for
        every agent; past the horizon the value is the generator's zero.
        """
        history, node = self._find(history)
        if node is None or node.values is None:
            t = self.stage_of(history)
            belief = self.common_belief(history)
            if t > self.spec.horizon:
                return self.generator.value(t, belief, i, xi)
            node = self._add(history)
            node.values = self.generator.solution_at(t, belief).values
        return float(node.values[i][xi])


# ---------------------------------------------------------------------------
# Monte Carlo simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trace:
    """One simulated episode: the realized types, actions, beliefs, rewards."""

    joint_type: tuple[int, ...]
    actions: History
    beliefs: tuple[Belief, ...]        # belief entering each stage
    stage_rewards: np.ndarray          # (horizon, players), undiscounted
    totals: np.ndarray                 # (players,), discounted


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregates over simulated episodes of the constructed profile."""

    episodes: int
    seed: int
    per_player_mean: np.ndarray
    per_player_stderr: np.ndarray
    per_type_mean: tuple[np.ndarray, ...]
    per_type_count: tuple[np.ndarray, ...]
    entropy_trajectory: np.ndarray     # mean common-belief entropy per stage

    def to_document(self) -> dict:
        return {
            "episodes": self.episodes,
            "seed": self.seed,
            "per_player_mean": [float(v) for v in self.per_player_mean],
            "per_player_stderr": [float(v) for v in self.per_player_stderr],
            "per_type_mean": [[float(v) for v in arr] for arr in self.per_type_mean],
            "per_type_count": [[int(v) for v in arr] for arr in self.per_type_count],
            "entropy_trajectory": [float(v) for v in self.entropy_trajectory],
        }


@dataclass(frozen=True)
class SimulationResult:
    traces: tuple[Trace, ...]
    summary: SimulationSummary


def traces_to_delimited(traces) -> str:
    """Flatten traces to tab-separated text, one row per (episode, stage)."""
    lines = ["episode\tstage\tjoint_type\tbelief\tactions\trewards"]
    for ep, trace in enumerate(traces):
        for s, a in enumerate(trace.actions):
            belief = ",".join(repr(float(w)) for w in trace.beliefs[s].weights)
            lines.append("\t".join([
                str(ep),
                str(s + 1),
                ",".join(str(v) for v in trace.joint_type),
                belief,
                ",".join(str(v) for v in a),
                ",".join(repr(float(r)) for r in trace.stage_rewards[s]),
            ]))
    return "\n".join(lines) + "\n"


SIM_BLOCK = 1024   # episodes played together; bounds a block's arrays


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum[k], u[k], side="right")`` of each row k, clipped
    to the row's last index. It is numpy's binary search over the whole row
    for one key, step for step, so a row that is not monotone (entries may
    be as low as -1e-12) gives the index a scalar call gives."""
    m, width = cum.shape
    lo = np.zeros(m, dtype=np.intp)
    hi = np.full(m, width, dtype=np.intp)
    every = np.arange(m)
    while (open_ := lo < hi).any():
        mid = (lo + hi) >> 1
        right = cum[every, np.minimum(mid, width - 1)] <= u
        lo = np.where(open_ & right, mid + 1, lo)
        hi = np.where(open_ & ~right, mid, hi)
    return np.minimum(lo, width - 1)


def simulate(spec: GameSpec, policy: EquilibriumPolicy, episodes: int,
             seed: int = 0, trace_limit: int = 1000) -> SimulationResult:
    """Play the profile for a number of episodes.

    The random stream is consumed in a fixed order per episode: first the
    joint type, then each stage's actions in player order, one uniform per
    inverse-CDF draw. Episodes are played in blocks of ``SIM_BLOCK``: a
    block draws its episodes' uniforms at once, which is the same stream,
    and advances them stage by stage, asking the policy for the belief and
    prescription of each public history the block reaches there, in the
    order episodes first reach them. Payoffs are discounted stage sums.
    The summary covers every episode, its sums added episode by episode;
    the first ``trace_limit`` episodes are kept as full traces.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if trace_limit < 0:
        raise ValueError("trace_limit must be >= 0")
    rng = np.random.default_rng(seed)
    n, horizon, joint = spec.num_players, spec.horizon, spec.num_joint_actions
    xmaps = component_maps(spec.type_counts)
    prior = np.cumsum(initial_belief(spec).weights)
    # running sums, one column each: totals, their squares, each player's
    # per-type sums, then the belief entropy of each stage
    sums = np.zeros(2 * n + sum(spec.type_counts) + horizon)
    type_count = [np.zeros(c, dtype=np.int64) for c in spec.type_counts]
    traces: list[Trace] = []

    for start in range(0, episodes, SIM_BLOCK):
        m = min(SIM_BLOCK, episodes - start)
        kept = min(m, trace_limit - len(traces))   # episodes traced
        uniforms = rng.random((m, 1 + horizon * n))
        x = _inverse_cdf(np.broadcast_to(prior, (m, prior.size)),
                         uniforms[:, 0] * prior[-1])
        types = [xmap[x] for xmap in xmaps]
        rewards = np.empty((m, horizon, n))
        episode = np.zeros((m, n))
        entropy = np.empty((m, horizon))
        histories: list[History] = [()]
        at = np.zeros(m, dtype=np.intp)   # each episode's index in histories
        path = []                         # per stage: (its beliefs, at)
        weight = 1.0
        for t in range(1, horizon + 1):
            beliefs, gammas = [], []
            for history in histories:
                beliefs.append(policy.common_belief(history))
                gammas.append(policy.prescription_for_history(history))
            path.append((beliefs, at))
            entropy[:, t - 1] = np.array([belief_entropy(b) for b in beliefs])[at]
            a_flat = np.zeros(m, dtype=np.intp)
            for i, (xi, count) in enumerate(zip(types, spec.action_counts)):
                rows = np.array([g.rows[i] for g in gammas])[at, xi]
                cum = np.cumsum(rows, axis=1)
                u = uniforms[:, 1 + (t - 1) * n + i] * cum[:, -1]
                a_flat = a_flat * count + _inverse_cdf(cum, u)
            rewards[:, t - 1] = spec.reward_tensor(t)[:, x, a_flat].T
            episode += weight * rewards[:, t - 1]
            weight *= spec.discount
            if t == horizon:   # full histories are read by traces alone
                at, a_flat = at[:kept], a_flat[:kept]
            reached: dict[int, int] = {}
            at = np.array([reached.setdefault(code, len(reached))
                           for code in (at * joint + a_flat).tolist()],
                          dtype=np.intp)
            histories = [histories[code // joint]
                         + (unflatten_joint(code % joint, spec.action_counts),)
                         for code in reached]

        per_type = [np.where(xi[:, None] == np.arange(c), episode[:, [i]], 0.0)
                    for i, (xi, c) in enumerate(zip(types, spec.type_counts))]
        added = np.empty((m + 1, sums.size))
        added[0] = sums
        np.concatenate([episode, episode ** 2, *per_type, entropy], axis=1,
                       out=added[1:])
        sums = np.cumsum(added, axis=0, out=added)[-1]
        for counts, xi in zip(type_count, types):
            counts += np.bincount(xi, minlength=counts.size)
        rewards.setflags(write=False)
        episode.setflags(write=False)
        for e in range(kept):
            traces.append(Trace(
                joint_type=spec.unflatten_types(int(x[e])),
                actions=histories[at[e]],
                beliefs=tuple(stage[k[e]] for stage, k in path),
                stage_rewards=rewards[e], totals=episode[e],
            ))

    totals, totals_sq, *type_sum = np.split(
        sums, np.cumsum([n, n, *spec.type_counts]))
    entropy_sum = type_sum.pop()
    per_type_mean = []
    for i in range(n):
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(type_count[i] > 0, type_sum[i] / type_count[i], 0.0)
        mean.setflags(write=False)
        per_type_mean.append(mean)
    per_player = totals / episodes
    variance = np.maximum(totals_sq / episodes - per_player ** 2, 0.0)
    stderr = np.sqrt(variance / episodes)
    entropy_mean = entropy_sum / episodes
    for arr in (per_player, stderr, entropy_mean, *type_count):
        arr.setflags(write=False)
    summary = SimulationSummary(
        episodes=episodes,
        seed=seed,
        per_player_mean=per_player,
        per_player_stderr=stderr,
        per_type_mean=tuple(per_type_mean),
        per_type_count=tuple(type_count),
        entropy_trajectory=entropy_mean,
    )
    return SimulationResult(traces=tuple(traces), summary=summary)


# ---------------------------------------------------------------------------
# Exact payoff enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactPayoffs:
    """Exact expected discounted payoffs of a constructed profile."""

    per_joint_type: np.ndarray        # (players, joint types), conditional on type
    per_type: tuple[np.ndarray, ...]  # player i entry xi: E[payoff_i | x_i = xi]
    per_player: np.ndarray            # ex ante


def expected_rewards(spec: GameSpec, policy: EquilibriumPolicy,
                     history: History = (),
                     deviation: tuple[int, dict[int, np.ndarray]] | None = None,
                     reach: np.ndarray | None = None) -> np.ndarray:
    """Entry [n, x]: E[sum of player n's rewards from stage len(history)+1
    on | joint type x], discounted relative to that stage. With
    ``deviation=(i, rows)`` player i plays ``rows[t]`` at each stage t.
    Columns where ``reach`` is False are zero, and only joint actions some
    reached type plays are followed.

    A deviation may stack S samples: ``rows[t]`` of shape (S, T_i, A_i)
    with ``reach`` of shape (S, X) gives entry [s, n, x], each sample's
    bytes as its own call would give them. A joint action is followed
    when some sample reaches it; a sample that does not adds zero there.
    """
    total = np.zeros(np.shape(reach)[:-1] + (spec.num_players, spec.num_joint_types))
    t = len(history) + 1
    if t > spec.horizon:
        return total
    rows = list(policy.prescription_for_history(history).rows)
    if deviation is not None:
        i, dev_rows = deviation
        rows[i] = dev_rows[t]
    xmaps = component_maps(spec.type_counts)
    amaps = component_maps(spec.action_counts)
    like = np.ones(total.shape[:-2] + (spec.num_joint_types, spec.num_joint_actions))
    for j, row in enumerate(rows):
        like = like * row[..., xmaps[j][:, None], amaps[j][None, :]]
    if reach is not None:
        like[~reach] = 0.0
    reward = spec.reward_tensor(t)
    for a_flat in range(spec.num_joint_actions):
        p = like[..., a_flat]
        if not p.any():
            continue
        child = expected_rewards(
            spec, policy, history + (unflatten_joint(a_flat, spec.action_counts),),
            deviation, p > 0.0)
        total += p[..., None, :] * (reward[:, :, a_flat] + spec.discount * child)
    return total


def expected_payoffs_exact(spec: GameSpec, policy: EquilibriumPolicy) -> ExactPayoffs:
    """Enumerate every action path and integrate payoffs exactly.

    Cost grows as (joint actions)^horizon, so the enumeration refuses
    games past a fixed budget rather than silently running forever.
    """
    paths = spec.num_joint_actions ** spec.horizon * spec.num_joint_types
    if paths > EXACT_ENUMERATION_BUDGET:
        raise ResourceLimitError(
            f"exact enumeration needs {paths} path-type pairs, over the "
            f"budget of {EXACT_ENUMERATION_BUDGET}",
            EXACT_ENUMERATION_BUDGET,
        )
    totals = expected_rewards(spec, policy)
    prior = initial_belief(spec).weights
    per_player = totals @ prior
    per_type = []
    for i, comp in enumerate(component_maps(spec.type_counts)):
        vals = np.zeros(spec.type_counts[i])
        for xi in range(spec.type_counts[i]):
            mask = comp == xi
            mass = float(prior[mask].sum())
            if mass > 0:
                vals[xi] = float((prior[mask] * totals[i][mask]).sum()) / mass
        vals.setflags(write=False)
        per_type.append(vals)
    totals.setflags(write=False)
    per_player.setflags(write=False)
    return ExactPayoffs(per_joint_type=totals, per_type=tuple(per_type),
                        per_player=per_player)
