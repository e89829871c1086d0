"""Forward construction of play from solved stage prescriptions.

An :class:`EquilibriumPolicy` turns a prescription generator into an
actual strategy profile over public histories: the common belief starts
at the prior, each stage's prescription is the solved one at the current
belief, and the belief advances with the public update applied to the
realized joint action. Beliefs and prescriptions are cached per history,
so repeated queries along shared prefixes (simulation episodes,
verification walks) ask the generator once and are reproducible.

Also here: Monte Carlo simulation of the constructed profile, and
:func:`expected_rewards`, the one payoff recursion over the history tree,
which gives the exact expected payoffs of :func:`expected_payoffs_exact`
and the continuations of the verifier's two-path check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backward import ResourceLimitError
from .beliefs import (
    Belief,
    ConditionalBelief,
    Prescription,
    belief_entropy,
    condition_on_type,
    initial_belief,
    update,
)
from .game import GameSpec, component_maps, unflatten_joint

History = tuple[tuple[int, ...], ...]

EXACT_ENUMERATION_BUDGET = 10_000_000


def _normalize_history(history) -> History:
    return tuple(tuple(int(a) for a in joint) for joint in history)


def _find(cache: dict, history) -> tuple:
    """(history, cache entry or None), normalizing the history on a miss."""
    try:
        got = cache.get(history)
    except TypeError:   # unhashable spelling, e.g. lists
        got = None
    if got is not None:
        return history, got
    history = _normalize_history(history)
    return history, cache.get(history)


class EquilibriumPolicy:
    """Strategy profile induced by a generator along public histories.

    A history is a tuple of joint action tuples, one per elapsed stage;
    the empty history is the start of play. ``stage_of(history)`` is the
    stage about to be played.
    """

    def __init__(self, spec: GameSpec, generator):
        self.spec = spec
        self.generator = generator
        self._beliefs: dict[History, Belief] = {}
        self._prescriptions: dict[History, Prescription] = {}

    def stage_of(self, history) -> int:
        return len(history) + 1

    def common_belief(self, history) -> Belief:
        """Public belief held entering stage len(history)+1."""
        history, got = _find(self._beliefs, history)
        if got is not None:
            return got
        if len(history) > self.spec.horizon:
            raise ValueError("history longer than the horizon")
        if not history:
            belief = initial_belief(self.spec)
        else:
            prev = self.common_belief(history[:-1])
            gamma = self.prescription_for_history(history[:-1])
            belief = update(prev, gamma, history[-1])
        self._beliefs[history] = belief
        return belief

    def prescription_at(self, t: int, pi: Belief) -> Prescription:
        """Prescription used at stage t when the common belief is pi.

        Subclasses may override this (the belief recursion routes through
        it, so overrides propagate into the belief process too).
        """
        return self.generator.solution_at(t, pi).prescription

    def prescription_for_history(self, history) -> Prescription:
        """Prescription after this history, asked of ``prescription_at`` once."""
        history, got = _find(self._prescriptions, history)
        if got is None:
            got = self.prescription_at(self.stage_of(history),
                                       self.common_belief(history))
            self._prescriptions[history] = got
        return got

    def strategy_query(self, history, i: int, xi: int) -> np.ndarray:
        """Mixed action of player i with type xi after this public history."""
        row = self.prescription_for_history(history).rows[i][xi]
        return np.array(row, dtype=float)

    def belief_query(self, history, i: int, xi: int) -> ConditionalBelief:
        """Player i's belief over the others' types given xi and the history."""
        return condition_on_type(self.common_belief(history), i, xi)

    def continuation_value(self, history, i: int, xi: int) -> float:
        """Solved value of (i, xi) entering the stage after this history."""
        return self.generator.value(self.stage_of(history),
                                    self.common_belief(history), i, xi)


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


def _draw(rng: np.random.Generator, weights: np.ndarray) -> int:
    """Inverse-CDF draw; one uniform per draw keeps the stream auditable."""
    cum = np.cumsum(weights)
    u = rng.random() * cum[-1]
    return int(np.searchsorted(cum, u, side="right").clip(0, weights.shape[0] - 1))


def simulate(spec: GameSpec, policy: EquilibriumPolicy, episodes: int,
             seed: int = 0, trace_limit: int = 1000) -> SimulationResult:
    """Play the profile for a number of episodes.

    The random stream is consumed in a fixed order per episode: first the
    joint type, then each stage's actions in player order. Payoffs are
    discounted stage sums. The summary covers every episode; at most
    ``trace_limit`` full traces are retained.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if trace_limit < 0:
        raise ValueError("trace_limit must be >= 0")
    rng = np.random.default_rng(seed)
    n = spec.num_players
    totals = np.zeros(n)
    totals_sq = np.zeros(n)
    type_sum = [np.zeros(c) for c in spec.type_counts]
    type_count = [np.zeros(c, dtype=np.int64) for c in spec.type_counts]
    entropy_sum = np.zeros(spec.horizon)
    prior = initial_belief(spec).weights
    traces: list[Trace] = []

    for _ in range(episodes):
        x_flat = _draw(rng, prior)
        x = spec.unflatten_types(x_flat)
        history: History = ()
        weight = 1.0
        episode = np.zeros(n)
        stage_rewards = np.zeros((spec.horizon, n))
        beliefs = []
        for t in range(1, spec.horizon + 1):
            belief = policy.common_belief(history)
            beliefs.append(belief)
            entropy_sum[t - 1] += belief_entropy(belief)
            gamma = policy.prescription_for_history(history)
            a = tuple(
                _draw(rng, np.asarray(gamma.rows[i][x[i]], dtype=float))
                for i in range(n)
            )
            a_flat = spec.flatten_actions(a)
            reward = spec.reward_tensor(t)
            for i in range(n):
                stage_rewards[t - 1, i] = float(reward[i, x_flat, a_flat])
                episode[i] += weight * stage_rewards[t - 1, i]
            weight *= spec.discount
            history = history + (a,)
        totals += episode
        totals_sq += episode ** 2
        for i in range(n):
            type_sum[i][x[i]] += episode[i]
            type_count[i][x[i]] += 1
        if len(traces) < trace_limit:
            stage_rewards.setflags(write=False)
            ep = episode.copy()
            ep.setflags(write=False)
            traces.append(Trace(
                joint_type=x, actions=history, beliefs=tuple(beliefs),
                stage_rewards=stage_rewards, totals=ep,
            ))

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
    reached type plays are followed."""
    total = np.zeros((spec.num_players, spec.num_joint_types))
    t = len(history) + 1
    if t > spec.horizon:
        return total
    rows = list(policy.prescription_for_history(history).rows)
    if deviation is not None:
        i, dev_rows = deviation
        rows[i] = dev_rows[t]
    xmaps = component_maps(spec.type_counts)
    amaps = component_maps(spec.action_counts)
    like = np.ones((spec.num_joint_types, spec.num_joint_actions))
    for j, row in enumerate(rows):
        like = like * row[xmaps[j][:, None], amaps[j][None, :]]
    if reach is not None:
        like[~reach] = 0.0
    reward = spec.reward_tensor(t)
    for a_flat in range(spec.num_joint_actions):
        p = like[:, a_flat]
        if not p.any():
            continue
        child = expected_rewards(
            spec, policy, history + (unflatten_joint(a_flat, spec.action_counts),),
            deviation, p > 0.0)
        total += p * (reward[:, :, a_flat] + spec.discount * child)
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
