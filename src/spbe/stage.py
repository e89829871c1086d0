"""Per-stage equilibrium prescription solver.

At a fixed stage t and common belief pi, an equilibrium prescription is a
fixed point of the best-response correspondence of the agent-form game
whose agents are (player, type) pairs: every agent's row may put mass only
on actions maximizing that agent's conditional expected payoff, where the
payoff of an action is the expected stage reward plus the discounted
continuation value evaluated at the belief updated with the *candidate*
prescription. The candidate enters its own evaluation through the belief
update, which is what distinguishes this from a static Bayesian game and
why a solution need not exist.

Solution phases, tried in order and recorded in the result:

1. damped best-response iteration from the uniform prescription;
2. a scan of all pure agent profiles in lexicographic order;
3. damped best-response iteration from seeded Dirichlet restarts;
4. exhaustive support enumeration (small games only): for each support
   profile, solve the indifference system with continuation values frozen,
   refresh the freeze, and accept when the unfrozen residual clears the
   tolerance. For one or two players the frozen system is linear and
   solved by least squares; with three or more players it is multilinear
   and handed to a root finder.

Types whose current marginal is numerically zero take no part in the
fixed point. Their rows are filled in afterwards as best responses under
the uniform fallback conditional, so that play at publicly impossible
types is still optimal against the same fallback the verifier uses.
A failed solve is a reported status, never an exception.

All payoffs come from one tensor evaluator, :class:`StageEvaluator`, which
carries a leading batch axis over beliefs. A single stage point is a batch
of one whose continuation values come from a value function called in a
fixed order; a belief grid (:func:`solve_phase_one`) runs phase 1 for all
of its points at once, reading continuations off the stage-(t+1) table.
"""

from __future__ import annotations

import copy
import itertools
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .beliefs import (
    Belief,
    Prescription,
    condition_on_type,
    posterior_weights,
    update,  # noqa: F401  (bound here so profilers can wrap it by name)
)
from .game import GameSpec, component_maps, embedding_map

# Extra iterations allowed without any residual improvement before a
# restart is declared stuck (damped best responses cycle on games with
# only mixed equilibria; genuine convergence improves every few steps).
STALL_WINDOW = 60
SUPPORT_REFRESH_MAX = 60
FREEZE_STABLE_TOL = 1e-12
LSTSQ_CONSISTENCY_TOL = 1e-8

ValueFunction = Callable[[Belief, int, int], float]


def terminal_values(belief: Belief, i: int, xi: int) -> float:
    """Continuation value beyond the horizon: identically zero."""
    return 0.0


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the per-stage fixed-point search.

    ``tie_tol`` controls when best responses are treated as tied; under
    ``mix_ties`` a tied set is mixed uniformly, otherwise the
    lexicographically smallest maximizer is chosen. Support enumeration
    runs only at stage points whose total row size (sum over players of
    types times actions) is at most ``support_enumeration_limit``, so 0
    turns it off.
    """

    fp_tol: float = 1e-8
    max_iterations: int = 10_000
    damping: float = 0.5
    restarts: int = 8
    rng_seed: int = 0
    support_enumeration_limit: int = 12
    mix_ties: bool = True
    tie_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.fp_tol <= 0:
            raise ValueError("fp_tol must be positive")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")
        if self.max_iterations < 1 or self.restarts < 1:
            raise ValueError("max_iterations and restarts must be >= 1")
        if self.support_enumeration_limit < 0:
            raise ValueError("support_enumeration_limit must be >= 0")


@dataclass(frozen=True, slots=True)
class StageSolution:
    """A solved (or failed) stage point.

    values[i][xi] is the solved continuation-inclusive value of (i, xi) at
    this stage and belief. ``residual`` is the best-response gap maxed over
    agents with positive marginal; zero-marginal agents are listed in
    ``degenerate_types`` and excluded from it. ``status`` is one of
    ``converged``, ``max_iterations``, ``no_fixed_point``.
    """

    prescription: Prescription
    values: tuple[np.ndarray, ...]
    residual: float
    status: str
    method: str | None = None
    restart_index: int | None = None
    support_profile: tuple | None = None
    degenerate_types: tuple[tuple[int, int], ...] = ()

    @property
    def converged(self) -> bool:
        return self.status == "converged"


# ---------------------------------------------------------------------------
# Tensor stage evaluator
# ---------------------------------------------------------------------------

class StageEvaluator:
    """Stage payoffs of every agent at a batch of common beliefs.

    Axes: ``b`` runs over the batch, ``a`` over flat joint actions and ``x``
    over flat joint types. A candidate prescription is one (B, T_j, A_j)
    row array per player j, and ``G_j[b, a, x] = gamma_j[b, x_j, a_j]`` is
    the probability its row gives its own component of a. Then

    * ``L = prod_j G_j`` is the likelihood of a at x, and
      :func:`posterior_weights` turns it into the updated belief after
      every joint action at once;
    * agent (i, x_i) weighs the others' types and actions by
      ``W_i = cond_i * prod_{j != i} G_j``, where ``cond_i`` is the belief
      conditioned on x_i (:func:`condition_on_type`, uniform fallback
      included); ``mass_i`` sums W_i over the others' types, and a joint
      action the agent reaches (positive mass) needs its continuation;
    * ``Q_i[b, x_i, a_i]`` adds, over the others' actions, the stage
      reward ``sum W_i * R_i`` and ``mass_i * discount * C_i``, where
      ``C_i[b, a, x_i]`` is the stage-(t+1) value of (i, x_i) at the
      posterior after a.

    Player i's tensors are laid out as (B, A_i, A_{-i}, T_i, X_{-i}), "-i"
    being the others' flat index; ``order[i]`` lists the flat joint action
    of each (A_i, A_{-i}) position. Sums over the others run in index
    order, so values do not depend on the batch they were computed in.
    Agents whose type has (numerically) zero marginal are inactive.
    """

    def __init__(self, spec: GameSpec, t: int, beliefs: Sequence[Belief],
                 continuations=None):
        if any(pi.type_counts != spec.type_counts for pi in beliefs):
            raise ValueError("belief shape does not match the game")
        n = spec.num_players
        tc, ac = spec.type_counts, spec.action_counts
        xmaps, amaps = component_maps(tc), component_maps(ac)
        self.spec = spec
        self.type_counts = tc
        self.action_counts = ac
        self.num_joint_actions = spec.num_joint_actions
        self.continuations = continuations
        self.beliefs = list(beliefs)
        self.weights = np.array([pi.weights for pi in beliefs])
        # flat index into a (B, T_j * A_j) row array, (A, X) layout
        self._g = [xmaps[j][None, :] * ac[j] + amaps[j][:, None] for j in range(n)]
        x_of = [np.array([embedding_map(tc, i, xi) for xi in range(tc[i])])
                for i in range(n)]
        a_of = [np.array([embedding_map(ac, i, ai) for ai in range(ac[i])])
                for i in range(n)]
        self.order = [a.ravel() for a in a_of]
        # the same in player i's layout, for every other player j
        self._g_of = [{j: (xmaps[j][x_of[i]][None, None] * ac[j]
                           + amaps[j][a_of[i]][:, :, None, None])
                       for j in range(n) if j != i} for i in range(n)]
        self._w_shape = [a.shape + x.shape for a, x in zip(a_of, x_of)]
        reward = spec.reward_tensor(t)
        self._r = [reward[i][x[None, None, :, :], a[:, :, None, None]]
                   for i, (a, x) in enumerate(zip(a_of, x_of))]
        # cond[i][b, x_i, x_{-i}]: the belief conditioned on x_i
        self.cond = [np.zeros((len(beliefs), c, x.shape[1])) for c, x in zip(tc, x_of)]
        self.active = [np.zeros((len(beliefs), c), dtype=bool) for c in tc]
        for b, pi in enumerate(beliefs):
            for i in range(n):
                for xi in range(tc[i]):
                    cond = condition_on_type(pi, i, xi)
                    self.cond[i][b, xi] = cond.weights
                    self.active[i][b, xi] = not cond.degenerate
        self.corner = [~m for m in self.active]

    @property
    def size(self) -> int:
        return len(self.beliefs)

    @property
    def agents(self) -> list[tuple[int, int]]:
        """Active agents of the first batch point."""
        return self.agents_at(0)

    def agents_at(self, b: int, corner: bool = False) -> list[tuple[int, int]]:
        masks = self.corner if corner else self.active
        return [(i, int(xi)) for i, m in enumerate(masks) for xi in np.flatnonzero(m[b])]

    def take(self, idx) -> "StageEvaluator":
        """The evaluator restricted to the batch points ``idx`` (ascending)."""
        if len(idx) == self.size:
            return self
        out = copy.copy(self)
        out.beliefs = [self.beliefs[k] for k in idx]
        out.weights = self.weights[idx]
        out.cond = [c[idx] for c in self.cond]
        out.active = [m[idx] for m in self.active]
        out.corner = [m[idx] for m in self.corner]
        return out

    def posteriors(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Posterior weights (B, A, X) after every joint action, and where
        they moved off the prior (see :func:`posterior_weights`)."""
        like = None
        for r, g in zip(rows, self._g):
            factor = np.take(r.reshape(r.shape[0], -1), g, axis=1)
            like = factor if like is None else like * factor
        return posterior_weights(self.weights[:, None, :], like)

    def agent_weights(self, rows) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(W_i, mass_i)`` for every player i, mass_i as (B, A_i, A_{-i}, T_i)."""
        flat = [r.reshape(r.shape[0], -1) for r in rows]
        out = []
        for i, g_of in enumerate(self._g_of):
            others = 1.0
            for j, g in g_of.items():
                others = others * np.take(flat[j], g, axis=1)
            w = np.broadcast_to(self.cond[i][:, None, None] * others,
                                (len(flat[0]),) + self._w_shape[i])
            mass = np.zeros(w.shape[:4])
            for k in range(w.shape[4]):
                mass += w[..., k]
            out.append((w, mass))
        return out

    def reach(self, weights) -> list[np.ndarray]:
        """Per player, (B, A, T_i) flags in ``order[i]``: agent (i, x_i)
        gives that joint action positive mass, so needs its continuation."""
        return [(mass > 0.0).reshape(mass.shape[0], -1, mass.shape[3])
                for _, mass in weights]

    def q(self, weights, values) -> list[np.ndarray]:
        """``Q_i[b, x_i, a_i]`` for every player, given ``values[i]`` =
        ``C_i[b, a, x_i]``."""
        out = []
        for (w, mass), r, order, c in zip(weights, self._r, self.order, values):
            terms = w * r
            stage = np.zeros(mass.shape)
            for k in range(terms.shape[4]):
                stage += terms[..., k]
            cont = mass * self.spec.discount * np.take(c, order, axis=1).reshape(mass.shape)
            total = np.zeros(mass.shape[:2] + mass.shape[3:])
            for k in range(mass.shape[2]):
                total += stage[:, :, k]
                total += cont[:, :, k]
            out.append(np.ascontiguousarray(total.transpose(0, 2, 1)))
        return out

    def weighted_payoffs(self, i: int, values: np.ndarray) -> np.ndarray:
        """``cond_i * (R_i + discount * C_i)`` in player i's layout."""
        cont = np.take(values, self.order[i], axis=1).reshape(
            values.shape[:1] + self._w_shape[i][:3])[..., None]
        return self.cond[i][:, None, None] * (self._r[i] + self.spec.discount * cont)


class _Candidate:
    """One candidate prescription at every batch point, with the
    stage-(t+1) values ``values[i][b, a, x_i]`` of its posteriors, fetched
    as agents need them."""

    def __init__(self, ev: StageEvaluator, rows):
        self.ev = ev
        self.rows = rows
        self.values = [np.zeros((ev.size, ev.num_joint_actions, c))
                       for c in ev.type_counts]
        self.filled = None     # bookkeeping of the continuation source
        self._posteriors = None
        self._beliefs: dict[int, Belief] = {}

    def posteriors(self) -> tuple[np.ndarray, np.ndarray]:
        if self._posteriors is None:
            self._posteriors = self.ev.posteriors(self.rows)
        return self._posteriors

    def belief(self, a: int) -> Belief:
        """Posterior after joint action a at the first batch point."""
        got = self._beliefs.get(a)
        if got is None:
            post, moved = self.posteriors()
            pi = self.ev.beliefs[0]
            got = Belief(post[0, a], pi.type_counts) if moved[0, a] else pi
            self._beliefs[a] = got
        return got


class _ValueFunctionContinuations:
    """Continuation values from ``v_next(belief, i, xi)``, one batch point.

    Values are requested one at a time in the order of the scalar
    definition: agent by agent, own action major, the others' joint action
    minor. A lazily solving ``v_next`` (exact mode) therefore meets the
    stage-(t+1) beliefs in a fixed order, and stops at the same first
    failure. ``reach=None`` asks for every joint action, in flat order.
    """

    def __init__(self, v_next: ValueFunction):
        self.v_next = v_next

    def fill(self, cand: _Candidate, reach, agents) -> None:
        if cand.filled is None:
            cand.filled = set()
        done = cand.filled
        for i, order in enumerate(cand.ev.order):
            order = order.tolist()
            if reach is None:
                order = sorted(order)
            for xi in np.flatnonzero(agents[i][0]).tolist():
                hits = reach[i][0, :, xi].tolist() if reach is not None else None
                for pos, a in enumerate(order):
                    if (hits is None or hits[pos]) and (a, i, xi) not in done:
                        done.add((a, i, xi))
                        cand.values[i][0, a, xi] = self.v_next(cand.belief(a), i, xi)


class _TableContinuations:
    """Continuation values read off a stage-(t+1) table for a whole batch.

    ``lookup(posteriors)`` maps (Q, X) posterior weights to one (Q, T_i)
    value array per player; ``None`` stands for the zero values beyond
    the horizon.
    """

    def __init__(self, lookup: Callable | None):
        self.lookup = lookup

    def fill(self, cand: _Candidate, reach, agents) -> None:
        if self.lookup is None:
            return
        if cand.filled is None:
            cand.filled = np.zeros(cand.values[0].shape[:2], dtype=bool)
        need = np.zeros(cand.filled.shape, dtype=bool)
        for r, m, order in zip(reach, agents, cand.ev.order):
            need[:, order] |= (r & m[:, None, :]).any(axis=2)
        b, a = np.nonzero(need & ~cand.filled)
        if b.size:
            post, _ = cand.posteriors()
            for vals, got in zip(cand.values, self.lookup(post[b, a])):
                vals[b, a] = got
            cand.filled[b, a] = True


def _single_point(spec: GameSpec, t: int, pi: Belief,
                  v_next: ValueFunction) -> StageEvaluator:
    return StageEvaluator(spec, t, [pi], _ValueFunctionContinuations(v_next))


def _evaluate(ev: StageEvaluator, rows, agents, cand: _Candidate) -> list[np.ndarray]:
    """Q of every agent when play follows ``rows`` and continuations are
    those of ``cand``'s posteriors, fetched for the agents in ``agents``."""
    weights = ev.agent_weights(rows)
    ev.continuations.fill(cand, ev.reach(weights), agents)
    return ev.q(weights, cand.values)


def _batch_rows(gamma: Prescription) -> list[np.ndarray]:
    return [r[None] for r in gamma.rows]


def _prescription(rows, b: int) -> Prescription:
    return Prescription(tuple(r[b] for r in rows))


def _agent_q(spec: GameSpec, t: int, pi: Belief, gamma: Prescription,
             i: int, xi: int, v_next: ValueFunction) -> np.ndarray:
    ev = _single_point(spec, t, pi, v_next)
    agents = [np.zeros((1, c), dtype=bool) for c in spec.type_counts]
    agents[i][0, xi] = True
    rows = _batch_rows(gamma)
    return _evaluate(ev, rows, agents, _Candidate(ev, rows))[i][0, xi]


# ---------------------------------------------------------------------------
# Public action value
# ---------------------------------------------------------------------------

def action_value(
    spec: GameSpec,
    t: int,
    pi: Belief,
    gamma: Prescription,
    i: int,
    xi: int,
    ai: int,
    v_next: ValueFunction,
) -> float:
    """Conditional expected payoff of action ai for agent (i, xi).

    The expectation weights the others' types by pi conditioned on xi and
    the others' actions by their candidate rows; each term adds the stage
    reward and the discounted continuation value at the belief updated
    with the *full* candidate gamma, own component included. Conditioning
    on a zero-marginal type uses the uniform fallback conditional.
    """
    return float(_agent_q(spec, t, pi, gamma, i, xi, v_next)[ai])


def best_response_set(
    spec: GameSpec,
    t: int,
    pi: Belief,
    gamma: Prescription,
    i: int,
    xi: int,
    v_next: ValueFunction,
    tie_tol: float = 1e-12,
) -> list[int]:
    """Actions within tie_tol of the maximal action value, ascending."""
    q = _agent_q(spec, t, pi, gamma, i, xi, v_next)
    top = float(q.max())
    return [a for a in range(q.shape[0]) if q[a] >= top - tie_tol]


# ---------------------------------------------------------------------------
# Best-response iteration
# ---------------------------------------------------------------------------

def _residual(q, rows, agents) -> np.ndarray:
    """Per batch point, the largest best-response gap over ``agents``."""
    worst = np.zeros(q[0].shape[0])
    for qi, ri, mi in zip(q, rows, agents):
        gap = qi.max(axis=-1) - (ri * qi).sum(axis=-1)
        worst = np.maximum(worst, np.where(mi, gap, 0.0).max(axis=-1))
    return worst


def _br_rows(q, config: SolverConfig) -> list[np.ndarray]:
    out = []
    for qi in q:
        ties = qi >= qi.max(axis=-1, keepdims=True) - config.tie_tol
        if config.mix_ties:
            out.append(ties / ties.sum(axis=-1, keepdims=True))
        else:
            first = np.arange(qi.shape[-1]) == ties.argmax(axis=-1)[..., None]
            out.append(first.astype(float))
    return out


def _apply_br(rows, q, agents, config: SolverConfig, step: float) -> list[np.ndarray]:
    return [np.where(m[..., None], (1.0 - step) * r + step * target, r)
            for r, target, m in zip(rows, _br_rows(q, config), agents)]


def _polish(ev: StageEvaluator, rows, q, res: np.ndarray, config: SolverConfig):
    """Snap converged iterates to their own best-response profiles where
    that profile is at least as good. Strict equilibria then come out
    exactly pure instead of pure-up-to-damping-residue; interior points
    are left alone because their undamped best response is far from them."""
    snapped = _apply_br(rows, q, ev.active, config, 1.0)
    snapped_q = _evaluate(ev, snapped, ev.active,
                          _Candidate(ev, snapped))
    snapped_res = _residual(snapped_q, snapped, ev.active)
    better = snapped_res <= res
    return ([np.where(better[:, None, None], s, r) for s, r in zip(snapped, rows)],
            np.where(better, snapped_res, res))


def _iterate_batch(ev: StageEvaluator, rows, config: SolverConfig):
    """Damped best-response iteration at every batch point, in lockstep.

    Per point this is the scalar rule: track the best iterate (improvement
    by more than 1e-12), stop when the residual clears ``fp_tol`` and
    polish, or give up after ``STALL_WINDOW`` iterations without
    improvement or after ``max_iterations``. Returns rows, residuals and
    converged flags: polished fixed points where converged, else the best
    iterate seen.
    """
    cur = [np.array(r, dtype=float) for r in rows]
    best = [r.copy() for r in cur]
    best_res = np.full(ev.size, np.inf)
    since = np.zeros(ev.size, dtype=np.int64)
    ok = np.zeros(ev.size, dtype=bool)
    live = np.arange(ev.size)
    sub = ev
    for _ in range(config.max_iterations):
        if not live.size:
            break
        q = _evaluate(sub, cur, sub.active, _Candidate(sub, cur))
        res = _residual(q, cur, sub.active)
        better = res < best_res[live] - 1e-12
        for b_rows, c_rows in zip(best, cur):
            b_rows[live[better]] = c_rows[better]
        best_res[live[better]] = res[better]
        since[live] = np.where(better, 0, since[live] + 1)
        conv = res <= config.fp_tol
        if conv.any():
            k = np.flatnonzero(conv)
            polished, polished_res = _polish(
                sub.take(k), [c[k] for c in cur], [qi[k] for qi in q], res[k], config)
            for b_rows, p_rows in zip(best, polished):
                b_rows[live[k]] = p_rows
            best_res[live[k]] = polished_res
            ok[live[k]] = True
        go_on = ~conv & (since[live] <= STALL_WINDOW)
        cur = _apply_br(cur, q, sub.active, config, config.damping)
        if not go_on.all():
            keep = np.flatnonzero(go_on)
            cur = [c[keep] for c in cur]
            sub = sub.take(keep)
            live = live[keep]
    return best, best_res, ok


def _iterate(ev: StageEvaluator, gamma: Prescription,
             config: SolverConfig) -> tuple[Prescription, float, bool]:
    """Damped best-response iteration at one point; returns the polished
    fixed point, or the best iterate seen."""
    rows, res, ok = _iterate_batch(ev, _batch_rows(gamma), config)
    return _prescription(rows, 0), float(res[0]), bool(ok[0])


def _check(ev: StageEvaluator, gamma: Prescription) -> float:
    """Residual of a candidate at a single point."""
    rows = _batch_rows(gamma)
    q = _evaluate(ev, rows, ev.active, _Candidate(ev, rows))
    return float(_residual(q, rows, ev.active)[0])


def _dirichlet_start(ev: StageEvaluator, rng: np.random.Generator) -> Prescription:
    rows = []
    for nt, na in zip(ev.type_counts, ev.action_counts):
        rows.append(rng.dirichlet(np.ones(na), size=nt))
    return Prescription(tuple(rows))


def _placeholder_rows(ev: StageEvaluator) -> list[np.ndarray]:
    return [np.full((nt, na), 1.0 / na)
            for nt, na in zip(ev.type_counts, ev.action_counts)]


def _pure_profiles(ev: StageEvaluator):
    """All assignments of one pure action per active agent, lexicographic."""
    agents = ev.agents
    ranges = [range(ev.action_counts[i]) for (i, _) in agents]
    for combo in itertools.product(*ranges):
        rows = _placeholder_rows(ev)
        for (i, xi), a in zip(agents, combo):
            rows[i][xi] = 0.0
            rows[i][xi, a] = 1.0
        yield Prescription(tuple(rows))


# ---------------------------------------------------------------------------
# Support enumeration
# ---------------------------------------------------------------------------

def _support_profiles(ev: StageEvaluator):
    """Support assignments for the active agents, largest total size first.

    Larger supports come first because games that reach enumeration at all
    have already failed the pure scan and the iterative phase, which catch
    strict equilibria; what remains is typically interior.
    """
    agents = ev.agents
    per_agent = []
    for (i, _) in agents:
        na = ev.action_counts[i]
        subsets = []
        for size in range(na, 0, -1):
            subsets.extend(itertools.combinations(range(na), size))
        per_agent.append(subsets)
    profiles = list(itertools.product(*per_agent))
    profiles.sort(key=lambda prof: (-sum(len(s) for s in prof), prof))
    return profiles


def _freeze_continuations(ev: StageEvaluator, gamma: Prescription) -> list[np.ndarray]:
    """Continuation values ``C_i[0, a, x_i]`` of every active agent at every
    joint action under candidate gamma (zero for inactive agents)."""
    cand = _Candidate(ev, _batch_rows(gamma))
    ev.continuations.fill(cand, None, ev.active)
    return cand.values


def _frozen_q(ev: StageEvaluator, rows, frozen) -> list[np.ndarray]:
    """Action values (one point) under rows with frozen continuations."""
    return [qi[0] for qi in ev.q(ev.agent_weights([r[None] for r in rows]), frozen)]


def _solve_frozen_two_player(ev: StageEvaluator, profile_map: dict,
                             frozen) -> Prescription | None:
    """Solve the frozen indifference system exactly for N <= 2.

    For two players the indifference conditions of player i's agents are
    linear in the stacked support entries of the other player's rows, so
    each player's rows come out of one least-squares solve. For one player
    the support is feasible only when the frozen action values tie.
    """
    n = ev.spec.num_players
    rows = _placeholder_rows(ev)

    if n == 1:
        q = _frozen_q(ev, rows, frozen)[0]
        for (i, xi) in ev.agents:
            support = list(profile_map[(i, xi)])
            vals = q[xi, support]
            if vals.max() - vals.min() > 1e-9:
                return None
            rows[i][xi] = 0.0
            rows[i][xi, support] = 1.0 / len(support)
        return Prescription(tuple(rows))

    agents_of = {i: [xi for (j, xi) in ev.agents if j == i] for i in range(2)}
    for solved in (0, 1):
        # player `solved`'s rows are pinned by the *other* player's indifference
        other = 1 - solved
        # with two players the others' flat index of player `other` is
        # player `solved`'s own coordinate: coef[x_other, a_other, x_solved, a_solved]
        coef = ev.weighted_payoffs(other, frozen[other])[0].transpose(2, 0, 3, 1)
        unknowns = [(xs, a) for xs in agents_of[solved]
                    for a in profile_map[(solved, xs)]]
        xs_idx = np.array([xs for xs, _ in unknowns])
        as_idx = np.array([a for _, a in unknowns])
        value_vars = agents_of[other]
        equations = [(xo, ao) for xo in value_vars for ao in profile_map[(other, xo)]]
        mat = np.zeros((len(equations) + len(agents_of[solved]),
                        len(unknowns) + len(value_vars)))
        for r, (xo, ao) in enumerate(equations):
            mat[r, :len(unknowns)] = coef[xo, ao, xs_idx, as_idx]
            mat[r, len(unknowns) + value_vars.index(xo)] = -1.0
        for r, xs in enumerate(agents_of[solved]):
            mat[len(equations) + r, :len(unknowns)] = xs_idx == xs
        vec = np.zeros(mat.shape[0])
        vec[len(equations):] = 1.0
        sol, *_ = np.linalg.lstsq(mat, vec, rcond=None)
        if not np.all(np.isfinite(sol)):
            return None
        scale = max(1.0, float(np.abs(vec).max()), float(np.abs(mat).max()))
        if float(np.abs(mat @ sol - vec).max()) > LSTSQ_CONSISTENCY_TOL * scale:
            return None
        if np.any(sol[: len(unknowns)] < -1e-8):
            return None
        rows[solved][...] = 0.0
        for col, (xs, a) in enumerate(unknowns):
            rows[solved][xs, a] = max(float(sol[col]), 0.0)
        sums = rows[solved].sum(axis=1)
        for xs in agents_of[solved]:
            if sums[xs] <= 0:
                return None
            rows[solved][xs] /= sums[xs]
        # rows of types not active keep the uniform placeholder
        for xs in range(ev.type_counts[solved]):
            if xs not in agents_of[solved]:
                rows[solved][xs] = 1.0 / ev.action_counts[solved]
    return Prescription(tuple(rows))


def _solve_frozen_multi(ev: StageEvaluator, profile_map: dict,
                        frozen, start: Prescription) -> Prescription | None:
    """Root-find the frozen indifference system for three or more players.

    The system is multilinear in the support entries, so unlike the
    two-player case there is no exact linear-algebra solve; scipy's hybrid
    root finder handles these desk-scale systems well when a solution on
    the support exists.
    """
    from scipy.optimize import root

    agents = ev.agents
    layout: list[tuple[int, int, tuple[int, ...]]] = []
    for (i, xi) in agents:
        layout.append((i, xi, tuple(profile_map[(i, xi)])))

    def unpack(z: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        # plain arrays: the root finder's trial points need not be
        # row-stochastic, only the accepted solution is checked below
        rows = _placeholder_rows(ev)
        pos = 0
        for (i, xi, support) in layout:
            rows[i][xi] = 0.0
            for a in support:
                rows[i][xi, a] = z[pos]
                pos += 1
        vals = z[pos:]
        return rows, vals

    def equations(z: np.ndarray) -> np.ndarray:
        rows, vals = unpack(z)
        q = _frozen_q(ev, rows, frozen)
        out = []
        for k, (i, xi, support) in enumerate(layout):
            for a in support:
                out.append(q[i][xi, a] - vals[k])
            out.append(float(rows[i][xi].sum()) - 1.0)
        return np.asarray(out)

    # per agent: |support| indifference equations plus one normalization,
    # against |support| row entries plus one value variable, so the system
    # is square
    z0 = []
    for (i, xi, support) in layout:
        for a in support:
            z0.append(float(start.rows[i][xi, a]))
    z0.extend(0.0 for _ in layout)
    z0 = np.asarray(z0)
    try:
        result = root(equations, z0, method="hybr")
    except Exception:
        return None
    if not result.success and float(np.abs(equations(result.x)).max()) > 1e-9:
        return None
    rows, _ = unpack(result.x)
    for (i, xi, support) in layout:
        row = rows[i][xi]
        if np.any(row < -1e-8):
            return None
        row[row < 0] = 0.0
        s = row.sum()
        if s <= 0:
            return None
        rows[i][xi] = row / s
    return Prescription(tuple(rows))


def _solve_support(ev: StageEvaluator, profile, config: SolverConfig) -> Prescription | None:
    """Find a candidate supported on `profile` that survives freeze refresh."""
    profile_map = {agent: support for agent, support in zip(ev.agents, profile)}
    rows = _placeholder_rows(ev)
    for (i, xi), support in profile_map.items():
        rows[i][xi] = 0.0
        rows[i][xi, list(support)] = 1.0 / len(support)
    gamma = Prescription(tuple(rows))

    for _ in range(SUPPORT_REFRESH_MAX):
        frozen = _freeze_continuations(ev, gamma)
        if ev.spec.num_players <= 2:
            solved = _solve_frozen_two_player(ev, profile_map, frozen)
        else:
            solved = _solve_frozen_multi(ev, profile_map, frozen, gamma)
        if solved is None:
            return None
        refrozen = _freeze_continuations(ev, solved)
        drift = max(float(np.abs(new - old).max()) for new, old in zip(refrozen, frozen))
        if drift <= FREEZE_STABLE_TOL:
            return solved
        mixed = [
            (1.0 - config.damping) * g + config.damping * s
            for g, s in zip(gamma.rows, solved.rows)
        ]
        gamma = Prescription(tuple(mixed))
    return None


def _enumeration_size(ev: StageEvaluator) -> int:
    return sum(nt * na for nt, na in zip(ev.type_counts, ev.action_counts))


# ---------------------------------------------------------------------------
# Finalization
# ---------------------------------------------------------------------------

def _finalize_rows(ev: StageEvaluator, rows, config: SolverConfig):
    """Fill fallback rows for zero-marginal types and attach values, at
    every batch point. Returns (final rows, values, residual).

    Zero-marginal rows never influence the belief update or any positive-
    marginal agent's payoff, so replacing them after the fixed point is
    settled cannot disturb it; making them best responses keeps play at
    publicly impossible types optimal under the same uniform fallback
    conditional the verifier conditions with. Continuations stay those of
    the candidate's own posteriors.
    """
    cand = _Candidate(ev, rows)
    corner_q = _evaluate(ev, rows, ev.corner, cand)
    final = _apply_br(rows, corner_q, ev.corner, config, 1.0)
    q = _evaluate(ev, final, ev.active, cand)
    values = [(f * np.where(m[..., None], qa, qc)).sum(axis=-1)
              for f, m, qa, qc in zip(final, ev.active, q, corner_q)]
    residual = _residual(q, final, ev.active)
    # solutions hold read-only views of these arrays rather than copies
    for arr in final + values:
        arr.setflags(write=False)
    return final, values, residual


def _solution(ev: StageEvaluator, b: int, finalized, config: SolverConfig,
              status: str, method: str | None, restart_index: int | None,
              support_profile=None) -> StageSolution:
    final, values, residual = finalized
    if status == "converged" and residual[b] > config.fp_tol:
        status = "max_iterations"
    return StageSolution(
        prescription=_prescription(final, b),
        values=tuple(v[b] for v in values),
        residual=float(residual[b]),
        status=status,
        method=method,
        restart_index=restart_index,
        support_profile=support_profile,
        degenerate_types=tuple(ev.agents_at(b, corner=True)),
    )


def _finalize(ev: StageEvaluator, gamma: Prescription, config: SolverConfig,
              status: str, method: str | None, restart_index: int | None,
              support_profile=None) -> StageSolution:
    finalized = _finalize_rows(ev, _batch_rows(gamma), config)
    return _solution(ev, 0, finalized, config, status, method,
                     restart_index, support_profile)


def _point_rng(config: SolverConfig, t: int, pi: Belief) -> np.random.Generator:
    """Seeded independently per (stage, belief) so that cache order cannot
    influence the draws of any other point."""
    key_bytes = np.round(pi.weights, 9).tobytes()
    return np.random.default_rng(
        np.random.SeedSequence([config.rng_seed, t, zlib.crc32(key_bytes)])
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def solve_phase_one(
    spec: GameSpec,
    t: int,
    beliefs: Sequence[Belief],
    lookup: Callable | None,
    config: SolverConfig | None = None,
) -> list:
    """Phase 1 at a whole batch of stage-t beliefs at once.

    Continuation values come from ``lookup``, which maps (Q, X) posterior
    weights to one (Q, T_i) array of stage-(t+1) values per player, or is
    ``None`` at the final stage. Returns, per belief, the finished
    :class:`StageSolution` where damped iteration from the uniform
    prescription converged, else the pair (best iterate, its residual) to
    pass on as ``solve_stage_fixed_point(..., phase_one=pair)``.
    """
    config = config or SolverConfig()
    ev = StageEvaluator(spec, t, beliefs, _TableContinuations(lookup))
    uniform = [np.full((len(beliefs), nt, na), 1.0 / na)
               for nt, na in zip(spec.type_counts, spec.action_counts)]
    rows, res, ok = _iterate_batch(ev, uniform, config)
    out: list = [None] * len(beliefs)
    for b in np.flatnonzero(~ok):
        out[b] = (_prescription(rows, b), float(res[b]))
    done = np.flatnonzero(ok)
    if done.size:
        sub = ev.take(done)
        finalized = _finalize_rows(sub, [r[done] for r in rows], config)
        for k, b in enumerate(done):
            out[b] = _solution(sub, k, finalized, config, "converged", "iteration", 0)
    return out


def solve_stage_fixed_point(
    spec: GameSpec,
    t: int,
    pi: Belief,
    v_next: ValueFunction,
    config: SolverConfig | None = None,
    *,
    phase_one: tuple[Prescription, float] | None = None,
) -> StageSolution:
    """Search for a stage-t equilibrium prescription at belief pi.

    Runs the phases described in the module docstring and returns the
    first candidate whose best-response residual over positive-marginal
    agents is at most ``config.fp_tol``. The outcome is deterministic in
    (spec, t, pi, config): random restarts are seeded per point.
    ``phase_one`` resumes after a failed phase 1 run elsewhere
    (:func:`solve_phase_one`), given its best iterate and residual.
    """
    config = config or SolverConfig()
    ev = _single_point(spec, t, pi, v_next)

    if phase_one is None:
        uniform = Prescription.uniform(ev.type_counts, ev.action_counts)
        gamma, res, ok = _iterate(ev, uniform, config)
        if ok:
            return _finalize(ev, gamma, config, "converged", "iteration", 0)
    else:
        gamma, res = phase_one
    best_gamma, best_res = gamma, res

    for pure in _pure_profiles(ev):
        res = _check(ev, pure)
        if res <= config.fp_tol:
            return _finalize(ev, pure, config, "converged", "pure_scan", None)
        if res < best_res:
            best_gamma, best_res = pure, res

    rng = _point_rng(config, t, pi)
    for restart in range(1, config.restarts):
        gamma, res, ok = _iterate(ev, _dirichlet_start(ev, rng), config)
        if ok:
            return _finalize(ev, gamma, config, "converged", "iteration", restart)
        if res < best_res:
            best_gamma, best_res = gamma, res

    enumeration_ran = False
    if _enumeration_size(ev) <= config.support_enumeration_limit:
        enumeration_ran = True
        for profile in _support_profiles(ev):
            candidate = _solve_support(ev, profile, config)
            if candidate is None:
                continue
            res = _check(ev, candidate)
            if res <= config.fp_tol:
                return _finalize(
                    ev, candidate, config, "converged",
                    "support_enumeration", None, support_profile=profile,
                )
            if res < best_res:
                best_gamma, best_res = candidate, res

    status = "no_fixed_point" if enumeration_ran else "max_iterations"
    return _finalize(ev, best_gamma, config, status, None, None)
