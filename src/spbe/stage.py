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
3. exhaustive support enumeration (small games only): for each support
   profile, solve the indifference system with continuation values frozen,
   refresh the freeze, and accept when the unfrozen residual clears the
   tolerance. For one or two players the frozen system is linear and
   solved by least squares; with three or more players it is multilinear
   and handed to a root finder;
4. damped best-response iteration from seeded Dirichlet restarts, only at
   points that enumeration left open or was too large to run at.

The cheap exact search runs before the random one: at a point where the
first iteration stalls, seeded restarts of the same iteration almost
always stall too, and below the last stage each of their iterations
makes the lookup solve posteriors that no history reads.

Types whose current marginal is numerically zero take no part in the
fixed point. Their rows are filled in afterwards as best responses under
the uniform fallback conditional, so that play at publicly impossible
types is still optimal against the same fallback the verifier uses.
A failed solve is a reported status, never an exception.

All payoffs come from one tensor evaluator, :class:`StageEvaluator`, which
carries a leading batch axis over beliefs. Continuation values reach it
through one contract, :data:`Lookup`: posterior weights in, every
player's stage-(t+1) values out, or ``None`` past the horizon. Both
modes pass their generator's stage-(t+1) lookup: a belief grid snaps to
its table, exact mode solves each posterior it is asked for.
:func:`solve_stage` runs phases 1, 2 and 4 in rounds over the points of
a batch that are still open, and phase 3 point by point. With no lookup
(the last stage) a point's solve has no side effects, so all its
restarts run at once and are kept in restart order, as a serial loop
would keep them; :func:`solve_stage_fixed_point` is its batch of one.
"""

from __future__ import annotations

import copy
import itertools
import math
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .beliefs import (
    Belief,
    Prescription,
    condition_on_type,  # noqa: F401  (bound here so profilers can wrap it by name)
    conditional_weights,
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
# best responses within this of the best are tied, and ties are mixed
# uniformly
TIE_TOL = 1e-12

# (Q, X) posterior weights -> one (Q, T_i) array of stage-(t+1) values per
# player; ``None`` in its place stands for the zero values past the horizon
Lookup = Callable[[np.ndarray], list[np.ndarray]]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the per-stage fixed-point search.

    Support enumeration runs only at stage points whose total row size
    (sum over players of types times actions) is at most
    ``support_enumeration_limit``, so 0 turns it off.
    """

    fp_tol: float = 1e-8
    max_iterations: int = 10_000
    damping: float = 0.5
    restarts: int = 8
    rng_seed: int = 0
    support_enumeration_limit: int = 12

    def __post_init__(self) -> None:
        if not 0 < self.fp_tol < math.inf:   # NaN too
            raise ValueError("fp_tol must be finite and positive")
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
      conditioned on x_i (:func:`conditional_weights`, uniform fallback
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
                 lookup: Lookup | None = None):
        if any(pi.type_counts != spec.type_counts for pi in beliefs):
            raise ValueError("belief shape does not match the game")
        n = spec.num_players
        tc, ac = spec.type_counts, spec.action_counts
        xmaps, amaps = component_maps(tc), component_maps(ac)
        self.spec = spec
        self.type_counts = tc
        self.action_counts = ac
        self.num_joint_actions = spec.num_joint_actions
        self.lookup = lookup
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
        # position in ``order[i]`` of each flat joint action
        self.flat = [np.argsort(o) for o in self.order]
        reward = spec.reward_tensor(t)
        self._r = [reward[i][x[None, None, :, :], a[:, :, None, None]]
                   for i, (a, x) in enumerate(zip(a_of, x_of))]
        # cond[i][b, x_i, x_{-i}]: the belief conditioned on x_i
        self.cond, self.corner = [], []
        for i in range(n):
            cond, degenerate = conditional_weights(self.weights, tc, i)
            self.cond.append(cond)
            self.corner.append(degenerate)
        self.active = [~m for m in self.corner]

    @property
    def size(self) -> int:
        return len(self.beliefs)

    def agents(self, corner: bool = False) -> list[list[tuple[int, int]]]:
        """Per batch point, its active agents (zero-marginal ones with
        ``corner``), by player and then type."""
        out = [[] for _ in range(self.size)]
        for i, m in enumerate(self.corner if corner else self.active):
            for b, xi in zip(*(idx.tolist() for idx in np.nonzero(m))):
                out[b].append((i, xi))
        return out

    def take(self, idx) -> "StageEvaluator":
        """The evaluator at the batch points ``idx``, in that order; a point
        may repeat."""
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size == self.size and (idx == np.arange(self.size)).all():
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
        self._posteriors = None

    def fill(self, reach, agents) -> None:
        """Fetch the continuations of every joint action that an agent in
        ``agents`` reaches (``reach=None``: every joint action), in one
        lookup call ordered by batch point, then flat joint action. The
        lookup returns every player's values, so a lazily solving lookup
        (exact mode) meets the stage-(t+1) beliefs in a fixed order.
        Values fetched by an earlier call are fetched again, and come out
        the same."""
        lookup = self.ev.lookup
        if lookup is None:
            return
        if reach is None:
            need = np.ones(self.values[0].shape[:2], dtype=bool)
        else:
            need = False
            for r, m, flat in zip(reach, agents, self.ev.flat):
                need = need | np.matmul(r, m[..., None])[:, flat, 0]
        b, a = np.nonzero(need)
        if b.size:
            if self._posteriors is None:
                self._posteriors = self.ev.posteriors(self.rows)[0]
            post = self._posteriors[b, a]
            post.setflags(write=False)   # beliefs made from its rows share them
            for vals, got in zip(self.values, lookup(post)):
                vals[b, a] = got


def _evaluate(ev: StageEvaluator, rows, agents, cand: _Candidate) -> list[np.ndarray]:
    """Q of every agent when play follows ``rows`` and continuations are
    those of ``cand``'s posteriors, fetched for the agents in ``agents``."""
    weights = ev.agent_weights(rows)
    cand.fill(ev.reach(weights), agents)
    return ev.q(weights, cand.values)


def _batch_rows(gamma: Prescription) -> list[np.ndarray]:
    return [r[None] for r in gamma.rows]


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


def _br_rows(q) -> list[np.ndarray]:
    out = []
    for qi in q:
        ties = qi >= qi.max(axis=-1, keepdims=True) - TIE_TOL
        out.append(ties / ties.sum(axis=-1, keepdims=True))
    return out


def _apply_br(rows, q, agents, step: float) -> list[np.ndarray]:
    return [np.where(m[..., None], (1.0 - step) * r + step * target, r)
            for r, target, m in zip(rows, _br_rows(q), agents)]


def _check(ev: StageEvaluator, rows) -> np.ndarray:
    """Per batch point, the residual of the candidate ``rows``."""
    q = _evaluate(ev, rows, ev.active, _Candidate(ev, rows))
    return _residual(q, rows, ev.active)


def _polish(ev: StageEvaluator, rows, q, res: np.ndarray):
    """Snap converged iterates to their own best-response profiles where
    that profile is at least as good. Strict equilibria then come out
    exactly pure instead of pure-up-to-damping-residue; interior points
    are left alone because their undamped best response is far from them."""
    snapped = _apply_br(rows, q, ev.active, 1.0)
    snapped_res = _check(ev, snapped)
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
                sub.take(k), [c[k] for c in cur], [qi[k] for qi in q], res[k])
            for b_rows, p_rows in zip(best, polished):
                b_rows[live[k]] = p_rows
            best_res[live[k]] = polished_res
            ok[live[k]] = True
        go_on = ~conv & (since[live] <= STALL_WINDOW)
        cur = _apply_br(cur, q, sub.active, config.damping)
        if not go_on.all():
            keep = np.flatnonzero(go_on)
            cur = [c[keep] for c in cur]
            sub = sub.take(keep)
            live = live[keep]
    return best, best_res, ok


def _placeholder_rows(ev: StageEvaluator, *batch: int) -> list[np.ndarray]:
    return [np.full(batch + (nt, na), 1.0 / na)
            for nt, na in zip(ev.type_counts, ev.action_counts)]


def _pure_rows(ev: StageEvaluator, agents_of, k: int) -> list[np.ndarray]:
    """For each list of active agents in ``agents_of``, one per point, the
    k-th assignment of one pure action per agent, in lexicographic
    order."""
    rows = _placeholder_rows(ev, len(agents_of))
    for j, agents in enumerate(agents_of):
        combo = np.unravel_index(k, [ev.action_counts[i] for i, _ in agents])
        for (i, xi), a in zip(agents, combo):
            rows[i][j, xi] = 0.0
            rows[i][j, xi, a] = 1.0
    return rows


# ---------------------------------------------------------------------------
# Support enumeration, one point at a time: ``ev`` is a batch of one
# ---------------------------------------------------------------------------

def _support_profiles(ev: StageEvaluator):
    """Support assignments for the active agents, largest total size first.

    Larger supports come first because games that reach enumeration at all
    have already failed the pure scan and the iterative phase, which catch
    strict equilibria; what remains is typically interior.
    """
    agents = ev.agents()[0]
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
    cand.fill(None, ev.active)
    return [np.where(m[:, None, :], v, 0.0) for v, m in zip(cand.values, ev.active)]


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
        for (i, xi) in ev.agents()[0]:
            support = list(profile_map[(i, xi)])
            vals = q[xi, support]
            if vals.max() - vals.min() > 1e-9:
                return None
            rows[i][xi] = 0.0
            rows[i][xi, support] = 1.0 / len(support)
        return Prescription(tuple(rows))

    agents_of = {i: [xi for (j, xi) in ev.agents()[0] if j == i] for i in range(2)}
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

    agents = ev.agents()[0]
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
    result = root(equations, z0, method="hybr")
    if not np.isfinite(result.x).all():
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
    profile_map = dict(zip(ev.agents()[0], profile))
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


# ---------------------------------------------------------------------------
# Finalization
# ---------------------------------------------------------------------------

def _finalize_rows(ev: StageEvaluator, rows):
    """Fill fallback rows for zero-marginal types and attach values, at
    every batch point. Returns (one prescription per point, values,
    residual); the prescriptions' rows are checked once, as a batch.

    Zero-marginal rows never influence the belief update or any positive-
    marginal agent's payoff, so replacing them after the fixed point is
    settled cannot disturb it; making them best responses keeps play at
    publicly impossible types optimal under the same uniform fallback
    conditional the verifier conditions with. Continuations stay those of
    the candidate's own posteriors.
    """
    cand = _Candidate(ev, rows)
    corner_q = _evaluate(ev, rows, ev.corner, cand)
    final = _apply_br(rows, corner_q, ev.corner, 1.0)
    q = _evaluate(ev, final, ev.active, cand)
    values = [(f * np.where(m[..., None], qa, qc)).sum(axis=-1)
              for f, m, qa, qc in zip(final, ev.active, q, corner_q)]
    residual = _residual(q, final, ev.active)
    # solutions hold read-only views of these arrays rather than copies
    for arr in final + values:
        arr.setflags(write=False)
    return Prescription.batch(final), values, residual


def _solution(b: int, finalized, degenerate: list[tuple[int, int]],
              config: SolverConfig, status: str, method: str | None,
              restart_index: int | None, support_profile=None) -> StageSolution:
    prescriptions, values, residual = finalized
    if status == "converged" and residual[b] > config.fp_tol:
        status = "max_iterations"
    return StageSolution(
        prescription=prescriptions[b],
        values=tuple(v[b] for v in values),
        residual=float(residual[b]),
        status=status,
        method=method,
        restart_index=restart_index,
        support_profile=support_profile,
        degenerate_types=tuple(degenerate),
    )


def _point_rng(config: SolverConfig, t: int, pi: Belief) -> np.random.Generator:
    """Seeded by the stage and the bytes of the belief's key alone, so that
    beliefs sharing a store key draw alike, and cache order cannot
    influence the draws of any other point."""
    key_bytes = np.array(pi.key).tobytes()
    return np.random.default_rng(
        np.random.SeedSequence([config.rng_seed, t, zlib.crc32(key_bytes)])
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def solve_stage(
    spec: GameSpec,
    t: int,
    beliefs: Sequence[Belief],
    lookup: Lookup | None,
    config: SolverConfig | None = None,
) -> list[StageSolution]:
    """Search for a stage-t equilibrium prescription at every belief.

    Runs the phases of the module docstring in order over the points
    still open: phase 1 once, round k of the pure scan on each open
    point's k-th pure profile, support enumeration point by point, then
    restart r as one iteration (with no ``lookup``, every restart as one,
    kept in restart order); a point that enumeration closes draws no
    restart start. In every phase a candidate whose residual
    over positive-marginal agents is at most ``config.fp_tol`` closes its
    point; a failing one becomes the point's fallback only if its residual
    is strictly lower. A point tries the same candidates in the same order
    in any batch, so a batch of one calls ``lookup`` (:data:`Lookup`) as a
    search of that point alone would. The outcome at a point is
    deterministic in (spec, t, belief, lookup, config): restarts are
    seeded per point.
    """
    config = config or SolverConfig()
    ev = StageEvaluator(spec, t, beliefs, lookup)
    best, best_res, ok = _iterate_batch(ev, _placeholder_rows(ev, ev.size), config)
    # per closed point: (status, method, restart index, support profile)
    outcome = [("converged", "iteration", 0, None) if k else None for k in ok]

    def still_open(among=range(ev.size)) -> np.ndarray:
        return np.array([b for b in among if outcome[b] is None], dtype=int)

    def keep(points, rows, res, found) -> None:
        # an iteration converged exactly where its residual clears fp_tol
        passed = res <= config.fp_tol
        take = passed | (res < best_res[points])
        for kept, new in zip(best, rows):
            kept[points[take]] = new[take]
        best_res[points[take]] = res[take]
        for b in points[passed]:
            outcome[b] = found

    active = ev.agents()
    pure_counts = [math.prod(ev.action_counts[i] for i, _ in agents)
                   for agents in active]
    for k in itertools.count():
        points = still_open(b for b in range(ev.size) if k < pure_counts[b])
        if not points.size:
            break
        rows = _pure_rows(ev, [active[b] for b in points], k)
        keep(points, rows, _check(ev.take(points), rows),
             ("converged", "pure_scan", None, None))

    enumeration_ran = config.support_enumeration_limit >= sum(
        nt * na for nt, na in zip(spec.type_counts, spec.action_counts))
    for b in still_open() if enumeration_ran else ():
        point = ev.take([b])
        for profile in _support_profiles(point):
            candidate = _solve_support(point, profile, config)
            if candidate is None:
                continue
            rows = _batch_rows(candidate)
            keep(np.array([b]), rows, _check(point, rows),
                 ("converged", "support_enumeration", None, profile))
            if outcome[b]:
                break

    rngs = {b: _point_rng(config, t, ev.beliefs[b]) for b in still_open()}
    # with no lookup a solve has no side effects, so every restart of the
    # open points runs in one iteration, kept restart by restart as if run
    # in turn; a lookup's solves must come in restart order
    step = max(config.restarts - 1, 1) if lookup is None else 1
    for first in range(1, config.restarts, step):
        points = still_open()
        if not points.size:
            break
        tried = range(first, min(first + step, config.restarts))
        starts = [[] for _ in ev.type_counts]
        for _ in tried:
            for start, nt, na in zip(starts, ev.type_counts, ev.action_counts):
                start.extend(rngs[b].dirichlet(np.ones(na), size=nt) for b in points)
        rows, res, _ = _iterate_batch(ev.take(np.tile(points, len(tried))),
                                      [np.array(s) for s in starts], config)
        for r, restart in enumerate(tried):
            live = np.array([outcome[b] is None for b in points])
            block = np.flatnonzero(live) + r * points.size
            keep(points[live], [x[block] for x in rows], res[block],
                 ("converged", "iteration", restart, None))

    failed = ("no_fixed_point" if enumeration_ran else "max_iterations",
              None, None, None)
    finalized = _finalize_rows(ev, best)
    corner = ev.agents(corner=True)
    return [_solution(b, finalized, corner[b], config, *(found or failed))
            for b, found in enumerate(outcome)]


def solve_stage_fixed_point(
    spec: GameSpec,
    t: int,
    pi: Belief,
    lookup: Lookup | None,
    config: SolverConfig | None = None,
) -> StageSolution:
    """:func:`solve_stage` at the single belief pi."""
    return solve_stage(spec, t, [pi], lookup, config)[0]
