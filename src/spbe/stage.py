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
   tolerance. The frozen system is linear in each player's rows, so for
   one or two players it is linear and one least-squares step settles
   it; with three or more it is multilinear and Newton's method with the
   exact Jacobian solves it (Porter, Nudelman & Shoham, "Simple search
   methods for finding a Nash equilibrium", GEB 2008);
4. damped best-response iteration from seeded Dirichlet restarts, only at
   points that enumeration left open or was too large to run at.

The cheap exact search runs before the random one: at a point where the
first iteration stalls, seeded restarts of the same iteration almost
always stall too, and below the last stage each of their iterations
makes the lookup solve posteriors that no history reads. For the same
reason an iteration below the last stage (phase 1 or a restart) closes
a point on its undamped best-response profile once that profile has
held for ``SETTLED_ITERATES`` consecutive iterates and clears the
tolerance, instead of creeping toward it by damped steps.

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
It returns a :class:`StageTable`, the batch's points as stacked arrays
whose rows it checks once, which every store of solved points holds.
The last stage's continuation is zero, so there it computes no
continuation terms at all: no masses, reach flags, fetched values or
support refreshes, which gives the same bits as adding zeros would.
"""

from __future__ import annotations

import copy
import itertools
import math
import zlib
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Callable

import numpy as np

from .beliefs import (
    Belief,
    Prescription,
    checked_stacks,
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
# Below the last stage, a point whose undamped best-response profile has
# come out the same at this many consecutive iterates is tested at that
# profile (fewer repeats close points on profiles the iteration would
# have left)
SETTLED_ITERATES = 4
SUPPORT_REFRESH_MAX = 60
# Newton steps and halvings of a step on a frozen support system of three
# or more players; the steps stop at a residual this small to scale
NEWTON_STEPS_MAX = 30
NEWTON_HALVINGS = 10
NEWTON_TOL = 1e-14
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
    ``converged``, ``max_iterations``, ``no_fixed_point``, or
    ``not_in_policy`` for a grid point that a loaded policy file lacks.
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


class StageTable(Sequence):
    """Solved stage points as stacked read-only arrays: per player the rows
    (P, T_i, A_i) and values (P, T_i), the residuals (P,), and ``metas``,
    per point its (status, method, restart index, support profile,
    degenerate types); solved points with equal metadata share one tuple.

    Point k reads as a :class:`StageSolution` built anew on each access,
    and iteration builds every point's at once, their rows checked as one
    batch; ``metas`` is read without building any.
    """

    def __init__(self, rows: list[np.ndarray], values: list[np.ndarray],
                 residuals: np.ndarray, metas: Sequence[tuple]):
        for arr in (*rows, *values, residuals):
            arr.setflags(write=False)
        self.rows, self.values, self.residuals = rows, values, residuals
        self.metas = tuple(metas)

    def __len__(self) -> int:
        return len(self.residuals)

    def __getitem__(self, k: int) -> StageSolution:
        k = range(len(self))[k]
        one = slice(k, k + 1)
        return next(iter(StageTable([r[one] for r in self.rows],
                                    [v[one] for v in self.values],
                                    self.residuals[one], self.metas[one])))

    def __iter__(self):
        return (StageSolution(gamma, tuple(v[k] for v in self.values),
                              float(self.residuals[k]), *self.metas[k])
                for k, gamma in enumerate(Prescription.batch(self.rows)))


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
    Past the horizon (the last stage, no lookup) there is no ``C_i``:
    Q is the stage reward alone and no ``mass_i`` is computed.
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
        self._agents: dict[bool, list[list[tuple[int, int]]]] = {}

    @property
    def size(self) -> int:
        return len(self.beliefs)

    def agents(self, corner: bool = False) -> list[list[tuple[int, int]]]:
        """Per batch point, its active agents (zero-marginal ones with
        ``corner``), by player and then type. Computed once per evaluator;
        callers share the lists and must not change them."""
        if corner not in self._agents:
            out = [[] for _ in range(self.size)]
            for i, m in enumerate(self.corner if corner else self.active):
                for b, xi in zip(*(idx.tolist() for idx in np.nonzero(m))):
                    out[b].append((i, xi))
            self._agents[corner] = out
        return self._agents[corner]

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
        out._agents = {}
        return out

    def posteriors(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Posterior weights (B, A, X) after every joint action, and where
        they moved off the prior (see :func:`posterior_weights`)."""
        like = None
        for r, g in zip(rows, self._g):
            factor = r.reshape(r.shape[0], -1).take(g, axis=1)
            like = factor if like is None else like * factor
        return posterior_weights(self.weights[:, None, :], like)

    def agent_weights(self, rows, mass: bool = True
                      ) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """``(W_i, mass_i)`` for every player i, mass_i as (B, A_i, A_{-i},
        T_i); without ``mass`` (no continuation to weigh) it is ``None``."""
        flat = [r.reshape(r.shape[0], -1) for r in rows]
        out = []
        for i, g_of in enumerate(self._g_of):
            others = None
            for j, g in g_of.items():
                factor = flat[j].take(g, axis=1)
                others = factor if others is None else others * factor
            if others is None:   # one player: nobody else to weigh by
                w = np.broadcast_to(self.cond[i][:, None, None],
                                    (len(flat[0]),) + self._w_shape[i])
            else:
                w = self.cond[i][:, None, None] * others
            mass_i = None
            if mass:
                mass_i = np.zeros(w.shape[:4])
                for k in range(w.shape[4]):
                    mass_i += w[..., k]
            out.append((w, mass_i))
        return out

    def reach(self, weights) -> list[np.ndarray]:
        """Per player, (B, A, T_i) flags in ``order[i]``: agent (i, x_i)
        gives that joint action positive mass, so needs its continuation."""
        return [(mass > 0.0).reshape(mass.shape[0], -1, mass.shape[3])
                for _, mass in weights]

    def q(self, weights, values=None) -> list[np.ndarray]:
        """``Q_i[b, x_i, a_i]`` for every player, given ``values[i]`` =
        ``C_i[b, a, x_i]``; with no ``values`` (past the horizon) Q is the
        stage reward alone.

        Every sum runs term by term in index order, starting from its
        first term rather than from +0.0. The two ways differ only in the
        sign of a zero, so the one ``+ 0.0`` at the end gives each Q the
        bits of index-order sums from +0.0. For the same reason neither
        the sign of a zero term (``W_i * R_i`` is -0.0 off path where a
        reward is negative) nor a skipped zero continuation term changes
        a bit of Q.
        """
        out = []
        for i, ((w, mass), r) in enumerate(zip(weights, self._r)):
            terms = w * r
            stage = terms[..., 0]
            for k in range(1, terms.shape[4]):
                stage = stage + terms[..., k]
            if values is not None:
                cont = mass * self.spec.discount * values[i].take(
                    self.order[i], axis=1).reshape(mass.shape)
            total = None
            for k in range(stage.shape[2]):
                total = stage[:, :, k] if total is None else total + stage[:, :, k]
                if values is not None:
                    total = total + cont[:, :, k]
            out.append(np.add(total.transpose(0, 2, 1), 0.0, order="C"))
        return out

    def weighted_payoffs(self, i: int, values: np.ndarray) -> np.ndarray:
        """``cond_i * (R_i + discount * C_i)`` in player i's layout."""
        cont = values.take(self.order[i], axis=1).reshape(
            values.shape[:1] + self._w_shape[i][:3])[..., None]
        return self.cond[i][:, None, None] * (self._r[i] + self.spec.discount * cont)


class _Candidate:
    """One candidate prescription at every batch point, with the
    stage-(t+1) values ``values[i][b, a, x_i]`` of its posteriors, fetched
    as agents need them; past the horizon (no lookup) there are none and
    ``values`` is ``None``."""

    def __init__(self, ev: StageEvaluator, rows):
        self.ev = ev
        self.rows = rows
        self.values = None if ev.lookup is None else [
            np.zeros((ev.size, ev.num_joint_actions, c)) for c in ev.type_counts]
        self._posteriors = None

    def fill(self, reach, agents) -> None:
        """Fetch the continuations of every joint action that an agent in
        ``agents`` reaches (``reach=None``: every joint action), in one
        lookup call ordered by batch point, then flat joint action. The
        lookup returns every player's values, so a lazily solving lookup
        (exact mode) meets the stage-(t+1) beliefs in a fixed order.
        Values fetched by an earlier call are fetched again, and come out
        the same."""
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
            for vals, got in zip(self.values, self.ev.lookup(post)):
                vals[b, a] = got


def _evaluate(ev: StageEvaluator, rows, agents, cand: _Candidate) -> list[np.ndarray]:
    """Q of every agent when play follows ``rows`` and continuations are
    those of ``cand``'s posteriors, fetched for the agents in ``agents``.
    A candidate without values needs no masses, reach flags or fetch."""
    if cand.values is None:
        return ev.q(ev.agent_weights(rows, mass=False))
    weights = ev.agent_weights(rows)
    cand.fill(ev.reach(weights), agents)
    return ev.q(weights, cand.values)


def _batch_rows(gamma: Prescription) -> list[np.ndarray]:
    return [r[None] for r in gamma.rows]


# ---------------------------------------------------------------------------
# Best-response iteration
# ---------------------------------------------------------------------------

def _top(q) -> list[np.ndarray]:
    """Per player, every agent's best action value, as a trailing axis of
    one; :func:`_residual` and :func:`_best_response` share it."""
    return [np.maximum.reduce(qi, axis=-1, keepdims=True) for qi in q]


def _residual(q, top, rows, agents) -> np.ndarray:
    """Per batch point, the largest best-response gap over ``agents``."""
    worst = np.zeros(q[0].shape[0])
    for qi, ti, ri, mi in zip(q, top, rows, agents):
        gap = ti[..., 0] - np.add.reduce(ri * qi, axis=-1)
        np.maximum(worst, np.maximum.reduce(np.where(mi, gap, 0.0), axis=-1),
                   out=worst)
    return worst


def _best_response(rows, q, top, agents) -> list[np.ndarray]:
    """The undamped best-response profile of ``rows``: every agent in
    ``agents`` plays its best actions, ties mixed uniformly, and every
    other row is kept."""
    out = []
    for r, qi, ti, m in zip(rows, q, top, agents):
        ties = qi >= ti - TIE_TOL
        out.append(np.where(m[..., None],
                            ties / np.add.reduce(ties, axis=-1, keepdims=True), r))
    return out


def _apply_br(rows, profile, agents, step: float) -> list[np.ndarray]:
    """Move the rows of ``agents`` by ``step`` toward their best-response
    ``profile`` (:func:`_best_response`)."""
    return [np.where(m[..., None], (1.0 - step) * r + step * g, r)
            for r, g, m in zip(rows, profile, agents)]


def _check(ev: StageEvaluator, rows) -> np.ndarray:
    """Per batch point, the residual of the candidate ``rows``."""
    q = _evaluate(ev, rows, ev.active, _Candidate(ev, rows))
    return _residual(q, _top(q), rows, ev.active)


def _polish(ev: StageEvaluator, rows, snapped, res: np.ndarray):
    """Snap converged iterates to their own best-response profiles
    ``snapped`` where that profile is at least as good. Strict equilibria
    then come out exactly pure instead of pure-up-to-damping-residue;
    interior points are left alone because their undamped best response
    is far from them."""
    snapped_res = _check(ev, snapped)
    better = snapped_res <= res
    return ([np.where(better[:, None, None], s, r) for s, r in zip(snapped, rows)],
            np.where(better, snapped_res, res))


def _iterate_batch(ev: StageEvaluator, rows, config: SolverConfig):
    """Damped best-response iteration at every batch point, in lockstep.

    Per point this is the scalar rule: track the best iterate (improvement
    by more than 1e-12), stop when the residual clears ``fp_tol`` and
    polish, or give up after ``STALL_WINDOW`` iterations without
    improvement or after ``max_iterations``. With a lookup (below the last
    stage) a point also stops on its best-response profile: once that
    profile has come out bit for bit the same at ``SETTLED_ITERATES``
    consecutive iterates it is checked, each distinct profile at most once
    per point, and closes the point if its residual clears ``fp_tol``.
    Without the test the damped steps would creep toward that profile for
    dozens more iterates, each asking the lookup for new posteriors. At
    the last stage a step costs no more than the test, so there is none.
    Returns rows, residuals and converged flags: polished fixed points
    (or settled profiles) where converged, else the best iterate seen.
    """
    cur = [np.array(r, dtype=float) for r in rows]
    best = [r.copy() for r in cur]
    best_res = np.full(ev.size, np.inf)
    ok = np.zeros(ev.size, dtype=bool)
    live = np.arange(ev.size)
    since = np.zeros(ev.size, dtype=np.int64)   # per live point
    settle = ev.lookup is not None
    # per live point: the last best-response profile and how many
    # consecutive iterates it has held; per point, the profiles tested
    last, held, tested = None, np.ones(ev.size, dtype=np.int64), {}
    sub = ev
    for _ in range(config.max_iterations):
        q = _evaluate(sub, cur, sub.active, _Candidate(sub, cur))
        top = _top(q)
        res = _residual(q, top, cur, sub.active)
        profile = _best_response(cur, q, top, sub.active)
        better = res < best_res[live] - 1e-12
        if better.any():
            improved = live[better]
            for b_rows, c_rows in zip(best, cur):
                b_rows[improved] = c_rows[better]
            best_res[improved] = res[better]
        since = np.where(better, 0, since + 1)
        conv = res <= config.fp_tol
        if conv.any():
            k = np.flatnonzero(conv)
            polished, polished_res = _polish(
                sub.take(k), [c[k] for c in cur], [p[k] for p in profile], res[k])
            for b_rows, p_rows in zip(best, polished):
                b_rows[live[k]] = p_rows
            best_res[live[k]] = polished_res
            ok[live[k]] = True
        if settle:
            if last is not None:
                same = np.logical_and.reduce(
                    [(p == o).reshape(len(p), -1).all(axis=1)
                     for p, o in zip(profile, last)])
                held = np.where(same, held + 1, 1)
            last = profile
            k = np.flatnonzero(~conv & (held == SETTLED_ITERATES))
            if k.size:   # a settled profile is tested once per point
                fresh = []
                for b, j in zip(live[k].tolist(), k):
                    seen = tested.setdefault(b, set())
                    key = b"".join(p[j].tobytes() for p in profile)
                    fresh.append(key not in seen)
                    seen.add(key)
                k = k[fresh]
            if k.size:
                snapped = [p[k] for p in profile]
                snapped_res = _check(sub.take(k), snapped)
                closed = snapped_res <= config.fp_tol
                at = live[k[closed]]
                for b_rows, s_rows in zip(best, snapped):
                    b_rows[at] = s_rows[closed]
                best_res[at] = snapped_res[closed]
                ok[at] = True
                conv[k[closed]] = True
        go_on = ~conv & (since <= STALL_WINDOW)
        if not go_on.all():
            keep = np.flatnonzero(go_on)
            if not keep.size:   # no point needs its next iterate
                break
            cur = [c[keep] for c in cur]
            profile = [p[keep] for p in profile]
            sub = sub.take(keep)
            live, since = live[keep], since[keep]
            if settle:
                last, held = profile, held[keep]
        cur = _apply_br(cur, profile, sub.active, config.damping)
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


def _freeze_continuations(ev: StageEvaluator, rows) -> list[np.ndarray]:
    """Continuation values ``C_i[0, a, x_i]`` of every active agent at every
    joint action under the candidate ``rows``, one (T_i, A_i) array per
    player (zero for inactive agents, and for every agent past the
    horizon)."""
    if ev.lookup is None:
        return [np.zeros((ev.size, ev.num_joint_actions, c)) for c in ev.type_counts]
    cand = _Candidate(ev, [r[None] for r in rows])
    cand.fill(None, ev.active)
    return [np.where(m[:, None, :], v, 0.0) for v, m in zip(cand.values, ev.active)]


def _contract(payoffs, rows, i: int, keep: tuple[int, ...]) -> np.ndarray:
    """Player i's frozen payoffs contracted with the row array of every
    other player not in ``keep``, with axes (type, action) of each player
    in ``keep``: i's frozen action values for ``(i,)``, their derivative
    in j's row array for ``(i, j)``. ``payoffs[i]`` has one axis per
    player's action, i's first and then the others', then one per type."""
    others = [k for k in range(len(payoffs)) if k != i]
    operands = [payoffs[i], [2 * i, *(2 * k for k in others),
                             2 * i + 1, *(2 * k + 1 for k in others)]]
    for k in others:
        if k not in keep:
            operands += [rows[k], [2 * k + 1, 2 * k]]
    return np.einsum(*operands, [axis for j in keep for axis in (2 * j + 1, 2 * j)])


def _solve_frozen(ev: StageEvaluator, profile_map: dict, frozen, start,
                  cache: dict) -> Prescription | None:
    """Solve the indifference system of a support profile with
    continuations frozen.

    The unknowns z are every active agent's support entries and value;
    per agent, each support action's frozen value equals its value, and
    the entries sum to one. Player i's frozen action values are linear in
    each other player's row array, so F(z) = 0 is linear for one or two
    players and multilinear beyond. Each iterate solves the system
    linearized at the last, ``z <- lstsq(J, J z - F(z))``, with the exact
    Jacobian J. With one or two players J is constant and the first
    iterate from z = 0, the minimum-norm least-squares solution, is final;
    with two, J is block diagonal, one block per player's entries, and
    each block is solved on its own. With more, each step from the
    ``start`` rows is halved until it decreases ``||F||``. A block is
    accepted if its residual is consistent and no entry is negative.
    ``cache`` keeps the frozen payoffs, and a constant J, for every
    profile solved against the same freeze.
    """
    n, tc, ac = ev.spec.num_players, ev.type_counts, ev.action_counts
    linear = n <= 2
    sizes = [nt * na for nt, na in zip(tc, ac)]
    offsets = [sum(sizes[:i]) for i in range(n + 1)]
    agents = ev.agents()[0]
    if "payoffs" not in cache:
        orders = [[i, *(k for k in range(n) if k != i)] for i in range(n)]
        cache["payoffs"] = [ev.weighted_payoffs(i, frozen[i])[0].reshape(
            [ac[k] for k in order] + [tc[k] for k in order])
            for i, order in enumerate(orders)]
    payoffs = cache["payoffs"]

    def action_values(rows) -> np.ndarray:
        return np.concatenate([_contract(payoffs, rows, i, (i,)).ravel()
                               for i in range(n)])

    def jacobian(rows) -> np.ndarray:
        return np.block([[np.zeros((si, sj)) if j == i
                          else _contract(payoffs, rows, i, (i, j)).reshape(si, sj)
                          for j, sj in enumerate(sizes)] for i, si in enumerate(sizes)])

    if "base" not in cache:
        # the rows at z = 0: inactive types keep the uniform placeholder
        zero = _placeholder_rows(ev)
        for i, xi in agents:
            zero[i][xi] = 0.0
        if linear:   # J, and the action values at z = 0
            cache["jacobian"], cache["q0"] = jacobian(zero), action_values(zero)
        cache["base"] = np.concatenate([r.ravel() for r in zero])
    base = cache["base"]
    pos = np.array([offsets[i] + xi * ac[i] + a for i, xi in agents
                    for a in profile_map[(i, xi)]])
    nu, m = pos.size, len(agents)
    owner = np.repeat(np.arange(m), [len(profile_map[agent]) for agent in agents])
    jac = np.zeros((nu + m, nu + m))
    jac[np.arange(nu), nu + owner] = -1.0
    jac[nu + owner, np.arange(nu)] = 1.0
    blocks = [(np.arange(nu + m),) * 2]
    if n == 2:   # s's entries and the other's values, in the other's equations
        player = np.array([i for i, _ in agents])
        side = np.concatenate([player[owner], 1 - player])
        blocks = [(np.flatnonzero(side != s), np.flatnonzero(side == s))
                  for s in (0, 1)]

    def rows_of(z: np.ndarray) -> list[np.ndarray]:
        flat = base.copy()
        flat[pos] = z[:nu]
        return [flat[o:o + size].reshape(nt, -1)
                for o, size, nt in zip(offsets, sizes, tc)]

    def equations(z: np.ndarray) -> np.ndarray:
        return np.concatenate([action_values(rows_of(z))[pos] - z[nu:][owner],
                               np.bincount(owner, z[:nu], minlength=m) - 1.0])

    z = np.zeros(nu + m)
    if linear:
        jac[:nu, :nu] = cache["jacobian"][pos][:, pos]
        f = np.concatenate([cache["q0"][pos], np.full(m, -1.0)])   # F(0)
    else:
        z[:nu] = np.concatenate([r.ravel() for r in start])[pos]
        f = equations(z)
    for r, c in blocks:
        for _ in range(1 if linear else NEWTON_STEPS_MAX):
            if not linear:
                jac[:nu, :nu] = jacobian(rows_of(z))[pos][:, pos]
            sub = jac[r][:, c]
            rhs = sub @ z[c] - f[r]
            scale = max(1.0, float(np.abs(sub).max()), float(np.abs(rhs).max()))
            new = z.copy()
            new[c] = np.linalg.lstsq(sub, rhs, rcond=None)[0]
            if linear:   # F is its own linearization
                z, f[r] = new, sub @ new[c] - rhs
                break
            for _ in range(NEWTON_HALVINGS + 1):
                f_new = equations(new)
                if np.dot(f_new, f_new) < np.dot(f, f):
                    break
                new = 0.5 * (z + new)
            else:
                break
            z, f = new, f_new
            if float(np.abs(f).max()) <= NEWTON_TOL * scale:
                break
        if (not np.isfinite(z[c]).all() or np.any(z[c[c < nu]] < -1e-8)
                or float(np.abs(f[r]).max()) > LSTSQ_CONSISTENCY_TOL * scale):
            return None
    # as ``max(x, 0.0)``, which keeps -0.0 (``np.maximum`` does not)
    rows = rows_of(np.where(z < 0.0, 0.0, z))
    for row, act in zip(rows, ev.active):
        sums = row[act[0]].sum(axis=1)
        if (sums <= 0).any():
            return None
        row[act[0]] /= sums[:, None]
    return Prescription(tuple(rows))


def _solve_support(ev: StageEvaluator, profile, config: SolverConfig,
                   cache: dict | None = None) -> Prescription | None:
    """Find a candidate supported on `profile` that survives freeze refresh.

    Past the horizon every profile of a point freezes the same zero
    continuations, so a caller may pass one ``cache`` dict for all of
    them to keep what :func:`_solve_frozen` builds from the first; below
    it each freeze builds its own."""
    profile_map = dict(zip(ev.agents()[0], profile))
    rows = _placeholder_rows(ev)
    for (i, xi), support in profile_map.items():
        rows[i][xi] = 0.0
        rows[i][xi, list(support)] = 1.0 / len(support)

    for _ in range(SUPPORT_REFRESH_MAX):
        frozen = _freeze_continuations(ev, rows)
        solved = _solve_frozen(
            ev, profile_map, frozen, rows,
            cache if cache is not None and ev.lookup is None else {})
        if solved is None:
            return None
        if ev.lookup is None:   # past the horizon nothing is frozen to drift
            return solved
        refrozen = _freeze_continuations(ev, solved.rows)
        drift = max(float(np.abs(new - old).max()) for new, old in zip(refrozen, frozen))
        if drift <= FREEZE_STABLE_TOL:
            return solved
        rows = [(1.0 - config.damping) * g + config.damping * s
                for g, s in zip(rows, solved.rows)]
    return None


# ---------------------------------------------------------------------------
# Finalization
# ---------------------------------------------------------------------------

def _finalize_rows(ev: StageEvaluator, rows):
    """Fill fallback rows for zero-marginal types and attach values, at
    every batch point. Returns per player the read-only row (B, T_i, A_i)
    and value (B, T_i) stacks, then the residuals (B,).

    Zero-marginal rows never influence the belief update or any positive-
    marginal agent's payoff, so replacing them after the fixed point is
    settled cannot disturb it; making them best responses keeps play at
    publicly impossible types optimal under the same uniform fallback
    conditional the verifier conditions with. Continuations stay those of
    the candidate's own posteriors.
    """
    cand = _Candidate(ev, rows)
    corner_q = _evaluate(ev, rows, ev.corner, cand)
    final = _best_response(rows, corner_q, _top(corner_q), ev.corner)
    q = _evaluate(ev, final, ev.active, cand)
    values = [(f * np.where(m[..., None], qa, qc)).sum(axis=-1)
              for f, m, qa, qc in zip(final, ev.active, q, corner_q)]
    residual = _residual(q, _top(q), final, ev.active)
    # solutions hold read-only views of these arrays rather than copies
    for arr in final + values:
        arr.setflags(write=False)
    return final, values, residual


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
) -> StageTable:
    """Search for a stage-t equilibrium prescription at every belief, and
    return the solved points as a table, in the order of ``beliefs``.

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
        point, cache = ev.take([b]), {}
        for profile in _support_profiles(point):
            candidate = _solve_support(point, profile, config, cache)
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
    rows, values, residual = _finalize_rows(ev, best)
    metas, shared = [], {}
    for b, degenerate in enumerate(ev.agents(corner=True)):
        status, *how = outcome[b] or failed
        if status == "converged" and residual[b] > config.fp_tol:
            status = "max_iterations"
        meta = (status, *how, tuple(degenerate))
        metas.append(shared.setdefault(meta, meta))
    return StageTable(checked_stacks(rows), values, residual, metas)


def solve_stage_fixed_point(
    spec: GameSpec,
    t: int,
    pi: Belief,
    lookup: Lookup | None,
    config: SolverConfig | None = None,
) -> StageSolution:
    """:func:`solve_stage` at the single belief pi."""
    return solve_stage(spec, t, [pi], lookup, config)[0]
