"""Independent output checks for the benchmark, written from the definitions.

A stage point is a stage t, a common belief pi over flat joint types and a
prescription: one row-stochastic matrix per player, ``rows[i][x_i, a_i]``.
Agent (i, x_i) is active when its type marginal under pi exceeds
``ACTIVE_MASS``. Its action values are

    Q_i(x_i, a_i) = sum over x_-i, a_-i of
        pi(x) / m_i(x_i) * prod_{j != i} rows[j][x_j, a_j]
        * (R_t[i, x, a] + discount * V_{t+1, i}(pi'(a), x_i))

where pi'(a) is the public Bayes update of pi after joint action a, and
V_{t+1} is zero past the horizon. The residual of a point is the largest
gap max_a Q - rows[i][x_i] . Q over active agents. The public update
follows the two off-path conventions the game model defines: an action of
total probability at most ``OFF_PATH_MASS`` leaves the belief unchanged,
and so does a likelihood that is constant across the belief's support.

Nothing here comes from ``spbe.stage``, ``spbe.beliefs`` or ``spbe.verify``:
the game is read only through its data (``type_counts``,
``action_counts``, ``prior``, ``reward_tensor``, ``discount``,
``horizon``), and continuation values come from the solved tables.
"""

from __future__ import annotations

import itertools

import numpy as np

ACTIVE_MASS = 1e-12
OFF_PATH_MASS = 1e-12


def joint_coords(dims) -> np.ndarray:
    """(prod(dims), len(dims)) coordinates of every flat joint index,
    row-major with player 0 outermost."""
    return np.array(list(itertools.product(*(range(d) for d in dims))), dtype=int)


def action_likelihood(rows, types: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """(joint actions, joint types) probability that the rows play each
    joint action at each joint type."""
    like = np.ones((actions.shape[0], types.shape[0]))
    for j, row in enumerate(rows):
        like = like * np.asarray(row)[types[:, j]][:, actions[:, j]].T
    return np.ascontiguousarray(like)


def posterior(weights: np.ndarray, like_a: np.ndarray) -> np.ndarray:
    """Public Bayes update of a belief given one joint action's likelihood."""
    z = float(weights @ like_a)
    if z <= OFF_PATH_MASS:
        return weights
    on_support = like_a[weights > 0.0]
    if on_support.size and np.all(on_support == on_support[0]):
        return weights
    post = weights * like_a
    post /= post.sum()
    return post


def stage_residual(spec, t: int, weights, rows, next_values) -> float:
    """Best-response residual of one stage point.

    ``next_values(posterior_weights)`` gives the stage-(t+1) values as a
    sequence of per-player arrays indexed by own type; it is called only
    for joint actions some active agent can reach, and never at t = T.
    """
    weights = np.asarray(weights, dtype=float)
    types = joint_coords(spec.type_counts)
    actions = joint_coords(spec.action_counts)
    like = action_likelihood(rows, types, actions)
    reward = spec.reward_tensor(t)
    last = t >= spec.horizon
    continuation: dict[int, object] = {}

    def cont(a: int):
        if a not in continuation:
            continuation[a] = next_values(posterior(weights, like[a]))
        return continuation[a]

    worst = 0.0
    for i in range(spec.num_players):
        others = [j for j in range(spec.num_players) if j != i]
        opp = action_likelihood([rows[j] for j in others],
                                types[:, others], actions[:, others])
        for xi in range(spec.type_counts[i]):
            own = types[:, i] == xi
            mass = float(weights[own].sum())
            if mass <= ACTIVE_MASS:
                continue
            # w[a, x]: probability of the others' part of a and of x, given x_i
            w = opp[:, own] * (weights[own] / mass)
            q = np.zeros(spec.action_counts[i])
            for a in range(actions.shape[0]):
                reach = float(w[a].sum())
                if reach == 0.0:
                    continue
                total = float(w[a] @ reward[i, own, a])
                if not last:
                    total += reach * spec.discount * float(cont(a)[i][xi])
                q[actions[a, i]] += total
            gap = float(q.max()) - float(np.asarray(rows[i][xi]) @ q)
            worst = max(worst, gap)
    return worst


def nearest_row(grid: np.ndarray, weights: np.ndarray) -> int:
    """Grid row nearest in L1; the first row on ties."""
    return int(np.argmin(np.abs(grid - weights).sum(axis=1)))


def grid_residuals(spec, grid: np.ndarray, tables) -> dict:
    """Residual of every grid point, keyed (t, row), with stage-(t+1)
    values read at the grid row nearest the posterior.

    ``tables[t][row]`` is ``(rows, values)`` for stages 1..T.
    """
    out = {}
    for t in sorted(tables):
        def next_values(post, t=t):
            return tables[t + 1][nearest_row(grid, post)][1]
        for r, (rows, _values) in enumerate(tables[t]):
            out[(t, r)] = stage_residual(spec, t, grid[r], rows, next_values)
    return out


def exact_residuals(spec, points, key) -> dict:
    """Residual of every solved exact-mode point, keyed (t, key(weights)).

    ``points`` lists ``(t, weights, rows, values)``; stage-(t+1) values are
    the solved values stored under ``(t + 1, key(posterior))``. A needed
    continuation that was never solved raises ``KeyError``.
    """
    values = {(t, key(w)): v for (t, w, _rows, v) in points}
    out = {}
    for (t, w, rows, _v) in points:
        def next_values(post, t=t):
            return values[(t + 1, key(post))]
        out[(t, key(w))] = stage_residual(spec, t, w, rows, next_values)
    return out


def profile_values(spec, prescription_for_history) -> tuple[np.ndarray, ...]:
    """Expected discounted payoff of every (player, type) under a profile.

    ``prescription_for_history(history)`` gives the rows played after a
    public history (a tuple of joint-action tuples). Every action path is
    enumerated; types without prior mass get NaN.
    """
    types = joint_coords(spec.type_counts)
    actions = joint_coords(spec.action_counts)
    totals = np.zeros((spec.num_players, types.shape[0]))

    def walk(t: int, history: tuple, path: np.ndarray, weight: float) -> None:
        if t > spec.horizon:
            return
        like = action_likelihood(prescription_for_history(history), types, actions)
        reward = spec.reward_tensor(t)
        for a in range(actions.shape[0]):
            prob = path * like[a]
            if not prob.any():
                continue
            totals[:] += weight * prob * reward[:, :, a]
            walk(t + 1, history + (tuple(int(v) for v in actions[a]),), prob,
                 weight * spec.discount)

    walk(1, (), np.ones(types.shape[0]), 1.0)
    prior = np.asarray(spec.prior, dtype=float)
    out = []
    for i in range(spec.num_players):
        vals = np.full(spec.type_counts[i], np.nan)
        for xi in range(spec.type_counts[i]):
            own = types[:, i] == xi
            mass = float(prior[own].sum())
            if mass > 0.0:
                vals[xi] = float(prior[own] @ totals[i, own]) / mass
        out.append(vals)
    return tuple(out)
