"""Independent reference computations for the test suite.

Everything here recomputes quantities from first principles with plain
Python loops, deliberately avoiding the library's own update, stage and
value machinery. GameSpec is used only as a data container (shapes,
reward lookups, discount).

The exceptions are :func:`two_path_brute`, the verifier's two-path check
as a plain loop over samples and histories, :func:`two_path_per_sample`,
the same check on the verifier's own belief pairs one sample at a time,
:func:`walk_brute`, the
deviation walk and one-shot check node by node in post-order, and
:func:`nearest_grid_brute`, the grid snap as a scan of every grid point.
They reuse the library's own
pieces on purpose: they pin its results, including which work it may
leave out and how it breaks float ties, rather than re-deriving its
arithmetic. :func:`policy_entries_fault` pins the policy loader's error
messages the same way: it checks one entry at a time, in the loader's
documented order, with NumPy's own conversions. :func:`solve_stage_serial`
pins the stage solver's search order: it solves one point with the
solver's own phases, every restart in turn. :func:`iterate_batch_damped`
keeps the stage solver's phase-1 loop as it was before points could
close on a settled best-response profile. :func:`solve_frozen_two_player`
keeps the stage solver's frozen support solve for one or two players as
it was before one Newton solve served every player count: a
least-squares solve per player. :func:`simulate_brute` pins
``simulate``'s random stream and summation order: it plays one episode
after another, one uniform per draw, through the policy's own queries.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from spbe.backward import SNAP_SUM_TOL, _l1
from spbe.beliefs import (KEY_DIGITS, Prescription, belief_entropy,
                          condition_on_type, initial_belief)
from spbe.forward import (SimulationResult, SimulationSummary, Trace,
                          expected_rewards)
from spbe.game import component_maps, embedding_map, unflatten_joint
from spbe.verify import (
    DeviationFinding,
    VerificationReport,
    _agents,
    _belief_pairs,
)

EPS_DEN = 1e-12


def unflatten(flat: int, dims) -> tuple[int, ...]:
    out = []
    for d in reversed(dims):
        out.append(flat % d)
        flat //= d
    return tuple(reversed(out))


def flatten(idx, dims) -> int:
    flat = 0
    for k, d in zip(idx, dims):
        flat = flat * d + k
    return flat


def bayes_update_brute(weights, rows, action, type_dims):
    """Posterior over joint types after a public action profile.

    rows[i][xi][ai] is the prescribed probability. Returns the input
    weights (as a list) on a zero denominator, matching the convention
    that an impossible observation leaves the belief alone.
    """
    like = []
    for xf, w in enumerate(weights):
        x = unflatten(xf, type_dims)
        p = 1.0
        for i, ai in enumerate(action):
            p *= rows[i][x[i]][ai]
        like.append(float(w) * p)
    z = sum(like)
    if z <= EPS_DEN:
        return [float(w) for w in weights]
    return [v / z for v in like]


def q_vector_brute(spec, t, weights, rows, i, xi, value_fn):
    """Action values of agent (i, xi) against a full prescription profile.

    value_fn(posterior_weights, i, xi) supplies the stage-(t+1)
    continuation; pass ``lambda *a: 0.0`` at the last stage. Returns None
    when the agent's type has no mass under the belief.
    """
    type_dims = spec.type_counts
    act_dims = spec.action_counts
    n = spec.num_players
    others = [j for j in range(n) if j != i]

    slice_mass = []
    for xf, w in enumerate(weights):
        if unflatten(xf, type_dims)[i] == xi:
            slice_mass.append((xf, float(w)))
    marg = sum(w for _, w in slice_mass)
    if marg <= EPS_DEN:
        return None

    q = []
    for ai in range(act_dims[i]):
        total = 0.0
        for xf, w in slice_mass:
            x = unflatten(xf, type_dims)
            cw = w / marg
            for combo in itertools.product(*(range(act_dims[j]) for j in others)):
                a = [0] * n
                a[i] = ai
                for j, aj in zip(others, combo):
                    a[j] = aj
                p = 1.0
                for j in others:
                    p *= rows[j][x[j]][a[j]]
                if p == 0.0:
                    continue
                af = flatten(a, act_dims)
                r = spec.reward(t, i, xf, af)
                post = bayes_update_brute(weights, rows, a, type_dims)
                cont = value_fn(post, i, xi)
                total += cw * p * (r + spec.discount * cont)
        q.append(total)
    return q


def q_index_order(ev, rows, values):
    """``StageEvaluator.q`` of ``ev`` written as per-k loops: every agent's
    sum over the others' types, then over the others' actions with the
    continuation term after each, accumulated term by term in index order
    from +0.0. ``values`` are the continuations ``C_i[b, a, x_i]``."""
    out = []
    for (w, mass), r, order, c in zip(ev.agent_weights(rows), ev._r, ev.order,
                                      values):
        terms = w * r
        stage = np.zeros(mass.shape)
        for k in range(terms.shape[4]):
            stage += terms[..., k]
        cont = mass * ev.spec.discount * np.take(c, order, axis=1).reshape(mass.shape)
        total = np.zeros(mass.shape[:2] + mass.shape[3:])
        for k in range(mass.shape[2]):
            total += stage[:, :, k]
            total += cont[:, :, k]
        out.append(np.ascontiguousarray(total.transpose(0, 2, 1)))
    return out


def active_agents(spec, weights):
    """(player, type) pairs whose type has positive marginal mass."""
    type_dims = spec.type_counts
    out = []
    for i in range(spec.num_players):
        for xi in range(type_dims[i]):
            marg = sum(float(w) for xf, w in enumerate(weights)
                       if unflatten(xf, type_dims)[i] == xi)
            if marg > EPS_DEN:
                out.append((i, xi))
    return out


def residual_brute(spec, t, weights, rows, value_fn):
    """Largest one-step improvement any active agent can make."""
    worst = 0.0
    for (i, xi) in active_agents(spec, weights):
        q = q_vector_brute(spec, t, weights, rows, i, xi, value_fn)
        eq = sum(rows[i][xi][a] * q[a] for a in range(len(q)))
        worst = max(worst, max(q) - eq)
    return worst


def values_brute(spec, t, weights, rows, value_fn):
    """Expected value per (player, type) under the prescription itself."""
    out = {}
    for (i, xi) in active_agents(spec, weights):
        q = q_vector_brute(spec, t, weights, rows, i, xi, value_fn)
        out[(i, xi)] = sum(rows[i][xi][a] * q[a] for a in range(len(q)))
    return out


def single_player_optimum(spec):
    """Per-type optimal value over all history-dependent deterministic
    policies of a single decision maker. With one player the public
    history carries no payoff information, so the optimum separates
    across stages and types."""
    assert spec.num_players == 1
    na = spec.action_counts[0]

    def best(x, t):
        if t > spec.horizon:
            return 0.0
        return max(spec.reward(t, 0, x, a) + spec.discount * best(x, t + 1)
                   for a in range(na))

    return [best(x, 1) for x in range(spec.type_counts[0])]


def nash_grid_gap(spec, weights, rows, step=0.01):
    """Best improvement any agent finds on a coarse grid of mixed rows.

    One-shot games only (continuation fixed at zero). For each active
    agent the full q-vector is recomputed from scratch and every grid
    mixture over two actions is tried as a deviation.
    """
    assert spec.horizon == 1
    zero = lambda *a: 0.0
    steps = int(round(1.0 / step))
    gaps = {}
    for (i, xi) in active_agents(spec, weights):
        q = q_vector_brute(spec, 1, weights, rows, i, xi, zero)
        assert len(q) == 2, "grid oracle drives two-action rows"
        eq = sum(rows[i][xi][a] * q[a] for a in range(len(q)))
        best = max(
            (k / steps) * q[0] + (1.0 - k / steps) * q[1]
            for k in range(steps + 1)
        )
        gaps[(i, xi)] = best - eq
    return gaps


def path_payoffs_brute(spec, rows_at, history=(), deviation=None):
    """Expected discounted payoffs from stage len(history)+1 on, per player
    and flat joint type, by enumerating every action path.

    rows_at(h) gives the profile's rows after public history h;
    ``deviation=(i, rows)`` plays rows[t] for player i at stage t instead.
    Entry [n][x] is conditional on joint type x and discounted relative
    to the first enumerated stage.
    """
    type_dims = spec.type_counts
    act_dims = spec.action_counts
    n = spec.num_players
    stages = range(len(history) + 1, spec.horizon + 1)
    out = [[0.0] * spec.num_joint_types for _ in range(n)]
    for path in itertools.product(range(spec.num_joint_actions), repeat=len(stages)):
        for xf in range(spec.num_joint_types):
            x = unflatten(xf, type_dims)
            h = tuple(history)
            prob = 1.0
            earned = [0.0] * n
            for k, (t, af) in enumerate(zip(stages, path)):
                rows = list(rows_at(h))
                if deviation is not None:
                    rows[deviation[0]] = deviation[1][t]
                a = unflatten(af, act_dims)
                for j in range(n):
                    prob *= float(rows[j][x[j]][a[j]])
                if prob == 0.0:
                    break
                for m in range(n):
                    earned[m] += spec.discount ** k * spec.reward(t, m, xf, af)
                h = h + (a,)
            else:
                for m in range(n):
                    out[m][xf] += prob * earned[m]
    return out


def agent_stage(spec, t, cond, gamma, i, xi):
    """Agent (i, xi)'s view of stage t at one history, per flat joint
    action a: ``w[a, k]``, the weight of the others' type profile k in
    ``cond`` times the probability that the others' rows in gamma play a's
    other components, and ``stage[a] = sum_k w[a, k] * R_i(x(k), a)``."""
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


def _action_values(spec, i, w, stage, cont):
    terms = stage + w.sum(axis=1) * spec.discount * cont
    return np.bincount(component_maps(spec.action_counts)[i], weights=terms,
                       minlength=spec.action_counts[i])


def _views(spec, policy, history, agents, gaps=True):
    """Each agent's (own row, w, stage) at the stage after ``history``,
    and with ``gaps`` the one-shot gaps there."""
    t = len(history) + 1
    pi = policy.common_belief(history)
    gamma = policy.prescription_for_history(history)
    views, found = [], {}
    for i, xi in agents:
        cond = condition_on_type(pi, i, xi).weights
        w, stage = agent_stage(spec, t, cond, gamma, i, xi)
        row = np.asarray(gamma.rows[i][xi], dtype=float)
        views.append((row, w, stage))
        if gaps:
            cont = np.zeros(spec.num_joint_actions)
            if t < spec.horizon:
                for a_flat in np.flatnonzero(w.sum(axis=1)).tolist():
                    cont[a_flat] = policy.continuation_value(
                        history + (unflatten_joint(a_flat, spec.action_counts),),
                        i, xi)
            q = _action_values(spec, i, w, stage, cont)
            found[(i, xi)] = float(q.max()) - float(row @ q)
    nan = any(math.isnan(g) for g in found.values())
    return views, {"history": history, "stage": t,
                   "max_gap": math.nan if nan else max([0.0, *found.values()]),
                   "gaps": found}


class WalkBrute:
    """The deviation walk one node at a time: a post-order recursion that
    records each node's one-shot gaps before its children (in pre-order)
    and each agent's on-policy and best deviation values after them. An
    agent's worst finding is its first NaN gain in post-order, else its
    first largest."""

    def __init__(self, spec, policy, agents, tol=np.inf, gaps=True):
        self.spec, self.policy, self.agents = spec, policy, agents
        self.tol, self.gaps = tol, gaps
        self.worst = [None] * len(agents)
        self.violations = []
        self.one_shot = []
        self.nodes = 0
        self._joint_actions = [unflatten_joint(a, spec.action_counts)
                               for a in range(spec.num_joint_actions)]

    def run(self, history=()):
        """Per agent, (on-policy value, best deviation value) at this node."""
        spec = self.spec
        if len(history) >= spec.horizon:
            return np.zeros((len(self.agents), 2))
        self.nodes += 1
        views, gaps = _views(spec, self.policy, history, self.agents, self.gaps)
        if self.gaps:
            self.one_shot.append(gaps)
        cont = np.array([self.run(history + (a,)) for a in self._joint_actions])
        out = np.empty((len(self.agents), 2))
        for k, ((i, xi), (row, w, stage)) in enumerate(zip(self.agents, views)):
            eq = float(row @ _action_values(spec, i, w, stage, cont[:, k, 0]))
            dev = float(_action_values(spec, i, w, stage, cont[:, k, 1]).max())
            out[k] = eq, dev
            found = DeviationFinding(player=i, type_index=xi, history=history,
                                     equilibrium_value=eq, deviation_value=dev)
            worst = self.worst[k]
            if worst is None or not math.isnan(worst.gain) and (
                    math.isnan(found.gain) or found.gain > worst.gain):
                self.worst[k] = found
            if found.gain > self.tol:
                self.violations.append(found)
        return out


def walk_brute(spec, policy, tol=1e-6):
    """``verify_pbe`` as the node-by-node :class:`WalkBrute`."""
    walk = WalkBrute(spec, policy, _agents(spec), tol=tol)
    walk.run()
    nan = [f for f in walk.worst if math.isnan(f.gain)]
    worst = nan[0] if nan else max(walk.worst, key=lambda f: f.gain)
    violations = sorted(walk.violations,
                        key=lambda f: (-f.gain, f.player, f.type_index, f.history))
    return VerificationReport(
        ok=not violations and not nan, tolerance=tol, max_gain=float(worst.gain),
        worst=worst, violations=tuple(violations),
        agents_checked=len(walk.agents), histories_per_agent=walk.nodes,
        one_shot=tuple(walk.one_shot))


def walk_values_brute(spec, policy, i, xi, history=()):
    """(on-policy value, best deviation value) of (i, xi) from ``history``
    on, by :class:`WalkBrute`."""
    eq, dev = WalkBrute(spec, policy, [(i, xi)], gaps=False).run(history)[0]
    return float(eq), float(dev)


def two_path_brute(spec, policy, i=None, t=None, samples=50, seed=0,
                   tol=1e-12):
    """``check_strategy_independence`` rebuilding every belief pair and
    running the payoff recursion at every history, sample by sample, each
    drawing its deviation rows one stage at a time."""
    rng = np.random.default_rng(seed)
    n = spec.num_players
    t_range = list(range(1, max(spec.horizon - 1, 1) + 1))
    joint_actions = [unflatten_joint(a, spec.action_counts)
                     for a in range(spec.num_joint_actions)]
    max_diff = 0.0
    skipped = 0
    checked = 0
    sample_reports = []
    for s in range(samples):
        player = i if i is not None else s % n
        stage = t if t is not None else t_range[s % len(t_range)]
        nt, na = spec.type_counts[player], spec.action_counts[player]
        dev_rows = {m: rng.dirichlet(np.ones(na), size=nt)
                    for m in range(stage, spec.horizon + 1)}
        sample_diff = 0.0
        # every stage-`stage` history, lexicographic
        for history in itertools.product(joint_actions, repeat=stage):
            before = policy.common_belief(history[:-1])
            after = policy.common_belief(history)
            gamma = policy.prescription_for_history(history[:-1])
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
                w, _ = agent_stage(spec, stage, cond_before.weights, gamma,
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
            phi = expected_rewards(spec, policy, history, (player, dev_rows),
                                   reach)[player]
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


def two_path_per_sample(spec, policy, samples=50, seed=0):
    """Per-sample reports of ``check_strategy_independence`` with the
    verifier's own belief pairs (``_belief_pairs``), running the payoff
    recursion and both dot products for one sample at a time."""
    rng = np.random.default_rng(seed)
    n = spec.num_players
    t_range = list(range(1, max(spec.horizon - 1, 1) + 1))
    reports = []
    for s in range(samples):
        player, stage = s % n, t_range[s % len(t_range)]
        nt, na = spec.type_counts[player], spec.action_counts[player]
        dev_rows = {m: rng.dirichlet(np.ones(na), size=nt)
                    for m in range(stage, spec.horizon + 1)}
        sample_diff = 0.0
        for history, paths, reach in _belief_pairs(spec, policy, player, stage)[2]:
            phi = expected_rewards(spec, policy, history, (player, dev_rows),
                                   reach)[player]
            for xi, (lhs_belief, rhs_belief) in paths.items():
                phi_xi = phi[embedding_map(spec.type_counts, player, xi)]
                diff = abs(float(lhs_belief @ phi_xi) - float(rhs_belief @ phi_xi))
                diff = max(diff, float(np.abs(lhs_belief - rhs_belief).max()))
                sample_diff = max(sample_diff, diff)
        reports.append({"player": player, "stage": stage, "max_diff": sample_diff})
    return reports


def nearest_grid_brute(grid, weights):
    """Index of the grid row closest in L1; first (lex smallest) on ties,
    by comparing every row of ``weights`` with every grid point.

    One belief gives an int; a 2-d array gives one index per row, compared
    with the grid in chunks of at most 2**16 differences.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim == 1:
        return int(np.argmin(np.abs(grid - weights).sum(axis=1)))
    out = np.empty(weights.shape[0], dtype=np.intp)
    step = max(1, (1 << 16) // grid.size)
    for start in range(0, weights.shape[0], step):
        chunk = weights[start:start + step]
        out[start:start + step] = np.argmin(
            _l1(grid[None, :, :], chunk[:, None, :]), axis=1)
    return out


def rows_stochastic(rows) -> tuple[bool, str | None]:
    """One prescription's rows, player by player: whether they pass the
    row rule (2-d, entries >= -1e-12, sums within 1e-9 of 1) and, if not,
    the message of the first player that fails."""
    for i, row in enumerate(rows):
        arr = np.asarray(row, dtype=np.float64)
        if arr.ndim != 2:
            return False, f"prescription rows[{i}] must be 2-d"
        sums = arr.sum(axis=1)
        if not (np.all(arr >= -1e-12) and np.all(np.abs(sums - 1.0) <= 1e-9)):
            return False, f"prescription rows[{i}] is not row-stochastic"
    return True, None


def policy_entries_fault(entries, spec) -> str | None:
    """The message loading these policy entries for ``spec`` fails with,
    or None if every entry is sound: entries are read one at a time, each
    checked in order (fields, arrays, integer stage, stage range, belief
    length, a belief, shapes, finite values, status, row rule, residual (a
    finite, non-negative number, not a bool), no earlier entry at its stage
    and a belief with the same key), and the first failing check of the
    first failing entry names it. A belief has finite, non-negative weights
    summing to 1 within the snap's tolerance plus half a unit of the key's
    last digit per weight; its key rounds each weight to ``KEY_DIGITS``
    digits, a negative zero made positive."""
    need = (list(zip(spec.type_counts, spec.action_counts)),
            [(c,) for c in spec.type_counts])
    earlier = []
    for k, entry in enumerate(entries):
        try:
            t = int(entry["t"])
            key = tuple(float(v) for v in entry["belief"])
            rows = [np.asarray(player, dtype=float) for player in entry["rows"]]
            values = [np.asarray(arr, dtype=float) for arr in entry["values"]]
            shapes = [r.shape for r in rows], [v.shape for v in values]
            if t != entry["t"] or isinstance(entry["t"], bool):
                raise ValueError(f"stage {entry['t']!r} is not an integer")
            if not 1 <= t <= spec.horizon:
                raise ValueError(f"stage {t} outside 1..{spec.horizon}")
            if len(key) != spec.num_joint_types:
                raise ValueError(f"belief has {len(key)} weights for "
                                 f"{spec.num_joint_types} joint types")
            total = float(np.sum(key))
            sum_tol = SNAP_SUM_TOL + len(key) * 0.5 * 10.0 ** -KEY_DIGITS
            if not all(math.isfinite(v) for v in key):
                raise ValueError(f"belief {list(key)} has a non-finite weight")
            if any(v < 0.0 for v in key):
                raise ValueError(f"belief {list(key)} has a negative weight")
            if abs(total - 1.0) > sum_tol:
                raise ValueError(f"belief {list(key)} sums to {total!r}")
            if shapes != need:
                raise ValueError(f"rows and values have shapes {shapes}, the "
                                 f"game needs {need}")
            if not all(math.isfinite(v) for arr in values for v in arr.tolist()):
                raise ValueError("values are not all finite")
            if entry["status"] != "converged":
                raise ValueError(f"status {entry['status']!r} is not a solved "
                                 "point")
            ok, why = rows_stochastic(rows)
            if not ok:
                raise ValueError(why)
            residual = float(entry["residual"])
            if (isinstance(entry["residual"], bool) or residual != entry["residual"]
                    or not math.isfinite(residual) or residual < 0.0):
                raise ValueError(f"residual {entry['residual']!r} is not a "
                                 "finite, non-negative number")
            point = (t, tuple((np.round(key, KEY_DIGITS) + 0.0).tolist()))
            if point in earlier:
                raise ValueError(f"stage {t} and belief {list(key)} repeat "
                                 f"policy entry {earlier.index(point)}")
            earlier.append(point)
        except KeyError as err:
            return f"policy entry {k} has no field {err}"
        except (TypeError, ValueError, OverflowError) as err:
            return f"policy entry {k}: {err}"
    return None


def iterate_batch_damped(ev, rows, config):
    """The stage solver's phase-1 loop as it was before points could close
    on a settled best-response profile: damped best responses in lockstep
    until a point's residual clears ``fp_tol`` (then it is polished to its
    best-response profile where that is at least as good), it stalls for
    ``STALL_WINDOW`` iterates or ``max_iterations`` run out. A drop-in
    for ``stage._iterate_batch``, built from the solver's own evaluation;
    with no lookup the two must agree bit for bit."""
    from spbe import stage

    def apply_br(rows, q, top, agents, step):
        out = []
        for r, qi, ti, m in zip(rows, q, top, agents):
            ties = qi >= ti - stage.TIE_TOL
            target = ties / np.add.reduce(ties, axis=-1, keepdims=True)
            out.append(np.where(m[..., None], (1.0 - step) * r + step * target, r))
        return out

    def polish(ev, rows, q, top, res):
        snapped = apply_br(rows, q, top, ev.active, 1.0)
        snapped_res = stage._check(ev, snapped)
        better = snapped_res <= res
        return ([np.where(better[:, None, None], s, r)
                 for s, r in zip(snapped, rows)],
                np.where(better, snapped_res, res))

    cur = [np.array(r, dtype=float) for r in rows]
    best = [r.copy() for r in cur]
    best_res = np.full(ev.size, np.inf)
    ok = np.zeros(ev.size, dtype=bool)
    live = np.arange(ev.size)
    since = np.zeros(ev.size, dtype=np.int64)
    sub = ev
    for _ in range(config.max_iterations):
        q = stage._evaluate(sub, cur, sub.active, stage._Candidate(sub, cur))
        top = stage._top(q)
        res = stage._residual(q, top, cur, sub.active)
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
            polished, polished_res = polish(
                sub.take(k), [c[k] for c in cur], [qi[k] for qi in q],
                [ti[k] for ti in top], res[k])
            for b_rows, p_rows in zip(best, polished):
                b_rows[live[k]] = p_rows
            best_res[live[k]] = polished_res
            ok[live[k]] = True
        go_on = ~conv & (since <= stage.STALL_WINDOW)
        if not go_on.all():
            keep = np.flatnonzero(go_on)
            if not keep.size:
                break
            cur = [c[keep] for c in cur]
            q = [qi[keep] for qi in q]
            top = [ti[keep] for ti in top]
            sub = sub.take(keep)
            live, since = live[keep], since[keep]
        cur = apply_br(cur, q, top, sub.active, config.damping)
    return best, best_res, ok


def solve_stage_serial(spec, t, pi, config):
    """The stage solver's search at one belief with no lookup, every phase
    and every restart run in turn: phase 1, the pure scan in lexicographic
    order, support enumeration, then restart r from the point's own
    generator's r-th draws; the first candidate that clears ``fp_tol``
    closes the point, and a failing one is kept if strictly better.
    Returns (status, method, restart index, support profile, rows,
    values, residual) of the finalized point."""
    from spbe import stage

    ev = stage.StageEvaluator(spec, t, [pi], None)
    best, res, ok = stage._iterate_batch(ev, stage._placeholder_rows(ev, 1),
                                         config)
    best_res = float(res[0])
    found = ("iteration", 0, None) if ok[0] else None

    enumerated = config.support_enumeration_limit >= sum(
        nt * na for nt, na in zip(spec.type_counts, spec.action_counts))

    def candidates():
        agents = ev.agents()[0]
        for k in range(math.prod(spec.action_counts[i] for i, _ in agents)):
            rows = stage._pure_rows(ev, [agents], k)
            yield rows, stage._check(ev, rows)[0], ("pure_scan", None, None)
        if enumerated:
            for profile in stage._support_profiles(ev):
                gamma = stage._solve_support(ev, profile, config)
                if gamma is not None:
                    rows = stage._batch_rows(gamma)
                    yield (rows, stage._check(ev, rows)[0],
                           ("support_enumeration", None, profile))
        rng = stage._point_rng(config, t, pi)
        for restart in range(1, config.restarts):
            starts = [rng.dirichlet(np.ones(na), size=nt)[None]
                      for nt, na in zip(spec.type_counts, spec.action_counts)]
            rows, res, _ = stage._iterate_batch(ev, starts, config)
            yield rows, res[0], ("iteration", restart, None)

    for rows, res, how in ([] if found else candidates()):
        if res <= config.fp_tol or res < best_res:
            best, best_res = rows, float(res)
        if res <= config.fp_tol:
            found = how
            break
    rows, values, residual = stage._finalize_rows(ev, best)
    if found is None:
        status = "no_fixed_point" if enumerated else "max_iterations"
        found = (None, None, None)
    else:
        status = "converged" if residual[0] <= config.fp_tol else "max_iterations"
    return (status, *found, tuple(r[0] for r in rows), tuple(v[0] for v in values),
            float(residual[0]))


def solve_frozen_two_player(ev, profile_map: dict, frozen,
                            payoffs: dict) -> Prescription | None:
    """Solve the frozen indifference system exactly for N <= 2, the stage
    solver's own way before it took one Newton solve for every N.

    For two players the indifference conditions of player i's agents are
    linear in the stacked support entries of the other player's rows, so
    each player's rows come out of one least-squares solve. For one player
    the support is feasible only when the frozen action values tie.
    ``payoffs`` holds each player's frozen payoffs once built, by player.
    """
    from spbe import stage

    n = ev.spec.num_players
    rows = stage._placeholder_rows(ev)

    if n == 1:
        q = ev.q(ev.agent_weights([r[None] for r in rows]), frozen)[0][0]
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
        if other not in payoffs:
            payoffs[other] = ev.weighted_payoffs(
                other, frozen[other])[0].transpose(2, 0, 3, 1)
        coef = payoffs[other]
        xs_idx, as_idx = np.array([(xs, a) for xs in agents_of[solved]
                                   for a in profile_map[(solved, xs)]]).T
        # one equation per (x_other, a_other) of the support, with the value
        # of x_other (its position among the active types) as an unknown
        xo_idx, ao_idx, vo_idx = np.array(
            [(xo, ao, v) for v, xo in enumerate(agents_of[other])
             for ao in profile_map[(other, xo)]]).T
        nu, ne = xs_idx.size, xo_idx.size
        mat = np.zeros((ne + len(agents_of[solved]), nu + len(agents_of[other])))
        mat[:ne, :nu] = coef[xo_idx[:, None], ao_idx[:, None], xs_idx, as_idx]
        mat[np.arange(ne), nu + vo_idx] = -1.0
        # then one normalization per active type of `solved`
        mat[ne:, :nu] = xs_idx == np.array(agents_of[solved])[:, None]
        vec = np.zeros(mat.shape[0])
        vec[ne:] = 1.0
        sol, *_ = np.linalg.lstsq(mat, vec, rcond=None)
        if not np.all(np.isfinite(sol)):
            return None
        scale = max(1.0, float(np.abs(vec).max()), float(np.abs(mat).max()))
        if float(np.abs(mat @ sol - vec).max()) > stage.LSTSQ_CONSISTENCY_TOL * scale:
            return None
        if np.any(sol[:nu] < -1e-8):
            return None
        # rows of types not active keep the uniform placeholder
        act = agents_of[solved]
        rows[solved][act] = 0.0
        # as ``max(x, 0.0)``, which keeps -0.0 (``np.maximum`` does not)
        rows[solved][xs_idx, as_idx] = np.where(sol[:nu] < 0.0, 0.0, sol[:nu])
        sums = rows[solved][act].sum(axis=1)
        if (sums <= 0).any():
            return None
        rows[solved][act] /= sums[:, None]
    return Prescription(tuple(rows))


def _draw(rng, weights) -> int:
    """Inverse-CDF draw of one index, one uniform per draw."""
    cum = np.cumsum(weights)
    u = rng.random() * cum[-1]
    return int(np.searchsorted(cum, u, side="right").clip(0, weights.shape[0] - 1))


def simulate_brute(spec, policy, episodes, seed=0, trace_limit=1000):
    """``simulate`` one episode after another: the joint type, then each
    stage's actions in player order, each drawn from its own uniform, with
    every sum added episode by episode."""
    rng = np.random.default_rng(seed)
    n = spec.num_players
    totals = np.zeros(n)
    totals_sq = np.zeros(n)
    type_sum = [np.zeros(c) for c in spec.type_counts]
    type_count = [np.zeros(c, dtype=np.int64) for c in spec.type_counts]
    entropy_sum = np.zeros(spec.horizon)
    prior = initial_belief(spec).weights
    traces = []
    for _ in range(episodes):
        x_flat = _draw(rng, prior)
        x = spec.unflatten_types(x_flat)
        history = ()
        weight = 1.0
        episode = np.zeros(n)
        stage_rewards = np.zeros((spec.horizon, n))
        beliefs = []
        for t in range(1, spec.horizon + 1):
            belief = policy.common_belief(history)
            beliefs.append(belief)
            entropy_sum[t - 1] += belief_entropy(belief)
            gamma = policy.prescription_for_history(history)
            a = tuple(_draw(rng, np.asarray(gamma.rows[i][x[i]], dtype=float))
                      for i in range(n))
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
            traces.append(Trace(joint_type=x, actions=history,
                                beliefs=tuple(beliefs),
                                stage_rewards=stage_rewards, totals=episode.copy()))
    with np.errstate(invalid="ignore", divide="ignore"):
        per_type_mean = tuple(np.where(c > 0, s / c, 0.0)
                              for s, c in zip(type_sum, type_count))
    per_player = totals / episodes
    variance = np.maximum(totals_sq / episodes - per_player ** 2, 0.0)
    summary = SimulationSummary(
        episodes=episodes, seed=seed, per_player_mean=per_player,
        per_player_stderr=np.sqrt(variance / episodes),
        per_type_mean=per_type_mean, per_type_count=tuple(type_count),
        entropy_trajectory=entropy_sum / episodes)
    return SimulationResult(traces=tuple(traces), summary=summary)
