"""Backward value recursion over common beliefs.

Values are defined from the final stage backwards: beyond the horizon the
continuation value is zero, and at each stage t the value of (player,
type) at a common belief is read off the solved stage prescription, whose
own evaluation pulls stage-(t+1) values at the updated beliefs.

Every generator follows one protocol, :class:`Generator`: it defines
``solution_at(t, pi)``, the solved stage point for stages 1..T, and
inherits two readers of it: ``value(t, pi, i, xi)``, one agent's value,
zero at stage T+1, and ``lookup(t)``, the batched
:data:`~spbe.stage.Lookup` of every player's stage-t values at a stack of
posteriors, ``None`` past the horizon. The two generators that solve keep
one store of solved points, read through ``cached_points()`` as (stage,
belief, solution) triples ordered by stage, then belief key; reports'
``solve_counts``, ``failed_points`` and policy documents read only that.
Both solve with :func:`~spbe.stage.solve_stage`, passing their own
``lookup(t + 1)``:

``ExactGenerator``
    solves each belief it is asked for, as a batch of one, and stores it
    by (stage, quantized belief). Solving the initial belief at stage 1
    solves every belief it touches; later queries (forward play,
    verification) hit the store or solve more. A cache budget bounds
    runaway recursion on large games.

``GridGenerator``
    stores one table per stage over a simplex grid's fixed beliefs, each
    stage solved as one batch, final stage first. Queries and stage-(t+1)
    lookups snap to the nearest grid point: approximate but total.

A policy document holds the store's converged points, checked against the
game when loaded. An exact-mode document reloads as a ``TableGenerator``
(exact key lookup), optionally backed by a lazy exact fallback
(``HybridGenerator``); a grid-mode one reloads as a ``GridGenerator``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .beliefs import Belief, Prescription, initial_belief
from .game import GameSpec
from .stage import (Lookup, SolverConfig, StageSolution, solve_stage,
                    solve_stage_fixed_point)

KEY_DIGITS = 9
DEFAULT_CACHE_BUDGET = 1_000_000

BeliefKey = tuple


class NoFixedPointError(RuntimeError):
    """A stage point failed to solve; carries where and how it failed."""

    def __init__(self, t: int, key: BeliefKey, status: str):
        super().__init__(
            f"stage {t} has no prescription fixed point at belief {list(key)} "
            f"(solver status: {status})"
        )
        self.t = t
        self.key = key
        self.status = status


class ResourceLimitError(RuntimeError):
    """A computation was refused because it exceeds a configured bound."""

    def __init__(self, message: str, limit: int):
        super().__init__(message)
        self.limit = limit


def belief_key(weights) -> BeliefKey:
    """Quantize belief weights to a hashable cache key.

    Rounds to 9 digits and normalizes negative zero so that beliefs equal
    to solver precision share a key.
    """
    q = np.round(np.asarray(weights, dtype=float), KEY_DIGITS)
    q[q == 0.0] = 0.0
    return tuple(float(v) for v in q)


class Generator:
    """Stage prescriptions at common beliefs, and the values read off them.

    A generator defines ``spec`` and ``solution_at(t, pi)``, the solved
    :class:`StageSolution` at stage t in 1..T and common belief pi, raising
    when it has none there.
    """

    spec: GameSpec

    def solution_at(self, t: int, pi: Belief) -> StageSolution:
        raise NotImplementedError

    def cached_points(self) -> list[tuple[int, Belief, StageSolution]]:
        """Every stored (stage, belief, solution), failed points included,
        ordered by stage, then belief key."""
        raise NotImplementedError

    @property
    def solve_counts(self) -> dict[int, int]:
        return dict(Counter(t for t, _pi, _solution in self.cached_points()))

    @property
    def failed_points(self) -> list[tuple[int, BeliefKey, str]]:
        return [(t, belief_key(pi.weights), solution.status)
                for t, pi, solution in self.cached_points()
                if not solution.converged]

    def value(self, t: int, pi: Belief, i: int, xi: int) -> float:
        """Value of (i, xi) at stage t and belief pi; stage T+1 is zero."""
        horizon = self.spec.horizon
        if not 1 <= t <= horizon + 1:
            raise ValueError(f"stage {t} outside 1..{horizon + 1}")
        if t > horizon:
            return 0.0
        return float(self.solution_at(t, pi).values[i][xi])

    def lookup(self, t: int) -> Lookup | None:
        """Every player's stage-t values at each row of a posterior array,
        one ``solution_at`` call per row in row order; ``None`` past the
        horizon."""
        if t > self.spec.horizon:
            return None
        type_counts = self.spec.type_counts

        def lookup(weights: np.ndarray) -> list[np.ndarray]:
            solutions = [self.solution_at(t, Belief(row, type_counts))
                         for row in weights]
            return [np.array([sol.values[i] for sol in solutions])
                    for i in range(len(type_counts))]
        return lookup


# ---------------------------------------------------------------------------
# Exact lazy generator
# ---------------------------------------------------------------------------

class ExactGenerator(Generator):
    """Lazily solved, memoized stage prescriptions.

    Every distinct (stage, quantized belief) pair is solved at most once;
    the memo makes repeated queries, forward play, and verification
    bit-identical. A failed stage point raises :class:`NoFixedPointError`
    and aborts whatever query needed it.
    """

    def __init__(self, spec: GameSpec, config: SolverConfig | None = None,
                 cache_budget: int = DEFAULT_CACHE_BUDGET):
        self.spec = spec
        self.config = config or SolverConfig()
        self.cache_budget = cache_budget
        # (stage, key) -> (the belief first solved at that key, its solution)
        self._cache: dict[tuple[int, BeliefKey], tuple[Belief, StageSolution]] = {}

    def solution_at(self, t: int, pi: Belief) -> StageSolution:
        if not 1 <= t <= self.spec.horizon:
            raise ValueError(f"stage {t} outside horizon 1..{self.spec.horizon}")
        key = (t, belief_key(pi.weights))
        got = self._cache.get(key)
        if got is None:
            if len(self._cache) >= self.cache_budget:
                raise ResourceLimitError(
                    f"stage-point cache exceeded {self.cache_budget} entries; "
                    "raise cache_budget or use grid mode",
                    self.cache_budget,
                )
            got = (pi, solve_stage_fixed_point(self.spec, t, pi,
                                               self.lookup(t + 1), self.config))
            self._cache[key] = got
        solution = got[1]
        if not solution.converged:
            raise NoFixedPointError(t, key[1], solution.status)
        return solution

    def __contains__(self, point: tuple[int, Belief]) -> bool:
        """Whether (stage, belief) has been solved, successfully or not."""
        t, pi = point
        return (t, belief_key(pi.weights)) in self._cache

    def cached_points(self) -> list[tuple[int, Belief, StageSolution]]:
        """Solved points, each with the unrounded belief it was solved at."""
        return [(t, pi, solution)
                for (t, _key), (pi, solution) in sorted(self._cache.items())]


# ---------------------------------------------------------------------------
# Grid generator
# ---------------------------------------------------------------------------

def grid_points(num_weights: int, resolution: int) -> np.ndarray:
    """All belief vectors with weights k/resolution, lexicographically
    ascending. Row count is C(resolution + num_weights - 1, num_weights - 1)."""
    if num_weights < 1 or resolution < 1:
        raise ValueError("need at least one weight and resolution >= 1")
    rows = []
    for cuts in itertools.combinations_with_replacement(
            range(resolution + 1), num_weights - 1):
        parts = []
        prev = 0
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(resolution - prev)
        rows.append(parts)
    grid = np.asarray(sorted(rows), dtype=float) / float(resolution)
    grid.setflags(write=False)
    return grid


SNAP_BLOCK = 1 << 16   # (query, grid point, weight) differences per chunk


def _l1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L1 distance over the last axis, broadcasting.

    Fewer than eight terms are added column by column, left to right,
    which is the order NumPy's ``sum`` adds them in but without its
    per-row cost; longer rows use ``sum`` itself. Either way the result is
    bit-identical to ``np.abs(a - b).sum(axis=-1)``.
    """
    if a.shape[-1] >= 8:
        return np.abs(a - b).sum(axis=-1)
    dist = np.abs(a[..., 0] - b[..., 0])
    for k in range(1, a.shape[-1]):
        dist += np.abs(a[..., k] - b[..., k])
    return dist


def nearest_grid_index(grid: np.ndarray, weights: np.ndarray):
    """Index of the grid row closest in L1; first (lex smallest) on ties.

    ``weights`` is one belief, giving an int, or a 2-d array of beliefs,
    giving one index per row; rows are compared with the grid in chunks of
    at most ``SNAP_BLOCK`` differences so that the temporaries stay small.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim == 1:
        return int(np.argmin(np.abs(grid - weights).sum(axis=1)))
    rows = weights
    out = np.empty(rows.shape[0], dtype=np.intp)
    step = max(1, SNAP_BLOCK // grid.size)
    for start in range(0, rows.shape[0], step):
        chunk = rows[start:start + step]
        out[start:start + step] = np.argmin(
            _l1(grid[None, :, :], chunk[:, None, :]), axis=1)
    return out


class GridGenerator(Generator):
    """Per-stage prescription tables on a simplex grid.

    ``build`` solves every grid point at every stage, final stage first;
    stage-(t+1) values are read at the grid point nearest (L1) to the
    updated belief. Points are independent given the next-stage table, so
    a stage is one batch over all of them (:func:`~spbe.stage.solve_stage`),
    in which only support enumeration goes one point at a time. Failed
    points are kept in the table with their failure status so the build
    can finish, but querying one raises. Tables of more than
    ``cache_budget`` points over all stages are refused before the grid
    is built.
    """

    def __init__(self, spec: GameSpec, config: SolverConfig | None = None,
                 resolution: int = 10, cache_budget: int = DEFAULT_CACHE_BUDGET):
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        size = math.comb(resolution + spec.num_joint_types - 1,
                         spec.num_joint_types - 1) * spec.horizon
        if size > cache_budget:
            raise ResourceLimitError(
                f"grid tables would hold {size} stage points, over the budget "
                f"of {cache_budget}; raise cache_budget or lower the resolution",
                cache_budget,
            )
        self.spec = spec
        self.config = config or SolverConfig()
        self.resolution = resolution
        self.grid = grid_points(spec.num_joint_types, resolution)
        self._beliefs = [Belief(row, spec.type_counts) for row in self.grid]
        self.tables: dict[int, list[StageSolution]] = {}
        self.snap_stats = {"queries": 0, "max_snap_l1": 0.0}
        self._built = False

    def build(self) -> None:
        if self._built:
            return
        for t in range(self.spec.horizon, 0, -1):
            self.tables[t] = solve_stage(self.spec, t, self._beliefs,
                                         self.lookup(t + 1), self.config)
        self._built = True

    def _snap(self, weights: np.ndarray) -> np.ndarray:
        """Index of the grid point nearest to each row of ``weights``;
        records the largest L1 distance snapped."""
        idx = nearest_grid_index(self.grid, weights)
        snap = float(_l1(self.grid[idx], weights).max())
        if snap > self.snap_stats["max_snap_l1"]:
            self.snap_stats["max_snap_l1"] = snap
        return idx

    def lookup(self, t_next: int) -> Lookup | None:
        """Batched stage-(t_next) values at the grid points nearest to
        each row of a posterior array; ``None`` beyond the horizon."""
        if t_next > self.spec.horizon:
            return None
        table = self.tables[t_next]
        values = [np.array([sol.values[i] for sol in table])
                  for i in range(self.spec.num_players)]

        def lookup(weights: np.ndarray) -> list[np.ndarray]:
            idx = self._snap(weights)
            return [v[idx] for v in values]
        return lookup

    def solution_at(self, t: int, pi: Belief) -> StageSolution:
        if not 1 <= t <= self.spec.horizon:
            raise ValueError(f"stage {t} outside horizon 1..{self.spec.horizon}")
        self.build()
        idx = self._snap(pi.weights[None, :])[0]
        self.snap_stats["queries"] += 1
        solution = self.tables[t][idx]
        if not solution.converged:
            raise NoFixedPointError(t, belief_key(self.grid[idx]), solution.status)
        return solution

    def cached_points(self) -> list[tuple[int, Belief, StageSolution]]:
        return [(t, pi, solution) for t in sorted(self.tables)
                for pi, solution in zip(self._beliefs, self.tables[t])]


# ---------------------------------------------------------------------------
# Saved-policy generators
# ---------------------------------------------------------------------------

class TableGenerator(Generator):
    """Prescriptions served from a saved policy document, exact keys only."""

    def __init__(self, spec: GameSpec, entries: dict[tuple[int, BeliefKey], StageSolution]):
        self.spec = spec
        self.entries = entries

    def solution_at(self, t: int, pi: Belief) -> StageSolution:
        key = (t, belief_key(pi.weights))
        got = self.entries.get(key)
        if got is None:
            raise KeyError(
                f"policy table has no entry for stage {t} at belief {list(key[1])}"
            )
        return got


class HybridGenerator(Generator):
    """Table lookups with a lazy exact fallback for missing keys.

    Used when verifying a loaded policy file: the file pins behaviour at
    the beliefs it covers, and any belief the verification walk needs that
    the file lacks is solved fresh. ``completions`` counts the fallbacks.
    """

    def __init__(self, table: TableGenerator, fallback: ExactGenerator):
        self.table = table
        self.fallback = fallback
        self.completions = 0

    @property
    def spec(self) -> GameSpec:
        return self.table.spec

    def solution_at(self, t: int, pi: Belief) -> StageSolution:
        try:
            return self.table.solution_at(t, pi)
        except KeyError:
            if (t, pi) not in self.fallback:
                self.completions += 1
            return self.fallback.solution_at(t, pi)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

@dataclass
class SolveResult:
    """Outcome of a full solve: generator plus bookkeeping for reports."""

    spec: GameSpec
    mode: str
    config: SolverConfig
    generator: object
    status: str
    root: StageSolution | None = None
    failure: dict | None = None
    resolution: int | None = None
    timing_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _refusal(err: ResourceLimitError) -> dict:
    return {"kind": "resource_limit", "limit": err.limit, "message": str(err)}


def solve(
    spec: GameSpec,
    mode: str = "exact",
    config: SolverConfig | None = None,
    resolution: int = 10,
    cache_budget: int = DEFAULT_CACHE_BUDGET,
) -> SolveResult:
    """Solve a game end to end in the requested mode.

    Exact mode solves the initial belief at stage 1, which recursively
    solves every stage point its evaluation touches. Grid mode builds the
    full per-stage tables. Solver failures and resource refusals are
    reported in the result, not raised; a refused grid solve has no
    generator.
    """
    config = config or SolverConfig()
    started = time.perf_counter()
    if mode == "exact":
        generator = ExactGenerator(spec, config, cache_budget=cache_budget)
        result = SolveResult(spec, mode, config, generator, "ok")
        try:
            result.root = generator.solution_at(1, initial_belief(spec))
        except NoFixedPointError as err:
            result.status = "failed"
            result.failure = {
                "kind": "no_fixed_point",
                "stage": err.t,
                "belief": list(err.key),
                "solver_status": err.status,
            }
        except ResourceLimitError as err:
            result.status, result.failure = "refused", _refusal(err)
    elif mode == "grid":
        try:
            generator = GridGenerator(spec, config, resolution=resolution,
                                      cache_budget=cache_budget)
        except ResourceLimitError as err:
            return SolveResult(spec, mode, config, None, "refused",
                               failure=_refusal(err), resolution=resolution,
                               timing_seconds=time.perf_counter() - started)
        result = SolveResult(spec, mode, config, generator, "ok",
                             resolution=resolution)
        generator.build()
        failed = generator.failed_points
        if failed:
            result.status = "partial"
            t0, key0, status0 = failed[0]
            result.failure = {
                "kind": "no_fixed_point",
                "stage": t0,
                "belief": list(key0),
                "solver_status": status0,
                "failed_points": len(failed),
            }
        else:
            result.root = generator.solution_at(1, initial_belief(spec))
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'grid'")
    result.timing_seconds = time.perf_counter() - started
    return result


def _rows_to_lists(prescription: Prescription) -> list[list[list[float]]]:
    return [[[float(v) for v in row] for row in player] for player in prescription.rows]


def _solution_entry(t: int, pi: Belief, solution: StageSolution) -> dict:
    return {
        "t": t,
        "belief": list(belief_key(pi.weights)),
        "rows": _rows_to_lists(solution.prescription),
        "values": [[float(v) for v in arr] for arr in solution.values],
        "residual": float(solution.residual),
        "status": solution.status,
        "method": solution.method,
        "restart_index": solution.restart_index,
    }


def build_solve_report(result: SolveResult) -> dict:
    """JSON-ready summary of a solve. Identical inputs give identical
    reports except for the ``timing`` block."""
    spec, generator = result.spec, result.generator
    report: dict = {
        "game": spec.digest(),
        "players": spec.num_players,
        "horizon": spec.horizon,
        "mode": result.mode,
        "status": result.status,
        "config": dataclasses.asdict(result.config),
        "solve_counts": {str(t): n for t, n in sorted(
            generator.solve_counts.items() if generator else ())},
        "timing": {"seconds": result.timing_seconds},
    }
    if result.resolution is not None and generator is not None:
        report["grid"] = {
            "resolution": result.resolution,
            "points": int(generator.grid.shape[0]),
            "snap": dict(generator.snap_stats),
        }
    if result.root is not None:
        report["root"] = {
            "residual": float(result.root.residual),
            "prescription": _rows_to_lists(result.root.prescription),
            "values": [[float(v) for v in arr] for arr in result.root.values],
        }
    if result.failure is not None:
        report["failure"] = result.failure
    return report


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Policy documents
# ---------------------------------------------------------------------------

POLICY_FORMAT = "repeated-game-policy"
POLICY_VERSION = 1


def policy_document(result: SolveResult) -> dict:
    """Serialize every converged stage point of a solve into a document."""
    doc = {
        "format": POLICY_FORMAT,
        "version": POLICY_VERSION,
        "game": result.spec.digest(),
        "mode": result.mode,
        "entries": [_solution_entry(t, pi, solution)
                    for t, pi, solution in result.generator.cached_points()
                    if solution.converged],
    }
    if result.resolution is not None:
        doc["resolution"] = result.resolution
    return doc


def _read_entry(entry: dict, spec: GameSpec) -> tuple[tuple[int, BeliefKey], StageSolution]:
    """One policy entry as ((stage, belief key), solution), checked against
    the game's horizon and shapes."""
    t = int(entry["t"])
    key = tuple(float(v) for v in entry["belief"])
    rows = tuple(np.asarray(player, dtype=float) for player in entry["rows"])
    values = tuple(np.asarray(arr, dtype=float) for arr in entry["values"])
    shapes = [r.shape for r in rows], [v.shape for v in values]
    need = (list(zip(spec.type_counts, spec.action_counts)),
            [(c,) for c in spec.type_counts])
    if not 1 <= t <= spec.horizon:
        raise ValueError(f"stage {t} outside 1..{spec.horizon}")
    if len(key) != spec.num_joint_types:
        raise ValueError(f"belief has {len(key)} weights for "
                         f"{spec.num_joint_types} joint types")
    if shapes != need:
        raise ValueError(f"rows and values have shapes {shapes}, the game "
                         f"needs {need}")
    if not all(math.isfinite(v) for arr in values for v in arr.tolist()):
        raise ValueError("values are not all finite")
    for arr in values:
        arr.setflags(write=False)
    return (t, key), StageSolution(
        prescription=Prescription(rows),
        values=values,
        residual=float(entry["residual"]),
        status=entry["status"],
        method=entry.get("method"),
        restart_index=entry.get("restart_index"),
    )


def load_policy(doc: dict, spec: GameSpec) -> TableGenerator | GridGenerator:
    """Rebuild a generator from a policy document for this game.

    A grid-mode document gives a :class:`GridGenerator` that snaps queries
    to its grid, as the generator that wrote it did; other documents give
    a :class:`TableGenerator` keyed by exact beliefs. An entry that lacks a
    field or does not fit the game raises ``ValueError`` naming its index.
    """
    if type(doc) is not dict or doc.get("format") != POLICY_FORMAT:
        raise ValueError("not a policy document")
    if doc.get("game") != spec.digest():
        raise ValueError("policy document was produced for a different game")
    if type(doc.get("entries")) is not list:
        raise ValueError("policy document has no list of entries")
    entries: dict[tuple[int, BeliefKey], StageSolution] = {}
    for k, entry in enumerate(doc["entries"]):
        try:
            point, solution = _read_entry(entry, spec)
        except KeyError as err:
            raise ValueError(f"policy entry {k} has no field {err}") from err
        except (TypeError, ValueError) as err:
            raise ValueError(f"policy entry {k}: {err}") from err
        entries[point] = solution
    if doc.get("mode") == "grid" and "resolution" in doc:
        return _grid_from_entries(spec, int(doc["resolution"]), entries)
    return TableGenerator(spec, entries)


def _grid_from_entries(spec: GameSpec, resolution: int, entries: dict) -> GridGenerator:
    """A built grid generator holding a document's entries; grid points the
    document lacks (they failed to solve) keep a failed placeholder."""
    generator = GridGenerator(spec, resolution=resolution)
    missing = StageSolution(
        prescription=Prescription.uniform(spec.type_counts, spec.action_counts),
        values=tuple(np.zeros(c) for c in spec.type_counts),
        residual=float("inf"),
        status="not_in_policy",
    )
    index = {belief_key(pi.weights): idx for idx, pi in enumerate(generator._beliefs)}
    generator.tables = {t: [missing] * len(index) for t in range(1, spec.horizon + 1)}
    for (t, key), solution in entries.items():
        if key not in index:
            raise ValueError(f"policy entry at stage {t}, belief {list(key)} is "
                             f"not a point of the resolution-{resolution} grid")
        generator.tables[t][index[key]] = solution
    generator._built = True
    return generator


def save_policy(result: SolveResult, path) -> None:
    Path(path).write_text(render_report(policy_document(result)) + "\n")


def load_policy_file(path, spec: GameSpec) -> TableGenerator | GridGenerator:
    return load_policy(json.loads(Path(path).read_text()), spec)
