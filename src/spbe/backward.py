"""Backward value recursion over common beliefs.

Values are defined from the final stage backwards: beyond the horizon the
continuation value is zero, and at each stage t the value of (player,
type) at a common belief is read off the solved stage prescription, whose
own evaluation pulls stage-(t+1) values at the updated beliefs.

Every generator follows one protocol, :class:`Generator`: it defines
``solution_at(t, pi)``, the solved stage point for stages 1..T, and
``lookup(t)``, the batched :data:`~spbe.stage.Lookup` of every player's
stage-t values at a stack of posteriors, ``None`` past the horizon; it
inherits ``value(t, pi, i, xi)``, one agent's value, zero at stage T+1.
Each generator's store of solved points is read through one view,
``_stages()``: per stage, ascending, the points' belief keys, beliefs and
:class:`~spbe.stage.StageTable`, in key order. Over it ``Generator``
gives ``cached_points()``, (stage, belief, solution) triples whose
solutions are built anew on every call, which policy documents read,
and reports' ``solve_counts`` and ``failed_points``, which read the
tables' metadata alone. Points are kept as stacked arrays, not solution
objects (a grid's table per stage, an exact store's records). Both
solve with :func:`~spbe.stage.solve_stage`, which returns a table, passing
their own ``lookup(t + 1)``:

``ExactGenerator``
    solves each belief it is asked for and stores it by (stage, quantized
    belief), the belief's :attr:`~spbe.beliefs.Belief.key`, which
    :func:`~spbe.beliefs.belief_key` rounds once per belief. Solving the
    initial belief at stage 1 solves every belief it touches; later
    queries (forward play, verification) hit the store or solve more. A
    cache budget bounds runaway recursion on large games. A query and a
    lookup, at every stage, are one walk of a belief stack in row order;
    only when a missing belief is solved depends on the stage: below the
    last, as soon as the walk meets it; at the last, where nothing is
    looked up, with the stack's other missing beliefs as one batch.
    Solved points and a policy document's entries enter the store
    through one record writer.

``GridGenerator``
    stores one table per stage over a simplex grid's fixed beliefs, each
    stage solved as one batch, final stage first. Queries and stage-(t+1)
    lookups snap to the grid point nearest in L1, the lowest index on
    ties: approximate but total. :func:`nearest_grid_index` finds it by
    rounding the scaled belief, not by scanning the grid. A queried belief
    is snapped once: its grid row is stored by the belief's weight bytes,
    at every stage, since the snap does not depend on the stage.

A policy document holds the store's converged points. A load refuses a
header whose mode is not ``exact`` with no resolution, or ``grid`` with
an integer resolution of at least 1. One checker reads the entries
against the game, each check over all of them, each belief by the snap's
rule (finite, non-negative weights summing to 1, allowing for the key's
rounding). A sound document takes one pass; a failing one is bisected on
its prefixes to the lowest bad entry, which the checker reads alone to
word the error. An
exact-mode document reloads as an ``ExactGenerator`` whose store holds the
document's entries, each under its belief's key as a query rounds it, and
solves, through the same store, any belief the document lacks; a
grid-mode one reloads as a built ``GridGenerator``.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .beliefs import (KEY_DIGITS, Belief, BeliefKey, Prescription,
                      belief_key, checked_stacks, initial_belief)
from .game import GameSpec
from .stage import Lookup, SolverConfig, StageSolution, StageTable, solve_stage
# bound here so profilers can wrap it by name
from .stage import solve_stage_fixed_point  # noqa: F401

DEFAULT_CACHE_BUDGET = 1_000_000


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


class Generator:
    """Stage prescriptions at common beliefs, and the values read off them.

    A generator defines ``spec``, ``solution_at(t, pi)``, the solved
    :class:`StageSolution` at stage t in 1..T and common belief pi, raising
    when it has none there, ``lookup(t)``, the same stage-t values for
    a stack of beliefs at once, and ``_stages()``, its store of solved
    points: for each stage holding points, stages ascending, the stage,
    the points' belief keys in ascending order, the beliefs (P, X) they
    were solved at and their :class:`StageTable`, in key order. Over that
    view it inherits ``cached_points()``, which builds new solutions on
    every call, and the properties ``solve_counts`` (stored points per
    stage, stages ascending) and ``failed_points`` ((stage, belief key,
    status) of each stored point that failed, in ``cached_points()``
    order), which read the tables' metadata alone.
    """

    spec: GameSpec
    # stage points solved since a policy file was loaded; None otherwise
    completions: int | None = None

    def solution_at(self, t: int, pi: Belief) -> StageSolution:
        raise NotImplementedError

    def _stages(self):
        """(stage, belief keys, beliefs, table) of every stage with stored
        points, as the class docstring says."""
        raise NotImplementedError

    def cached_points(self) -> list[tuple[int, Belief, StageSolution]]:
        """Every stored (stage, belief, solution), failed points included,
        ordered by stage, then belief key."""
        return [(t, Belief(belief, self.spec.type_counts), solution)
                for t, _keys, beliefs, table in self._stages()
                for belief, solution in zip(beliefs, table)]

    @property
    def solve_counts(self) -> dict[int, int]:
        return {t: len(table) for t, _keys, _beliefs, table in self._stages()}

    @property
    def failed_points(self) -> list[tuple[int, BeliefKey, str]]:
        return [(t, key, meta[0]) for t, keys, _beliefs, table in self._stages()
                for key, meta in zip(keys, table.metas) if meta[0] != "converged"]

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
        as ``solution_at`` gives them; ``None`` past the horizon."""
        raise NotImplementedError


class _Metas(list):
    """The (status, method, restart index, support profile, degenerate
    types) tuples of an exact store's points, each distinct one kept once;
    a record holds the index of its tuple."""

    def __init__(self):
        super().__init__()
        self._ids: dict[tuple, int] = {}

    def id_of(self, meta: tuple) -> int:
        """Index of ``meta``, appended if new. Equal values of different
        types (a document's 1 and 1.0) stay apart."""
        try:
            index = self._ids.setdefault((meta, tuple(map(type, meta))), len(self))
        except TypeError:   # a document's unhashable method, never shared
            index = len(self)
        if index == len(self):
            self.append(meta)
        return index


# ---------------------------------------------------------------------------
# Exact lazy generator
# ---------------------------------------------------------------------------

class ExactGenerator(Generator):
    """Lazily solved, memoized stage prescriptions.

    Every distinct (stage, quantized belief) pair is solved at most once;
    the memo makes repeated queries, forward play, and verification
    bit-identical. A failed stage point raises :class:`NoFixedPointError`
    and aborts whatever query needed it; a belief with non-finite weights
    that the store lacks raises ``ValueError`` before any solve. A store
    loaded from a policy file (:func:`load_policy`) starts with the file's
    points, and counts in ``completions`` every point it solves after that.

    ``solution_at`` and ``lookup`` both reach the store through
    :meth:`_walk`, and every point enters it through :meth:`_write`,
    which keeps a point as one read-only float record, by stage and the
    bytes of its belief key: every player's rows, then every player's
    values, the belief it was solved at, the residual, and the index of
    its (status, method, restart index, support profile, degenerate
    types) in a list the points share. ``lookup`` reads values off the
    records; ``solution_at`` builds a point's :class:`StageSolution` on
    its first query and keeps it; ``_stages()`` reads each stage's
    records back as one :class:`StageTable`.
    """

    def __init__(self, spec: GameSpec, config: SolverConfig | None = None,
                 cache_budget: int = DEFAULT_CACHE_BUDGET):
        self.spec = spec
        self.config = config or SolverConfig()
        self.cache_budget = cache_budget
        # stage -> belief key bytes -> record
        self._records: dict[int, dict[bytes, bytes]] = {
            t: {} for t in range(1, spec.horizon + 1)}
        self._metas = _Metas()
        # (stage, belief key) -> the solution built on its first query
        self._solutions: dict[tuple[int, BeliefKey], StageSolution] = {}
        # where each field of a record starts, and the record's width
        self._cuts = list(itertools.accumulate(
            [nt * na for nt, na in zip(spec.type_counts, spec.action_counts)]
            + [*spec.type_counts, spec.num_joint_types, 1, 1], initial=0))

    def solution_at(self, t: int, pi: Belief) -> StageSolution:
        if not 1 <= t <= self.spec.horizon:
            raise ValueError(f"stage {t} outside horizon 1..{self.spec.horizon}")
        solution = self._solutions.get((t, pi.key))
        if solution is None:
            record = self._walk(t, pi.weights[None])[0]
            solution = self._solutions[t, pi.key] = next(iter(self._table([record])[0]))
        return solution

    def lookup(self, t: int) -> Lookup | None:
        """Every player's stage-t values at each row of a posterior array,
        read off the records of :meth:`_walk`; ``None`` past the horizon."""
        if t > self.spec.horizon:
            return None
        return lambda weights: self._fields(self._walk(t, weights))[1]

    def _stages(self):
        """Every stage's records, in key order, read back as one table;
        a loaded point's belief is its key."""
        for t, store in self._records.items():
            if store:
                keys, records = zip(*sorted((_key_of(key), record)
                                            for key, record in store.items()))
                table, beliefs = self._table(list(records))
                yield t, list(keys), beliefs, table

    def _walk(self, t: int, weights: np.ndarray) -> list[bytes]:
        """The records at stage t of every row of ``weights``, read in row
        order: a stored failure raises, and a belief the store lacks is
        admitted (:meth:`_admit`) and solved. Below the last stage it is
        solved as soon as the walk meets it, since its own lookups fill the
        next stage's store in order. At the last stage, where nothing is
        looked up, the stack's missing beliefs up to the row that stops the
        walk are solved as one batch in first-occurrence order, then stored
        before the walk's error is raised, as solving them in turn would."""
        keys = _key_bytes(weights)
        store, fresh, stop = self._records[t], {}, None
        try:
            for k, key in enumerate(keys):
                record = store.get(key)
                if record is not None:
                    status = self._status(record)
                    if status != "converged":
                        raise NoFixedPointError(t, _key_of(key), status)
                elif key not in fresh:
                    self._admit(t, weights[k], len(fresh))
                    if t < self.spec.horizon:
                        self._solve(t, weights, {key: k})
                    else:
                        fresh[key] = k
        except (NoFixedPointError, ResourceLimitError, ValueError) as err:
            stop = err
        if fresh:
            self._solve(t, weights, fresh)
        if stop is not None:
            raise stop
        return [store[key] for key in keys]

    def _admit(self, t: int, weights: np.ndarray, pending: int) -> None:
        """Raise if a belief the store lacks may not be solved, with
        ``pending`` points already on their way into the store."""
        if not np.isfinite(weights).all():
            raise ValueError(f"stage {t} belief has non-finite weights "
                             f"{weights.tolist()}")
        if sum(map(len, self._records.values())) + pending >= self.cache_budget:
            raise ResourceLimitError(
                f"stage-point cache exceeded {self.cache_budget} entries; "
                "raise cache_budget or use grid mode",
                self.cache_budget,
            )

    def _solve(self, t: int, weights: np.ndarray, rows: dict[bytes, int]) -> None:
        """Solve the rows of ``weights`` that ``rows`` maps key bytes to, as
        one batch, and store them (:meth:`_write`)."""
        at = list(rows.values())
        table = solve_stage(
            self.spec, t, [Belief(weights[k], self.spec.type_counts) for k in at],
            self.lookup(t + 1), self.config)
        self._write([t] * len(at), list(rows), weights[at], table)

    def _write(self, stages: list[int], keys: list[bytes], beliefs: np.ndarray,
               points: StageTable) -> None:
        """Store Q points as records, in order, counting completions: per
        point its stage and key bytes, the beliefs (Q, X), and the points'
        rows, values, residuals and metadata. The first failed point is
        stored and raised on, and the points after it are dropped."""
        if not keys:
            return
        ids = [self._metas.id_of(meta) for meta in points.metas]
        records = _split(np.hstack(
            [r.reshape(len(keys), -1) for r in points.rows] + list(points.values)
            + [beliefs, np.column_stack([points.residuals, ids])]))
        for t, key, record, meta in zip(stages, keys, records, points.metas):
            self._records[t][key] = record
            if self.completions is not None:
                self.completions += 1
            if meta[0] != "converged":
                raise NoFixedPointError(t, _key_of(key), meta[0])

    def _status(self, record: bytes) -> str:
        """The status of a stored point, read off its record."""
        return self._metas[int(np.frombuffer(record)[-1])][0]

    def _fields(self, records: list[bytes]) -> tuple:
        """(rows, values, beliefs, residuals, metadata) of a list of
        records, stacked: per player, rows (Q, T_i, A_i) and values
        (Q, T_i), then beliefs (Q, X), residuals (Q,) and metadata (Q,), as
        read-only views."""
        cuts = self._cuts
        block = np.frombuffer(b"".join(records)).reshape(-1, cuts[-1])
        parts = [block[:, a:b] for a, b in zip(cuts, cuts[1:])]
        n, tc, ac = self.spec.num_players, self.spec.type_counts, self.spec.action_counts
        rows = [p.reshape(-1, nt, na) for p, nt, na in zip(parts, tc, ac)]
        return rows, parts[n:2 * n], parts[2 * n], parts[-2][:, 0], parts[-1][:, 0]

    def _table(self, records: list[bytes]) -> tuple[StageTable, np.ndarray]:
        """The table of a list of records, and the beliefs (Q, X) they
        hold."""
        rows, values, beliefs, residuals, ids = self._fields(records)
        return StageTable(rows, values, residuals,
                          [self._metas[k] for k in ids.astype(int).tolist()]), beliefs


def _key_bytes(weights: np.ndarray) -> list[bytes]:
    """The bytes of :func:`~spbe.beliefs.belief_key` of each row: rounded,
    with negative zeros made positive."""
    return _split(np.round(weights, KEY_DIGITS) + 0.0)


def _key_of(key: bytes) -> BeliefKey:
    """The belief key whose bytes are ``key``."""
    return tuple(np.frombuffer(key).tolist())


def _split(block: np.ndarray) -> list[bytes]:
    """The bytes of each row of a 2-d float array."""
    blob = np.ascontiguousarray(block, dtype=float).tobytes()
    width = 8 * block.shape[1]
    return [blob[k:k + width] for k in range(0, len(blob), width)]


# ---------------------------------------------------------------------------
# Grid generator
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def grid_points(num_weights: int, resolution: int) -> np.ndarray:
    """All belief vectors with weights k/resolution, lexicographically
    ascending. Row count is C(resolution + num_weights - 1, num_weights - 1).
    The array is read-only and shared by every call with the same
    arguments."""
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


SNAP_SUM_TOL = 1e-8      # a snapped row's weights sum to 1 within this
SNAP_TIE_MARGIN = 1e-9   # times r: fractional parts this near the cut may tie


def _l1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L1 distance over the last axis, broadcasting."""
    return np.abs(a - b).sum(axis=-1)


@functools.lru_cache(maxsize=16)
def _grid_ranks(num_weights: int, num_points: int) -> tuple[int, np.ndarray]:
    """The resolution r of ``grid_points(num_weights, r)`` with
    ``num_points`` rows, and the table that ranks a composition among them.

    Counting the compositions that precede c lexicographically (the
    combinatorial number system) and telescoping the sum gives row
    ``num_points - 1 + sum_k offsets[k - 1, R_k]`` over k = 1..X-1, where
    R_k = r - c_0 - ... - c_{k-1} and offsets[k - 1, R] =
    C(R + X-k-1, X-k-1) - C(R + X-k, X-k).
    """
    x = num_weights
    r = 1 + bisect.bisect_left(range(1, num_points), num_points,
                               key=lambda n: math.comb(n + x - 1, x - 1))
    if x < 1 or math.comb(r + x - 1, x - 1) != num_points:
        raise ValueError(f"{num_points} rows of {num_weights} weights are "
                         "no grid_points(num_weights, resolution)")
    # keeps every float near-tie inside the floor/ceil box (see
    # nearest_grid_index)
    if r * (SNAP_SUM_TOL + (x + 1) * SNAP_TIE_MARGIN) >= 0.5:
        raise ValueError(f"resolution {r} is too fine to snap by rounding")
    offsets = np.array([[math.comb(big + x - k - 1, x - k - 1)
                         - math.comb(big + x - k, x - k)
                         for big in range(r + 1)] for k in range(1, x)],
                       dtype=np.intp).reshape(x - 1, r + 1)
    offsets.setflags(write=False)
    return r, offsets


def _rank(counts: np.ndarray, resolution: int, offsets: np.ndarray) -> np.ndarray:
    """Grid row of each composition in ``counts`` (integers, last axis)."""
    width = counts.shape[-1]
    left = np.full(counts.shape[:-1], resolution, dtype=np.intp)
    index = np.full_like(left, math.comb(resolution + width - 1, width - 1) - 1)
    for k, table in enumerate(offsets):
        left -= counts[..., k]
        index += table[left]
    return index


def _bad_row(rows: np.ndarray, sum_tol: float = SNAP_SUM_TOL
             ) -> tuple[int, str] | None:
    """The first row that is no belief, and why; ``None`` if every row has
    finite, non-negative weights that sum to 1 within ``sum_tol``."""
    finite = np.isfinite(rows).all(axis=1)
    negative = (rows < 0.0).any(axis=1)
    sums = rows.sum(axis=1)
    bad = ~finite | negative | ~(np.abs(sums - 1.0) <= sum_tol)
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    return k, ("has a non-finite weight" if not finite[k] else
               "has a negative weight" if negative[k] else
               f"sums to {float(sums[k])!r}")


def nearest_grid_index(grid: np.ndarray, weights: np.ndarray):
    """Index of the ``grid`` row closest in L1 to ``weights``; the lowest
    index among float-equal ``_l1`` distances on ties.

    ``grid`` must be ``grid_points(X, r)``; r is read off its row count.
    ``weights`` is one belief, giving an int, or a 2-d array of beliefs,
    giving an ``intp`` array with one index per row (empty for no rows).
    Each row needs X finite, non-negative weights that sum to 1 within
    ``SNAP_SUM_TOL``; any other row raises ``ValueError`` naming it.

    The rule, for y = r * row: take floor(y), then give the m = r - sum
    floor(y) leftover units to the m largest fractional parts f. Every
    L1-nearest grid point lies in that floor/ceil box, and among its
    points the rule is exact: a unit moved from a coordinate rounded up to
    one rounded down costs 2 (f_up - f_down) / r. So two grid points can
    tie in floats only where fractional parts lie within
    ``SNAP_TIE_MARGIN * r`` of the cut (a move out of the box that costs
    almost nothing needs a row sum off 1 by about 1/r). A row with such
    parts evaluates every composition they allow with ``_l1``, in the
    scan's summation order, and keeps the lowest index among the minima.
    The composition's row comes from the combinatorial number system, so
    a row costs O(X log X) instead of the O(N X) of comparing it with all
    N grid points. One belief takes the same batched rule as a stack of
    one.
    """
    weights = np.asarray(weights, dtype=float)
    num_points, width = grid.shape
    resolution, offsets = _grid_ranks(width, num_points)
    if grid is not grid_points(width, resolution) and not np.array_equal(
            grid, grid_points(width, resolution)):
        raise ValueError("grid is not grid_points(num_weights, resolution)")
    if weights.ndim not in (1, 2) or weights.shape[-1] != width:
        raise ValueError(f"weights of shape {weights.shape} are not rows of "
                         f"{width} weights")
    rows = weights.reshape(-1, width)
    if not ((np.abs(rows.sum(axis=1) - 1.0) <= SNAP_SUM_TOL).all()
            and (rows >= 0.0).all()):
        k, why = _bad_row(rows)
        raise ValueError(f"row {k} of the weights {why}: {rows[k].tolist()}")
    low, frac, up_min, down_max = _cut(rows, resolution)
    low += frac >= up_min
    out = _rank(low.astype(np.intp), resolution, offsets)
    tied = np.flatnonzero(up_min - down_max <= SNAP_TIE_MARGIN * resolution)
    if tied.size:
        out[tied] = _nearest_of_tied(grid, rows[tied], resolution, offsets)
    return int(out[0]) if weights.ndim == 1 else out


def _cut(rows: np.ndarray, resolution: int):
    """floor(y) and its fractional parts for y = resolution * rows, and per
    row (as a column) the smallest part rounded up, +inf if none is, and
    the largest rounded down, -inf if none is."""
    frac = rows * resolution
    low = np.floor(frac)
    frac -= low
    width = rows.shape[1]
    ups = (resolution - low.sum(axis=1)).astype(np.intp)[:, None]
    ordered = np.sort(frac, axis=1)
    up_min = np.take_along_axis(ordered, np.minimum(width - ups, width - 1),
                                axis=1)
    down_max = np.take_along_axis(ordered, np.maximum(width - ups - 1, 0),
                                  axis=1)
    up_min[ups == 0] = np.inf
    down_max[ups == width] = -np.inf
    return low, frac, up_min, down_max


def _nearest_of_tied(grid: np.ndarray, rows: np.ndarray, resolution: int,
                     offsets: np.ndarray) -> np.ndarray:
    """Lowest index among the float-nearest candidates of each row.

    Coordinates whose fractional part lies within the margin of both
    sides of the cut may round either way; the rest round as the rule
    says. Rows are grouped by how many such coordinates they have and how
    many of them round up, so that a group evaluates its candidate
    patterns at once.
    """
    low, frac, up_min, down_max = _cut(rows, resolution)
    margin = SNAP_TIE_MARGIN * resolution
    sure_up = frac > down_max + margin
    free = (frac >= up_min - margin) & ~sure_up
    base = (low + sure_up).astype(np.intp)
    width = rows.shape[1]
    group_of = free.sum(axis=1) * (width + 1) + resolution - base.sum(axis=1)
    out = np.empty(rows.shape[0], dtype=np.intp)
    # a set, not np.unique, which imports numpy.ma (about 1 MB resident)
    for group in set(group_of.tolist()):
        members = np.flatnonzero(group_of == group)
        size, ups = divmod(group, width + 1)
        patterns = np.zeros((math.comb(size, ups), size), dtype=np.intp)
        for p, chosen in enumerate(itertools.combinations(range(size), ups)):
            patterns[p, list(chosen)] = 1
        where = np.nonzero(free[members])[1].reshape(members.size, 1, size)
        cand = np.repeat(base[members][:, None, :], len(patterns), axis=1)
        cand[np.arange(members.size)[:, None, None],
             np.arange(len(patterns))[None, :, None], where] += patterns[None]
        idx = _rank(cand, resolution, offsets)
        dist = _l1(grid[idx], rows[members][:, None, :])
        out[members] = np.where(dist == dist.min(axis=1, keepdims=True), idx,
                                grid.shape[0]).min(axis=1)
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

    ``tables[t]`` is stage t's :class:`StageTable`, one point per grid
    row, as :func:`~spbe.stage.solve_stage` returns it. ``lookup`` reads
    its value stacks, and ``_stages()`` gives every table with the grid;
    ``solution_at`` builds a point's :class:`StageSolution` on its first
    query and keeps it.
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
        self.tables: dict[int, StageTable] = {}
        # (stage, grid row) -> the solution built on its first query
        self._solutions: dict[tuple[int, int], StageSolution] = {}
        self.snap_stats = {"queries": 0, "max_snap_l1": 0.0}
        # a queried belief's weight bytes -> its grid row, for every stage
        self._snapped: dict[bytes, int] = {}
        self._built = False

    def build(self) -> None:
        if self._built:
            return
        beliefs = [Belief(row, self.spec.type_counts) for row in self.grid]
        for t in range(self.spec.horizon, 0, -1):
            self.tables[t] = solve_stage(self.spec, t, beliefs,
                                         self.lookup(t + 1), self.config)
        self._built = True

    def _snap(self, weights: np.ndarray) -> np.ndarray:
        """:func:`nearest_grid_index` of ``weights`` on the grid; records
        the largest L1 distance snapped."""
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
        values = self.tables[t_next].values

        def lookup(weights: np.ndarray) -> list[np.ndarray]:
            idx = self._snap(weights)
            return [v[idx] for v in values]
        return lookup

    def solution_at(self, t: int, pi: Belief) -> StageSolution:
        if not 1 <= t <= self.spec.horizon:
            raise ValueError(f"stage {t} outside horizon 1..{self.spec.horizon}")
        self.build()
        key = pi.weights.tobytes()
        idx = self._snapped.get(key)
        if idx is None:
            idx = self._snapped[key] = self._snap(pi.weights)
        self.snap_stats["queries"] += 1
        solution = self._solutions.get((t, idx))
        if solution is None:
            solution = self._solutions[t, idx] = self.tables[t][idx]
        if not solution.converged:
            raise NoFixedPointError(t, belief_key(self.grid[idx]), solution.status)
        return solution

    def _stages(self):
        keys = [belief_key(row) for row in self.grid]
        for t in sorted(self.tables):
            yield t, keys, self.grid, self.tables[t]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

@dataclass
class SolveResult:
    """Outcome of a full solve: generator plus bookkeeping for reports."""

    spec: GameSpec
    mode: str
    config: SolverConfig
    generator: Generator | None
    status: str
    root: StageSolution | None = None
    # the solve's one failure record: the error that stopped it
    error: NoFixedPointError | ResourceLimitError | None = None
    resolution: int | None = None
    timing_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def failure(self) -> dict | None:
        """The report's ``failure`` document, read off ``error``; a partial
        grid adds how many points failed."""
        err = self.error
        if err is None:
            return None
        if isinstance(err, ResourceLimitError):
            return {"kind": "resource_limit", "limit": err.limit,
                    "message": str(err)}
        doc = {"kind": "no_fixed_point", "stage": err.t, "belief": list(err.key),
               "solver_status": err.status}
        if self.status == "partial":
            doc["failed_points"] = len(self.generator.failed_points)
        return doc


def solve(
    spec: GameSpec,
    mode: str = "exact",
    config: SolverConfig | None = None,
    resolution: int = 10,
    cache_budget: int = DEFAULT_CACHE_BUDGET,
) -> SolveResult:
    """Solve a game end to end in the requested mode.

    Both modes build the generator, grid mode also its full per-stage
    tables, then solve the initial belief at stage 1; in exact mode that
    recursively solves every stage point its evaluation touches. A grid
    whose tables hold failed points is ``partial`` and has no root.
    Solver failures and resource refusals are reported in the result, not
    raised; a refused grid solve has no generator.
    """
    if mode not in ("exact", "grid"):
        raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'grid'")
    config = config or SolverConfig()
    started = time.perf_counter()
    result = SolveResult(spec, mode, config, None, "ok",
                         resolution=resolution if mode == "grid" else None)
    failed = []
    try:
        if mode == "exact":
            result.generator = ExactGenerator(spec, config, cache_budget)
        else:
            result.generator = GridGenerator(spec, config, resolution,
                                             cache_budget)
            result.generator.build()
        failed = result.generator.failed_points
        if failed:
            raise NoFixedPointError(*failed[0])
        result.root = result.generator.solution_at(1, initial_belief(spec))
    except NoFixedPointError as err:
        result.status, result.error = "partial" if failed else "failed", err
    except ResourceLimitError as err:
        result.status, result.error = "refused", err
    result.timing_seconds = time.perf_counter() - started
    return result


def _rows_to_lists(prescription: Prescription) -> list[list[list[float]]]:
    return [player.tolist() for player in prescription.rows]


def _solution_entry(t: int, pi: Belief, solution: StageSolution) -> dict:
    return {
        "t": t,
        "belief": list(pi.key),
        "rows": _rows_to_lists(solution.prescription),
        "values": [arr.tolist() for arr in solution.values],
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
            "values": [arr.tolist() for arr in result.root.values],
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


def _bad_key(keys: np.ndarray) -> tuple[int, str] | None:
    """:func:`_bad_row` of a stack of policy belief keys, the snap's rule
    with the key's rounding allowed for. A key is a belief rounded to
    ``KEY_DIGITS``: a belief's weights are finite and non-negative, and
    they sum to 1 within ``SNAP_SUM_TOL`` (the prior within the game's
    tighter ``PRIOR_TOL``, a posterior within float rounding). Rounding
    keeps a weight finite and non-negative and moves it by at most half a
    unit of the last digit, so the key's X weights sum to 1 within
    ``SNAP_SUM_TOL`` plus X such half units, and every sound key passes."""
    return _bad_row(keys, SNAP_SUM_TOL
                    + keys.shape[1] * 0.5 * 10.0 ** -KEY_DIGITS)


_ENTRY_FAULTS = (KeyError, TypeError, ValueError, OverflowError)


def _check_entries(raw: list, spec: GameSpec) -> tuple:
    """Policy entries checked against the game: their stages, belief keys
    stacked (E, X), rows and values as :func:`_stack` gives them,
    residuals, and (method, restart index) pairs.

    The checks run in this order, each over all the entries (one loop
    checks each entry's stage and belief length): the fields ``t`` and
    ``belief``; rows and values as arrays; an integer stage; stage range;
    belief length; a belief (:func:`_bad_key`); shapes; finite values;
    status; the row rule of :class:`Prescription`; the residual; no earlier
    entry at its stage with a belief of the same key. The first failing
    check raises one of ``_ENTRY_FAULTS``, a ``KeyError`` for a missing
    field; on a lone entry, that is its first fault.
    """
    size = spec.num_joint_types
    need = (list(zip(spec.type_counts, spec.action_counts)),
            [(c,) for c in spec.type_counts])
    stages = [int(e["t"]) for e in raw]
    beliefs = [tuple(map(float, e["belief"])) for e in raw]
    row_stacks = _stack([e["rows"] for e in raw], need[0])
    value_stacks = _stack([e["values"] for e in raw], need[1])
    for t, e, key in zip(stages, raw, beliefs):
        if t != e["t"] or type(e["t"]) is bool:
            raise ValueError(f"stage {e['t']!r} is not an integer")
        if not 1 <= t <= spec.horizon:
            raise ValueError(f"stage {t} outside 1..{spec.horizon}")
        if len(key) != size:
            raise ValueError(f"belief has {len(key)} weights for {size} joint "
                             "types")
    keys = np.array(beliefs).reshape(-1, size)
    fault = _bad_key(keys)
    if fault:
        raise ValueError(f"belief {list(beliefs[fault[0]])} {fault[1]}")
    shapes = ([s.shape[1:] for s in row_stacks],
              [s.shape[1:] for s in value_stacks])
    if shapes != need:
        raise ValueError(f"rows and values have shapes {shapes}, the game "
                         f"needs {need}")
    if not all(np.isfinite(v).all() for v in value_stacks):
        raise ValueError("values are not all finite")
    for e in raw:
        if e["status"] != "converged":
            raise ValueError(f"status {e['status']!r} is not a solved point")
    row_stacks = checked_stacks(row_stacks)
    residuals = [float(e["residual"]) for e in raw]
    seen: dict[tuple[int, bytes], int] = {}
    for k, point in enumerate(zip(stages, _key_bytes(keys))):
        if seen.setdefault(point, k) != k:
            raise ValueError(f"stage {point[0]} and belief {list(beliefs[k])} "
                             f"repeat policy entry {seen[point]}")
    return (stages, keys, row_stacks, value_stacks, residuals,
            [(e.get("method"), e.get("restart_index")) for e in raw])


def _stack(parts: list, shapes: list[tuple]) -> list[np.ndarray]:
    """Every entry's part (its rows, or its values) as one read-only float
    stack per player, of shape (entries, ...). A part must iterate and
    have a ``len()`` before anything iterates it: an iterator would be used
    up by the first pass. A lone part is converted player by player, so
    that NumPy words its faults as it does for that one array."""
    if len(parts) == 1:
        iter(parts[0]), len(parts[0])   # raise here, not part-way through
        out = [np.array(player, dtype=float)[None] for player in parts[0]]
    elif len(set(map(len, parts))) > 1:
        raise ValueError("entries give unlike numbers of players")
    elif parts:
        out = [np.array(player, dtype=float) for player in zip(*parts)]
    else:
        out = [np.empty((0, *shape)) for shape in shapes]
    for stack in out:
        stack.setflags(write=False)
    return out


def _read_entries(raw: list, spec: GameSpec) -> tuple:
    """:func:`_check_entries` of a document's entries; if they fail,
    ``ValueError`` naming the lowest bad entry k and its first failing
    check. A sound document takes the one pass. Every check concerns one
    entry, or one entry and those before it, so a prefix of the entries
    fails exactly when it holds a bad entry: bisection on prefixes finds
    the lowest, and the checker run on it alone gives its first failing
    check. An entry that passes alone repeats an earlier one, as the
    shortest failing prefix says."""
    try:
        return _check_entries(raw, spec)
    except _ENTRY_FAULTS as err:
        fault = err
    good, bad = 0, len(raw)     # raw[:good] passes, raw[:bad] fails
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _check_entries(raw[:mid], spec)
            good = mid
        except _ENTRY_FAULTS as err:
            bad, fault = mid, err
    k = bad - 1
    try:
        _check_entries(raw[k:bad], spec)
    except _ENTRY_FAULTS as err:
        fault = err
    sep = " has no field " if isinstance(fault, KeyError) else ": "
    raise ValueError(f"policy entry {k}{sep}{fault}") from fault


def load_policy(doc: dict, spec: GameSpec, config: SolverConfig | None = None,
                cache_budget: int = DEFAULT_CACHE_BUDGET
                ) -> ExactGenerator | GridGenerator:
    """Rebuild a generator from a policy document for this game.

    The header must name the game, hold a list of entries, and give the
    mode ``"exact"`` with no ``resolution``, or ``"grid"`` with an integer
    ``resolution`` of at least 1; any other header raises ``ValueError``.
    A grid-mode document gives a built :class:`GridGenerator` that snaps
    queries to its grid, as the generator that wrote it did. An exact-mode
    one gives an :class:`ExactGenerator` whose store holds the entries and
    solves, with ``config``, the beliefs they lack. Entries count against
    ``cache_budget``, and become its records with no per-entry arrays,
    each stored under its belief's :func:`~spbe.beliefs.belief_key`, so
    two entries at one stage whose beliefs round to one key repeat. The
    entries are checked against the game by :func:`_read_entries`, in one
    pass over a sound document. An entry that lacks a field, does not fit
    the game, has a belief that is no belief, was not solved or repeats an
    earlier entry's stage and belief fails the load: bisection on prefixes
    finds the lowest such entry k, which raises ``ValueError`` naming its
    index and its first failing check.
    """
    if type(doc) is not dict or doc.get("format") != POLICY_FORMAT:
        raise ValueError("not a policy document")
    if doc.get("game") != spec.digest():
        raise ValueError("policy document was produced for a different game")
    if type(doc.get("entries")) is not list:
        raise ValueError("policy document has no list of entries")
    mode, resolution = doc.get("mode"), doc.get("resolution")
    if mode not in ("exact", "grid"):
        raise ValueError(f"policy document mode {mode!r} is not 'exact' or "
                         "'grid'")
    if mode == "grid" and not (type(resolution) is int and resolution >= 1):
        raise ValueError(f"grid-mode policy document resolution {resolution!r} "
                         "is not an integer >= 1")
    if mode == "exact" and "resolution" in doc:
        raise ValueError(f"exact-mode policy document has a resolution "
                         f"({resolution!r}); only grid-mode documents have one")
    entries = _read_entries(doc["entries"], spec)
    if mode == "grid":
        return _grid_from_entries(spec, resolution, entries, config,
                                  cache_budget)
    generator = ExactGenerator(spec, config, cache_budget)
    stages, keys = entries[:2]
    generator._write(stages, _key_bytes(keys), keys, _entry_table(entries))
    generator.completions = 0
    return generator


def _entry_table(entries: tuple) -> StageTable:
    """The checked entries of a document (:func:`_read_entries`) as one
    table of converged points, in order."""
    _stages, _keys, rows, values, residuals, methods = entries
    return StageTable(rows, values, np.array(residuals, dtype=float),
                      [("converged", *method, None, ()) for method in methods])


def _grid_from_entries(spec: GameSpec, resolution: int, entries: tuple,
                       config: SolverConfig | None,
                       cache_budget: int) -> GridGenerator:
    """A built grid generator holding a document's checked entries
    (:func:`_read_entries`); an entry belongs to the grid point its belief
    rounds to, as an exact entry does, and grid points the document lacks
    (they failed to solve) keep a failed placeholder: uniform rows, zero
    values, an infinite residual and the status ``not_in_policy``. Points
    with equal metadata share one tuple, as in a solved grid's tables."""
    generator = GridGenerator(spec, config, resolution, cache_budget)
    index = {key: idx for idx, key in enumerate(_key_bytes(generator.grid))}
    stages, keys = entries[:2]
    points = [index.get(key) for key in _key_bytes(keys)]
    for t, key, idx in zip(stages, keys, points):
        if idx is None:
            raise ValueError(f"policy entry at stage {t}, belief {key.tolist()} "
                             f"is not a point of the resolution-{resolution} grid")
    points = np.array(points, dtype=np.intp)
    stages = np.array(stages, dtype=np.intp)
    entries, shared = _entry_table(entries), _Metas()
    size = len(index)
    for t in range(1, spec.horizon + 1):
        rows = [np.full((size, nt, na), 1.0 / na)
                for nt, na in zip(spec.type_counts, spec.action_counts)]
        values = [np.zeros((size, nt)) for nt in spec.type_counts]
        residuals = np.full(size, np.inf)
        metas = [("not_in_policy", None, None, None, ())] * size
        at = np.flatnonzero(stages == t)
        for stack, got in zip([*rows, *values, residuals],
                              [*entries.rows, *entries.values, entries.residuals]):
            stack[points[at]] = got[at]
        for k in at.tolist():
            metas[points[k]] = shared[shared.id_of(entries.metas[k])]
        generator.tables[t] = StageTable(rows, values, residuals, metas)
    generator._built = True
    return generator


def save_policy(result: SolveResult, path) -> None:
    """Write :func:`render_report` of the policy document and a newline,
    streamed: the text is never held whole."""
    with open(path, "w") as out:
        json.dump(policy_document(result), out, indent=2, sort_keys=True)
        out.write("\n")


def load_policy_file(path, spec: GameSpec, config: SolverConfig | None = None,
                     cache_budget: int = DEFAULT_CACHE_BUDGET
                     ) -> ExactGenerator | GridGenerator:
    """:func:`load_policy` of the document in a file."""
    return load_policy(json.loads(Path(path).read_text()), spec, config,
                       cache_budget)


def HybridGenerator(table: ExactGenerator, fallback: ExactGenerator) -> ExactGenerator:
    """The loaded ``table``, given ``fallback``'s solver config and cache
    budget for the points it lacks.

    Kept only because ``perfbench/run.py`` builds the generator it
    certifies a policy file with through this name; new code passes the
    config and budget to :func:`load_policy_file`.
    """
    table.config = fallback.config
    table.cache_budget = fallback.cache_budget
    return table
