"""Common beliefs over joint types and their public Bayes updates.

The common belief is a distribution over the joint type vector held by an
outside observer of the public action history. After a joint action is
observed, each type's weight is multiplied by the probability every
player's prescription row assigned to that player's own action component,
then renormalized. Because the update divides by the total probability of
the observed action, the prescription probabilities of actions *not*
taken never enter, which is what makes the update independent of how the
prescriptions were produced.

Two fallbacks keep the operations total:

* an observed action whose total probability under the current belief is
  at most ``EPS_DENOMINATOR`` leaves the belief unchanged (this is also
  the off-path rule used throughout the package);
* conditioning on a type whose marginal is at most ``EPS_DENOMINATOR``
  returns the uniform conditional, flagged as degenerate.

All operations are pure: inputs are never mutated, and arrays inside
returned objects are read-only.

A belief's cache key, :func:`belief_key`, rounds its weights; a
:class:`Belief` rounds them once and keeps the key.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .game import GameSpec, component_maps, embedding_map

EPS_DENOMINATOR = 1e-12
KEY_DIGITS = 9

BeliefKey = tuple


def belief_key(weights) -> BeliefKey:
    """Quantize belief weights to a hashable cache key.

    Rounds to 9 digits and normalizes negative zero so that beliefs equal
    to solver precision share a key.
    """
    q = np.round(np.asarray(weights, dtype=float), KEY_DIGITS)
    q[q == 0.0] = 0.0
    return tuple(q.tolist())


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    if out.flags.writeable:
        out = out.copy()
        out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Belief:
    """Distribution over flat joint types, tagged with the type shape."""

    weights: np.ndarray
    type_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        w = _frozen(self.weights)
        size = math.prod(self.type_counts)
        if w.ndim != 1 or w.shape[0] != size:
            raise ValueError(f"belief needs {size} weights, got {w.shape}")
        object.__setattr__(self, "weights", w)

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0.0)

    @functools.cached_property
    def key(self) -> BeliefKey:
        """:func:`belief_key` of the weights, computed on first use."""
        return belief_key(self.weights)

    def type_marginal(self, i: int) -> np.ndarray:
        """Marginal distribution of player i's type."""
        counts = self.type_counts
        out = np.zeros(counts[i])
        for xi in range(counts[i]):
            out[xi] = float(self.weights[embedding_map(counts, i, xi)].sum())
        return out


def checked_stacks(stacks: Iterable) -> list[np.ndarray]:
    """Freezes per-player stacks of shape (B, n_x, n_a) and checks them in
    player order by the row rule of :meth:`Prescription.batch`: the first
    stack that is not 3-d or holds a bad row raises."""
    frozen: list[np.ndarray] = []
    for i, stack in enumerate(stacks):
        arr = _frozen(stack)
        if arr.ndim != 3:
            raise ValueError(f"prescription rows[{i}] must be 2-d")
        if not ((arr >= -1e-12).all() and (np.abs(arr.sum(axis=2) - 1.0) <= 1e-9).all()):
            raise ValueError(f"prescription rows[{i}] is not row-stochastic")
        frozen.append(arr)
    return frozen


@dataclass(frozen=True, slots=True)
class Prescription:
    """One row-stochastic matrix per player: rows[i][xi] is a distribution
    over player i's actions prescribed to its type xi.

    The rows are read-only float arrays. Constructing one checks them
    with the rule of :meth:`batch`, as a batch of one point."""

    rows: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        stacks = checked_stacks(_frozen(row)[None] for row in self.rows)
        object.__setattr__(self, "rows", tuple(s[0] for s in stacks))

    @classmethod
    def batch(cls, stacks: Sequence[np.ndarray]) -> list["Prescription"]:
        """The B prescriptions of per-player stacks of shape (B, n_x, n_a).

        Checks every row of every stack at once, by the rule
        ``Prescription(...)`` applies to one point: entries >= -1e-12 and
        sums within 1e-9 of 1, so NaN and infinite entries fail. A failure
        raises ``ValueError`` naming the lowest player with a bad row at
        any point. The stacks are frozen (copied only where writeable), and
        each prescription holds read-only views of them, built without
        checking again.
        """
        out = []
        for rows in zip(*checked_stacks(stacks)):
            gamma = object.__new__(cls)
            object.__setattr__(gamma, "rows", rows)
            out.append(gamma)
        return out

    @property
    def type_counts(self) -> tuple[int, ...]:
        return tuple(r.shape[0] for r in self.rows)

    @property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(r.shape[1] for r in self.rows)

    @staticmethod
    def uniform(type_counts: Sequence[int], action_counts: Sequence[int]) -> "Prescription":
        return Prescription(tuple(
            np.full((nx, na), 1.0 / na)
            for nx, na in zip(type_counts, action_counts)
        ))


@dataclass(frozen=True)
class ConditionalBelief:
    """A player's belief over the others' joint types given its own type.

    ``degenerate`` marks the uniform fallback used when the conditioning
    type has (numerically) zero marginal.
    """

    weights: np.ndarray
    degenerate: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _frozen(self.weights))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def initial_belief(spec: GameSpec) -> Belief:
    """The prior as the stage-1 common belief."""
    return Belief(spec.prior, spec.type_counts)


def posterior_weights(weights: np.ndarray, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched public Bayes update: the rule of :func:`update` on arrays.

    ``weights`` (..., X) are prior beliefs and ``like`` (..., X) the
    likelihoods of one observed joint action each; the leading axes
    broadcast. Returns ``(post, moved)``: ``post`` is the posterior, equal
    to ``weights`` wherever ``moved`` is False, which is where the action
    is off path (total probability <= EPS_DENOMINATOR) or pooling (the
    likelihood is constant over the support).
    """
    weights = np.asarray(weights, dtype=np.float64)
    post = weights * like
    z = post.sum(axis=-1)
    sup = weights > 0.0
    pooled = (np.where(sup, like, -np.inf).max(axis=-1)
              == np.where(sup, like, np.inf).min(axis=-1))
    moved = (z > EPS_DENOMINATOR) & ~pooled
    post /= np.where(moved, z, 1.0)[..., None]
    return np.where(moved[..., None], post, weights), moved


def posteriors(pi: Belief, gamma: Prescription,
               actions: Sequence[Sequence[int]]) -> list[Belief]:
    """:func:`update` after each of ``actions``, as one batch.

    The likelihood of every action is stacked and updated by one
    :func:`posterior_weights` call, so each posterior is the bytes a
    single update would give. Where the belief does not move (off path
    or pooling) the result is ``pi`` itself. The actions are checked in
    order, each as :func:`update` checks one.
    """
    counts = pi.type_counts
    if gamma.type_counts != counts:
        raise ValueError(
            f"prescription type shape {gamma.type_counts} does not match "
            f"belief shape {counts}"
        )
    for a in actions:
        if len(a) != len(counts):
            raise ValueError(f"joint action {tuple(a)} has {len(a)} components "
                             f"for {len(counts)} players")
        for i, row in enumerate(gamma.rows):
            if not 0 <= a[i] < row.shape[1]:
                raise ValueError(f"action component {a[i]} out of range for player {i}")
    acts = np.array(actions, dtype=np.intp).reshape(len(actions), len(counts))
    maps = component_maps(counts)
    like = np.ones((len(actions), pi.weights.size))
    for i, row in enumerate(gamma.rows):
        like = like * row[maps[i][None, :], acts[:, i, None]]
    post, moved = posterior_weights(pi.weights, like)
    post.setflags(write=False)
    return [Belief(w, counts) if m else pi for w, m in zip(post, moved.tolist())]


def update(pi: Belief, gamma: Prescription, a: Sequence[int]) -> Belief:
    """Posterior after publicly observing joint action a.

    Multiplies each type's weight by the prescription probability of the
    observed action (the product over players of rows[i][x_i, a_i]) and
    renormalizes. If the observed action has total probability <=
    EPS_DENOMINATOR under pi, the belief is returned unchanged. A
    likelihood that is constant across the support (pooling) also
    returns pi unchanged, exactly, rather than renormalizing. This is
    :func:`posteriors` of one action.
    """
    return posteriors(pi, gamma, [a])[0]


def conditional_weights(weights: np.ndarray, type_counts: Sequence[int],
                        i: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule of :func:`condition_on_type` for every type of player i,
    over a stack of beliefs.

    ``weights`` (..., X) are beliefs over flat joint types. Returns
    ``(cond, degenerate)``: ``cond[..., xi, :]`` is the belief over the
    others' joint types given type xi, indexed as in
    :func:`condition_on_type`, and ``degenerate[..., xi]`` marks the uniform
    conditional returned where the marginal at xi is at most
    ``EPS_DENOMINATOR``.
    """
    counts = tuple(type_counts)
    idx = np.array([embedding_map(counts, i, xi) for xi in range(counts[i])])
    slices = np.asarray(weights, dtype=np.float64)[..., idx]
    mass = slices.sum(axis=-1)
    degenerate = mass <= EPS_DENOMINATOR
    cond = slices / np.where(degenerate, 1.0, mass)[..., None]
    cond[degenerate] = 1.0 / idx.shape[1]
    return cond, degenerate


def condition_on_type(pi: Belief, i: int, xi: int) -> ConditionalBelief:
    """Belief over the other players' joint types given player i's type.

    The result is indexed row-major over players != i in ascending player
    order. When player i's marginal at xi is numerically zero the uniform
    conditional is returned with ``degenerate=True``; downstream consumers
    must surface that flag rather than hide it. This is
    :func:`conditional_weights` at one belief.
    """
    counts = pi.type_counts
    if not 0 <= i < len(counts):
        raise ValueError(f"player {i} out of range")
    if not 0 <= xi < counts[i]:
        raise ValueError(f"type {xi} out of range for player {i}")
    cond, degenerate = conditional_weights(pi.weights, counts, i)
    return ConditionalBelief(cond[xi], degenerate=bool(degenerate[xi]))


def belief_entropy(pi: Belief) -> float:
    """Shannon entropy in nats, used in simulation summaries."""
    w = pi.weights[pi.weights > 0.0]
    return float(-(w * np.log(w)).sum())
