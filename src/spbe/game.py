"""Static description of a finite repeated game with privately known types.

A game is a player count, a horizon, per-player type and action alphabets,
a (possibly correlated) prior over the joint type vector, per-stage reward
tensors, and an optional discount factor. Types are drawn once by nature
before play and never change; actions are public.

Joint types and joint actions are flattened row-major with player 0
outermost. Every module in this package relies on that single convention:

    flat = ((idx[0] * dims[1] + idx[1]) * dims[2] + idx[2]) ...

Reward tensors are stored per stage as one (x, a) matrix per player, where
x and a are flat joint indices. The on-disk format is a JSON document; see
``parse_game_spec``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

PRIOR_TOL = 1e-9
ROW_TOL = 1e-9


class GameSpecError(ValueError):
    """Raised when a game document is malformed or breaks an invariant."""


# ---------------------------------------------------------------------------
# Joint index plumbing
# ---------------------------------------------------------------------------

def flatten_joint(indices: Sequence[int], dims: Sequence[int]) -> int:
    """Flatten per-player indices into one row-major joint index."""
    if len(indices) != len(dims):
        raise ValueError(f"expected {len(dims)} indices, got {len(indices)}")
    flat = 0
    for idx, dim in zip(indices, dims):
        if not 0 <= idx < dim:
            raise ValueError(f"index {idx} out of range for dimension {dim}")
        flat = flat * dim + idx
    return flat


def unflatten_joint(flat: int, dims: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`flatten_joint`."""
    out = []
    for dim in reversed(dims):
        out.append(flat % dim)
        flat //= dim
    if flat:
        raise ValueError("flat index out of range")
    return tuple(reversed(out))


@functools.lru_cache(maxsize=None)
def component_maps(dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Per-player component of every flat joint index.

    ``component_maps(dims)[i][flat]`` is player i's coordinate of ``flat``.
    """
    total = int(np.prod(dims))
    grid = np.array([unflatten_joint(k, dims) for k in range(total)], dtype=np.int64)
    if total == 0:
        raise ValueError("empty joint space")
    maps = tuple(np.ascontiguousarray(grid[:, i]) for i in range(len(dims)))
    for m in maps:
        m.setflags(write=False)
    return maps


@functools.lru_cache(maxsize=None)
def embedding_map(dims: tuple[int, ...], i: int, xi: int) -> np.ndarray:
    """Flat joint indices obtained by fixing player i's coordinate to xi.

    Entry ``k`` is the full flat index whose others-component has flat index
    ``k`` in the row-major order over players != i.
    """
    other_dims = dims[:i] + dims[i + 1:]
    size = int(np.prod(other_dims)) if other_dims else 1
    out = np.empty(size, dtype=np.int64)
    for k in range(size):
        other = unflatten_joint(k, other_dims) if other_dims else ()
        full = other[:i] + (xi,) + other[i:]
        out[k] = flatten_joint(full, dims)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# The spec object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GameSpec:
    """Immutable instance description.

    ``rewards`` holds one (num_players, |X|, |A|) tensor per stage; a
    stationary game stores a single tensor reused for every stage. All
    arrays are read-only after construction, so a spec can be shared
    freely across threads.
    """

    num_players: int
    horizon: int
    type_labels: tuple[tuple[str, ...], ...]
    action_labels: tuple[tuple[str, ...], ...]
    prior: np.ndarray
    rewards: tuple[np.ndarray, ...]
    stationary: bool
    discount: float = 1.0

    def __post_init__(self) -> None:
        prior = np.asarray(self.prior, dtype=np.float64).copy()
        prior.setflags(write=False)
        object.__setattr__(self, "prior", prior)
        tensors = []
        for block in self.rewards:
            arr = np.asarray(block, dtype=np.float64).copy()
            arr.setflags(write=False)
            tensors.append(arr)
        object.__setattr__(self, "rewards", tuple(tensors))
        problems = validate(self)
        if problems:
            raise GameSpecError("; ".join(problems))

    # -- shape helpers ------------------------------------------------

    @functools.cached_property
    def type_counts(self) -> tuple[int, ...]:
        return tuple(len(labels) for labels in self.type_labels)

    @functools.cached_property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(len(labels) for labels in self.action_labels)

    @functools.cached_property
    def num_joint_types(self) -> int:
        return int(np.prod(self.type_counts))

    @functools.cached_property
    def num_joint_actions(self) -> int:
        return int(np.prod(self.action_counts))

    def flatten_types(self, indices: Sequence[int]) -> int:
        return flatten_joint(indices, self.type_counts)

    def unflatten_types(self, flat: int) -> tuple[int, ...]:
        return unflatten_joint(flat, self.type_counts)

    def flatten_actions(self, indices: Sequence[int]) -> int:
        return flatten_joint(indices, self.action_counts)

    def unflatten_actions(self, flat: int) -> tuple[int, ...]:
        return unflatten_joint(flat, self.action_counts)

    # -- rewards ------------------------------------------------------

    def reward_tensor(self, t: int) -> np.ndarray:
        """Reward tensor for stage t (1-based), shape (N, |X|, |A|)."""
        if not 1 <= t <= self.horizon:
            raise ValueError(f"stage {t} outside 1..{self.horizon}")
        return self.rewards[0] if self.stationary else self.rewards[t - 1]

    def reward(self, t: int, i: int, x, a) -> float:
        """Stage-t reward of player i at joint type x and joint action a.

        x and a may be flat ints or per-player index sequences.
        """
        xf = x if isinstance(x, (int, np.integer)) else self.flatten_types(x)
        af = a if isinstance(a, (int, np.integer)) else self.flatten_actions(a)
        return float(self.reward_tensor(t)[i, xf, af])

    def digest(self) -> str:
        """Stable content hash of the instance, used in reports."""
        return hashlib.sha256(
            serialize_game_spec(self).encode("utf-8")
        ).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(spec: GameSpec) -> list[str]:
    """Return a list of human-readable problems; empty means well-formed."""
    problems: list[str] = []
    if spec.num_players < 1:
        problems.append("players must be >= 1")
    if spec.horizon < 1:
        problems.append("horizon must be >= 1")
    if len(spec.type_labels) != spec.num_players:
        problems.append("types must list one alphabet per player")
    if len(spec.action_labels) != spec.num_players:
        problems.append("actions must list one alphabet per player")
    for i, labels in enumerate(spec.type_labels):
        if len(labels) < 1:
            problems.append(f"types[{i}] is empty")
    for i, labels in enumerate(spec.action_labels):
        if len(labels) < 1:
            problems.append(f"actions[{i}] is empty")
    if problems:
        return problems

    nx = spec.num_joint_types
    na = spec.num_joint_actions
    if spec.prior.shape != (nx,):
        problems.append(f"prior must have {nx} entries, got {spec.prior.shape}")
    else:
        if np.any(~np.isfinite(spec.prior)):
            problems.append("prior has non-finite entries")
        else:
            for k, w in enumerate(spec.prior):
                if w < 0:
                    problems.append(f"prior[{k}] is negative")
                    break
            if abs(float(spec.prior.sum()) - 1.0) > PRIOR_TOL:
                problems.append("prior not normalized")

    expected_blocks = 1 if spec.stationary else spec.horizon
    if len(spec.rewards) != expected_blocks:
        problems.append(
            f"rewards must have {expected_blocks} stage blocks, got {len(spec.rewards)}"
        )
    else:
        for b, tensor in enumerate(spec.rewards):
            stage = "all stages" if spec.stationary else f"stage {b + 1}"
            if tensor.shape != (spec.num_players, nx, na):
                problems.append(
                    f"reward block for {stage} must have shape "
                    f"({spec.num_players}, {nx}, {na}), got {tensor.shape}"
                )
                continue
            if np.any(~np.isfinite(tensor)):
                bad = np.argwhere(~np.isfinite(tensor))[0]
                problems.append(
                    f"reward for {stage}, player {int(bad[0])} has a non-finite entry"
                )

    if not (np.isfinite(spec.discount) and 0.0 < spec.discount <= 1.0):
        problems.append("discount must lie in (0, 1]")
    return problems


# ---------------------------------------------------------------------------
# Document parsing and serialization
# ---------------------------------------------------------------------------

def _reward_blocks_from_doc(doc: Any, players: int, nx: int, na: int):
    """Normalize the two accepted reward layouts to (blocks, stationary)."""
    rewards = doc.get("rewards")
    if rewards is None:
        raise GameSpecError("missing field: rewards")

    def shape_block(block, where: str) -> np.ndarray:
        if not isinstance(block, list) or len(block) != players:
            raise GameSpecError(
                f"rewards {where}: expected a list of {players} player tensors"
            )
        out = np.empty((players, nx, na), dtype=np.float64)
        for i, flat in enumerate(block):
            if not isinstance(flat, list) or len(flat) != nx * na:
                raise GameSpecError(
                    f"rewards {where}, player {i}: expected {nx * na} entries "
                    f"(flat row-major over joint type then joint action)"
                )
            out[i] = np.asarray(flat, dtype=np.float64).reshape(nx, na)
        return out

    if isinstance(rewards, dict):
        if not rewards.get("stationary"):
            raise GameSpecError(
                "rewards object form requires stationary: true; "
                "use a list of stage blocks otherwise"
            )
        if "block" not in rewards:
            raise GameSpecError("stationary rewards require a 'block' entry")
        return (shape_block(rewards["block"], "stationary block"),), True
    if isinstance(rewards, list):
        horizon = doc.get("horizon")
        if len(rewards) != horizon:
            raise GameSpecError(
                f"rewards: expected {horizon} stage blocks, got {len(rewards)}"
            )
        return tuple(
            shape_block(block, f"stage {t + 1}") for t, block in enumerate(rewards)
        ), False
    raise GameSpecError("rewards must be an object or a list of stage blocks")


def game_spec_from_document(doc: Any) -> GameSpec:
    """Build a validated GameSpec from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise GameSpecError("top-level document must be an object")
    for fieldname in ("players", "horizon", "types", "actions", "prior"):
        if fieldname not in doc:
            raise GameSpecError(f"missing field: {fieldname}")
    players = doc["players"]
    horizon = doc["horizon"]
    if not isinstance(players, int) or isinstance(players, bool):
        raise GameSpecError("players must be an integer")
    if not isinstance(horizon, int) or isinstance(horizon, bool):
        raise GameSpecError("horizon must be an integer")

    def alphabets(key: str) -> tuple[tuple[str, ...], ...]:
        value = doc[key]
        if not isinstance(value, list) or len(value) != players:
            raise GameSpecError(f"{key} must list one alphabet per player")
        out = []
        for i, labels in enumerate(value):
            if not isinstance(labels, list) or not labels:
                raise GameSpecError(f"{key}[{i}] must be a nonempty list of labels")
            out.append(tuple(str(s) for s in labels))
        return tuple(out)

    type_labels = alphabets("types")
    action_labels = alphabets("actions")
    nx = int(np.prod([len(v) for v in type_labels]))
    na = int(np.prod([len(v) for v in action_labels]))

    prior = doc["prior"]
    if not isinstance(prior, list):
        raise GameSpecError("prior must be a flat list (row-major over joint types)")
    blocks, stationary = _reward_blocks_from_doc(doc, players, nx, na)

    discount = doc.get("discount", 1.0)
    if not isinstance(discount, (int, float)) or isinstance(discount, bool):
        raise GameSpecError("discount must be a number")

    try:
        return GameSpec(
            num_players=players,
            horizon=horizon,
            type_labels=type_labels,
            action_labels=action_labels,
            prior=np.asarray(prior, dtype=np.float64),
            rewards=blocks,
            stationary=stationary,
            discount=float(discount),
        )
    except GameSpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise GameSpecError(str(exc)) from exc


def parse_game_spec(text: str) -> GameSpec:
    """Parse and validate a JSON game document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameSpecError(f"not valid JSON: {exc}") from exc
    return game_spec_from_document(doc)


def game_spec_to_document(spec: GameSpec) -> dict:
    doc: dict[str, Any] = {
        "players": spec.num_players,
        "horizon": spec.horizon,
        "types": [list(labels) for labels in spec.type_labels],
        "actions": [list(labels) for labels in spec.action_labels],
        "prior": [float(w) for w in spec.prior],
    }
    def flat_block(tensor: np.ndarray) -> list[list[float]]:
        return [[float(v) for v in tensor[i].ravel()] for i in range(spec.num_players)]
    if spec.stationary:
        doc["rewards"] = {"stationary": True, "block": flat_block(spec.rewards[0])}
    else:
        doc["rewards"] = [flat_block(block) for block in spec.rewards]
    doc["discount"] = float(spec.discount)
    return doc


def serialize_game_spec(spec: GameSpec) -> str:
    """JSON text whose parse reproduces every tensor bit-exactly."""
    return json.dumps(game_spec_to_document(spec), indent=2, sort_keys=True)


def load_game_spec(path) -> GameSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_game_spec(fh.read())


def save_game_spec(spec: GameSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_game_spec(spec))
        fh.write("\n")
