"""Machine-speed probe for steady timings on a shared machine.

On a small shared machine the speed available to one process drifts by
a quarter or more over tens of seconds, because of load outside it. CPU
time drifts with it, so neither wall nor CPU time of one step holds still
from run to run. The probe runs a fixed reference computation (small
NumPy operations, dict and JSON work, the checker's stage residual and a
recursive float walk: interpreter-bound code of the kind spbe runs) for about
two milliseconds every 0.1 s in a background thread, and a
step's time is rescaled by how slow that computation ran around it:

    scaled = wall * REFERENCE_S / median(reference times within MARGIN_S)

``REFERENCE_S`` is the reference computation's median time on the
machine the bounds were set on (2 shared Xeon cores), so scaled times read
as seconds on that machine at its usual speed. The bursts take about 2%
of the time of every step, on every commit alike.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
import types

import numpy as np

import checker

REFERENCE_S = 1.85e-3
INTERVAL_S = 0.1
MARGIN_S = 1.0

_DOC = {"a": [1.5, 2.5, [3, 4]], "b": {"c": "x" * 10, "d": [True, None]}}
# a two-player, two-type, two-action stage game as plain data
_STAGE = types.SimpleNamespace(
    num_players=2, horizon=2, discount=1.0, type_counts=(2, 2),
    action_counts=(2, 2), prior=np.array([0.35, 0.15, 0.15, 0.35]),
    reward_tensor=lambda t: np.arange(32.0).reshape(2, 4, 4) % 5 / 5)
_ROWS = (np.full((2, 2), 0.5), np.full((2, 2), 0.5))
_NEXT = (np.array([0.3, 0.4]), np.array([0.2, 0.1]))


def _tree(depth: int, acc: float) -> float:
    if depth == 0:
        return acc
    return sum(0.25 * (a + 1) * (acc + _tree(depth - 1, acc * 0.5 + a))
               for a in range(3))


def reference_work() -> float:
    """Interpreter-bound work of the solver's and the verifier's kind:
    serialization, sorting, dict building, small NumPy operations, a stage
    residual and a recursive walk in float arithmetic."""
    total = _tree(5, 1.0)
    for _ in range(12):
        total += len(json.loads(json.dumps(_DOC))["b"]["c"])
        total += sorted((i * 7919) % 101 for i in range(40))[5]
        total += int(np.searchsorted(np.cumsum(np.full(4, 0.25)), 0.6))
        total += len({i: (i, float(i)) for i in range(20)})
        total += int(np.round(np.linspace(0, 1, 5), 3).argmax())
    for _ in range(2):
        total += checker.stage_residual(_STAGE, 1, _STAGE.prior, _ROWS,
                                        lambda post: _NEXT)
    return total


def pin_to_current_cpu() -> None:
    """Keep this process, its probe thread and its children on the CPU it
    runs on now, so that the probe times the CPU the steps run on."""
    with open("/proc/self/stat") as stat:
        cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


class SpeedProbe:
    """Background samples of the reference computation's time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (midpoint, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(INTERVAL_S):
            started = clock()
            reference_work()
            ended = clock()
            self.samples.append(((started + ended) / 2, ended - started))

    def __enter__(self) -> "SpeedProbe":
        pin_to_current_cpu()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scaled(self, started: float, ended: float) -> float:
        """Wall time of [started, ended] rescaled to the reference speed."""
        near = [s for (mid, s) in list(self.samples)
                if started - MARGIN_S <= mid <= ended + MARGIN_S]
        if not near:
            raise RuntimeError("no speed samples around a timed step")
        return (ended - started) * REFERENCE_S / statistics.median(near)
