"""Spans around calls into spbe, recorded from outside the program.

A traced name is replaced where its caller looks it up (a module global
such as ``spbe.stage.update`` or a class attribute such as
``spbe.forward.EquilibriumPolicy.common_belief``) by a wrapper that
records one span per call: name, start, end and the enclosing span.
Spans stay in memory as flat arrays and are written out when the run
ends. A span's self time is its duration minus that of its direct
children, so nested calls (an exact-mode stage solve that triggers
stage-(t+1) solves) are not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, tag=None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``; ``tag(result)`` labels the span when given."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        open_, close, tags = self._open, self._close, self.tags

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if tag is not None:
                tags[idx] = tag(result)
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def arrays(self):
        """(name id, parent, duration, self time) per span, as numpy arrays."""
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        duration = (np.frombuffer(self.end, dtype=np.float64)
                    - np.frombuffer(self.start, dtype=np.float64))
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return name, parent, duration, duration - children

    def write(self, path) -> None:
        """All spans as gzipped tab-separated text, in start order."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tparent\tstart_s\tend_s\ttag\n")
            for idx in range(len(self.start)):
                out.write(f"{idx}\t{self.names[self.name[idx]]}\t{self.parent[idx]}\t"
                          f"{self.start[idx] - t0:.9f}\t{self.end[idx] - t0:.9f}\t"
                          f"{self.tags.get(idx, '')}\n")


class NoTracer:
    """Stand-in for untraced runs: harness spans cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()
