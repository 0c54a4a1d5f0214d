"""In-memory span tracer that wraps ``repro`` entry points from outside.

The benchmark never edits the program: :class:`Tracer` replaces chosen
functions and methods with timing wrappers, records one span per call
(name, start, end, parent span) in flat lists, and puts every original
back by identity in :meth:`Tracer.uninstall`.  Self time is a span's
duration minus the part of it that its direct child spans cover.

Spans are recorded in the process that installed the wrappers.  A
forked worker inherits the wrappers, but what it records stays in the
worker's copy of the lists, so the trace covers the parent process only.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = ["Target", "Tracer", "self_times"]

_MODULE_PREFIX = "repro"


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``owner`` is a class (``attr`` names a method defined on it) or a
    module (``attr`` names a function; every loaded ``repro`` module
    that binds the same function object is patched too, so callers
    that imported it by name are traced as well).  ``size`` optionally
    maps ``(args, kwargs, result)`` to a byte count kept per span.
    """

    span: str
    owner: Any
    attr: str
    size: Callable[[tuple, dict, Any], int] | None = None


class Tracer:
    """Records spans from installed wrappers; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        #: Span id -> bytes, for spans of targets with a ``size``.
        self.nbytes: dict[int, int] = {}
        self._stack: list[int] = [-1]
        #: (holder, attr, original) for every patched binding.
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _intern(self, name: str) -> int:
        code = self._name_ids.get(name)
        if code is None:
            code = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return code

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        code = self._intern(target.span)
        size = target.size
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter
        nbytes = self.nbytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(code)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
            if size is not None:
                nbytes[sid] = int(size(args, kwargs, result))
            return result

        return traced

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self, targets: list[Target]) -> None:
        for target in targets:
            owner, attr = target.owner, target.attr
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, target))
                else:
                    wrapped = self._wrap(raw, target)
                self._patch(owner, attr, raw, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, target)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "") or ""
                if not (name == _MODULE_PREFIX or name.startswith(_MODULE_PREFIX + ".")):
                    continue
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original, wrapped)

    def _patch(self, holder: Any, attr: str, original: Any, wrapped: Any) -> None:
        setattr(holder, attr, wrapped)
        self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        """Restore every patched binding and assert each is the original."""
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        for holder, attr, original in self._patched:
            if holder.__dict__[attr] is not original:
                raise RuntimeError(f"failed to restore {holder!r}.{attr}")
        self._patched.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def arrays(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        """Spans ``[lo, hi)`` as arrays; parents are re-based to ``lo``
        (-1 where the parent lies outside the range)."""
        hi = len(self.start) if hi is None else hi
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64) - lo
        parent[parent < 0] = -1
        return {
            "name_id": np.asarray(self.name_id[lo:hi], dtype=np.int32),
            "parent": parent,
            "start": np.asarray(self.start[lo:hi], dtype=np.float64),
            "end": np.asarray(self.end[lo:hi], dtype=np.float64),
        }

    def write(self, path) -> None:
        """Write every recorded span (and the name table) as ``.npz``."""
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered
