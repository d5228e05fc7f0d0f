"""In-memory span tracer that wraps program functions where they are looked up.

A wrapped function records one span per call: its name, start, end, the
span that was open when it was called (its parent) and an optional tag.
Spans stay in memory; :class:`Tracer` turns them into per-name totals,
self times (a span's duration minus the part its child spans cover) and
call counts after the run.

Wrappers are installed on the attribute a caller reads at call time, for
example ``repro.core.agent.evaluate`` rather than
``repro.training.evaluate``, because ``agent`` imported the name into its
own namespace.  :meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass

__all__ = ["Span", "Tracer"]

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    tag: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped calls and the benchmark's own phases."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def _open(self, name: str, tag: str | None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, parent=parent, tag=tag))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, tag: str | None = None):
        """A span around the benchmark's own code; yields its index."""
        index = self._open(name, tag)
        try:
            yield index
        finally:
            self._close(index)

    def active(self, name: str) -> bool:
        """Whether a span called ``name`` is open right now."""
        return any(self.spans[index].name == name for index in self._stack)

    def wrap(self, owner, attr: str, name: str, *, tag=None,
             on_return=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a module or a class.  ``tag`` is a zero-argument
        callable evaluated at call time (e.g. train versus eval phase);
        ``on_return(result, args, kwargs)`` sees every call's result, for
        counts that live in arguments or return values.
        """
        original = getattr(owner, attr)
        saved = vars(owner).get(attr, _MISSING)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(name, tag() if tag is not None else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, saved))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # -- analysis ---------------------------------------------------------
    def _ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent is not None:
            yield parent
            parent = self.spans[parent].parent

    def within(self, root: int) -> list[int]:
        """Indices of every span recorded under the span at ``root``."""
        return [index for index in range(len(self.spans))
                if root in self._ancestors(index)]

    def totals(self, indices: list[int]) -> dict[str, dict]:
        """Per ``name`` and ``name.tag``: seconds, self seconds and calls.

        Seconds count only the outermost span of a name, so a name that
        nests inside itself is not counted twice.
        """
        children_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children_s[span.parent] += span.duration
        totals: dict[str, dict] = {}
        for index in indices:
            span = self.spans[index]
            nested = any(self.spans[a].name == span.name
                         for a in self._ancestors(index))
            keys = [span.name]
            if span.tag is not None:
                keys.append(f"{span.name}.{span.tag}")
            for key in keys:
                entry = totals.setdefault(key, {"s": 0.0, "self_s": 0.0,
                                                "calls": 0})
                entry["calls"] += 1
                entry["self_s"] += span.duration - children_s[index]
                if not nested:
                    entry["s"] += span.duration
        return totals

    def direct_children_s(self, root: int) -> float:
        """Seconds of ``root`` covered by its direct child spans."""
        return sum(span.duration for span in self.spans
                   if span.parent == root)
