"""Spans around the public calls of each surfplan layer, installed from outside.

The benchmark never edits the package.  ``Tracer.install`` replaces chosen
module attributes and class methods with timing wrappers, and
``Tracer.remove`` puts the originals back.  A module attribute is wrapped
where its caller looks it up (``surfplan.deploy.solve_mi_conic`` is the
name ``plan_deployment`` calls), so the same function may be listed under
several owners.

Every wrapped call becomes a :class:`Span` (name, start, end, parent, run
id).  The cone projection runs once per splitting iteration, far too often
for a span each, so it is counted as calls and busy time on the innermost
open span instead.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    """One wrapped call.  ``parent`` indexes the enclosing span, -1 for none."""

    name: str
    start: float
    end: float
    parent: int
    run: int
    calls: int = 0       # aggregated inner calls (cone projections)
    busy: float = 0.0    # their total time, part of this span's duration
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans for wrapped calls; one instance per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.run = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        span.attrs = attrs
        self._stack.pop()

    def call(self, name: str, fn, args, kwargs, describe=None):
        """Run ``fn`` inside a span; ``describe`` maps its result to attrs."""
        idx = self._open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._close(idx, {"raised": True})
            raise
        self._close(idx, describe(out) if describe else None)
        return out

    def wrapper(self, name: str, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, describe)
        return traced

    def aggregator(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if self._stack:
                    span = self.spans[self._stack[-1]]
                    span.calls += 1
                    span.busy += self.clock() - t0
        return counted

    # -- installing --------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every target: ``(owner, attr, span name or None, describe)``.

        A span name of ``None`` aggregates the calls onto the enclosing span.
        """
        for owner, attr, name, describe in targets:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.aggregator(fn) if name is None
                    else self.wrapper(name, fn, describe))

    def remove(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's and its aggregated calls'."""
    covered = [span.busy for span in spans]
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def within(spans: list[Span], root_name: str) -> list[bool]:
    """Which spans lie inside a span named ``root_name`` (roots included)."""
    inside = [False] * len(spans)
    for i, span in enumerate(spans):      # parents always precede children
        inside[i] = span.name == root_name or (span.parent >= 0 and inside[span.parent])
    return inside
