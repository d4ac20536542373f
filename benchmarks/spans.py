"""In-memory span recording for the traced benchmark run.

A span records a name, start and end (``time.perf_counter`` seconds), the
index of its parent span, a request id and optional attributes. Calls made
hundreds of thousands of times per request (event parsing, reduction,
matmul) are folded into one aggregate per (name, parent span) instead, so
the trace stays small; they have no children, so their self time is their
duration.

Wrappers are installed by patching the attribute where the caller looks the
function up (a module global or a class attribute), and are removed again
when the traced phase ends. Nothing inside the package is edited.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        # (name, parent index) -> [calls, total seconds, items]
        self.leaves: dict[tuple[str, int], list] = {}
        self.request = -1

    # -- recording -------------------------------------------------------

    def open(self, name: str, **attrs) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request, attrs])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = self.open(name, **attrs)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn, attrs=None):
        """Record a full span around every call of ``fn``."""

        def wrapper(*args, **kwargs):
            index = self.open(name, **(attrs(args) if attrs else {}))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def _leaf(self, name: str) -> list:
        key = (name, self.stack[-1] if self.stack else -1)
        acc = self.leaves.get(key)
        if acc is None:
            acc = self.leaves[key] = [0, 0.0, 0]
        return acc

    def wrap_leaf(self, name: str, fn):
        """Fold every call of ``fn`` into the aggregate under the open span."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            acc = self._leaf(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[1] += clock() - t0
                acc[0] += 1

        return wrapper

    def wrap_generator(self, name: str, fn, classify):
        """Time each ``next()`` of the generator ``fn`` returns, as a leaf.

        ``classify(item)`` is true for items counted in the aggregate's
        ``items`` field (the calls field counts every item).
        """
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            acc = self._leaf(name)
            while True:
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    acc[1] += clock() - t0
                    return
                acc[1] += clock() - t0
                acc[0] += 1
                if classify(item):
                    acc[2] += 1
                yield item

        return wrapper

    # -- analysis --------------------------------------------------------

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span[END] - span[START]

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            kids[span[PARENT]].append(index)
        return kids

    def leaves_under(self) -> dict[int, list[tuple[str, list]]]:
        out: dict[int, list[tuple[str, list]]] = defaultdict(list)
        for (name, parent), acc in self.leaves.items():
            out[parent].append((name, acc))
        return out

    def self_times(self, root: int, kids=None, leaves=None) -> dict[str, float]:
        """Self seconds by span name over the subtree under ``root``.

        Self time is a span's duration minus the time its child spans and
        leaf aggregates cover, so the values sum to the root's duration.
        """
        kids = self.children() if kids is None else kids
        leaves = self.leaves_under() if leaves is None else leaves
        totals: dict[str, float] = defaultdict(float)
        pending = [root]
        while pending:
            index = pending.pop()
            covered = 0.0
            for child in kids.get(index, ()):
                covered += self.duration(child)
                pending.append(child)
            for name, acc in leaves.get(index, ()):
                covered += acc[1]
                totals[name] += acc[1]
            totals[self.spans[index][NAME]] += self.duration(index) - covered
        return dict(totals)

    def write(self, path) -> None:
        """Write spans, then leaf aggregates, as JSON lines."""
        with open(path, "w", encoding="utf-8") as f:
            for index, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": index, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "request": s[REQUEST], "attrs": s[ATTRS],
                }) + "\n")
            for (name, parent), (calls, total, items) in self.leaves.items():
                f.write(json.dumps({
                    "leaf": name, "parent": parent, "calls": calls,
                    "seconds": total, "items": items,
                }) + "\n")


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace attributes: ``targets`` is [(owner, attr, new)]."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, new in targets:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
