"""In-memory spans recorded from outside the program.

``instrument`` rebinds every public function of the given modules to a
wrapper that records a span (name, start, end, parent, operation) around
the call, and puts the originals back when the block ends.  Rebinding
happens where callers look names up: the defining module's attributes
(which are also its globals, so calls inside the module see the wrapper)
and every module that imported the function by name.

A span named ``op_name`` starts one operation; every span opened inside
it carries that operation's id.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time


class Tracer:
    """Span store for one traced run.  Not thread-safe: one caller only."""

    def __init__(self, op_name: str, keep_results=()):
        self.op_name = op_name
        self.keep_results = frozenset(keep_results)
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []  # index of the operation's root span, or -1
        self.results: dict[str, list] = {name: [] for name in self.keep_results}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        # The clock is read first so the bookkeeping below counts inside
        # the new span, not as its parent's self time.
        self.starts.append(time.perf_counter())
        i = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        if name == self.op_name and (parent < 0 or self.ops[parent] < 0):
            self.ops.append(i)
        else:
            self.ops.append(self.ops[parent] if parent >= 0 else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name: str):
        keep = self.results[name] if name in self.keep_results else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if keep is not None:
                keep.append(out)
            return out

        return traced

    # --- derived quantities ------------------------------------------------

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.names]
        for i, p in enumerate(self.parents):
            if p >= 0:
                kids[p].append(i)
        return kids

    def covered(self, i: int, kids: list[int]) -> float:
        """Length of span i's interval covered by the union of ``kids``."""
        lo, hi = self.starts[i], self.ends[i]
        intervals = sorted(
            (max(self.starts[k], lo), min(self.ends[k], hi)) for k in kids
        )
        total = 0.0
        cur_lo = cur_hi = None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        return total

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        kids = self.children()
        return [
            (self.ends[i] - self.starts[i]) - self.covered(i, kids[i])
            for i in range(len(self.names))
        ]

    def op_roots(self) -> list[int]:
        return [i for i, op in enumerate(self.ops) if op == i]


def public_functions(module, package: str):
    """(attribute, function) pairs for public functions defined in ``package``."""
    for attr, value in list(vars(module).items()):
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__.split(".")[0] == package:
            yield attr, value


def span_name(fn) -> str:
    """``<defining module>.<function>``, with the package prefix dropped."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


@contextlib.contextmanager
def instrument(tracer: Tracer, modules, package: str, private=()):
    """Wrap every public ``package`` function reachable from ``modules``,
    plus the ``(module, attribute)`` pairs in ``private``.

    The original bindings are restored when the block exits, also on error.
    """
    targets = [(m, attr, fn) for m in modules for attr, fn in public_functions(m, package)]
    targets += [(m, attr, getattr(m, attr)) for m, attr in private]
    saved = []
    try:
        for module, attr, fn in targets:
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, span_name(fn)))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
