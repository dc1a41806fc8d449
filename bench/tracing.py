"""Spans around the calls into fpsat's layers, recorded from outside.

`Tracer.install()` wraps public functions of fpsat's modules by
rebinding the names that the calling module looks up at call time (for
example `fpsat.parse_script`, which `build_problem` calls), and
`uninstall()` puts the originals back. Nothing inside `src/fpsat` is
changed. One private name is touched: the portfolio's algorithm table
`fpsat.portfolio._MINIMIZERS`, because `solve` reaches the three
minimizers only through it.

A span has a name, a start and an end (perf_counter seconds), the id of
its parent span, the query id and the thread. Spans opened by the race's
worker threads have the enclosing `solve` span as parent. Calls to
`ObjectiveProgram.evaluate` are too many to keep one span each (a
budget-burn query makes thousands), so they are folded: each enclosing
span counts them and sums their wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    query: str | None
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    # folded evaluate calls made directly under this span
    evals: int = 0
    eval_wall: float = 0.0
    first_eval: float | None = None
    first_zero: float | None = None
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_json(self) -> dict:
        return {"id": self.id, "name": self.name, "query": self.query,
                "parent": self.parent, "thread": self.thread,
                "start": self.start, "end": self.end,
                "evals": self.evals, "eval_wall": self.eval_wall,
                "first_eval": self.first_eval, "first_zero": self.first_zero}


class Tracer:
    """In-memory span recorder; one query runs at a time (closed loop)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.query: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_root: Span | None = None  # parent for worker threads
        self._lock = threading.Lock()
        self._restore: list = []

    # -- span stack ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._thread_root
        span = Span(next(self._ids), name, self.query,
                    parent.id if parent is not None else None,
                    threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn, root: bool = False):
        """`fn` with a span around every call; `root` spans become the
        parent of spans opened in threads started during the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            if root:
                self._thread_root = span
            try:
                return fn(*args, **kwargs)
            finally:
                if root:
                    self._thread_root = None
                self.close(span)

        return traced

    def wrap_evaluate(self, fn):
        """Fold evaluate calls into the enclosing span of the calling thread."""

        @functools.wraps(fn)
        def traced(program, x):
            stack = self._stack()
            owner = stack[-1] if stack else self._thread_root
            w0 = time.perf_counter()
            value = fn(program, x)
            w1 = time.perf_counter()
            if owner is not None:
                owner.evals += 1
                owner.eval_wall += w1 - w0
                if owner.first_eval is None:
                    owner.first_eval = w0
                if value == 0.0 and owner.first_zero is None:
                    owner.first_zero = w1
            return value

        return traced

    # -- installing ---------------------------------------------------------

    def _rebind(self, obj, attr, new) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self, fpsat) -> None:
        import fpsat.harness
        import fpsat.objective
        import fpsat.portfolio

        for name in ("parse_script", "expand_definitions", "simplify",
                     "push_negations", "to_cnf", "compile_objective"):
            self._rebind(fpsat, name, self.wrap(name, getattr(fpsat, name)))
        port = fpsat.portfolio
        self._rebind(port, "verify_model", self.wrap("verify_model", port.verify_model))
        self._rebind(port, "semantic_eval", self.wrap("semantic_eval", port.semantic_eval))
        table = dict(port._MINIMIZERS)
        self._restore.append((port, "_MINIMIZERS", port._MINIMIZERS))
        port._MINIMIZERS = {alg: self.wrap(f"minimize.{alg}", fn)
                            for alg, fn in table.items()}
        self._rebind(fpsat.harness, "solve",
                     self.wrap("solve", fpsat.harness.solve, root=True))
        cls = fpsat.objective.ObjectiveProgram
        self._rebind(cls, "evaluate", self.wrap_evaluate(cls.evaluate))

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, old = self._restore.pop()
            setattr(obj, attr, old)

    # -- derived views --------------------------------------------------------

    def link(self) -> None:
        """Fill each span's list of children."""
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            s.children = []
        for s in self.spans:
            if s.parent in by_id:
                by_id[s.parent].children.append(s)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: a span's duration minus the part
        of it that its children cover (the union of their intervals, since
        the race's worker threads overlap), minus its folded evaluate time,
        which is listed as `evaluate`."""
        self.link()
        out: dict[str, float] = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(s.children, key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            own = s.duration - covered - s.eval_wall
            out[s.name] = out.get(s.name, 0.0) + own
            if s.evals:
                out["evaluate"] = out.get("evaluate", 0.0) + s.eval_wall
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_json()) + "\n")
