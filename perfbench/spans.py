"""In-memory spans around calls into the library, recorded from outside it.

A :class:`Tracer` replaces the names callers look up (a module attribute
such as ``composite_bosons.cli.assemble_hamiltonian`` or a class attribute
such as ``composite_bosons.algebra.ElementEngine.element``) with wrappers
that open a span per call, and puts the originals back on exit.

A span is (id, name, parent, start, end).  Calls made tens of thousands of
times per command are recorded as *aggregate* spans: all calls of one name
under one parent share a record that carries the call count and the summed
duration, so the trace stays small.  The self-time arithmetic treats both
kinds alike, because calls on one thread nest and never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Iterator


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    duration: float = 0.0
    calls: int = 0
    domain: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the summed durations of its children."""
    spans = list(spans)
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - covered.get(s.id, 0.0) for s in spans}


def resolve(dotted: str) -> tuple[Any, str]:
    """Split ``pkg.module.Owner.attr`` into (owner object, attribute name).

    Raises LookupError when no prefix imports or the attribute is gone.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            if not hasattr(owner, part):
                raise LookupError(dotted)
            owner = getattr(owner, part)
        if not hasattr(owner, parts[-1]):
            raise LookupError(dotted)
        return owner, parts[-1]
    raise LookupError(dotted)


OnReturn = Callable[[Span, tuple, dict, Any], None]


class Tracer:
    """Records spans and call counts while its wrappers are installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.missing: set[str] = set()
        self._stack: list[tuple[Span, float]] = []
        self._aggregates: dict[tuple[str, int | None], Span] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping -------------------------------------------------

    def enter(self, name: str, aggregate: bool = False, domain: str | None = None) -> Span:
        parent = self._stack[-1][0] if self._stack else None
        parent_id = parent.id if parent is not None else None
        if domain is None and parent is not None:
            domain = parent.domain
        now = self.clock()
        span = self._aggregates.get((name, parent_id)) if aggregate else None
        if span is None:
            span = Span(len(self.spans), name, parent_id, now, domain=domain)
            self.spans.append(span)
            if aggregate:
                self._aggregates[(name, parent_id)] = span
        self._stack.append((span, now))
        return span

    def exit(self) -> None:
        span, started = self._stack.pop()
        now = self.clock()
        span.end = now
        span.duration += now - started
        span.calls += 1

    @contextmanager
    def span(self, name: str, domain: str | None = None) -> Iterator[Span]:
        opened = self.enter(name, domain=domain)
        try:
            yield opened
        finally:
            self.exit()

    # -- wrapping ---------------------------------------------------------

    def probe(self, dotted: str) -> bool:
        """Record whether ``dotted`` still exists, without wrapping it."""
        try:
            resolve(dotted)
        except LookupError:
            self.missing.add(dotted)
            return False
        return True

    def wrap(
        self,
        dotted: str,
        name: str,
        *,
        aggregate: bool = False,
        count_only: bool = False,
        domain: str | None = None,
        on_return: OnReturn | None = None,
    ) -> bool:
        """Replace ``dotted`` by a recording wrapper; False if it is gone.

        A call made directly from inside a span of the same name (recursion)
        is passed through without a span of its own.
        """
        try:
            owner, attr = resolve(dotted)
        except LookupError:
            self.missing.add(dotted)
            return False
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw

        if count_only:

            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                if self._stack and self._stack[-1][0].name == name:
                    return fn(*args, **kwargs)
                span = self.enter(name, aggregate, domain)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.exit()
                if on_return is not None:
                    on_return(span, args, kwargs, result)
                return result

        setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
        self._patches.append((owner, attr, raw))
        return True

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def to_json(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "counts": dict(self.counts),
            "missing": sorted(self.missing),
        }
