"""Layer spans for the traced pass, recorded from outside the program.

The traced pass wraps each layer's public entry points in the module or class
where callers look them up, times every call, and keeps per-name totals in
memory.  A span's *self time* is its duration minus the time its direct child
spans cover, so nested layers (a compressor inside an encoder inside a runner
call) are counted once each.  Nothing under ``src/`` is modified: the wrappers
are installed for one round and removed afterwards.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class SpanTable:
    """Per-span-name self time, outer inclusive time and counters.

    Thread-safe: the service runs its layers on executor threads, so each
    thread keeps its own open-span stack and totals are merged under a lock.
    ``outer_total`` counts only calls not nested in a span of the same name,
    which is what an inclusive layer time (``coding.encode_s``) needs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_time: Dict[str, float] = defaultdict(float)
        self.outer_total: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the named counter."""
        with self._lock:
            self.counters[name] += value

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        """Time the block; the yielded frame holds ``[child_s, name, elapsed_s]``."""
        stack = self._stack()
        outer = not self.is_open(name)
        frame = [0.0, name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield frame
        finally:
            elapsed = frame[2] = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            with self._lock:
                self.self_time[name] += elapsed - frame[0]
                if outer:
                    self.outer_total[name] += elapsed

    def is_open(self, name: str) -> bool:
        """Whether a span of ``name`` is open on this thread."""
        return any(frame[1] == name for frame in self._stack())

    def timed(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[["SpanTable", tuple, Any, float], None]] = None,
        before: Optional[Callable[["SpanTable", tuple], None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span.

        ``before(table, args)`` runs ahead of the span and
        ``after(table, args, result, elapsed_s)`` after it, only for calls not
        nested in a span of the same name, so nested layer calls count once.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not self.is_open(name)
            if before is not None and outer:
                before(self, args)
            outer = outer and after is not None
            with self.span(name) as frame:
                result = fn(*args, **kwargs)
            if outer:
                after(self, args, result, frame[2])
            return result

        return wrapper

    def timed_iter(self, name: str, fn: Callable) -> Callable:
        """A generator function wrapped so that each ``next()`` is a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                with self.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        return wrapper

    def total_self(self) -> float:
        return float(sum(self.self_time.values()))

    def self_of(self, *names: str) -> float:
        return float(sum(self.self_time.get(name, 0.0) for name in names))


class Patcher:
    """Installs wrappers and restores every original on :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, original: Callable, wrapper: Callable) -> None:
        """Replace ``original`` wherever a loaded ``repro`` module binds it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def method(self, cls: type, attr: str, make_wrapper: Callable[[Callable], Callable]) -> None:
        """Wrap ``cls.attr`` and every subclass's own override of it."""
        for klass in _class_tree(cls):
            value = klass.__dict__.get(attr)
            if inspect.isfunction(value):
                self.set(klass, attr, make_wrapper(value))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _class_tree(cls: type) -> List[type]:
    seen: List[type] = []
    pending = [cls]
    while pending:
        klass = pending.pop()
        if klass not in seen:
            seen.append(klass)
            pending.extend(klass.__subclasses__())
    return seen
