"""In-memory span recording for the traced pass, installed from outside.

Nothing under ``src/`` is edited: a layer is timed by replacing the name its
caller looks up (a module global, a class attribute or a registry entry) with
a wrapper that records a span around the original. A target that no longer
exists is reported and skipped, so a refactor of ``src/`` cannot crash the
benchmark that is not allowed to follow it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

#: span record layout (lists, not objects: the kernel observer adds one per
#: instruction)
NAME, LAYER, START, END, PARENT, OP_ID = range(6)


class Tracer:
    """Spans ``[name, layer, start, end, parent, op_id]`` kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = True
        #: wrap targets that were not found (their metrics report 0)
        self.missing: list[str] = []
        self._local = threading.local()
        #: tenant threads record concurrently; an index must name the span
        #: its own append created
        self._lock = threading.Lock()
        self._restores: list[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, op_id: Any = None) -> Iterator[int]:
        """Record the enclosed block; nests under the thread's open span."""
        if not self.enabled:
            yield -1
            return
        stack = self._stack()
        record = [name, layer, 0.0, None, stack[-1] if stack else -1, op_id]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[START] = perf_counter()
        try:
            yield index
        finally:
            record[END] = perf_counter()
            stack.pop()

    def add(self, name: str, layer: str, start: float, end: float,
            parent: int = -1, op_id: Any = None) -> int:
        """Record a span timed elsewhere (kernel observer, server timings)."""
        with self._lock:
            self.spans.append([name, layer, start, end, parent, op_id])
            return len(self.spans) - 1

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner: Any, attr: Any, name: str, layer: str,
             around: Callable | None = None) -> bool:
        """Time ``owner.attr`` (or ``owner[attr]`` for a dict registry).

        ``owner`` may be a dotted module path, resolved here so a module
        that moved is reported like a missing attribute. ``around(fn, args,
        kwargs)`` replaces the plain call when the wrapper must inject an
        argument or read the result.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}" \
            if not isinstance(owner, dict) else f"registry[{attr!r}]"
        if isinstance(owner, str):
            try:
                owner = importlib.import_module(owner)
            except ImportError:
                return self._miss(label)
        is_map = isinstance(owner, dict)
        original = owner.get(attr) if is_map else getattr(owner, attr, None)
        if not callable(original):
            return self._miss(label)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            with self.span(name, layer):
                if around is not None:
                    return around(original, args, kwargs)
                return original(*args, **kwargs)

        if is_map:
            owner[attr] = wrapper
            self._restores.append(lambda: owner.__setitem__(attr, original))
        else:
            setattr(owner, attr, wrapper)
            self._restores.append(lambda: setattr(owner, attr, original))
        return True

    def _miss(self, label: str) -> bool:
        self.missing.append(label)
        print(f"warning: trace target {label} not found; its metric reads 0",
              file=sys.stderr)
        return False

    def unwrap_all(self) -> None:
        while self._restores:
            self._restores.pop()()

    # -- reading -------------------------------------------------------------

    def ms(self, index: int) -> float:
        """Duration of one closed span in milliseconds."""
        span = self.spans[index]
        return (span[END] - span[START]) * 1e3

    def _child_seconds(self) -> list[float]:
        """Per span, the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[END] is not None and span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return covered

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total seconds, self seconds) over closed spans."""
        child_time = self._child_seconds()
        out: dict[str, tuple[int, float, float]] = {}
        for index, span in enumerate(self.spans):
            if span[END] is None:
                continue
            total = span[END] - span[START]
            count, acc_total, acc_self = out.get(span[NAME], (0, 0.0, 0.0))
            out[span[NAME]] = (count + 1, acc_total + total,
                               acc_self + total - child_time[index])
        return out

    def nesting_violations(self, slack: float = 1e-6) -> int:
        """Parents whose children sum to more than the parent itself.

        Children of one parent run one after another on one thread here, so
        their sum can exceed the parent only if a span was mis-parented.
        """
        child_time = self._child_seconds()
        return sum(
            1 for index, span in enumerate(self.spans)
            if span[END] is not None
            and child_time[index] > (span[END] - span[START]) + slack)

    def write_chrome(self, path: Path) -> None:
        """One Chrome-trace (``chrome://tracing`` / Perfetto) JSON file."""
        origin = min((s[START] for s in self.spans), default=0.0)
        lanes: dict[str, int] = {}
        events = []
        for index, span in enumerate(self.spans):
            if span[END] is None:
                continue
            root = span
            while root[PARENT] >= 0:
                root = self.spans[root[PARENT]]
            # ops that may overlap in time carry "<sender>:<n>" ids; one
            # lane per sender keeps their spans from stacking on each other
            sender = str(root[OP_ID]).split(":")[0] \
                if root[OP_ID] is not None else root[LAYER]
            events.append({
                "name": span[NAME], "cat": span[LAYER], "ph": "X",
                "pid": 0, "tid": lanes.setdefault(sender, len(lanes)),
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "args": {"span": index, "parent": span[PARENT],
                         "op_id": span[OP_ID]},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
