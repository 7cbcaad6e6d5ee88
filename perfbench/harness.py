"""Measurement helpers shared by the workloads.

* :class:`Recorder` keeps bench-owned spans (name, start, end, parent) in
  memory; :func:`self_times` turns them into per-span self time.
* :func:`tail_percentile` is the reporting rule for timings: the highest
  percentile that still has at least ten samples beyond it.
* :class:`Checks` counts correctness checks and their failures, so a
  wrong result is reported in ``failed`` instead of aborting the run.
"""

from __future__ import annotations

import itertools
import resource
import statistics
import sys
import threading
import traceback
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: candidate percentiles, highest first
PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 50.0)
#: samples that must lie beyond a reported percentile
TAIL_SAMPLES = 10


class SpanRec:
    """One finished bench span (times from :func:`time.perf_counter`)."""

    __slots__ = ("sid", "name", "start", "end", "parent")

    def __init__(self, sid: int, name: str, start: float, end: float, parent: int | None):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent]


class _NullSpan:
    __slots__ = ()
    sid = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullSpan()


class _LiveSpan:
    __slots__ = ("_rec", "_name", "_parent", "sid", "_start")

    def __init__(self, rec: "Recorder", name: str, parent: int | None):
        self._rec = rec
        self._name = name
        self._parent = parent
        self.sid = next(rec._ids)

    def __enter__(self) -> "_LiveSpan":
        stack = self._rec._stack()
        if self._parent is None and stack:
            self._parent = stack[-1]
        stack.append(self.sid)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        self._rec._stack().pop()
        self._rec.spans.append(SpanRec(self.sid, self._name, self._start, end, self._parent))


class Recorder:
    """Bench spans at layer boundaries, kept in memory until the run ends.

    The parent of a span is the innermost open span of the same thread,
    or ``parent=`` when work is handed to another thread (the fleet pool).
    Disabled, :meth:`span` returns a shared no-op context manager.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[SpanRec] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, parent: int | None = None):
        if not self.enabled:
            return _NULL
        return _LiveSpan(self, name, parent)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[SpanRec]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children running on other threads may overlap each other; the union
    of their intervals is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.dur - covered(children.get(s.sid, []), s.start, s.end) for s in spans
    }


def self_time_by_name(spans: list[SpanRec]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.sid]
    return out


def tail_percentile(n: int) -> float | None:
    """Highest of :data:`PERCENTILES` with >= 10 of ``n`` samples beyond it."""
    for q in PERCENTILES:
        if n * (100.0 - q) / 100.0 >= TAIL_SAMPLES - 1e-9:
            return q
    return None


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def roofline_frac(rate: float, ceiling: float) -> float:
    """``rate`` as a share of the same-run ceiling (0 when unmeasured)."""
    return rate / ceiling if ceiling > 0 else 0.0


def decile_means(stalls) -> tuple[float, float]:
    """Mean stall of the first and of the last tenth of requests."""
    stalls = np.asarray(stalls, dtype=float)
    n = stalls.size // 10
    if n == 0:
        return 0.0, 0.0
    return float(stalls[:n].mean()), float(stalls[-n:].mean())


def stall_grows(stalls, slack: float) -> bool:
    """True when foreground stall grows from the first decile to the last.

    Under capacity the mean stall of the last tenth of requests stays
    within ``slack`` (one parity's cost) of the first tenth; an
    overloaded open loop queues without bound and exceeds it.
    """
    first, last = decile_means(stalls)
    return last > first + slack


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Correctness checks of one run: counted, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    @contextmanager
    def guard(self, what: str):
        """An exception from the program inside counts as one failed check."""
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            traceback.print_exc(file=sys.stderr)
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
