"""Timing shims around the program's layer entry points.

Every layer is measured from outside, through its public interface:

* :class:`TimingKernel` — an :class:`~repro.kernels.base.XorKernel`
  passed as ``kernel=`` that forwards to the real backend and counts
  calls, bytes consumed and busy time;
* :class:`TimedJournal` — an :class:`~repro.faults.journal.OnlineJournal`
  whose ``mark``/``mark_many`` flushes are timed;
* :class:`TimedFleetVolume` — a :class:`~repro.fleet.volume.FleetVolume`
  whose divergence audit is a bench span.

Disabled recorders make the shims cost one attribute check per call.
"""

from __future__ import annotations

from time import perf_counter

from repro.faults.journal import OnlineJournal
from repro.fleet.volume import FleetVolume
from repro.kernels import XorKernel, resolve_kernel

from harness import Recorder


class TimingKernel(XorKernel):
    """Forwarding XOR backend that measures the kernel layer."""

    name = "timed"

    def __init__(self, inner: XorKernel | None = None):
        self.inner = inner if inner is not None else resolve_kernel("auto")
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.bytes = 0
        self.busy_s = 0.0

    def region_xor_reduce(self, dst, sources, init: bool = True) -> None:
        t0 = perf_counter()
        self.inner.region_xor_reduce(dst, sources, init=init)
        self.busy_s += perf_counter() - t0
        self.calls += 1
        # bytes consumed: every source spans dst's rows (broadcast rows
        # included); accumulation also reads dst
        self.bytes += (len(sources) + (0 if init else 1)) * dst.nbytes

    def scatter_xor(self, dst, rows, payload) -> None:
        t0 = perf_counter()
        self.inner.scatter_xor(dst, rows, payload)
        self.busy_s += perf_counter() - t0
        self.calls += 1
        self.bytes += 2 * payload.nbytes


class TimedJournal(OnlineJournal):
    """Online journal whose flushes are timed (group commits included)."""

    def __init__(self, groups: int, rows: int):
        super().__init__(groups, rows)
        self.busy_s = 0.0

    def mark(self, group: int, row: int) -> None:
        t0 = perf_counter()
        super().mark(group, row)
        self.busy_s += perf_counter() - t0

    def mark_many(self, entries) -> None:
        t0 = perf_counter()
        super().mark_many(entries)
        self.busy_s += perf_counter() - t0


class TimedFleetVolume(FleetVolume):
    """Fleet volume whose divergence audit is recorded as a bench span."""

    def __init__(self, spec, buffer=None, recorder: Recorder | None = None):
        super().__init__(spec, buffer=buffer)
        self.recorder = recorder if recorder is not None else Recorder()

    def divergent_blocks(self) -> int:
        with self.recorder.span("fleet.audit"):
            return super().divergent_blocks()
