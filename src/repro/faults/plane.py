"""The fault-injection plane: deterministic faults under every I/O.

A :class:`FaultPlane` attaches to a :class:`~repro.raid.array.BlockArray`
(``array.attach_fault_plane(plane)``) and is consulted by every counted
I/O — per-block and bulk alike — through one ``is not None`` check, so a
detached array pays nothing.  Given a
:class:`~repro.faults.spec.FaultScenario` it injects, deterministically:

* **latent sector errors** — reads of a bad (disk, block) raise
  :class:`~repro.faults.errors.ReadFaultError` until the block is
  rewritten (the write "remaps the sector" and clears the error);
* **transient I/O errors** — retried internally per the scenario's
  :class:`~repro.faults.spec.RetryPolicy` with exponential backoff
  accounting; an exhausted budget raises
  :class:`~repro.faults.errors.TransientIOError`;
* **torn writes** — the scheduled write persists only a prefix of its
  payload (the op still completes and counts);
* **whole-disk failures** — quantised to op boundaries, surfacing as the
  array's own :class:`~repro.raid.array.DiskFailure`;
* **crash points** — inside a :meth:`crashable` section the armed
  crashable event raises :class:`~repro.faults.errors.ConversionCrash`
  *before* the op completes; a bulk op applies and counts only the
  elements before the crash, and an in-flight write can be torn.

A bulk op charges its elements in order as the single-op hooks would
(one op, the scheduled transient or else one rate draw, the sector
error); a bulk read's fault carries ``faulted``, every element refused.
A disk failure scheduled inside a bulk op fires at the op's start.

Two counters index the schedules: ``op`` advances on every plane-visible
I/O element, everywhere; ``crash_events_done`` advances only inside
``crashable()`` sections (the conversion thread) plus explicit
:meth:`crash_point` barriers, so crash sweeps enumerate exactly the
conversion's own boundaries and never tear application I/O.

Failed attempts (retries, refused reads, crashed ops) never touch the
array's I/O counters — those keep counting *logical, completed* I/O so
the paper's figures stay comparable; the plane's own counters hold the
fault accounting and are bridged into :mod:`repro.obs` post-run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from repro.faults.errors import ConversionCrash, ReadFaultError, TransientIOError
from repro.faults.spec import FaultScenario
from repro.raid.array import DiskFailure
from repro.util.retry import total_backoff

__all__ = ["FaultPlane", "BulkCrash"]


class BulkCrash:
    """Outcome of a bulk op interrupted by a crash.

    ``prefix`` elements completed (count them, apply their payloads),
    bar a read's ``faulted`` ones;
    ``inflight_payload`` is the torn content of the interrupted element
    (apply uncounted) or ``None`` for a clean boundary; ``crash`` is the
    exception to raise once the prefix has been applied.
    """

    __slots__ = ("prefix", "inflight_payload", "crash", "faulted")

    def __init__(self, prefix: int, inflight_payload: np.ndarray | None,
                 crash: ConversionCrash, faulted: np.ndarray | tuple = ()):
        self.prefix = prefix
        self.inflight_payload = inflight_payload
        self.crash = crash
        self.faulted = faulted


_COUNTERS = (
    "sector_errors_hit",
    "sector_errors_cleared",
    "transients",
    "retries",
    "retries_exhausted",
    "torn_writes",
    "disk_failures",
    "crashes",
    "degraded_reads",
    "reconstructed_blocks",
    "stale_checkpoints",
)


class FaultPlane:
    """Deterministic, seedable fault injector for one array."""

    def __init__(self, scenario: FaultScenario | None = None):
        self.scenario = scenario if scenario is not None else FaultScenario()
        self._rng = np.random.default_rng(self.scenario.seed)
        self._array = None
        #: plane-visible I/O elements seen so far (schedule index)
        self.op = 0
        #: crashable events completed (crash-point index)
        self.crash_events_done = 0
        self._crashable_depth = 0
        self._crash_at: int | None = self.scenario.crash_at
        self._crash_tear: float | None = self.scenario.crash_tear
        # latent sector errors as flat keys (disk * blocks_per_disk + block)
        self._bad: set[int] = set()
        self._bad_arr: np.ndarray | None = None  # cache for bulk np.isin
        self._torn: dict[int, float] = {
            t.op: t.keep_fraction for t in self.scenario.torn_writes
        }
        self._transient: dict[int, int] = {
            t.op: t.failures for t in self.scenario.transients
        }
        self._fail_at: dict[int, list[int]] = {}
        for f in self.scenario.disk_failures:
            self._fail_at.setdefault(f.op, []).append(f.disk)
        self.counters: dict[str, int] = {name: 0 for name in _COUNTERS}
        self.backoff_ticks = 0.0
        self._bpd = 0  # blocks_per_disk of the attached array

    # ------------------------------------------------------------ attachment
    def attach(self, array) -> None:
        """Bind to ``array`` (also registers the plane on the array)."""
        self._array = array
        self._bpd = array.blocks_per_disk
        self._bad = {
            e.disk * self._bpd + e.block for e in self.scenario.sector_errors
        }
        self._bad_arr = None
        array.attach_fault_plane(self)

    def detach(self) -> None:
        if self._array is not None:
            self._array.attach_fault_plane(None)
            self._array = None

    # -------------------------------------------------------- sector errors
    def add_sector_error(self, disk: int, block: int) -> None:
        """Mark (disk, block) as unreadable from now on (test hook)."""
        self._bad.add(disk * self._bpd + block)
        self._bad_arr = None

    def bad_mask(self, disks, blocks) -> np.ndarray:
        """Boolean mask of elements currently carrying a sector error."""
        disks = np.asarray(disks, dtype=np.intp).ravel()
        blocks = np.asarray(blocks, dtype=np.intp).ravel()
        if not self._bad:
            return np.zeros(disks.size, dtype=bool)
        if self._bad_arr is None:
            self._bad_arr = np.fromiter(self._bad, dtype=np.int64)
        return np.isin(disks * self._bpd + blocks, self._bad_arr)

    # --------------------------------------------------------- crash control
    def arm_crash(self, at_event: int, tear: float | None = None) -> None:
        """Die at crashable event ``at_event`` (0 = before the first)."""
        self._crash_at = at_event
        self._crash_tear = tear

    def disarm_crash(self) -> None:
        self._crash_at = None
        self._crash_tear = None

    @contextmanager
    def crashable(self) -> Iterator[None]:
        """Mark a region whose ops are legal crash points.

        Wrap the conversion thread's I/O only: application requests are
        served atomically with respect to crash injection (the write
        hole of the *host* I/O stack is out of scope — the sweep
        exercises the conversion's own recovery logic).
        """
        self._crashable_depth += 1
        try:
            yield
        finally:
            self._crashable_depth -= 1

    def crash_point(self, label: str = "") -> None:
        """A synthetic crashable instant (e.g. the journal-commit barrier).

        Counts as one crashable event whether armed or not, so probe and
        sweep runs agree on the event numbering.
        """
        if not self._crashable_depth:
            return
        if self._crash_at is not None and self.crash_events_done == self._crash_at:
            raise self._die(label or "barrier")
        self.crash_events_done += 1

    def _die(self, label: str) -> ConversionCrash:
        """Count and trace the armed crash; the caller raises it."""
        self.counters["crashes"] += 1
        from repro.obs.tracer import get_tracer

        get_tracer().instant("fault.crash", cat="faults", track="faults",
                             event=self.crash_events_done, label=label)
        return ConversionCrash(self.crash_events_done, label)

    def _crash_now(self) -> bool:
        return (
            self._crashable_depth > 0
            and self._crash_at is not None
            and self.crash_events_done == self._crash_at
        )

    def _crash_in(self, k: int) -> int | None:
        """Offset of the armed crash within the next ``k`` crashable events."""
        if self._crashable_depth == 0 or self._crash_at is None:
            return None
        off = self._crash_at - self.crash_events_done
        return off if 0 <= off < k else None

    # ------------------------------------------------------- shared helpers
    def _advance(self, n: int) -> None:
        self.op += n
        if self._crashable_depth:
            self.crash_events_done += n

    def _fire_disk_failures(self, span: int) -> None:
        """Fail disks scheduled at or before ops [op, op + span) (boundary model).

        Failure instants are quantised to op boundaries: an instant that
        falls inside a bulk op fires at the bulk's start (the whole bulk
        observes the failure, matching :meth:`BlockArray._check_bulk`'s
        all-or-nothing failure semantics).
        """
        if not self._fail_at:
            return
        due = sorted(o for o in self._fail_at if o < self.op + span)
        for op in due:
            for d in self._fail_at.pop(op):
                if self._array is not None and d not in self._array.failed_disks:
                    self._array.fail_disk(d)
                    self.counters["disk_failures"] += 1
                    from repro.obs.tracer import get_tracer

                    get_tracer().instant("fault.disk-failure", cat="faults",
                                         track="faults", disk=d, op=self.op)

    def _admit_bulk(self, disks: np.ndarray) -> None:
        """Fire the failures due within a bulk op; refuse failed disks."""
        self._fire_disk_failures(disks.size)
        if self._array is not None and self._array.failed_disks:
            failed = sorted(self._array.failed_disks)
            if np.isin(disks, failed).any():
                raise DiskFailure(f"disk(s) {failed} have failed")

    def _admit_one(self, disk: int) -> None:
        """Fire the failures due at this op; refuse a failed disk."""
        self._fire_disk_failures(1)
        if self._array is not None and disk in self._array.failed_disks:
            raise DiskFailure(f"disk {disk} has failed")

    def _transient_gate(self, failures: int) -> bool:
        """Retry ``failures`` consecutive transient errors; True if exhausted."""
        self.counters["transients"] += 1
        policy = self.scenario.retry
        if failures > policy.max_retries:
            self.counters["retries"] += policy.max_retries
            self._accrue_backoff(policy.max_retries)
            self.counters["retries_exhausted"] += 1
            return True
        self.counters["retries"] += failures
        self._accrue_backoff(failures)
        return False

    def _exhausted(self, disk: int, block: int) -> TransientIOError:
        return TransientIOError(disk, block, self.scenario.retry.max_retries + 1)

    def _accrue_backoff(self, retries: int) -> None:
        policy = self.scenario.retry
        self.backoff_ticks += total_backoff(
            retries, policy.backoff_base_ticks, policy.backoff_multiplier
        )

    def _charge_op(self, disk: int, block: int) -> int:
        """Charge one op and gate its scheduled transient, else one rate
        draw; returns the op's index."""
        op = self.op
        self._advance(1)
        rate = self.scenario.transient_rate
        failures = self._transient.pop(op, 0) or int(bool(rate) and self._rng.random() < rate)
        if failures and self._transient_gate(failures):
            raise self._exhausted(disk, block)
        return op

    def _tear(self, payload: np.ndarray, old: np.ndarray, keep: float) -> np.ndarray:
        torn = np.asarray(old, dtype=np.uint8).copy()
        cut = max(1, int(round(keep * torn.shape[-1])))
        torn[:cut] = np.asarray(payload, dtype=np.uint8)[:cut]
        self.counters["torn_writes"] += 1
        return torn

    # -------------------------------------------------------- single-op hooks
    def on_read(self, disk: int, block: int) -> None:
        """Consulted by ``BlockArray.read`` before counting; may raise."""
        self._admit_one(disk)
        if self._crash_now():
            raise self._die(f"read d{disk}b{block}")
        self._charge_op(disk, block)
        if (disk * self._bpd + block) in self._bad:
            self.counters["sector_errors_hit"] += 1
            raise ReadFaultError(disk, block)

    def on_write(
        self, disk: int, block: int, payload: np.ndarray, old: np.ndarray
    ) -> tuple[np.ndarray | None, ConversionCrash | None]:
        """Consulted by single-block writes before counting.

        Returns ``(payload, crash)``: the (possibly torn) payload to
        persist, and — when the armed crash fires here — the exception
        the array must raise after persisting the torn bytes (``payload``
        is ``None`` for a clean-boundary crash).  May raise directly for
        disk failures and exhausted transients.
        """
        self._admit_one(disk)
        if self._crash_now():
            crash = self._die(f"write d{disk}b{block}")
            if self._crash_tear is not None:
                return self._tear(payload, old, self._crash_tear), crash
            return None, crash
        keep = self._torn.pop(self._charge_op(disk, block), None)
        if keep is not None:
            payload = self._tear(payload, old, keep)
        key = disk * self._bpd + block
        if key in self._bad:
            self._bad.discard(key)
            self._bad_arr = None
            self.counters["sector_errors_cleared"] += 1
        return payload, None

    # ------------------------------------------------------------ bulk hooks
    def on_bulk_read(self, disks: np.ndarray, blocks: np.ndarray) -> BulkCrash | None:
        """Consulted by ``read_blocks``; returns a crash plan or None.

        Each element is charged as :meth:`on_read` would charge it.  The
        first faulted element's fault (sector error or exhausted
        transient) is raised after the whole batch is charged, with
        ``faulted`` listing every faulted element.
        """
        k = disks.size
        self._admit_bulk(disks)
        crash_off = self._crash_in(k)
        n = k if crash_off is None else crash_off
        faulted = exhausted = self._bulk_transients(n)
        if self._bad:
            bad = self.bad_mask(disks[:n], blocks[:n])
            bad[exhausted] = False
            self.counters["sector_errors_hit"] += int(bad.sum())
            faulted = np.union1d(exhausted, np.flatnonzero(bad))
        self._advance(n)
        if crash_off is not None:
            return BulkCrash(crash_off, None, self._die(f"bulk-read[{crash_off}/{k}]"), faulted)
        if faulted.size:
            i = int(faulted[0])
            d, b = int(disks[i]), int(blocks[i])
            err = self._exhausted(d, b) if i in exhausted else ReadFaultError(d, b)
            err.faulted = faulted
            raise err
        return None

    def on_bulk_write(
        self,
        disks: np.ndarray,
        blocks: np.ndarray,
        payloads: np.ndarray,
        get_old: Callable[[int], np.ndarray],
    ) -> tuple[np.ndarray, BulkCrash | None]:
        """Consulted by bulk writes; returns (payloads, crash plan | None).

        ``payloads`` comes back possibly copied-and-torn; ``get_old(i)``
        lazily reads the pre-write contents of element ``i`` (only called
        for torn elements).
        """
        k = disks.size
        self._admit_bulk(disks)
        crash_off = self._crash_in(k)
        n = k if crash_off is None else crash_off
        torn_ops = [
            (op - self.op, self._torn.pop(op))
            for op in sorted(self._torn)
            if self.op <= op < self.op + n
        ]
        if torn_ops:
            payloads = np.array(payloads, dtype=np.uint8, copy=True)
            for i, keep in torn_ops:
                payloads[i] = self._tear(payloads[i], get_old(i), keep)
        exhausted = self._bulk_transients(n)
        if exhausted.size:
            i = int(exhausted[0])
            raise self._exhausted(int(disks[i]), int(blocks[i]))
        cleared = self.bad_mask(disks[:n], blocks[:n])
        if cleared.any():
            self._bad.difference_update((disks[:n] * self._bpd + blocks[:n])[cleared].tolist())
            self._bad_arr = None
            self.counters["sector_errors_cleared"] += int(cleared.sum())
        self._advance(n)
        if crash_off is None:
            return payloads, None
        crash = self._die(f"bulk-write[{crash_off}/{k}]")
        inflight = None
        if self._crash_tear is not None:
            inflight = self._tear(payloads[crash_off], get_old(crash_off), self._crash_tear)
        return payloads, BulkCrash(crash_off, inflight, crash)

    def _bulk_transients(self, n: int) -> np.ndarray:
        """Gate the next ``n`` ops' transients; the exhausted ones' indices.
        An op takes its scheduled transient or else one rate draw, as in
        the single-op hooks, so both consume the same draws."""
        rate = self.scenario.transient_rate
        if not (rate or self._transient):
            return np.zeros(0, dtype=np.intp)
        failures = np.zeros(n, dtype=np.int64)
        for op in [o for o in self._transient if self.op <= o < self.op + n]:
            failures[op - self.op] = self._transient.pop(op)
        if rate:
            free = np.flatnonzero(failures == 0)
            failures[free[self._rng.random(free.size) < rate]] = 1
        hit = np.flatnonzero(failures)
        return hit[np.array([self._transient_gate(int(failures[i])) for i in hit], dtype=bool)]

    # ------------------------------------------------------------- reporting
    def snapshot(self) -> dict:
        """JSON-ready fault accounting (the obs bridge's source)."""
        doc = dict(self.counters)
        doc["backoff_ticks"] = self.backoff_ticks
        doc["ops_seen"] = self.op
        doc["crashable_events"] = self.crash_events_done
        doc["outstanding_sector_errors"] = len(self._bad)
        return doc
