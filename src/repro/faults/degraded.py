"""Reconstruct-on-read: degraded-mode I/O for the conversion engines.

The direct Code 5-6 conversion never writes the old RAID-5 columns, so
the horizontal (row) parity stays valid at every instant — the paper's
safe-online property.  That is exactly the invariant that makes
degraded-mode conversion possible: a block on a failed disk (or one
carrying a latent sector error) is the XOR of the other ``m-1`` blocks
of its RAID-5 row, at any point during the conversion.

:class:`ReconstructingReader` is the policy over the one rebuild routine,
:func:`repro.raid.raid5.row_rebuild`: which faults are recoverable, the
fault counters and a ``degraded.reconstruct`` span.  It offers
``read_blocks`` (one counted bulk admission; the elements the plane
refuses are rebuilt with one counted row-mate read), the scalar
``read`` / ``read_cost``, ``peek_blocks`` / ``peek`` (uncounted, for
controller-memory fills and parity audits) and ``check_ok``.  It serves
the audited engine, the compiled phase runner's counted reads (which a
fault plane observes), and the online converter's per-parity
generator.  The compiled runner computes a phase on one failed data
disk without it, by rerouting the fused phase's failed-disk operands to
the same row mates (:func:`repro.compiled.compiler.reroute_failed_disk`).
For plans that *do* move data (via-RAID-0/4 and the multi-phase codes)
the row invariant breaks mid-flight, so the adapter is built with
``allow_reconstruction=False`` and simply re-raises — degraded
conversion is refused rather than silently corrupted.
"""

from __future__ import annotations

import numpy as np

from repro.faults.errors import ReadFaultError, TransientIOError
from repro.obs.tracer import get_tracer
from repro.raid.array import BlockArray, DiskFailure
from repro.raid.raid5 import row_rebuild

__all__ = ["ReconstructingReader", "plan_is_zero_movement"]


def plan_is_zero_movement(plan) -> bool:
    """True when the conversion never writes the old RAID-5 columns.

    Zero data movement (no migrations, no NULL invalidations, no trims)
    and every generated parity landing on a hot-added disk together
    guarantee the RAID-5 row invariant holds throughout — the predicate
    for degraded-mode conversion.
    """
    for gw in plan.group_works:
        if gw.migrates or gw.null_writes or gw.trims:
            return False
        for loc in gw.parity_writes.values():
            if loc.disk not in plan.new_disks:
                return False
    return True


class ReconstructingReader:
    """Counted reads with RAID-5 row reconstruction on failure.

    Parameters
    ----------
    array:
        The array under conversion.
    m:
        Width of the RAID-5 source region (disks ``0..m-1``); blocks on
        disk ``>= m`` (the hot-added columns) cannot be reconstructed
        from the row and always re-raise.
    allow_reconstruction:
        ``False`` turns the adapter into a transparent pass-through that
        re-raises every fault — used for plans whose row invariant does
        not hold.
    """

    def __init__(self, array: BlockArray, m: int, allow_reconstruction: bool = True):
        self.array = array
        self.m = m
        self.allow = allow_reconstruction

    def _split(self, disks, blocks):
        """Flat indices, the elements on failed disks, and the first of
        those the row cannot rebuild (hot-added disk, or no row
        invariant; ``disks.size`` if none)."""
        disks = np.asarray(disks, dtype=np.intp).ravel()
        blocks = np.asarray(blocks, dtype=np.intp).ravel()
        failed = self.array.failed_disks
        if not failed:
            return disks, blocks, np.zeros(disks.size, dtype=bool), disks.size
        lost = np.isin(disks, sorted(failed))
        stuck = np.flatnonzero(lost & ((disks >= self.m) | (not self.allow)))
        return disks, blocks, lost, int(stuck[0]) if stuck.size else disks.size

    def _rebuild(self, disks: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """Counted row rebuild of every element (``m-1`` reads each)."""
        with get_tracer().span(
            "degraded.reconstruct", cat="faults", track="faults",
            disk=int(disks[0]), block=int(blocks[0]), blocks=int(disks.size),
        ):
            out = row_rebuild(self.array, self.m, disks, blocks, self.array.read_blocks)
        plane = self.array.fault_plane
        if plane is not None:
            plane.counters["reconstructed_blocks"] += disks.size
            plane.counters["degraded_reads"] += disks.size * (self.m - 2)  # extra vs 1 read
        return out

    # ------------------------------------------------------------- counted
    def read(self, disk: int, block: int) -> np.ndarray:
        """One counted read; reconstructs through the row on any fault."""
        return self.read_cost(disk, block)[0]

    def read_cost(self, disk: int, block: int) -> tuple[np.ndarray, int]:
        """:meth:`read` plus its counted reads: 1, or ``m-1`` when the
        block was reconstructed from its row."""
        rebuildable = self.allow and disk < self.m
        if disk not in self.array.failed_disks or not rebuildable:
            try:
                return self.array.read(disk, block), 1
            except (DiskFailure, ReadFaultError, TransientIOError):
                if not rebuildable:
                    raise  # the array's own failure semantics
        return self._rebuild(np.array([disk]), np.array([block]))[0], self.m - 1

    def read_blocks(self, disks: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """One counted bulk read; rebuilds just the elements that fault."""
        return self.read_blocks_cost(disks, blocks)[0]

    def read_blocks_cost(self, disks, blocks) -> tuple[np.ndarray, int]:
        """:meth:`read_blocks` plus its counted reads.

        The elements not on failed disks are admitted in one counted bulk
        read.  When the plane refuses some, the rest are credited and
        taken uncounted, and the refused ones join the failed-disk
        elements in one counted row rebuild.  An element the row cannot
        rebuild raises after the elements before it were served, as
        reading them one by one would.
        """
        array = self.array
        failed = array.failed_disks
        disks, blocks, lost, stop = self._split(disks, blocks)
        up = ~lost
        up[stop:] = False
        err: Exception | None = None
        try:
            got = array.read_blocks(disks[up], blocks[up])
        except DiskFailure:
            if array.failed_disks == failed:
                raise
            return self.read_blocks_cost(disks, blocks)  # the plane failed a disk
        except (ReadFaultError, TransientIOError) as exc:
            if exc.faulted is None:
                raise
            refused = np.flatnonzero(up)[exc.faulted]
            lost[refused] = True
            stuck = refused[(disks[refused] >= self.m) | (not self.allow)]
            if stuck.size:
                stop, err = int(stuck[0]), exc
            ok = up & ~lost
            array.credit_ios(reads=np.bincount(disks[ok], minlength=array.n_disks))
            got = array.gather_raw(disks[up], blocks[up])  # refused ones rebuilt below
        out = got
        if got.shape[0] < disks.size:
            out = np.empty((disks.size, array.block_size), dtype=np.uint8)
            out[up] = got
        rebuild = np.flatnonzero(lost[:stop])
        if rebuild.size:
            out[rebuild] = self._rebuild(disks[rebuild], blocks[rebuild])
        if stop < disks.size:
            raise err or DiskFailure(f"disk {int(disks[stop])} has failed")
        return out, disks.size + int(rebuild.size) * (self.m - 2)

    # ----------------------------------------------------------- uncounted
    def peek(self, disk: int, block: int) -> np.ndarray:
        """:meth:`peek_blocks` of one block."""
        return self.peek_blocks(np.array([disk]), np.array([block]))[0]

    def peek_blocks(self, disks, blocks) -> np.ndarray:
        """Uncounted raw gather/reconstruction (fills, audits, validation).

        Raises :class:`DiskFailure` like :meth:`read` when a block
        cannot be rebuilt: no row invariant, a hot-added disk, or a
        second failed disk in the row.
        """
        array = self.array
        disks, blocks, lost, stop = self._split(disks, blocks)
        out = array.gather_raw(disks, blocks)
        rebuild = np.flatnonzero(lost[:stop])
        out[rebuild] = row_rebuild(array, self.m, disks[rebuild], blocks[rebuild], array.gather_raw)
        if stop < disks.size:
            raise DiskFailure(f"disk {int(disks[stop])} has failed")
        return out

    def check_ok(self, disk: int) -> bool:
        """Can a reused-parity audit read this disk's true bytes?"""
        return disk not in self.array.failed_disks
