"""Reconstruct-on-read: degraded-mode I/O for the conversion engines.

The direct Code 5-6 conversion never writes the old RAID-5 columns, so
the horizontal (row) parity stays valid at every instant — the paper's
safe-online property.  That is exactly the invariant that makes
degraded-mode conversion possible: a block on a failed disk (or one
carrying a latent sector error) is the XOR of the other ``m-1`` blocks
of its RAID-5 row, at any point during the conversion.

:class:`ReconstructingReader` packages that recovery as an I/O adapter
the engines consume — ``read`` / ``read_cost`` (counted, with
reconstruction fallback), ``read_blocks`` (one counted bulk read that
falls back to per-block ``read`` when it faults), ``peek`` (uncounted,
for controller-memory fills and parity audits) and ``check_ok``
(whether a reused-parity audit of a disk is possible).  It serves the
audited engine, the compiled phase runner's counted reads (which a
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
from repro.raid.array import BlockArray, DiskFailure

__all__ = ["ReconstructingReader", "plan_is_zero_movement"]

#: faults the reader can hide by reconstructing from the RAID-5 row
_RECOVERABLE = (DiskFailure, ReadFaultError, TransientIOError)


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

    # ------------------------------------------------------------- counted
    def read(self, disk: int, block: int) -> np.ndarray:
        """One counted read; reconstructs through the row on any fault."""
        return self.read_cost(disk, block)[0]

    def read_cost(self, disk: int, block: int) -> tuple[np.ndarray, int]:
        """:meth:`read` plus its counted reads: 1, or ``m-1`` when the
        block was reconstructed from its row."""
        if disk not in self.array.failed_disks:
            try:
                return self.array.read(disk, block), 1
            except _RECOVERABLE:
                if not self.allow or disk >= self.m:
                    raise
        elif not self.allow or disk >= self.m:
            # propagate the array's own failure semantics
            return self.array.read(disk, block), 1
        return self._reconstruct(disk, block), self.m - 1

    def read_blocks(self, disks: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """One counted bulk read; falls back to per-block :meth:`read`.

        The healthy path is the array's single gather (identical
        counters); only when the bulk admission faults — a failed disk,
        a sector error, an exhausted transient — does it degrade to
        per-block reads, each reconstructing through its row.
        """
        try:
            return self.array.read_blocks(disks, blocks)
        except _RECOVERABLE:
            out = np.empty((disks.size, self.array.block_size), dtype=np.uint8)
            for i in range(disks.size):
                out[i] = self.read(int(disks[i]), int(blocks[i]))
            return out

    def _reconstruct(self, disk: int, block: int) -> np.ndarray:
        """XOR of the other ``m-1`` row members (counted reads)."""
        from repro.obs.tracer import get_tracer

        plane = self.array.fault_plane
        with get_tracer().span(
            "degraded.reconstruct", cat="faults", track="faults",
            disk=disk, block=block,
        ):
            acc = np.zeros(self.array.block_size, dtype=np.uint8)
            for d in range(self.m):
                if d == disk:
                    continue
                np.bitwise_xor(acc, self.array.read(d, block), out=acc)
        if plane is not None:
            plane.counters["reconstructed_blocks"] += 1
            plane.counters["degraded_reads"] += self.m - 2  # extra vs 1 read
        return acc

    # ----------------------------------------------------------- uncounted
    def peek(self, disk: int, block: int) -> np.ndarray:
        """Uncounted raw view/reconstruction (fills, audits, validation).

        Raises :class:`DiskFailure` like :meth:`read` when the block
        cannot be rebuilt: no row invariant, a hot-added disk, or a
        second failed disk in the row.
        """
        failed = self.array.failed_disks
        if disk not in failed:
            return self.array.raw(disk, block)
        if not self.allow or disk >= self.m:
            raise DiskFailure(f"disk {disk} has failed")
        acc = np.zeros(self.array.block_size, dtype=np.uint8)
        for d in range(self.m):
            if d == disk:
                continue
            if d in failed:
                raise DiskFailure(f"disk {d} has failed")
            np.bitwise_xor(acc, self.array.raw(d, block), out=acc)
        return acc

    def check_ok(self, disk: int) -> bool:
        """Can a reused-parity audit read this disk's true bytes?"""
        return disk not in self.array.failed_disks
