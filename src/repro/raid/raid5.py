"""RAID-5 (and degenerate RAID-0/RAID-4) array logic.

One stripe occupies one block per disk; stripe ``s`` lives at block
offset ``s`` on every disk.  This matches the paper's element==block
granularity (Table II) — a "stripe" of a RAID-5 is a row, and
:func:`row_rebuild` is the one routine that rebuilds a block from it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.raid.array import BlockArray, DiskFailure
from repro.raid.layouts import Raid5Layout, cell_role, data_disk, locate_block, parity_disk
from repro.util.blocks import xor_reduce

__all__ = ["Raid5Array", "row_rebuild"]


def row_rebuild(array: BlockArray, width: int, disks, blocks,
                fetch: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """XOR of the other ``width-1`` blocks of each element's RAID-5 row.

    The row mates (element order, disks ascending) come from one
    ``fetch`` — ``array.read_blocks`` (counted, plane-hooked) or
    ``array.gather_raw`` (uncounted) — and one reduction folds them.  A
    mate on a failed disk raises :class:`DiskFailure` after the mates
    before it were fetched, as reading them one by one would.
    """
    disks = np.asarray(disks, dtype=np.intp).ravel()
    blocks = np.asarray(blocks, dtype=np.intp).ravel()
    cols = np.arange(width - 1)
    # mate j of element i: column j, shifted past the lost disk
    mates = (cols + (cols >= disks[:, None])).ravel()
    rows = np.repeat(blocks, width - 1)
    down = sorted(d for d in array.failed_disks if d < width)
    if down and (len(down) > 1 or (disks != down[0]).any()):
        hit = np.flatnonzero(np.isin(mates, down))
        if hit.size:  # a failed mate: the mates before it are read, then it fails
            fetch(mates[: hit[0]], rows[: hit[0]])
            raise DiskFailure(f"disk {int(mates[hit[0]])} has failed")
    fetched = fetch(mates, rows).reshape(disks.size, width - 1, array.block_size)
    return np.bitwise_xor.reduce(fetched, axis=1)


class Raid5Array:
    """A RAID-5 volume over a :class:`BlockArray`.

    Parameters
    ----------
    array:
        Physical substrate (its first ``n_disks`` disks are used).
    layout:
        Parity rotation; the paper's default is left-asymmetric.
    n_disks:
        Width of the RAID-5; defaults to the whole array.  The migration
        engine narrows this when extra disks have been hot-added but not
        yet incorporated.
    """

    def __init__(
        self,
        array: BlockArray,
        layout: Raid5Layout = Raid5Layout.LEFT_ASYMMETRIC,
        n_disks: int | None = None,
    ):
        self.array = array
        self.layout = layout
        self.n = array.n_disks if n_disks is None else n_disks
        if self.n < 3:
            raise ValueError("RAID-5 needs >= 3 disks")
        if self.n > array.n_disks:
            raise ValueError("RAID-5 wider than the physical array")

    # ------------------------------------------------------------ geometry
    @property
    def stripes(self) -> int:
        return self.array.blocks_per_disk

    @property
    def capacity_blocks(self) -> int:
        """Logical data blocks."""
        return self.stripes * (self.n - 1)

    def parity_disk(self, stripe: int) -> int:
        return parity_disk(self.layout, stripe, self.n)

    def locate(self, lba: int) -> tuple[int, int]:
        """Logical block -> (stripe, disk)."""
        if not 0 <= lba < self.capacity_blocks:
            raise IndexError(f"lba {lba} outside capacity {self.capacity_blocks}")
        return locate_block(self.layout, lba, self.n)

    # ------------------------------------------------------------- bulk fill
    def format_with(self, data: np.ndarray) -> None:
        """Write logical data blocks 0..len-1 and the parities of the
        stripes they fill (whole stripes, at most :attr:`capacity_blocks`).

        Uncounted (models the array's pre-existing state, not migration
        traffic).
        """
        data = np.asarray(data, dtype=np.uint8)
        n_stripes, partial = divmod(len(data), self.n - 1)
        if partial or n_stripes > self.stripes or data.shape[1:] != (self.array.block_size,):
            raise ValueError(
                f"need whole stripes of ({self.n - 1}, {self.array.block_size}) blocks, "
                f"at most {self.capacity_blocks}"
            )
        for lba in range(len(data)):
            stripe, disk = self.locate(lba)
            self.array.raw(disk, stripe)[...] = data[lba]
        for stripe in range(n_stripes):
            pd = self.parity_disk(stripe)
            views = [
                self.array.raw(d, stripe) for d in range(self.n) if d != pd
            ]
            xor_reduce(views, out=self.array.raw(pd, stripe))

    # ------------------------------------------------------------------- I/O
    def read(self, lba: int) -> np.ndarray:
        """Logical read; reconstructs through parity when the disk failed."""
        stripe, disk = self.locate(lba)
        if disk in self.array.failed_disks:
            return row_rebuild(self.array, self.n, [disk], [stripe], self.array.read_blocks)[0]
        return self.array.read(disk, stripe)

    def write(self, lba: int, payload: np.ndarray) -> int:
        """Logical read-modify-write; returns I/Os performed.

        The standard small-write path: read old data + old parity, write
        new data + new parity (4 I/Os).  Degraded variants fall back to
        full-stripe reconstruction of the missing piece.
        """
        stripe, disk = self.locate(lba)
        pd = self.parity_disk(stripe)
        payload = np.asarray(payload, dtype=np.uint8)
        failed = self.array.failed_disks
        ios = 0
        if disk in failed:
            # data disk gone: refresh parity so the write is still durable.
            others = [
                self.array.read(d, stripe)
                for d in range(self.n)
                if d not in (disk, pd)
            ]
            ios += len(others)
            new_parity = xor_reduce(others + [payload]) if others else payload.copy()
            self.array.write(pd, stripe, new_parity)
            return ios + 1
        old = self.array.read(disk, stripe)
        ios += 1
        self.array.write(disk, stripe, payload)
        ios += 1
        if pd not in failed:
            old_parity = self.array.read(pd, stripe)
            ios += 1
            delta = np.bitwise_xor(old, payload)
            self.array.write(pd, stripe, np.bitwise_xor(old_parity, delta))
            ios += 1
        return ios

    # ---------------------------------------------------------------- repair
    def rebuild_disk(self, disk: int) -> None:
        """Reconstruct a replaced disk: one row-mate read, one bulk write."""
        self.array.replace_disk(disk)
        lost = np.full(self.stripes, disk)
        stripes = np.arange(self.stripes)
        image = row_rebuild(self.array, self.n, lost, stripes, self.array.read_blocks)
        self.array.write_blocks(lost, stripes, image)

    # ----------------------------------------------------------------- audit
    def verify(self) -> bool:
        """Uncounted parity scrub over every stripe."""
        from repro.raid.scrub import scrub_raid5

        return scrub_raid5(self).clean

    def parity_map(self) -> list[tuple[int, int]]:
        """(stripe, parity disk) for every stripe — used by the planner."""
        return [(s, self.parity_disk(s)) for s in range(self.stripes)]

    def logical_of(self, stripe: int, disk: int) -> int | None:
        """Inverse mapping; ``None`` for parity cells."""
        k = cell_role(self.layout, stripe, disk, self.n)
        if k is None:
            return None
        return stripe * (self.n - 1) + k

    def data_disk_of(self, stripe: int, k: int) -> int:
        return data_disk(self.layout, stripe, self.n, k)
