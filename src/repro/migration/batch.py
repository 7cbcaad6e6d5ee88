"""Key-indexed run program for the online converter (Algorithm 2, batched).

A batched run is an ascending array of cursor keys ``group * rows +
row``.  A parity's key is also its block on the diagonal disk, and chain
cell ``j`` of key ``k`` sits at flat store index ``idx[k % rows, j] + k
- k % rows``, where the **index table** ``idx`` is derived from
:func:`repro.codes.code56.diagonal_chain_tables`.  A chain cell on a
failed data disk is replaced by its ``m-1`` RAID-5 row mates (data plus
old parity), the reconstruction :func:`repro.raid.raid5.row_rebuild`
performs for the audited per-parity generator.
A **credit table** holds each row's per-disk reads on the audited path.

:class:`RunProgram` runs each tile of a run (a gathered cube sized to
stay in L2) as one gather into the converter's own scratch and one
stacked :meth:`~repro.kernels.base.XorKernel.region_xor_reduce`, then
makes one counted column write (:meth:`BlockArray.write_blocks`, bounds
and failed-disk checks included) and one read credit equal to the
audited per-disk totals — zero counter drift.  It bypasses the counted
read path, so it only runs where nothing observes that path
(:func:`fused_run_usable`): no fault plane and at most one failed disk,
not the diagonal one.  Everything else — fault-planed arrays, two
failures, a failed diagonal disk (whose write raises ``DiskFailure``) —
runs the audited per-parity generator inside
:meth:`OnlineCode56Conversion.generate_run_step`, same run/mark protocol.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.codes.code56 import diagonal_chain_tables
from repro.kernels import XorKernel
from repro.obs.metrics import get_registry
from repro.raid.array import BlockArray

__all__ = ["fused_run_usable", "RunProgram"]

#: gathered-cube budget of one tile: its (chain, parities, block)
#: operands stay resident in L2 while they are reduced
_TILE_BYTES = 1 << 20


def fused_run_usable(array: BlockArray, diagonal_disk: int | None = None) -> bool:
    """Can :class:`RunProgram` run on ``array``?  No fault plane, and at
    most one failed disk, not ``diagonal_disk`` (default: the last,
    hot-added disk)."""
    failed = array.failed_disks
    diagonal = array.n_disks - 1 if diagonal_disk is None else diagonal_disk
    return array.fault_plane is None and len(failed) <= 1 and diagonal not in failed


@lru_cache(maxsize=64)
def _index_tables(
    p: int, blocks_per_disk: int, n_disks: int, failed: frozenset[int]
) -> tuple[np.ndarray, np.ndarray]:
    """``(idx, credit)`` of every parity row with the chain cells on
    failed data disks rebuilt from their RAID-5 row mates (read-only)."""
    m = p - 1
    r_tab, c_tab, _per_col = diagonal_chain_tables(p)
    chains = []
    for rs, cs in zip(r_tab.tolist(), c_tab.tolist()):
        cells: list[tuple[int, int]] = []
        for r, c in zip(rs, cs):
            cells += [(r, d) for d in range(m) if d != c] if c in failed else [(r, c)]
        chains.append(cells)
    width = max(map(len, chains))
    idx = np.empty((m, width), dtype=np.intp)
    credit = np.zeros((m, n_disks), dtype=np.int64)
    for prow, cells in enumerate(chains):
        flat = [d * blocks_per_disk + r for r, d in cells]
        # chain lengths differ by multiples of m-2, which is even: pad
        # with pairs of one cell, which XOR-cancel
        idx[prow] = flat + [flat[0]] * (width - len(flat))
        for _r, d in cells:
            credit[prow, d] += 1
    for table in (idx, credit):
        table.flags.writeable = False
    return idx, credit


class RunProgram:
    """One converter's run program: index tables, credit, scratch.

    The scratch is owned by the program, so converters on different
    threads never share a buffer (numpy ufuncs release the GIL).
    """

    def __init__(self, array: BlockArray, p: int, kernel: XorKernel):
        self.array = array
        self.p = p
        self.kernel = kernel
        self._scratch = np.empty(0, dtype=np.uint8)

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(idx, credit)`` for the array's current failed set."""
        array = self.array
        return _index_tables(self.p, array.blocks_per_disk, array.n_disks, array.failed_disks)

    def chain_xor(self, keys: np.ndarray) -> np.ndarray:
        """Uncounted chain XOR of every parity in ``keys`` (ascending
        cursor keys): a ``(len(keys), block)`` view of the scratch."""
        bs = self.array.block_size
        flat = self.array.bulk_view(slice(None), slice(None)).reshape(-1, bs)
        prows = keys % (self.p - 1)
        offsets = self.tables()[0][prows].T + (keys - prows)  # (chain, parities)
        width, n = offsets.shape
        tile = min(n, max(1, _TILE_BYTES // (width * bs)))
        need = (n + width * tile) * bs
        if self._scratch.size < need:
            self._scratch = np.empty(need, dtype=np.uint8)
        out = self._scratch[: n * bs].reshape(n, bs)
        cube = self._scratch[n * bs : need]
        for lo in range(0, n, tile):
            hi = min(n, lo + tile)
            ops = cube[: width * (hi - lo) * bs].reshape(width, hi - lo, bs)
            np.take(flat, offsets[:, lo:hi], axis=0, out=ops, mode="clip")
            self.kernel.region_xor_reduce(out[lo:hi], ops)
        return out

    def matches(self, keys: np.ndarray) -> np.ndarray:
        """Uncounted: does each parity of ``keys`` hold its chain XOR?"""
        bs = self.array.block_size
        step = max(1, _TILE_BYTES // (self.tables()[0].shape[1] * bs))
        ok = np.empty(keys.size, dtype=bool)
        for lo in range(0, keys.size, step):
            part = keys[lo : lo + step]
            stored = self.array.gather_raw(np.full(part.size, self.p - 1), part)
            ok[lo : lo + step] = (self.chain_xor(part) == stored).all(axis=1)
        return ok

    def read_credit(self, keys: np.ndarray) -> np.ndarray:
        """Per-disk reads the audited path performs for ``keys``."""
        return self.tables()[1][keys % (self.p - 1)].sum(axis=0)

    def execute(self, keys: np.ndarray) -> int:
        """Generate every diagonal parity of ``keys`` and write it.

        Returns the conversion-thread cost in Te ticks — the audited
        path's chain reads (``m-1`` per reconstructed cell) plus one
        write per parity.  Byte- and counter-identical to looping
        ``_generate_parity`` over the run.
        """
        out = self.chain_xor(keys)
        reads = self.read_credit(keys)
        self.array.credit_ios(reads=reads)
        self.array.write_blocks(np.full(keys.size, self.p - 1), keys, out)
        registry = get_registry()
        if registry.enabled:
            name = self.kernel.name
            registry.counter("online.fused_runs", kernel=name).inc()
            registry.counter("online.fused_parities", kernel=name).inc(keys.size)
            registry.counter("online.fused_xor_bytes", kernel=name).inc(
                self.tables()[0].shape[1] * out.nbytes
            )
        return int(reads.sum()) + keys.size
