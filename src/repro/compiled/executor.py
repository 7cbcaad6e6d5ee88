"""Execute compiled conversion programs against a :class:`BlockArray`.

:func:`run_phase` is the one phase runner: :func:`execute_compiled` and
the crash-consistent runner (:mod:`repro.faults.checkpoint`) both call
it.  Migrations, NULL writes and trims go through the array's counted
bulk I/O API.  Parity work always runs the phase's
:class:`~repro.compiled.program.FusedPhase`: its region ops XOR strided
views of the block store directly into a reused scratch buffer through
the selected :class:`~repro.kernels.base.XorKernel` backend — no stripe
tensor, no gather-copy-scatter round trip.  Parity writes stay on the
counted :meth:`BlockArray.write_blocks`.  Reused parities are audited
as zero residues (:class:`~repro.compiled.program.ResidueFamily`): the
chain's members XOR the stored parity in place, and a nonzero residue
row is a bad location — no recomputed parity, no copy, no compare.
Chains that do not stack into a family, or that another op references,
keep the ``out[check_src]`` compare (``FusedPhase.compared``).

The views bypass the counted read path, so the phase's reads are
accounted one of two ways:

* **credited** (no fault plane): :meth:`BlockArray.credit_ios` adds the
  per-disk reads the audited engine performs;
* **issued** (fault plane attached): the runner first performs the
  phase's counted reads (``read_disk`` / ``read_block``) through
  :meth:`BlockArray.read_blocks` or the reconstructing reader's
  ``read_blocks`` (faulted elements rebuilt from their row mates), so
  crash points, sector errors, transients, disk failures and
  reconstruct counters fire on them.  The bytes are
  discarded: the plane never alters them, and under the RAID-5 row
  invariant a reconstructed block equals its store view.

The route is chosen after those reads, since a plane can fail a disk
mid-read.  With a reconstructing reader and exactly one failed RAID-5
data disk, the phase runs rerouted around it
(:func:`~repro.compiled.compiler.reroute_failed_disk`), and its audit
skips that disk's check cells.  Any other failed disk under a read
operand raises the array's :class:`~repro.raid.array.DiskFailure`
through the counted read.

Results are byte-identical to the audited engine with identical
per-disk counters (tested for every supported conversion).  Each
phase's ``compiled.phase`` span names its route (``path``: ``fused``,
or ``none`` for a phase without parity work) and its audit (``audit``:
``residue`` when every check cell is a zero residue, ``compare`` when
any is compared, ``none`` without reused parities).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.compiled.compiler import UnsupportedPlanError, compile_plan, reroute_failed_disk
from repro.compiled.program import CompiledPlan, FusedPhase, PhaseProgram
from repro.kernels import XorKernel, resolve_kernel
from repro.migration.engine import ConversionResult
from repro.migration.plan import ConversionPlan
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.raid.array import BlockArray

__all__ = ["run_phase", "execute_compiled", "execute_plan_compiled"]


class _ScratchPool(threading.local):
    """Grow-only scratch backing for phase buffers, one per thread.

    One flat uint8 allocation is reused for every phase's fused output
    and residue region (and across executor calls within
    a thread), eliminating the per-phase large-allocation churn.
    ``take`` returns a shaped view of the pool — callers must be done
    with the previous view before taking the next (phases are
    sequential, so they are).  Each thread sees its own buffer, so
    concurrent conversions never share scratch.
    """

    def __init__(self) -> None:
        self._buf = np.empty(0, dtype=np.uint8)

    def reserve(self, nbytes: int) -> None:
        if self._buf.size < nbytes:
            self._buf = np.empty(nbytes, dtype=np.uint8)

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        n = int(np.prod(shape))
        self.reserve(n)
        return self._buf[:n].reshape(shape)


_SCRATCH = _ScratchPool()


#: per-chain destination-tile budget for the cross-op slot tiling below
_SLOT_TILE_BYTES = 1 << 17


def _slot_tile(batch: int, block_size: int) -> int:
    return max(1, min(batch, _SLOT_TILE_BYTES // block_size))


def _fused_rows(fz: FusedPhase, block_size: int) -> int:
    """Scratch rows of a fused phase: chain outputs plus one tile of the
    widest residue family."""
    widest = max((len(f.chains) for f in fz.residue), default=0)
    return fz.n_chains * fz.batch + widest * _slot_tile(fz.batch, block_size)


def _audit_route(ph: PhaseProgram, fz: FusedPhase) -> str:
    """``compiled.phase``'s ``audit`` attribute for ``ph`` run on ``fz``."""
    if not ph.check_disk.size:
        return "none"
    return "compare" if fz.compared.any() else "residue"


def _nonzero_rows(rows: np.ndarray) -> int:
    """Count the nonzero rows; one vectorised pass when all are zero."""
    words = rows.view(np.uint64) if rows.shape[1] % 8 == 0 else rows
    if not np.count_nonzero(words):
        return 0
    return int(np.count_nonzero(words.any(axis=1)))


def _run_phase_fused(
    ph: PhaseProgram,
    fz: FusedPhase,
    array: BlockArray,
    kernel: XorKernel,
    audit: np.ndarray | slice,
    credit: bool,
) -> None:
    """Run ``fz``; ``audit`` narrows ``fz.compared``, the reused-parity
    check cells to compare (a degraded phase skips the cells on its
    failed disk, whose bytes are not the true ones; its rerouted phase
    has no residue families).  ``credit`` adds ``fz.read_credit`` to the
    array's counters — False when the caller issued the reads itself."""
    bs = array.block_size
    batch = fz.batch
    store = array.bulk_view(slice(None), slice(None)).reshape(-1, bs)
    scratch = _SCRATCH.take((_fused_rows(fz, bs), bs))
    out = scratch[: fz.n_chains * batch]
    residue = scratch[fz.n_chains * batch :]
    audited = {ci for f in fz.residue for ci in f.chains}
    ops = [op for op in fz.ops if op.chain_index not in audited]

    # Cache-block across *chains*, not within one: the phase's chains all
    # read the same per-group source region, so computing every chain for
    # a tile of groups before advancing reuses those blocks from cache
    # instead of streaming the full source extent once per chain.
    tile = _slot_tile(batch, bs)

    def operand(term, lo: int, hi: int) -> np.ndarray:
        if term.kind == "stride":
            return store[term.start + lo * term.step :: term.step][: hi - lo]
        if term.kind == "const":
            return store[term.start : term.start + 1]
        if term.kind == "gather":
            return store[term.indices[lo:hi]]
        return out[term.ref * batch + lo : term.ref * batch + hi]  # 'ref'

    xor_bytes = 0
    bad = 0
    for lo in range(0, batch, tile):
        hi = min(batch, lo + tile)
        for op in ops:
            dst = out[op.chain_index * batch + lo : op.chain_index * batch + hi]
            kernel.region_xor_reduce(dst, [operand(t, lo, hi) for t in op.terms], init=True)
            xor_bytes += len(op.terms) * dst.nbytes
            for sp in op.sparse:
                # sp.rows is sorted; select the slots of this tile
                a, b = np.searchsorted(sp.rows, (lo, hi))
                if a < b:
                    kernel.scatter_xor(dst, sp.rows[a:b] - lo, store[sp.indices[a:b]])
                    xor_bytes += int(b - a) * bs
        for fam in fz.residue:
            n = len(fam.chains)
            dst = residue[: (hi - lo) * n]
            kernel.region_xor_reduce(
                dst, [operand(t, lo * n, hi * n) for t in fam.terms], init=True
            )
            xor_bytes += len(fam.terms) * dst.nbytes
            bad += _nonzero_rows(dst)

    if credit:
        # the views above replaced the counted reads; credit the
        # identical per-disk read traffic (duplicates and all)
        array.credit_ios(reads=fz.read_credit)
    if ph.parity_disk.size:
        array.write_blocks(ph.parity_disk, ph.parity_block, out[fz.parity_src])
    compared = fz.compared if isinstance(audit, slice) else fz.compared & audit
    if compared.any():
        actual = array.gather_raw(ph.check_disk[compared], ph.check_block[compared])
        expect = out[fz.check_src[compared]]
        if not np.array_equal(expect, actual):
            bad += int(np.count_nonzero((expect != actual).any(axis=1)))
    if bad:
        raise AssertionError(
            f"pre-existing parity at {bad} location(s) of phase {ph.phase} does "
            "not match the recomputed value — old parity was not valid"
        )

    registry = get_registry()
    if registry.enabled:
        registry.counter("kernels.fused_phases", kernel=kernel.name).inc()
        registry.counter("kernels.region_ops", kernel=kernel.name).inc(
            len(ops) + len(fz.residue)
        )
        registry.counter("kernels.xor_bytes", kernel=kernel.name).inc(xor_bytes)


def _route(ph: PhaseProgram, array: BlockArray, reader) -> FusedPhase | None:
    """The fused phase to run for ``ph`` on ``array``, or None when a
    failed disk is not one ``reader`` can route around (one RAID-5 data
    disk of a plan whose row invariant holds)."""
    failed = array.failed_disks
    if not failed:
        return ph.fused
    if reader is None or not reader.allow or len(failed) > 1 or min(failed) >= reader.m:
        return None
    (disk,) = failed
    fz = reroute_failed_disk(ph.fused, disk, reader.m, array.blocks_per_disk)
    if fz is None:
        raise UnsupportedPlanError(
            f"phase {ph.phase} has an operand straddling failed disk {disk}; "
            "convert with the audited engine"
        )
    return fz


def run_phase(ph: PhaseProgram, array: BlockArray, kernel: XorKernel, reader=None) -> None:
    """Run one compiled phase on ``array`` (counters accumulate).

    ``reader`` is a :class:`~repro.faults.degraded.ReconstructingReader`
    or None.  With one, the counted reads' faulted elements are rebuilt
    from their RAID-5 row mates, and a phase with one failed RAID-5 data
    disk runs rerouted around it.  Without one, every fault propagates.
    """
    read = array.read_blocks if reader is None else reader.read_blocks
    with get_tracer().span(
        f"phase{ph.phase}", cat="compiled.phase", phase=ph.phase, batch=ph.batch,
        migrates=int(ph.migrate_src_disk.size), nulls=int(ph.null_disk.size),
        parities=int(ph.parity_disk.size), path="fused" if ph.batch else "none",
        kernel=kernel.name if ph.batch else "", degraded=bool(array.failed_disks),
    ) as span:
        # migrations: bulk read -> bulk write (counted, queue order)
        if ph.migrate_src_disk.size:
            payload = read(ph.migrate_src_disk, ph.migrate_src_block)
            array.write_blocks(ph.migrate_dst_disk, ph.migrate_dst_block, payload)
        if ph.null_disk.size:
            array.write_zero_blocks(ph.null_disk, ph.null_block)
        if ph.trim_disk.size:  # metadata trims (uncounted)
            array.trim_blocks(ph.trim_disk, ph.trim_block)
        if ph.batch == 0:
            span.set(audit="none")
            return  # pure degrade phase: nothing to generate
        issued = array.fault_plane is not None
        if issued:
            read(ph.read_disk, ph.read_block)  # the plane observes these
        fz = _route(ph, array, reader)
        if fz is None:
            # a failed disk nothing routes around: its counted read
            # raises, and so does a fill the reader cannot rebuild
            if not issued:
                read(ph.read_disk, ph.read_block)
                issued = True
            if reader is not None:
                reader.peek_blocks(ph.fill_disk, ph.fill_block)
            fz = ph.fused
        audit: np.ndarray | slice = slice(None)
        if reader is not None and array.failed_disks:
            audit = ~np.isin(ph.check_disk, sorted(array.failed_disks))
        span.set(audit=_audit_route(ph, fz))
        _run_phase_fused(ph, fz, array, kernel, audit, credit=not issued)


def execute_compiled(
    program: CompiledPlan,
    array: BlockArray,
    kernel: XorKernel | str | None = None,
) -> None:
    """Run every phase of ``program`` on ``array`` (counters accumulate).

    ``kernel`` selects the XOR backend — an :class:`XorKernel` instance,
    a registry name (``"numpy"``, ``"numba"``, ``"auto"``), or None for
    the process default.
    """
    if (array.n_disks, array.blocks_per_disk) != (program.n_disks, program.blocks_per_disk):
        raise ValueError(
            f"array geometry {(array.n_disks, array.blocks_per_disk)} does not "
            f"match program {(program.n_disks, program.blocks_per_disk)}"
        )
    if not isinstance(kernel, XorKernel):
        kernel = resolve_kernel(kernel)
    # size the scratch pool once for the largest phase, so no phase
    # allocates (satellite: no per-op temporary churn)
    bs = array.block_size
    _SCRATCH.reserve(
        max((_fused_rows(ph.fused, bs) * bs for ph in program.phases if ph.batch), default=0)
    )
    for ph in program.phases:
        run_phase(ph, array, kernel)


def execute_plan_compiled(
    plan: ConversionPlan,
    array: BlockArray,
    data: np.ndarray,
    program: CompiledPlan | None = None,
    kernel: XorKernel | str | None = None,
) -> ConversionResult:
    """Drop-in replacement for :func:`repro.migration.execute_plan`.

    Compiles ``plan`` (cached across calls) and executes it in bulk;
    raises :class:`~repro.compiled.compiler.UnsupportedPlanError` when
    the plan cannot be batched faithfully — fall back to the audited
    engine in that case.  ``kernel`` is forwarded to
    :func:`execute_compiled`.
    """
    tracer = get_tracer()
    if program is None:
        with tracer.span(
            "compile", cat="compiled", code=plan.code.name, approach=plan.approach,
            groups=plan.groups,
        ):
            program = compile_plan(plan)
    array.reset_counters()
    with tracer.span(
        "execute", cat="compiled", engine="compiled", code=plan.code.name,
        approach=plan.approach, groups=plan.groups,
    ):
        execute_compiled(program, array, kernel=kernel)
    return ConversionResult(
        array=array,
        plan=plan,
        data=data,
        measured_reads=array.total_reads,
        measured_writes=array.total_writes,
    )
