"""Execute compiled conversion programs against a :class:`BlockArray`.

The executor replays a :class:`CompiledPlan` phase by phase through the
array's counted bulk-I/O API.  Parity work runs on one of two paths:

* **fused** (default when available): the phase's
  :class:`~repro.compiled.program.FusedPhase` region ops XOR strided
  views of the block store directly into a reused scratch buffer through
  the selected :class:`~repro.kernels.base.XorKernel` backend — no
  stripe tensor, no gather-copy-scatter round trip.  Counted reads are
  credited via :meth:`BlockArray.credit_ios` (the views bypass the
  counted gather); parity writes stay on the counted
  :meth:`BlockArray.write_blocks`.  Reused parities are audited as
  zero residues (:class:`~repro.compiled.program.ResidueFamily`): the
  chain's members XOR the stored parity in place, and a nonzero residue
  row is a bad location — no recomputed parity, no copy, no compare.
  Chains that do not stack into a family, or that another op
  references, keep the ``out[check_src]`` compare
  (``FusedPhase.compared``).
* **stripe tensor** (fallback): two gathers into a ``(batch, rows, cols,
  block)`` tensor, one batched :meth:`ArrayCode.encode`, one counted
  scatter.  Used when a phase was not lowered, when a fault plane is
  attached or disks have failed (fault hooks and degraded reads fire on
  the counted entry points the fused path bypasses), or when the caller
  forces it (``use_fused=False``, e.g. for benchmarking the baseline).

The checkpointed runner (:mod:`repro.faults.checkpoint`) also runs
*degraded* phases fused — one failed RAID-5 data disk, no fault plane —
after rerouting the failed disk's operands to their row mates
(:func:`~repro.compiled.compiler.reroute_failed_disk`) and passing an
audit mask that skips that disk's check cells.  This executor never
does: it cannot assume the row invariant the reroute relies on.

Both paths are byte-identical to the audited engine with identical
per-disk counters (tested for every supported conversion); only the
Python and memory-traffic overhead differs.  Each phase's
``compiled.phase`` span names its route (``path``) and its audit
(``audit``: ``residue`` when every check cell is a zero residue,
``compare`` when any is compared, ``none`` without reused parities).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.compiled.compiler import compile_plan
from repro.compiled.program import CompiledPlan, FusedPhase, PhaseProgram
from repro.kernels import XorKernel, resolve_kernel
from repro.migration.engine import ConversionResult
from repro.migration.plan import ConversionPlan
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.raid.array import BlockArray

__all__ = ["execute_compiled", "execute_plan_compiled"]


class _ScratchPool(threading.local):
    """Grow-only scratch backing for phase buffers, one per thread.

    One flat uint8 allocation is reused for every phase's stripe tensor
    or fused output and residue region (and across executor calls within
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


def _fused_usable(array: BlockArray) -> bool:
    """Fused execution bypasses the counted read path, so it is only
    sound when nothing observes that path: no fault plane (crash/tear
    hooks fire on bulk reads) and no failed disks (counted reads raise
    :class:`DiskFailure`; views would silently serve stale bytes).

    This is the executor's own gate.  The checkpointed runner also fuses
    phases with one failed data disk of a zero-movement plan, after
    rerouting that disk's operands to their RAID-5 row mates."""
    return array.fault_plane is None and not array.failed_disks


#: per-chain destination-tile budget for the cross-op slot tiling below
_SLOT_TILE_BYTES = 1 << 17


def _slot_tile(batch: int, block_size: int) -> int:
    return max(1, min(batch, _SLOT_TILE_BYTES // block_size))


def _fused_rows(fz: FusedPhase, block_size: int) -> int:
    """Scratch rows of a fused phase: chain outputs plus one tile of the
    widest residue family."""
    widest = max((len(f.chains) for f in fz.residue), default=0)
    return fz.n_chains * fz.batch + widest * _slot_tile(fz.batch, block_size)


def _audit_route(ph: PhaseProgram, fz: FusedPhase | None) -> str:
    """``compiled.phase``'s ``audit`` attribute for ``ph`` run on ``fz``
    (None: the stripe path)."""
    if not ph.check_disk.size:
        return "none"
    if fz is not None and not fz.compared.any():
        return "residue"
    return "compare"


def _nonzero_rows(rows: np.ndarray) -> int:
    """Count the nonzero rows; one vectorised pass when all are zero."""
    words = rows.view(np.uint64) if rows.shape[1] % 8 == 0 else rows
    if not np.count_nonzero(words):
        return 0
    return int(np.count_nonzero(words.any(axis=1)))


def _raise_invalid_parity(ph: PhaseProgram, locations: int) -> None:
    raise AssertionError(
        f"pre-existing parity at {locations} location(s) of phase "
        f"{ph.phase} does not match the recomputed value — old "
        "parity was not valid"
    )


def _run_phase_fused(
    program: CompiledPlan,
    ph: PhaseProgram,
    fz: FusedPhase,
    array: BlockArray,
    kernel: XorKernel,
    audit: np.ndarray | slice = slice(None),
) -> None:
    """Run ``fz``; ``audit`` narrows ``fz.compared``, the reused-parity
    check cells to compare (a degraded caller skips the cells on its
    failed disk, whose bytes are not the true ones; its rerouted phase
    has no residue families)."""
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

    # the views above replaced the counted stripe gather; credit the
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
        _raise_invalid_parity(ph, bad)

    registry = get_registry()
    if registry.enabled:
        registry.counter("kernels.fused_phases", kernel=kernel.name).inc()
        registry.counter("kernels.region_ops", kernel=kernel.name).inc(
            len(ops) + len(fz.residue)
        )
        registry.counter("kernels.xor_bytes", kernel=kernel.name).inc(xor_bytes)


def _run_phase(
    program: CompiledPlan,
    ph: PhaseProgram,
    array: BlockArray,
    kernel: XorKernel | None = None,
    use_fused: bool = True,
) -> None:
    code = program.code
    # 1. migrations: bulk read → bulk write (counted, queue order)
    if ph.migrate_src_disk.size:
        payload = array.read_blocks(ph.migrate_src_disk, ph.migrate_src_block)
        array.write_blocks(ph.migrate_dst_disk, ph.migrate_dst_block, payload)
    # 2. NULL invalidation writes
    if ph.null_disk.size:
        array.write_zero_blocks(ph.null_disk, ph.null_block)
    # 3. metadata trims (uncounted)
    if ph.trim_disk.size:
        array.trim_blocks(ph.trim_disk, ph.trim_block)
    if ph.batch == 0:
        return  # pure degrade phase: nothing to generate
    if use_fused and ph.fused is not None and _fused_usable(array):
        if kernel is None:
            kernel = resolve_kernel()
        _run_phase_fused(program, ph, ph.fused, array, kernel)
        return
    # 4. assemble the batched stripe tensor
    stripes = _SCRATCH.take((ph.batch, code.rows, code.cols, array.block_size))
    stripes[...] = 0
    flat = stripes.reshape(-1, array.block_size)
    if ph.read_disk.size:
        flat[ph.read_cell] = array.read_blocks(ph.read_disk, ph.read_block)
    if ph.fill_disk.size:
        flat[ph.fill_cell] = array.gather_raw(ph.fill_disk, ph.fill_block)
    # 5. one batched encode for every group of the phase
    code.encode(stripes)
    # 6. scatter the generated parities
    if ph.parity_disk.size:
        array.write_blocks(ph.parity_disk, ph.parity_block, flat[ph.parity_cell])
    # 7. audit reused parities against the recomputed values (engine step 7)
    if ph.check_disk.size:
        actual = array.gather_raw(ph.check_disk, ph.check_block)
        if not np.array_equal(flat[ph.check_cell], actual):
            _raise_invalid_parity(
                ph, int(np.count_nonzero((flat[ph.check_cell] != actual).any(axis=1)))
            )


def execute_compiled(
    program: CompiledPlan,
    array: BlockArray,
    kernel: XorKernel | str | None = None,
    use_fused: bool = True,
) -> None:
    """Run every phase of ``program`` on ``array`` (counters accumulate).

    ``kernel`` selects the XOR backend for fused phases — an
    :class:`XorKernel` instance, a registry name (``"numpy"``,
    ``"numba"``, ``"auto"``), or None for the process default.
    ``use_fused=False`` forces the stripe-tensor path (the pre-fusion
    baseline, kept for benchmarking and as the fault-path engine).
    """
    if (array.n_disks, array.blocks_per_disk) != (program.n_disks, program.blocks_per_disk):
        raise ValueError(
            f"array geometry {(array.n_disks, array.blocks_per_disk)} does not "
            f"match program {(program.n_disks, program.blocks_per_disk)}"
        )
    if not isinstance(kernel, XorKernel):
        kernel = resolve_kernel(kernel)
    fused_ok = use_fused and _fused_usable(array)
    # size the scratch pool once for the largest phase, so no phase
    # allocates (satellite: no per-op temporary churn)
    need = 0
    for ph in program.phases:
        if ph.batch == 0:
            continue
        if fused_ok and ph.fused is not None:
            need = max(need, _fused_rows(ph.fused, array.block_size) * array.block_size)
        else:
            need = max(need, ph.batch * program.rows * program.cols * array.block_size)
    _SCRATCH.reserve(need)
    tracer = get_tracer()
    for ph in program.phases:
        fused = fused_ok and ph.fused is not None
        with tracer.span(
            f"phase{ph.phase}", cat="compiled.phase", phase=ph.phase, batch=ph.batch,
            migrates=int(ph.migrate_src_disk.size), nulls=int(ph.null_disk.size),
            parities=int(ph.parity_disk.size),
            path="fused" if fused else "stripe",
            kernel=kernel.name if fused else "",
            audit=_audit_route(ph, ph.fused if fused else None),
        ):
            _run_phase(program, ph, array, kernel=kernel, use_fused=use_fused)


def execute_plan_compiled(
    plan: ConversionPlan,
    array: BlockArray,
    data: np.ndarray,
    program: CompiledPlan | None = None,
    kernel: XorKernel | str | None = None,
    use_fused: bool = True,
) -> ConversionResult:
    """Drop-in replacement for :func:`repro.migration.execute_plan`.

    Compiles ``plan`` (cached across calls) and executes it in bulk;
    raises :class:`~repro.compiled.compiler.UnsupportedPlanError` when
    the plan cannot be batched faithfully — fall back to the audited
    engine in that case.  ``kernel`` / ``use_fused`` are forwarded to
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
        execute_compiled(program, array, kernel=kernel, use_fused=use_fused)
    return ConversionResult(
        array=array,
        plan=plan,
        data=data,
        measured_reads=array.total_reads,
        measured_writes=array.total_writes,
    )
