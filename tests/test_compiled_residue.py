"""Reused-parity audits as zero residues, and per-thread compiled scratch.

The fused executor audits a reused parity by XOR-ing its chain's members
with the stored parity block: a valid parity leaves a zero residue row.
These tests pin the lowering (which chains join a stacked family, which
keep the ``out[check_src]`` compare), the
failure path against a stripe-tensor reference and the audited engine —
same location count, same bytes and counters at the raise — the route named
in the ``compiled.phase`` span, and that concurrent conversions on two
threads never share scratch.
"""

import re
import threading

import numpy as np
import pytest

from repro.compiled import compile_plan, execute_plan_compiled, reroute_failed_disk
from repro.compiled import executor as executor_mod
from repro.faults import FaultPlane, FaultScenario, execute_checkpointed
from repro.kernels import available_kernels
from repro.migration import build_plan, execute_plan, prepare_source_array
from repro.obs.tracer import Tracer, set_tracer

BACKENDS = available_kernels()
BS = 4096
#: more groups than one slot tile at 4 KiB, so the audit spans tiles
GROUPS = 2 * (executor_mod._SLOT_TILE_BYTES // BS) + 3


def _fused_phase(program):
    (ph,) = [ph for ph in program.phases if ph.fused is not None and ph.check_disk.size]
    return ph


def _residue_chains(fz) -> set[int]:
    return {ci for fam in fz.residue for ci in fam.chains}


def _source(plan, seed=3):
    return prepare_source_array(plan, np.random.default_rng(seed), block_size=BS)


def _flip(array, flat_block: int) -> None:
    disk, block = divmod(flat_block, array.blocks_per_disk)
    disks, blocks = np.array([disk]), np.array([block])
    payload = np.array(array.gather_raw(disks, blocks), copy=True)
    payload[0, 7] ^= 0x5A
    array.restore_blocks(disks, blocks, payload)


def _locations(exc: AssertionError) -> int:
    match = re.search(r"pre-existing parity at (\d+) location\(s\)", str(exc))
    assert match, str(exc)
    return int(match.group(1))


class TestLowering:
    @pytest.mark.parametrize("code", ["code56", "code56-right"])
    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_code56_rows_stack_into_one_family(self, code, p):
        program = compile_plan(build_plan(code, "direct", p, groups=GROUPS))
        ph = _fused_phase(program)
        (fam,) = ph.fused.residue
        assert len(fam.chains) == p - 1
        # p-1 RAID-5 data disks + the stored row parity's disk
        assert len(fam.terms) == p - 1
        assert all(t.kind == "stride" and t.step == 1 for t in fam.terms)
        assert len(fam.chains) * ph.batch == ph.check_disk.size
        assert not ph.fused.compared.any()
        assert executor_mod._audit_route(ph, ph.fused) == "residue"

    @pytest.mark.parametrize("code", ["evenodd", "rdp", "hcode"])
    def test_unstacked_chains_keep_the_compare(self, code):
        ph = _fused_phase(compile_plan(build_plan(code, "via-raid4", 5, groups=GROUPS)))
        fz = ph.fused
        assert fz.residue == ()
        assert fz.compared.shape == fz.check_src.shape and fz.compared.all()
        assert executor_mod._audit_route(ph, fz) == "compare"

    def test_referenced_row_parities_never_join_a_family(self):
        fz = _fused_phase(compile_plan(build_plan("rdp", "via-raid4", 5, groups=GROUPS))).fused
        refs = {t.ref for op in fz.ops for t in op.terms if t.kind == "ref"}
        assert refs & set((fz.check_src // fz.batch).tolist())  # feed RDP's diagonals
        assert not refs & _residue_chains(fz)

    def test_reroute_drops_residue(self):
        plan = build_plan("code56", "direct", 5, groups=4)
        fz = _fused_phase(compile_plan(plan)).fused
        assert fz.residue
        rerouted = reroute_failed_disk(fz, 1, plan.m, plan.blocks_per_disk)
        assert rerouted.residue == () and rerouted.compared.all()


def _source_block(program, ph, flat: int) -> int:
    """Where ``flat`` (as phase ``ph`` sees it) lives in the source array:
    undo the migrations of the phases before ``ph``."""
    bpd = program.blocks_per_disk
    for prev in reversed(program.phases[: program.phases.index(ph)]):
        dst = prev.migrate_dst_disk * bpd + prev.migrate_dst_block
        hit = np.flatnonzero(dst == flat)
        if hit.size:
            flat = int(prev.migrate_src_disk[hit[0]] * bpd + prev.migrate_src_block[hit[0]])
    return flat


def _corruptions(program, kind: str, chain: int | None = None) -> list[int]:
    """One source block to flip, audited in the last slot tile: the stored
    parity of a check cell (``parity``) or a member block of a check
    chain (``data``).  Without ``chain`` the two pick different rows."""
    ph = _fused_phase(program)
    fz = ph.fused
    chains, slots = np.divmod(fz.check_src, fz.batch)
    slot = fz.batch - 1
    in_slot = np.flatnonzero(slots == slot)
    if chain is None:
        chain = int(chains[in_slot[0] if kind == "parity" else in_slot[-1]])
    if kind == "parity":
        entry = in_slot[chains[in_slot] == chain][0]
        flat = int(ph.check_disk[entry] * program.blocks_per_disk + ph.check_block[entry])
    else:
        term = next(t for t in fz.ops[chain].terms if t.kind == "stride")
        flat = term.start + term.step * slot
    return [_source_block(program, ph, flat)]


def _stripe_reference(plan, array) -> None:
    """Test-local reference executor: each phase's read and fill cells
    gathered into the stripe tensor, one ``code.encode``, the parities
    written, then every check cell compared."""
    program = compile_plan(plan)
    code = program.code
    for ph in program.phases:
        if ph.migrate_src_disk.size:
            payload = array.read_blocks(ph.migrate_src_disk, ph.migrate_src_block)
            array.write_blocks(ph.migrate_dst_disk, ph.migrate_dst_block, payload)
        if ph.null_disk.size:
            array.write_zero_blocks(ph.null_disk, ph.null_block)
        if ph.trim_disk.size:
            array.trim_blocks(ph.trim_disk, ph.trim_block)
        if ph.batch == 0:
            continue
        stripes = np.zeros((ph.batch, code.rows, code.cols, array.block_size), dtype=np.uint8)
        flat = stripes.reshape(-1, array.block_size)
        flat[ph.read_cell] = array.read_blocks(ph.read_disk, ph.read_block)
        flat[ph.fill_cell] = array.gather_raw(ph.fill_disk, ph.fill_block)
        code.encode(stripes)
        array.write_blocks(ph.parity_disk, ph.parity_block, flat[ph.parity_cell])
        bad = (flat[ph.check_cell] != array.gather_raw(ph.check_disk, ph.check_block)).any(axis=1)
        if bad.any():
            raise AssertionError(
                f"pre-existing parity at {int(bad.sum())} location(s) of phase "
                f"{ph.phase} — old parity was not valid"
            )


def _run_all(plan, flips, kernel):
    """(fused, stripe reference, audited) outcomes from the same corrupted source."""
    outcomes = []
    for engine in ("fused", "stripe", "audited"):
        array, data = _source(plan)
        for flat in flips:
            _flip(array, flat)
        with pytest.raises(AssertionError, match="old parity was not valid") as exc:
            if engine == "audited":
                execute_plan(plan, array, data)
            elif engine == "stripe":
                _stripe_reference(plan, array)
            else:
                execute_plan_compiled(plan, array, data, kernel=kernel)
        outcomes.append((exc.value, array))
    return outcomes


def _assert_same_failure(plan, flips, kernel, expect: int | None = None):
    (fused_exc, fused), (stripe_exc, stripe), (audited_exc, _a) = _run_all(plan, flips, kernel)
    count = _locations(fused_exc)
    assert count == _locations(stripe_exc) >= 1
    if expect is not None:
        assert count == expect
    # the raise comes after the diagonal parities are written, on both paths
    assert np.array_equal(fused.snapshot(), stripe.snapshot())
    assert np.array_equal(fused.reads, stripe.reads)
    assert np.array_equal(fused.writes, stripe.writes)
    # the audited engine stops at its first bad location, in the last group
    assert f"of group {plan.groups - 1} " in str(audited_exc)
    return count


class TestAuditFailure:
    @pytest.mark.parametrize("kernel", BACKENDS)
    @pytest.mark.parametrize("kind", ["parity", "data"])
    @pytest.mark.parametrize("p", [5, 13])
    def test_code56_single_corruption(self, p, kind, kernel):
        plan = build_plan("code56", "direct", p, groups=GROUPS)
        flips = _corruptions(compile_plan(plan), kind)
        _assert_same_failure(plan, flips, kernel, expect=1)

    @pytest.mark.parametrize("p", [5, 13])
    def test_code56_parity_and_data_of_another_row(self, p):
        plan = build_plan("code56-right", "direct", p, groups=GROUPS)
        program = compile_plan(plan)
        flips = _corruptions(program, "parity") + _corruptions(program, "data")
        _assert_same_failure(plan, flips, None, expect=2)

    @pytest.mark.parametrize("kernel", BACKENDS)
    @pytest.mark.parametrize("kind", ["parity", "data"])
    def test_hcode_compare(self, kind, kernel):
        plan = build_plan("hcode", "via-raid4", 5, groups=GROUPS)
        _assert_same_failure(plan, _corruptions(compile_plan(plan), kind), kernel)

    @pytest.mark.parametrize("kind", ["parity", "data"])
    def test_rdp_every_checked_chain(self, kind):
        plan = build_plan("rdp", "via-raid4", 5, groups=GROUPS)
        program = compile_plan(plan)
        fz = _fused_phase(program).fused
        for chain in sorted(set((fz.check_src // fz.batch).tolist())):
            _assert_same_failure(plan, _corruptions(program, kind, chain), None)

    def test_valid_source_passes(self):
        plan = build_plan("code56", "direct", 13, groups=GROUPS)
        ref, data = _source(plan)
        execute_plan(plan, ref, data)
        array, _ = _source(plan)
        execute_plan_compiled(plan, array, data)
        assert np.array_equal(ref.snapshot(), array.snapshot())
        assert np.array_equal(ref.reads, array.reads)
        assert np.array_equal(ref.writes, array.writes)


def _phase_audits(run) -> list[str]:
    tracer = Tracer(enabled=True)
    prev = set_tracer(tracer)
    try:
        run()
    finally:
        set_tracer(prev)
    return [s.args["audit"] for s in tracer.spans if s.cat == "compiled.phase"]


class TestTrace:
    @pytest.mark.parametrize(
        "code, approach, bare, audits",
        [
            ("code56", "direct", True, ["residue"]),
            ("code56", "direct", False, ["residue"]),
            ("hcode", "via-raid4", True, ["none", "compare"]),
            ("rdp", "via-raid4", True, ["none", "compare"]),
        ],
    )
    def test_executor_span_names_the_audit(self, code, approach, bare, audits):
        """``bare``: no fault plane; a quiet plane keeps the audit route."""
        plan = build_plan(code, approach, 5, groups=4)
        array, data = prepare_source_array(plan, np.random.default_rng(0), block_size=16)
        if not bare:
            FaultPlane(FaultScenario()).attach(array)
        run = lambda: execute_plan_compiled(plan, array, data)  # noqa: E731
        assert _phase_audits(run) == audits

    @pytest.mark.parametrize("failed, audit", [((), "residue"), ((1,), "compare")])
    def test_checkpointed_span_names_the_audit(self, failed, audit):
        plan = build_plan("code56", "direct", 5, groups=4)
        array, data = prepare_source_array(plan, np.random.default_rng(0), block_size=16)
        for d in failed:
            array.fail_disk(d)
        run = lambda: execute_checkpointed(plan, array, data, engine="compiled")  # noqa: E731
        assert _phase_audits(run) == [audit]


class TestThreadScratch:
    RUNS = 20

    def test_threads_get_their_own_pool(self):
        pools = []

        def probe():
            pools.append(executor_mod._SCRATCH.take((4, 64)))

        threads = [threading.Thread(target=probe) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not np.shares_memory(pools[0], pools[1])

    def test_concurrent_conversions_match_serial(self):
        # different shapes, so a shared pool would hand one thread's
        # buffer to the other mid-phase
        jobs = []
        for code, p in (("code56", 5), ("code56-right", 7)):
            plan = build_plan(code, "direct", p, groups=GROUPS)
            program = compile_plan(plan)
            array, data = _source(plan, seed=p)
            source = array.snapshot()
            execute_plan_compiled(plan, array, data, program=program)
            jobs.append((plan, program, data, source, array.snapshot(), array.reads.copy(),
                         array.writes.copy()))

        errors: list[str] = []
        barrier = threading.Barrier(len(jobs))

        def convert(plan, program, data, source, image, reads, writes):
            array, _ = _source(plan, seed=plan.p)
            barrier.wait()
            for i in range(self.RUNS):
                array.restore(source)
                execute_plan_compiled(plan, array, data, program=program)
                if not (
                    np.array_equal(array.snapshot(), image)
                    and np.array_equal(array.reads, reads)
                    and np.array_equal(array.writes, writes)
                ):
                    errors.append(f"{plan.code.name} run {i} diverged from the serial run")

        threads = [threading.Thread(target=convert, args=job) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
