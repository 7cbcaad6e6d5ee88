"""The key-indexed run program of the batched online converter.

Every batched run on an array with no fault plane and at most one failed
data disk executes as :class:`repro.migration.batch.RunProgram`.  The
oracle is the audited per-parity generator at the *same* budget (the
route the converter takes under a fault plane): bytes, per-disk
counters, ticks, degraded reads, foreground stalls and latencies and the
run accounting must all be identical — healthy, with each failed data
disk, with a failure injected mid-conversion, and on journal-resumed
(gapped) runs.  Resume validation is checked against the old per-cell
loop, kept here as the oracle.
"""

import threading

import numpy as np
import pytest

from repro.codes.code56 import diagonal_chain_cells
from repro.faults.journal import OnlineJournal
from repro.faults.plane import FaultPlane
from repro.kernels import resolve_kernel
from repro.kernels.numpy_backend import NumpyXorKernel
from repro.migration import build_plan, online, prepare_source_array
from repro.migration.batch import RunProgram
from repro.migration.online import (
    DiskFailureEvent,
    OnlineCode56Conversion,
    OnlineReport,
    OnlineRequest,
)
from repro.raid.array import BlockArray, DiskFailure

GROUPS = 3


def _array(p, block_size, groups=GROUPS, seed=0):
    plan = build_plan("code56", "direct", p, groups=groups)
    array, _data = prepare_source_array(plan, np.random.default_rng(seed), block_size=block_size)
    return array


def _requests(p, block_size, groups=GROUPS, seed=1, n=14):
    """Seeded writes (and a few reads) spread over the conversion."""
    rng = np.random.default_rng(seed)
    capacity = groups * (p - 1) * (p - 2)
    reqs, t = [], 0.0
    for _ in range(n):
        t += float(rng.integers(1, 3 * p))
        write = bool(rng.random() < 0.8)
        reqs.append(OnlineRequest(
            time=t,
            lba=int(rng.integers(capacity)),
            is_write=write,
            payload=rng.integers(0, 256, size=block_size, dtype=np.uint8) if write else None,
        ))
    return reqs


class _Route:
    """Counts the runs the program executed and the per-parity parities."""

    def __init__(self, conv):
        self.fused = self.per_parity = 0
        execute, generate = conv._program.execute, conv._generate_parity

        def spy_execute(keys):
            self.fused += 1
            return execute(keys)

        def spy_generate(group, row, report):
            self.per_parity += 1
            return generate(group, row, report)

        conv._program.execute = spy_execute
        conv._generate_parity = spy_generate


def _convert(array, p, batch, requests, failures=(), journal=None, fused=True, monkeypatch=None):
    if not fused:
        monkeypatch.setattr(online, "fused_run_usable", lambda *_a: False)
    conv = OnlineCode56Conversion(array, p, batch=batch, journal=journal)
    route = _Route(conv)
    report = conv.run(requests, failures=list(failures))
    if not fused:
        monkeypatch.undo()
    return conv, report, route


def _assert_identical(a, ra, b, rb):
    failed = a.failed_disks
    assert failed == b.failed_disks
    for d in range(a.n_disks):
        if d not in failed:
            assert np.array_equal(a.bulk_view(slice(d, d + 1), slice(None)),
                                  b.bulk_view(slice(d, d + 1), slice(None))), f"disk {d}"
    assert np.array_equal(a.reads, b.reads)
    assert np.array_equal(a.writes, b.writes)
    for field in ("conversion_ticks", "degraded_reads", "request_stalls",
                  "request_latencies", "runs_committed", "batch_shrinks", "max_run",
                  "app_ticks", "finish_tick", "parities_generated"):
        assert getattr(ra, field) == getattr(rb, field), field


def _budgets(p, groups=GROUPS):
    rows = p - 1
    return (2, rows, rows + rows // 2, groups * rows)


def _cases():
    for p in (5, 7, 13):
        for budget in _budgets(p):
            for failed in (None, *range(p - 1)):
                yield p, budget, failed


class TestBatchedEqualsPerParity:
    @pytest.mark.parametrize("p,budget,failed", list(_cases()))
    def test_bytes_counters_ticks_and_runs(self, p, budget, failed, monkeypatch):
        bs = 8
        reqs = _requests(p, bs)
        fused, oracle = _array(p, bs), _array(p, bs)
        if failed is not None:
            fused.fail_disk(failed)
            oracle.fail_disk(failed)
        conv, rf, route = _convert(fused, p, budget, reqs)
        _c, ro, oroute = _convert(oracle, p, budget, reqs, fused=False, monkeypatch=monkeypatch)
        _assert_identical(fused, rf, oracle, ro)
        assert route.fused == rf.runs_committed and route.per_parity == 0
        assert oroute.fused == 0
        if failed is None:
            assert conv.verify()
        else:
            assert rf.degraded_reads > 0

    @pytest.mark.parametrize("p", [5, 7, 13])
    @pytest.mark.parametrize("budget_of", [lambda p: 2, lambda p: GROUPS * (p - 1)])
    @pytest.mark.parametrize("failed", [None, 1])
    def test_4k_blocks(self, p, budget_of, failed, monkeypatch):
        bs = 4096
        reqs = _requests(p, bs)
        fused, oracle = _array(p, bs), _array(p, bs)
        if failed is not None:
            fused.fail_disk(failed)
            oracle.fail_disk(failed)
        _c, rf, route = _convert(fused, p, budget_of(p), reqs)
        _c, ro, _r = _convert(oracle, p, budget_of(p), reqs, fused=False, monkeypatch=monkeypatch)
        _assert_identical(fused, rf, oracle, ro)
        assert route.fused == rf.runs_committed > 0

    @pytest.mark.parametrize("p,groups", [(5, 48), (13, 6)])
    @pytest.mark.parametrize("failed", [None, 1])
    def test_whole_array_run_spans_several_tiles(self, p, groups, failed):
        ref, arr = _array(p, 4096, groups=groups), _array(p, 4096, groups=groups)
        if failed is not None:
            ref.fail_disk(failed)
            arr.fail_disk(failed)
        rr = OnlineCode56Conversion(ref, p).run([])
        rb = OnlineCode56Conversion(arr, p, batch=groups * (p - 1)).run([])
        assert rb.runs_committed == 1
        assert np.array_equal(ref.bulk_view(slice(p - 1, p), slice(None)),
                              arr.bulk_view(slice(p - 1, p), slice(None)))
        assert np.array_equal(ref.reads, arr.reads)
        assert np.array_equal(ref.writes, arr.writes)
        assert rr.degraded_reads == rb.degraded_reads
        assert rr.conversion_ticks == rb.conversion_ticks

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_matches_unbatched_reference(self, p):
        """Against batch=1 (the paper's interleave): bytes, counters and
        the foreground are identical too."""
        for failed in (None, p - 2):
            ref, arr = _array(p, 8), _array(p, 8)
            if failed is not None:
                ref.fail_disk(failed)
                arr.fail_disk(failed)
            reqs = _requests(p, 8)
            rr = OnlineCode56Conversion(ref, p).run(reqs)
            rb = OnlineCode56Conversion(arr, p, batch=2 * p).run(reqs)
            assert np.array_equal(ref.reads, arr.reads)
            assert np.array_equal(ref.writes, arr.writes)
            assert rr.request_latencies == rb.request_latencies
            assert rr.request_stalls == rb.request_stalls
            assert rr.degraded_reads == rb.degraded_reads
            assert rr.conversion_ticks == rb.conversion_ticks

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_failure_injected_mid_conversion(self, p, monkeypatch):
        for disk in range(p - 1):
            reqs = _requests(p, 8, seed=disk)
            failures = [DiskFailureEvent(time=float(3 * p), disk=disk)]
            fused, oracle = _array(p, 8), _array(p, 8)
            _c, rf, route = _convert(fused, p, p, reqs, failures)
            _c, ro, _r = _convert(oracle, p, p, reqs, failures, fused=False,
                                  monkeypatch=monkeypatch)
            _assert_identical(fused, rf, oracle, ro)
            assert rf.failures_survived == 1
            assert rf.degraded_reads > 0
            assert route.fused == rf.runs_committed and route.per_parity == 0

    @pytest.mark.parametrize("p", [5, 7, 13])
    @pytest.mark.parametrize("failed", [None, 0, 2])
    def test_journal_resumed_gapped_runs(self, p, failed, monkeypatch):
        rows = p - 1
        rng = np.random.default_rng(p)

        def resumed():
            array = _array(p, 8)
            journal = OnlineJournal(GROUPS, rows)
            warm = OnlineCode56Conversion(array, p)
            for key in rng.permutation(GROUPS * rows)[: GROUPS * rows // 2].tolist():
                g, r = divmod(key, rows)
                if key % 3:
                    warm._generate_parity(g, r, OnlineReport())
                journal.mark(g, r)  # every third mark is stale: no bytes
            if failed is not None:
                array.fail_disk(failed)
            array.reset_counters()
            return array, journal

        state = rng.bit_generator.state
        fused, fj = resumed()
        rng.bit_generator.state = state
        oracle, oj = resumed()
        reqs = _requests(p, 8)
        conv, rf, route = _convert(fused, p, rows + 1, reqs, journal=fj)
        _c, ro, _r = _convert(oracle, p, rows + 1, reqs, journal=oj, fused=False,
                              monkeypatch=monkeypatch)
        _assert_identical(fused, rf, oracle, ro)
        assert np.array_equal(fj.marked(), oj.marked()) and fj.count() == GROUPS * rows
        assert fj.appends == oj.appends
        assert route.fused == rf.runs_committed > 0


class TestRouting:
    def _route(self, array, p=5):
        conv = OnlineCode56Conversion(array, p, batch=4)
        route = _Route(conv)
        try:
            conv.run([])
        except DiskFailure:
            pass
        return route

    def test_fused_on_healthy_and_one_failed_data_disk(self):
        assert self._route(_array(5, 8)).per_parity == 0
        for disk in range(4):
            arr = _array(5, 8)
            arr.fail_disk(disk)
            route = self._route(arr)
            assert route.fused > 0 and route.per_parity == 0

    def test_per_parity_under_plane_or_two_failures(self):
        planed = _array(5, 8)
        planed.attach_fault_plane(FaultPlane())
        route = self._route(planed)
        assert route.fused == 0 and route.per_parity == 4 * GROUPS
        two = _array(5, 8)
        two.fail_disk(0)
        two.fail_disk(2)
        route = self._route(two)
        assert route.fused == 0 and route.per_parity > 0

    def test_failed_diagonal_disk_raises_like_per_parity(self):
        fused, ref = _array(5, 8), _array(5, 8)
        fused.fail_disk(4)
        ref.fail_disk(4)
        with pytest.raises(DiskFailure):
            OnlineCode56Conversion(fused, 5, batch=4).run([])
        with pytest.raises(DiskFailure):
            OnlineCode56Conversion(ref, 5).run([])
        assert np.array_equal(fused.reads, ref.reads)
        assert np.array_equal(fused.writes, ref.writes)


class TestWriteAheadOrdering:
    @pytest.mark.parametrize("p", [5, 13])
    @pytest.mark.parametrize("failed", [None, 1])
    def test_group_commit_follows_every_parity_write(self, p, failed):
        """Each run's marks are flushed only once its parity bytes are on
        the diagonal disk, and nothing is marked while it is in flight."""
        m = p - 1
        ref, arr = _array(p, 8), _array(p, 8)
        OnlineCode56Conversion(ref, p).run([])
        if failed is not None:
            arr.fail_disk(failed)
        early = []

        class CheckingJournal(OnlineJournal):
            def mark_many(self, entries):
                for key in np.asarray(entries).tolist():
                    if not np.array_equal(arr.raw(m, key), ref.raw(m, key)):
                        early.append(key)
                super().mark_many(entries)

        journal = CheckingJournal(GROUPS, m)
        conv = OnlineCode56Conversion(arr, p, batch=5, journal=journal)
        conv.generate_run_step(OnlineReport())
        assert journal.count() == 0 and conv.in_flight_run is not None
        conv.mark_run_step()
        assert journal.count() == 5
        conv.run([])
        assert early == [] and journal.count() == GROUPS * m


class TestReadCredit:
    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_credit_rows_sum_to_the_audited_cost(self, p):
        m = p - 1
        arr = _array(p, 8)
        keys = np.arange(GROUPS * m)
        program = RunProgram(arr, p, resolve_kernel(None))
        assert program.read_credit(keys).sum() == len(keys) * (p - 2)
        arr.fail_disk(1)
        credit = program.read_credit(keys)
        assert credit[1] == 0 and credit[m] == 0
        # each chain has one cell on disk 1 except one row per group
        assert credit.sum() == len(keys) * (p - 2) + (len(keys) - GROUPS) * (m - 2)


# ------------------------------------------------------- resume validation
def _old_validate(conv, journal):
    """The per-parity, per-cell resume loop the program replaced."""
    stale = 0
    array, rows, m = conv.array, conv.rows, conv.m
    for group in range(conv.groups):
        for row in range(rows):
            if not journal.is_marked(group, row):
                continue
            acc = np.zeros(array.block_size, dtype=np.uint8)
            for r, c in diagonal_chain_cells(conv.p, row):
                block = group * rows + r
                if c in array.failed_disks:
                    for d in range(m):
                        if d != c:
                            np.bitwise_xor(acc, array.raw(d, block), out=acc)
                else:
                    np.bitwise_xor(acc, array.raw(c, block), out=acc)
            if np.array_equal(array.raw(m, group * rows + row), acc):
                conv._generated[group, row] = True
            else:
                journal.unmark(group, row)
                stale += 1
    return stale


class TestValidateJournal:
    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_matches_the_per_cell_loop(self, p):
        rows, m = p - 1, p - 1
        for failed in (None, *range(m)):
            rng = np.random.default_rng(failed if failed is not None else 99)
            array = _array(p, 8)
            OnlineCode56Conversion(array, p).run([])  # every parity valid
            journal = OnlineJournal(GROUPS, rows)
            for key in rng.permutation(GROUPS * rows)[: 2 * GROUPS * rows // 3].tolist():
                journal.mark(*divmod(key, rows))
            keys = rng.permutation(GROUPS * rows)[:5].tolist()
            for key in keys[:3]:
                journal.mark(*divmod(key, rows))
            block = array.raw(m, keys[0])
            block[: array.block_size // 2] ^= 0xA5  # torn parity write
            for key in keys[1:3]:
                array.raw(m, key)[:] = 0  # stale: the bytes never landed
            data = keys[3]  # a chain cell rewritten after the parity
            array.raw(int(rng.integers(m)), data)[0] ^= 1
            if failed is not None:
                array.fail_disk(failed)
            array.reset_counters()

            plane = FaultPlane()
            array.attach_fault_plane(plane)
            oracle_journal = OnlineJournal(GROUPS, rows)
            oracle_journal.restore_marks(journal.marked())
            conv = OnlineCode56Conversion(array, p, batch=4, journal=journal)
            oracle = OnlineCode56Conversion(array, p, batch=4)
            stale = _old_validate(oracle, oracle_journal)

            assert np.array_equal(journal.marked(), oracle_journal.marked())
            assert np.array_equal(conv._generated, oracle._generated)
            assert plane.counters["stale_checkpoints"] == stale > 0
            assert array.total_ios == 0  # validation is uncounted


# ------------------------------------------------------------ thread safety
class TestConvertersOnThreads:
    def test_two_threads_match_serial(self):
        p, bs, groups, rounds = 13, 4096, 8, 50

        arrays = [_array(p, bs, groups=groups, seed=seed) for seed in (0, 1)]
        sources = [a.snapshot() for a in arrays]

        def convert_once(seed):
            array = arrays[seed]
            array.restore(sources[seed])
            array.reset_counters()
            OnlineCode56Conversion(array, p, batch=groups * (p - 1)).run([])
            return array.snapshot(), array.reads.copy(), array.writes.copy()

        serial = [convert_once(seed) for seed in (0, 1)]
        errors = []

        def worker(seed):
            try:
                for _ in range(rounds):
                    image, reads, writes = convert_once(seed)
                    ok = (np.array_equal(image, serial[seed][0])
                          and np.array_equal(reads, serial[seed][1])
                          and np.array_equal(writes, serial[seed][2]))
                    if not ok:
                        errors.append(seed)
                        return
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


# ------------------------------------------------------- checked bulk ops
class TestBulkFailedDiskCheck:
    def _array(self):
        arr = BlockArray(6, 4, block_size=4)
        arr.fail_disk(1)
        arr.fail_disk(3)
        return arr

    def test_every_bulk_op_names_the_failed_disks(self):
        arr = self._array()
        disks, blocks = [0, 3, 1, 3], [0, 1, 2, 3]
        payloads = np.ones((4, 4), dtype=np.uint8)
        for op in (
            lambda: arr.read_blocks(disks, blocks),
            lambda: arr.write_blocks(disks, blocks, payloads),
            lambda: arr.write_zero_blocks(disks, blocks),
            lambda: arr.trim_blocks(disks, blocks),
        ):
            with pytest.raises(DiskFailure, match=r"disk\(s\) \[1, 3\] have failed"):
                op()
        with pytest.raises(DiskFailure, match=r"disk\(s\) \[3\] have failed"):
            arr.read_blocks([0, 3], [0, 0])
        assert arr.total_ios == 0
        assert arr.read_blocks([0, 2, 5], [0, 1, 2]).shape == (3, 4)

    def test_negative_and_oversized_indices_rejected(self):
        arr = BlockArray(4, 4, block_size=4)
        for disks, blocks in (([-1], [0]), ([4], [0]), ([0], [-1]), ([0], [4])):
            with pytest.raises(IndexError):
                arr.read_blocks(disks, blocks)
            with pytest.raises(IndexError):
                arr.write_blocks(disks, blocks, np.zeros((1, 4), dtype=np.uint8))


# ---------------------------------------------------- stacked kernel path
class TestStackedKernelOperands:
    def test_stacked_equals_sequence(self):
        rng = np.random.default_rng(5)
        cube = rng.integers(0, 256, size=(7, 5, 64), dtype=np.uint8)
        kernel = NumpyXorKernel(tile_bytes=128)
        stacked = np.empty((5, 64), dtype=np.uint8)
        listed = np.empty((5, 64), dtype=np.uint8)
        kernel.region_xor_reduce(stacked, cube)
        kernel.region_xor_reduce(listed, list(cube))
        assert np.array_equal(stacked, listed)
        assert np.array_equal(stacked, np.bitwise_xor.reduce(cube, axis=0))
        acc = listed.copy()
        kernel.region_xor_reduce(acc, cube, init=False)  # accumulate: all cancel
        assert not acc.any()
        empty = np.ones((5, 64), dtype=np.uint8)
        kernel.region_xor_reduce(empty, cube[:0])
        assert not empty.any()
