"""Disk failures injected during the online conversion (Table VI, live)."""

import numpy as np
import pytest

from repro.core import Code56Migrator
from repro.migration import DiskFailureEvent, OnlineCode56Conversion, OnlineRequest
from repro.raid import BlockArray, Raid5Array, Raid5Layout


def fresh(rng, p=5, groups=8, bs=8):
    m = p - 1
    array = BlockArray(m, groups * (p - 1), block_size=bs)
    r5 = Raid5Array(array, Raid5Layout.LEFT_ASYMMETRIC)
    data = rng.integers(0, 256, size=(r5.capacity_blocks, bs), dtype=np.uint8)
    r5.format_with(data)
    array.add_disk()
    return array, data


class TestDataDiskFailure:
    @pytest.mark.parametrize("fail_disk", [0, 1, 3])
    def test_conversion_completes_degraded(self, fail_disk, rng):
        array, data = fresh(rng)
        conv = OnlineCode56Conversion(array, 5)
        report = conv.run([], failures=[DiskFailureEvent(time=30.0, disk=fail_disk)])
        assert report.failures_survived == 1
        assert report.degraded_reads > 0
        assert report.parities_generated == 8 * 4

    def test_data_recoverable_after_rebuild(self, rng):
        array, data = fresh(rng)
        mig = Code56Migrator(array, 5)
        report = mig.convert_online(failures=[DiskFailureEvent(time=25.0, disk=2)])
        r6 = mig.as_raid6()
        r6.rebuild_disks(2)
        assert r6.verify()
        for lba in range(r6.capacity_blocks):
            assert np.array_equal(r6.read(lba), data[lba])

    def test_early_failure_costs_more_degraded_reads(self, rng):
        def run(t):
            array, _ = fresh(rng, groups=10)
            conv = OnlineCode56Conversion(array, 5)
            return conv.run([], failures=[DiskFailureEvent(time=t, disk=1)])

        early = run(0.0)
        late = run(1e9)
        assert early.degraded_reads > late.degraded_reads
        assert late.degraded_reads == 0

    def test_writes_during_degraded_window(self, rng):
        array, data = fresh(rng, groups=10)
        truth = data.copy()
        mig = Code56Migrator(array, 5)
        reqs = []
        for t in (10.0, 60.0, 150.0, 1e6):
            lba = int(rng.integers(0, len(truth)))
            payload = rng.integers(0, 256, size=8, dtype=np.uint8)
            truth[lba] = payload
            reqs.append(OnlineRequest(time=t, lba=lba, is_write=True, payload=payload))
        mig.convert_online(reqs, failures=[DiskFailureEvent(time=5.0, disk=0)])
        r6 = mig.as_raid6()
        r6.rebuild_disks(0)
        assert r6.verify()
        for lba in range(r6.capacity_blocks):
            assert np.array_equal(r6.read(lba), truth[lba]), lba

    def test_write_to_failed_disk_is_reconstruct_write(self, rng):
        """A write whose home disk is gone lands only in the parities."""
        array, data = fresh(rng, groups=6)
        truth = data.copy()
        mig = Code56Migrator(array, 5)
        # find an lba on disk 1
        conv = OnlineCode56Conversion(array, 5)
        lba = next(
            i for i in range(conv.capacity_blocks) if conv.locate(i)[2] == 1
        )
        payload = rng.integers(0, 256, size=8, dtype=np.uint8)
        truth[lba] = payload
        mig.convert_online(
            [OnlineRequest(time=10.0, lba=lba, is_write=True, payload=payload)],
            failures=[DiskFailureEvent(time=0.0, disk=1)],
        )
        r6 = mig.as_raid6()
        r6.rebuild_disks(1)
        assert np.array_equal(r6.read(lba), payload)
        for i in range(r6.capacity_blocks):
            assert np.array_equal(r6.read(i), truth[i])

    def test_degraded_read_served_correctly(self, rng):
        array, data = fresh(rng)
        conv = OnlineCode56Conversion(array, 5)
        report = conv.run(
            [OnlineRequest(time=20.0, lba=3, is_write=False)],
            failures=[DiskFailureEvent(time=0.0, disk=conv.locate(3)[2])],
        )
        # the degraded read cost m-1 ticks instead of 1
        assert report.request_latencies[0] == 3


class TestNewDiskFailure:
    def test_losing_the_diagonal_disk_aborts(self, rng):
        array, _ = fresh(rng)
        conv = OnlineCode56Conversion(array, 5)
        with pytest.raises(RuntimeError, match="diagonal-parity disk"):
            conv.run([], failures=[DiskFailureEvent(time=10.0, disk=4)])

    def test_old_disks_untouched_after_abort(self, rng):
        """The abort leaves a consistent RAID-5 — nothing was destroyed."""
        array, data = fresh(rng)
        before_r5 = array.snapshot()[:4]
        conv = OnlineCode56Conversion(array, 5)
        with pytest.raises(RuntimeError):
            conv.run([], failures=[DiskFailureEvent(time=10.0, disk=4)])
        assert np.array_equal(array.snapshot()[:4], before_r5)
        array.replace_disk(4)
        r5 = Raid5Array(array, Raid5Layout.LEFT_ASYMMETRIC, n_disks=4)
        assert r5.verify()


class TestBoundaryInstants:
    def test_failure_exactly_on_a_parity_generation_tick(self, rng):
        """The failure instant coincides with a generation completing.

        At p=5 a healthy diagonal-parity generation costs 5 ticks (4 chain
        reads + 1 write), so tick 5.0 is exactly the boundary after the
        first parity: the failure must apply *at* the boundary — the
        completed parity stands, everything later runs degraded.
        """
        array, data = fresh(rng, groups=6)
        mig = Code56Migrator(array, 5)
        report = mig.convert_online(failures=[DiskFailureEvent(time=5.0, disk=1)])
        assert report.failures_survived == 1
        assert report.parities_generated == 6 * 4
        assert report.degraded_reads > 0
        r6 = mig.as_raid6()
        r6.rebuild_disks(1)
        assert r6.verify()
        for lba in range(r6.capacity_blocks):
            assert np.array_equal(r6.read(lba), data[lba])

    def test_diagonal_disk_failure_at_tick_zero(self, rng):
        """Losing the new column before any parity exists still aborts
        cleanly — and a replacement disk restarts from scratch."""
        array, data = fresh(rng)
        before_r5 = array.snapshot()[:4]
        conv = OnlineCode56Conversion(array, 5)
        with pytest.raises(RuntimeError, match="diagonal-parity disk"):
            conv.run([], failures=[DiskFailureEvent(time=0.0, disk=4)])
        assert np.array_equal(array.snapshot()[:4], before_r5)
        array.replace_disk(4)
        retry = OnlineCode56Conversion(array, 5)
        retry.run([])
        assert retry.verify()

    def test_failure_lands_inside_an_app_writes_rmw_window(self, rng):
        """A write and the failure of its home disk share one timestamp.

        Failure events sort before requests at equal times, so the RMW
        runs entirely degraded: the write's home disk is already gone and
        the update must land via reconstruct-write in the parities only.
        """
        array, data = fresh(rng, groups=6)
        truth = data.copy()
        mig = Code56Migrator(array, 5)
        conv_probe = OnlineCode56Conversion(array, 5)
        lba = next(
            i for i in range(conv_probe.capacity_blocks)
            if conv_probe.locate(i)[2] == 2
        )
        payload = rng.integers(0, 256, size=8, dtype=np.uint8)
        truth[lba] = payload
        report = mig.convert_online(
            [OnlineRequest(time=40.0, lba=lba, is_write=True, payload=payload)],
            failures=[DiskFailureEvent(time=40.0, disk=2)],
        )
        assert report.failures_survived == 1
        r6 = mig.as_raid6()
        r6.rebuild_disks(2)
        assert r6.verify()
        assert np.array_equal(r6.read(lba), payload)
        for i in range(r6.capacity_blocks):
            assert np.array_equal(r6.read(i), truth[i])


class TestVerifyGuards:
    def test_verify_refuses_degraded_array(self, rng):
        array, _ = fresh(rng)
        conv = OnlineCode56Conversion(array, 5)
        conv.run([], failures=[DiskFailureEvent(time=0.0, disk=1)])
        with pytest.raises(RuntimeError, match="rebuild"):
            conv.verify()


class TestJournalWatermarkEdges:
    """Resume edge cases of the OnlineJournal watermark (Algorithm 2)."""

    P, GROUPS = 5, 2
    ROWS = P - 1

    def partial(self, rng, steps):
        """Convert exactly ``steps`` parities through the step API, then
        'crash' by abandoning the converter (journal + array survive)."""
        from repro.faults.journal import OnlineJournal
        from repro.migration.online import OnlineReport

        array, data = fresh(rng, p=self.P, groups=self.GROUPS)
        journal = OnlineJournal(self.GROUPS, self.ROWS)
        conv = OnlineCode56Conversion(array, self.P, journal=journal)
        report = OnlineReport()
        for _ in range(steps):
            conv.generate_step(report)
            conv.mark_step()
        return array, data, journal

    def assert_complete(self, resumed, array, data):
        assert resumed.verify()
        r5 = Raid5Array(array, Raid5Layout.LEFT_ASYMMETRIC, n_disks=self.P - 1)
        for lba in range(r5.capacity_blocks):
            assert np.array_equal(r5.read(lba), data[lba]), lba

    def test_resume_exactly_at_group_boundary(self, rng):
        """Crash with group 0 fully marked: resume must trust every
        group-0 mark and restart generation at (1, 0), not re-walk or
        re-write anything inside the completed group."""
        array, data, journal = self.partial(rng, steps=self.ROWS)
        assert journal.count() == self.ROWS
        writes_before = array.writes.copy()
        resumed = OnlineCode56Conversion(array, self.P, journal=journal)
        assert resumed.pending_parity() == (1, 0)
        report = resumed.run([])
        # only group 1's parities cost conversion ticks on resume
        assert report.conversion_ticks == self.ROWS * (self.P - 1)
        # exactly one counted parity write per remaining entry
        assert array.writes[-1] - writes_before[-1] == self.ROWS
        self.assert_complete(resumed, array, data)

    def test_resume_after_crash_between_last_mark_and_verify(self, rng):
        """Crash after the final mark but before verify: the journal is
        complete, so resume validates it and performs zero conversion."""
        total = self.GROUPS * self.ROWS
        array, data, journal = self.partial(rng, steps=total)
        assert journal.count() == total
        resumed = OnlineCode56Conversion(array, self.P, journal=journal)
        assert resumed.conversion_done
        assert resumed.pending_parity() is None
        report = resumed.run([])
        assert report.conversion_ticks == 0
        self.assert_complete(resumed, array, data)

    def test_duplicated_mark_replay_is_idempotent(self, rng):
        """A replayed journal tail re-marks entries already marked and
        carries one record whose parity write never landed: duplicates
        are harmless, the stale mark is dropped and regenerated."""
        array, data, journal = self.partial(rng, steps=3)
        for g, r in ((0, 0), (0, 1), (0, 2)):  # the replayed tail
            journal.mark(g, r)
        journal.mark(0, 3)  # record without its parity write
        resumed = OnlineCode56Conversion(array, self.P, journal=journal)
        assert not journal.is_marked(0, 3)  # stale: unmarked on validation
        assert journal.is_marked(0, 2)  # duplicates stayed trusted
        assert resumed.pending_parity() == (0, 3)
        resumed.run([])
        assert journal.count() == self.GROUPS * self.ROWS
        self.assert_complete(resumed, array, data)


class TestPlaneScheduledFailure:
    """A plane-scheduled data-disk failure can land on any plane op of
    the conversion, a chain read included; the conversion survives each
    one and the rebuilt array verifies."""

    P, GROUPS = 5, 3

    def _convert(self, scenario):
        from repro.faults import FaultPlane

        array, _data = fresh(np.random.default_rng(5), p=self.P, groups=self.GROUPS)
        plane = FaultPlane(scenario)
        plane.attach(array)
        conv = OnlineCode56Conversion(array, self.P)
        report = conv.run([])
        plane.detach()
        return array, conv, report, plane

    def test_every_op(self):
        from repro.codes.registry import get_code
        from repro.faults import FaultScenario
        from repro.faults.spec import DiskFailureAt
        from repro.raid.raid6 import Raid6Array

        *_, quiet = self._convert(FaultScenario())
        ops = quiet.snapshot()["ops_seen"]
        assert ops > 0
        for op in range(ops):
            scenario = FaultScenario(disk_failures=(DiskFailureAt(op=op, disk=1),))
            array, conv, report, _plane = self._convert(scenario)
            assert array.failed_disks == {1}, op
            assert report.parities_generated == self.GROUPS * (self.P - 1), op
            Raid6Array(array, get_code("code56", self.P)).rebuild_disks(1)
            assert conv.verify(), op
