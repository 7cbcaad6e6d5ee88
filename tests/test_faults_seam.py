"""The reconstruct-on-read seam against a per-block reference.

``PerBlockReader`` below is the reader as it was before the seam: every
element one counted ``read``, a fault rebuilt right away by reading its
``m-1`` row mates one by one, and a per-block uncounted ``peek``.  The
seam (one bulk admission, then one row-mate read for every element that
faulted) must land on the same bytes, per-disk counters and fault-plane
snapshot, and a double fault must raise the same exception type.

The mixes keep every transient within the retry budget: an exhausted
transient is tied to an op index, and the bulk order reads a call's
healthy elements before its row mates, so after a fault the same op can
hit a different element.  For the same reason a crash armed inside a
seam call may land on a different read; crashed runs are compared on
bytes and outcome only.
"""

import numpy as np
import pytest

from repro.codes.code56 import diagonal_chain_cells
from repro.faults import (
    FaultPlane,
    FaultScenario,
    ReadFaultError,
    ReconstructingReader,
    SectorError,
    TransientFault,
    TransientIOError,
    execute_checkpointed,
)
from repro.faults.errors import ConversionCrash
from repro.faults.journal import OnlineJournal
from repro.migration.approaches import build_plan
from repro.migration.engine import prepare_source_array
from repro.migration.online import OnlineCode56Conversion, OnlineRequest
from repro.raid.array import DiskFailure

_RECOVERABLE = (DiskFailure, ReadFaultError, TransientIOError)


class PerBlockReader(ReconstructingReader):
    """Reference: per-block reads and row-mate loops."""

    def read_cost(self, disk, block):
        if disk not in self.array.failed_disks:
            try:
                return self.array.read(disk, block), 1
            except _RECOVERABLE:
                if not self.allow or disk >= self.m:
                    raise
        elif not self.allow or disk >= self.m:
            return self.array.read(disk, block), 1
        return self._reconstruct(disk, block), self.m - 1

    def _reconstruct(self, disk, block):
        acc = np.zeros(self.array.block_size, dtype=np.uint8)
        for d in range(self.m):
            if d != disk:
                np.bitwise_xor(acc, self.array.read(d, block), out=acc)
        plane = self.array.fault_plane
        if plane is not None:
            plane.counters["reconstructed_blocks"] += 1
            plane.counters["degraded_reads"] += self.m - 2
        return acc

    def read_blocks_cost(self, disks, blocks):
        out, ios = [], 0
        for d, b in zip(disks, blocks):
            value, cost = self.read_cost(int(d), int(b))
            out.append(value)
            ios += cost
        return np.stack(out), ios

    def peek(self, disk, block):
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

    def peek_blocks(self, disks, blocks):
        return np.stack([self.peek(int(d), int(b)) for d, b in zip(disks, blocks)])


class PerBlockConversion(OnlineCode56Conversion):
    """Reference: the per-parity generator reading its chain block by block."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._reader = PerBlockReader(self.array, self.m)

    def _generate_parity(self, group, parity_row, report):
        acc = np.zeros(self.array.block_size, dtype=np.uint8)
        ios = 0
        for r, c in diagonal_chain_cells(self.p, parity_row):
            value, cost = self._reader.read_cost(c, group * self.rows + r)
            report.degraded_reads += cost - 1
            np.bitwise_xor(acc, value, out=acc)
            ios += cost
        self.array.write(self.m, group * self.rows + parity_row, acc)
        return ios + 1


def _scenario(rng, p, bpd, ops, crash):
    m = p - 1
    return FaultScenario(
        seed=int(rng.integers(1 << 31)),
        sector_errors=tuple(
            SectorError(int(rng.integers(m)), int(rng.integers(bpd)))
            for _ in range(int(rng.integers(0, 3)))
        ),
        transients=tuple(
            TransientFault(op=int(rng.integers(ops)), failures=int(rng.integers(1, 4)))
            for _ in range(int(rng.integers(0, 3)))
        ),
        transient_rate=float(rng.choice([0.0, 0.1])),
        crash_at=int(rng.integers(ops // 2)) if crash else None,
        crash_tear=0.5 if crash and rng.random() < 0.5 else None,
    )


def _source(p, seed, failed):
    plan = build_plan("code56", "direct", p, groups=2)
    array, data = prepare_source_array(plan, np.random.default_rng(seed), block_size=8)
    for d in failed:
        array.fail_disk(d)
    return plan, array, data


def _outcome(array, plane, run):
    try:
        value = run()
    except (DiskFailure, ReadFaultError, TransientIOError, ConversionCrash) as exc:
        return type(exc), None
    return None, (
        array.snapshot().tobytes(), array.reads.tolist(), array.writes.tolist(),
        plane.snapshot(), None if value is None else np.asarray(value).tobytes(),
    )


def _pair(p, seed, failed, scenario, drive):
    """Run ``drive(array, data, reader_cls)`` on the seam and on the reference."""
    outcomes = []
    for reader_cls in (ReconstructingReader, PerBlockReader):
        _plan, array, data = _source(p, seed, failed)
        plane = FaultPlane(scenario)
        plane.attach(array)
        outcomes.append(_outcome(array, plane, lambda: drive(array, data, reader_cls)))
    return outcomes


def _failed(rng, p):
    return (int(rng.integers(p - 1)),) if rng.random() < 0.5 else ()


@pytest.mark.parametrize("p", [5, 7])
def test_read_blocks_matches_per_block(p):
    rng = np.random.default_rng([p, 1])
    bpd = 2 * (p - 1)
    completed = 0
    for seed in range(80):
        scenario = _scenario(rng, p, bpd, 60, crash=False)
        failed = _failed(rng, p)
        k = int(rng.integers(1, 3 * p))
        disks = rng.integers(0, p - 1, k)
        blocks = rng.integers(0, bpd, k)

        def drive(array, _data, reader_cls):
            reader = reader_cls(array, p - 1)
            first, ios = reader.read_blocks_cost(disks, blocks)
            second = reader.read_blocks(disks[::-1], blocks[::-1])
            return np.concatenate([first, second, [np.full(8, ios, dtype=np.uint8)]])

        seam, ref = _pair(p, seed, failed, scenario, drive)
        assert seam == ref, (seed, scenario, failed)
        completed += seam[0] is None
    assert completed > 40


@pytest.mark.parametrize("allow", [True, False])
@pytest.mark.parametrize("p", [5, 7])
def test_peek_blocks_matches_per_block(p, allow):
    rng = np.random.default_rng([p, 2, allow])
    for seed in range(40):
        failed = tuple(sorted(set(rng.integers(0, p, int(rng.integers(0, 3))).tolist())))
        k = int(rng.integers(1, 2 * p))
        disks = rng.integers(0, p, k)
        blocks = rng.integers(0, 2 * (p - 1), k)
        results = []
        for reader_cls in (ReconstructingReader, PerBlockReader):
            _plan, array, _data = _source(p, seed, failed)
            reader = reader_cls(array, p - 1, allow_reconstruction=allow)
            try:
                results.append(reader.peek_blocks(disks, blocks).tobytes())
            except DiskFailure as exc:
                results.append(str(exc))
            assert array.total_reads == 0
        assert results[0] == results[1], (seed, failed)


def _requests(rng, p, n=8):
    capacity = 2 * (p - 1) * (p - 2)
    t, reqs = 0.0, []
    for _ in range(n):
        t += float(rng.integers(1, 6))
        write = bool(rng.random() < 0.7)
        payload = rng.integers(0, 256, 8, dtype=np.uint8) if write else None
        reqs.append(OnlineRequest(t, int(rng.integers(capacity)), write, payload))
    return reqs


@pytest.mark.parametrize("p", [5, 7])
def test_online_per_parity_matches_per_block(p):
    rng = np.random.default_rng([p, 3])
    completed = crashed = 0
    for seed in range(60):
        crash = bool(rng.random() < 0.3)
        scenario = _scenario(rng, p, 2 * (p - 1), 300, crash=crash)
        failed = _failed(rng, p)
        requests = _requests(rng, p)

        def drive(array, _data, reader_cls):
            conv_cls = OnlineCode56Conversion if reader_cls is ReconstructingReader else PerBlockConversion
            journal = OnlineJournal(2, p - 1)
            served = 0
            for _ in range(3):
                conv = conv_cls(array, p, journal=journal)
                try:
                    report = conv.run(requests[served:])
                    return np.array([report.degraded_reads, report.conversion_ticks])
                except ConversionCrash:
                    served += conv.requests_served
                    array.fault_plane.disarm_crash()
            raise AssertionError("crash kept firing")

        seam, ref = _pair(p, seed, failed, scenario, drive)
        if crash and seam[0] is None and ref[0] is None:
            crashed += 1
            # a crash inside a seam call may cut a different read
            assert seam[1][0] == ref[1][0], (seed, scenario, failed)
            continue
        assert seam == ref, (seed, scenario, failed)
        completed += seam[0] is None
    assert completed > 20 and crashed > 5


@pytest.mark.parametrize("p", [5, 7, 13])
def test_compiled_sector_error_matches_audited(p):
    """One sector error under a planed compiled conversion costs what it
    costs the audited engine: the faulted element is rebuilt, the phase
    is not re-read."""
    seen = {}
    for engine in ("audited", "compiled"):
        plan, array, data = _source(p, 0, ())
        plane = FaultPlane(FaultScenario(sector_errors=(SectorError(1, 3),)))
        plane.attach(array)
        execute_checkpointed(plan, array, data, engine=engine)
        snap = plane.snapshot()
        seen[engine] = (
            snap["ops_seen"], snap["sector_errors_hit"], snap["reconstructed_blocks"],
            snap["degraded_reads"], array.reads.tolist(), array.writes.tolist(),
            array.snapshot().tobytes(),
        )
    assert seen["compiled"] == seen["audited"]
    assert seen["compiled"][1:3] == (1, 1)
