"""Fleet drain bookkeeping against its per-sample and per-block oracles.

The breaker's window quantiles, the divergence reference, the converter
audit and the scrub run as whole-array operations; each test here pins
them to the straightforward implementation they replaced (kept below as
oracles) or to ``np.percentile`` itself, float for float and byte for
byte.
"""

import numpy as np
import pytest

from repro.codes.code56 import diagonal_chain_cells, diagonal_chain_tables
from repro.faults.events import DiskFailureEvent
from repro.fleet import CircuitBreaker, FleetVolume, QosTarget, SparePool, VolumeSpec
from repro.fleet.qos import percentile_sorted
from repro.fleet.spares import ScrubCursor
from repro.migration.online import OnlineRequest
from repro.raid.layouts import locate_block, parity_disk

QS = (0, 1, 25, 50, 95, 99, 99.9, 100)


def bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


# ---------------------------------------------------------------- quantiles
def _windows(rng, n):
    yield rng.random(n) * 100.0  # continuous
    yield rng.integers(0, 4, n).astype(float)  # heavy ties
    yield rng.integers(0, 200, n).astype(float)  # integer ticks
    yield rng.random(n) * 1e-300  # tiny
    yield rng.integers(1, 50, n) * 5e-324  # subnormal
    yield 1e307 + rng.random(n) * 1.6e308  # huge (finite)


class TestPercentileSorted:
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_numpy(self, seed):
        rng = np.random.default_rng(seed)
        for n in range(1, 33):
            for w in _windows(rng, n):
                ordered = sorted(w.tolist())
                for q in QS:
                    assert bits(percentile_sorted(ordered, q)) == bits(
                        np.percentile(w, q)
                    ), (n, q, w)

    def test_breaker_window_percentile_matches_numpy(self):
        rng = np.random.default_rng(5)
        br = CircuitBreaker(QosTarget(p99_ticks=None), window=32, min_samples=1)
        seen = []
        for t in range(100):
            lat = float(rng.integers(1, 40)) + float(rng.random())
            seen.append(lat)
            br.observe(lat, float(t))
            for q in (50, 95, 99):
                assert bits(br.percentile(q)) == bits(np.percentile(seen[-32:], q))

    def test_empty_window_is_zero(self):
        assert CircuitBreaker(QosTarget()).percentile(99) == 0.0

    def test_breached_by_skips_unconstrained_quantiles(self):
        asked = []

        def quantile(q):
            asked.append(q)
            return 10.0

        assert QosTarget(p99_ticks=5.0).breached_by(quantile) == "p99"
        assert asked == [99]
        assert QosTarget(p50_ticks=20.0, p95_ticks=5.0).breached_by(quantile) == "p95"
        assert QosTarget(p99_ticks=None).breached_by(quantile) is None


class NumpyBreaker(CircuitBreaker):
    """The breaker as first written: three ``np.percentile`` calls per
    sample, whether or not the target constrains the quantile."""

    def observe(self, latency, tick):
        if self.is_open(tick):
            self.open_latencies.append(float(latency))
            return False
        self.closed_latencies.append(float(latency))
        self._lat.append(float(latency))
        if len(self._lat) > self.window:
            del self._lat[: len(self._lat) - self.window]
        if len(self._lat) < self.min_samples:
            return False
        arr = np.asarray(self._lat)
        values = {f"p{q}": float(np.percentile(arr, q)) for q in (50, 95, 99)}
        t = self.target
        breach = None
        for name, limit in (("p50", t.p50_ticks), ("p95", t.p95_ticks), ("p99", t.p99_ticks)):
            if limit is not None and values[name] > limit:
                breach = name
                break
        if breach is None:
            if self._open_until is not None and tick >= self._open_until:
                self._open_until = None
                self._backoff.reset()
            return False
        return self._trip(breach, tick)


def recording(cls):
    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.log = []

        def observe(self, latency, tick):
            tripped = super().observe(latency, tick)
            self.log.append((latency, tick, tripped, self.resume_tick))
            return tripped

    return Recording


TIGHT_SPECS = [
    VolumeSpec(volume_id=0, seed=9, groups=6, batch=4, n_requests=24,
               qos=QosTarget(p99_ticks=7.0)),
    VolumeSpec(volume_id=1, p=7, groups=3, seed=9, batch=4, n_requests=40,
               qos=QosTarget(p50_ticks=4.0, p95_ticks=6.0, p99_ticks=7.0),
               failures=(DiskFailureEvent(time=20.0, disk=2),)),
    VolumeSpec(volume_id=2, groups=4, seed=9, n_requests=40,
               qos=QosTarget(p50_ticks=5.0, p95_ticks=None, p99_ticks=None)),
]


class TestBreakerOracle:
    @pytest.mark.parametrize(
        "target",
        [
            QosTarget(p99_ticks=30.0),
            QosTarget(p95_ticks=20.0, p99_ticks=None),
            QosTarget(p50_ticks=8.0, p95_ticks=25.0, p99_ticks=40.0),
        ],
    )
    def test_random_stream_decisions_match_numpy_breaker(self, target):
        rng = np.random.default_rng(11)
        fast = recording(CircuitBreaker)(target, min_samples=4)
        oracle = recording(NumpyBreaker)(target, min_samples=4)
        tick = 0.0
        for _ in range(3000):
            tick += float(rng.integers(1, 12))
            lat = float(np.floor(rng.pareto(1.5) * 6.0)) + 1.0
            assert fast.observe(lat, tick) == oracle.observe(lat, tick)
        assert fast.trips > 0
        assert fast.log == oracle.log
        assert fast.snapshot() == oracle.snapshot()

    @pytest.mark.parametrize("spec", TIGHT_SPECS, ids=lambda s: f"vol{s.volume_id}")
    def test_trip_sequence_matches_numpy_breaker(self, spec):
        runs = []
        for cls in (CircuitBreaker, NumpyBreaker):
            vol = FleetVolume(spec)
            vol.breaker = recording(cls)(spec.qos)
            runs.append((vol.breaker, vol.run(SparePool(1))))
        (fast, fast_res), (oracle, oracle_res) = runs
        assert fast.trips > 0
        assert (fast.trips, fast.open_ticks, fast.breaches) == (
            oracle.trips, oracle.open_ticks, oracle.breaches,
        )
        assert fast.log == oracle.log
        assert fast_res == oracle_res

    def test_snapshot_quantiles_equal_separate_numpy_calls(self):
        vol = FleetVolume(TIGHT_SPECS[1])
        res = vol.run(SparePool(1))
        closed = vol.breaker.closed_latencies
        ticks = res["latency"]["ticks"]
        for q in (50, 95, 99):
            assert bits(res["breaker"][f"closed_p{q}"]) == bits(np.percentile(closed, q))
            assert bits(res["latency"][f"p{q}"]) == bits(np.percentile(ticks, q))


# -------------------------------------------------------------------- audit
def reference_oracle(vol: FleetVolume) -> np.ndarray:
    """The per-block offline-conversion image (the original loops)."""
    spec = vol.spec
    rows, m, bs = spec.rows, vol.m, spec.block_size
    stripes = spec.groups * rows
    final = vol.data.copy()
    for lba, payload in vol.applied.items():
        final[lba] = payload
    expect = np.zeros((spec.p, stripes, bs), dtype=np.uint8)
    for lba in range(spec.capacity_blocks):
        stripe, disk = locate_block(vol.layout, lba, m)
        expect[disk, stripe] = final[lba]
    for stripe in range(stripes):
        pd = parity_disk(vol.layout, stripe, m)
        acc = np.zeros(bs, dtype=np.uint8)
        for d in range(m):
            if d != pd:
                np.bitwise_xor(acc, expect[d, stripe], out=acc)
        expect[pd, stripe] = acc
    for group in range(spec.groups):
        for row in range(rows):
            acc = np.zeros(bs, dtype=np.uint8)
            for r, c in diagonal_chain_cells(spec.p, row):
                np.bitwise_xor(acc, expect[c, group * rows + r], out=acc)
            expect[m, group * rows + row] = acc
    return expect


def repeated_write_volume(p, groups, failures=(), spares=1, batch=1):
    """A volume whose schedule rewrites a few LBAs several times."""
    spec = VolumeSpec(volume_id=3, p=p, groups=groups, seed=21, batch=batch,
                      qos=QosTarget(p99_ticks=None), failures=failures)
    vol = FleetVolume(spec)
    rng = np.random.default_rng((p, groups))
    cap = spec.capacity_blocks
    lbas = [0, cap - 1, 0, cap // 2, cap - 1, 0, *rng.integers(cap, size=10).tolist()]
    vol.requests = [
        OnlineRequest(
            time=10.0 * (i + 1), lba=int(lba), is_write=i % 4 != 3,
            payload=rng.integers(0, 256, spec.block_size, dtype=np.uint8),
        )
        for i, lba in enumerate(lbas)
    ]
    last = {}
    for req in vol.requests:
        if req.is_write:
            last[req.lba] = req.payload
    return vol, vol.run(SparePool(spares)), last


def flip(vol, disk, block):
    vol.array.raw(disk, block)[0] ^= 0x5A


class TestReferenceSnapshot:
    @pytest.mark.parametrize("p", [5, 7, 13])
    @pytest.mark.parametrize("groups", [1, 2, 3])
    def test_matches_per_block_oracle(self, p, groups):
        vol, res, last = repeated_write_volume(p, groups, batch=1 + groups)
        assert res["state"] == "complete"
        assert set(vol.applied) == set(last)
        for lba, payload in last.items():
            assert np.array_equal(vol.applied[lba], payload)
        expect = vol.reference_snapshot()
        assert expect.dtype == np.uint8
        assert np.array_equal(expect, reference_oracle(vol))
        assert np.array_equal(expect, vol.array.snapshot())
        assert vol.divergent_blocks() == 0

    def test_untouched_volume_matches_oracle(self):
        vol = FleetVolume(VolumeSpec(volume_id=0, p=7, groups=2, seed=4))
        assert not vol.applied
        assert np.array_equal(vol.reference_snapshot(), reference_oracle(vol))

    @pytest.mark.parametrize("p", [5, 7])
    def test_one_byte_flip_on_each_surviving_disk(self, p):
        vol, res, _ = repeated_write_volume(p, 2)
        assert res["divergent_blocks"] == 0
        last = vol.array.blocks_per_disk - 1
        for disk in range(p):
            for block in (0, last):
                flip(vol, disk, block)
                assert vol.divergent_blocks() == 1, (disk, block)
                flip(vol, disk, block)
        assert vol.divergent_blocks() == 0

    def test_flip_on_failed_disk_is_not_counted(self):
        fail = (DiskFailureEvent(time=25.0, disk=1),)
        vol, res, _ = repeated_write_volume(5, 2, failures=fail, spares=0)
        assert res["state"] == "complete"
        assert vol.array.failed_disks == {1}
        assert res["divergent_blocks"] == 0
        flip(vol, 1, 3)
        assert vol.divergent_blocks() == 0
        for disk in (0, 2, 3, 4):
            flip(vol, disk, 3)
            assert vol.divergent_blocks() == 1, disk
            flip(vol, disk, 3)


class TestChainTables:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_tables_match_chain_cells(self, p):
        r_tab, c_tab, per_col = diagonal_chain_tables(p)
        assert r_tab.shape == c_tab.shape == (p - 1, p - 2)
        for prow in range(p - 1):
            cells = diagonal_chain_cells(p, prow)
            assert list(zip(r_tab[prow].tolist(), c_tab[prow].tolist())) == list(cells)
            assert per_col[prow].tolist() == [
                sum(1 for _r, c in cells if c == col) for col in range(p)
            ]

    def test_tables_are_cached_and_read_only(self):
        tables = diagonal_chain_tables(7)
        assert diagonal_chain_tables(7) is tables
        for table in tables:
            with pytest.raises(ValueError):
                table[0, 0] = 0


# ------------------------------------------------------------------- verify
class TestConverterVerify:
    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("kind", ["data", "row-parity", "diagonal"])
    def test_flip_in_last_group_fails_verify(self, p, kind):
        vol, res, _ = repeated_write_volume(p, 3)
        assert res["verified"] is True
        m, rows = vol.m, vol.spec.rows
        stripe = 2 * rows + rows // 2  # a row of the last group
        pd = parity_disk(vol.layout, stripe, m)
        disk = {"data": (pd + 1) % m, "row-parity": pd, "diagonal": m}[kind]
        flip(vol, disk, stripe)
        assert vol.conv.verify() is False
        flip(vol, disk, stripe)
        assert vol.conv.verify() is True

    def test_verify_refuses_degraded_array(self):
        fail = (DiskFailureEvent(time=25.0, disk=1),)
        vol, res, _ = repeated_write_volume(5, 2, failures=fail, spares=0)
        assert res["verified"] is False
        with pytest.raises(RuntimeError, match="rebuild failed disks"):
            vol.conv.verify()


# -------------------------------------------------------------------- scrub
def scrub_oracle(conv, stripe):
    """(cost, errors) of one scrub step, per block (the original loops)."""
    array, m = conv.array, conv.m
    failed = array.failed_disks
    cost, errors = m, []
    if not any(d < m for d in failed):
        acc = np.zeros(array.block_size, dtype=np.uint8)
        for d in range(m):
            np.bitwise_xor(acc, array.raw(d, stripe), out=acc)
        if acc.any():
            errors.append((stripe, "horizontal"))
    group, row = divmod(stripe, conv.rows)
    journal = conv.journal
    if (
        journal is not None
        and journal.is_marked(group, row)
        and m not in failed
        and not any(d < m for d in failed)
    ):
        acc = np.zeros(array.block_size, dtype=np.uint8)
        for r, c in diagonal_chain_cells(conv.p, row):
            np.bitwise_xor(acc, array.raw(c, group * conv.rows + r), out=acc)
        cost += 1
        if not np.array_equal(acc, array.raw(m, stripe)):
            errors.append((stripe, "diagonal"))
    return cost, errors


def partly_converted(p, groups, parities):
    vol = FleetVolume(VolumeSpec(volume_id=0, p=p, groups=groups, seed=17))
    for _ in range(parities):
        vol.conv.generate_step(vol.report)
        vol.conv.mark_step()
    return vol


def scrub_pass(vol):
    cursor = ScrubCursor(vol.conv)
    steps = []
    for stripe in range(cursor.stripes):
        expect = scrub_oracle(vol.conv, stripe)
        before = len(cursor.errors)
        steps.append((cursor.step(), cursor.errors[before:]))
        assert steps[-1] == (expect[0], expect[1]), stripe
    assert cursor.errors_found == len(cursor.errors)
    return steps


class TestScrubCursor:
    @pytest.mark.parametrize("p", [5, 7])
    def test_planted_corruption_matches_oracle(self, p):
        vol = partly_converted(p, groups=2, parities=p)  # group 0 + one row
        m, rows = vol.m, vol.spec.rows
        # group 0 rows are marked: a diagonal parity flip and a row
        # parity flip; group 1 row 2 is unmarked: a data flip there shows
        # up as a horizontal error only
        flip(vol, m, 1)
        flip(vol, parity_disk(vol.layout, 2, m), 2)
        flip(vol, 0, rows + 2)
        steps = scrub_pass(vol)
        errors = [e for _cost, errs in steps for e in errs]
        assert errors == [(1, "diagonal"), (2, "horizontal"), (rows + 2, "horizontal")]
        costs = [cost for cost, _errs in steps]
        assert costs == [m + 1] * (rows + 1) + [m] * (rows - 1)

    def test_data_flip_on_marked_row_reports_both_chains(self):
        vol = partly_converted(5, groups=1, parities=4)
        flip(vol, 0, 0)  # cell (0, 0): row 0 and the diagonal of row 1
        errors = [e for _cost, errs in scrub_pass(vol) for e in errs]
        assert errors == [(0, "horizontal"), (1, "diagonal")]

    def test_failed_data_disk_skips_both_checks(self):
        vol = partly_converted(5, groups=2, parities=8)
        flip(vol, 2, 0)
        vol.array.fail_disk(1)
        steps = scrub_pass(vol)
        assert all(step == (vol.m, []) for step in steps)
