"""Tests of the benchmark's own helpers (run: python3 -m pytest perfbench/tests)."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from catalog import END_TO_END, PER_LAYER, WORKLOADS
from harness import (
    Checks,
    Recorder,
    SpanRec,
    covered,
    roofline_frac,
    self_time_by_name,
    self_times,
    stall_grows,
    tail_percentile,
)
from workloads import (
    INTERARRIVAL,
    Offline,
    Run,
    fleet_config,
    fleet_gates,
    fleet_signature,
    open_loop,
    provision_fleet,
    run_fleet_pool,
)

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.mark.parametrize(
    "n, q",
    [(19, None), (20, 50.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q


def test_covered_unions_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (8, 20)], 0, 10) == pytest.approx(6.0)
    assert covered([], 0, 10) == 0.0


def test_self_time_subtracts_children_once():
    spans = [
        SpanRec(1, "pool", 0.0, 10.0, None),
        SpanRec(2, "volume", 1.0, 3.0, 1),
        SpanRec(3, "volume", 2.0, 5.0, 1),  # another thread, overlapping
        SpanRec(4, "audit", 2.5, 3.5, 3),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 6.0, 2: 2.0, 3: 2.0, 4: 1.0})
    assert self_time_by_name(spans) == pytest.approx({"pool": 6.0, "volume": 4.0, "audit": 1.0})


def test_recorder_nests_and_is_inert_when_disabled():
    rec = Recorder()
    with rec.span("off"):
        pass
    assert rec.spans == []
    rec.enabled = True
    with rec.span("outer") as outer:
        with rec.span("inner"):
            pass
        with rec.span("handed", parent=outer.sid):
            pass
    by_name = {s.name: s for s in rec.spans}
    assert by_name["inner"].parent == by_name["outer"].sid
    assert by_name["handed"].parent == by_name["outer"].sid
    assert by_name["outer"].parent is None


def test_roofline_frac():
    assert roofline_frac(5.0, 10.0) == 0.5
    assert roofline_frac(5.0, 0.0) == 0.0


def test_stall_growth_flags_an_overloaded_schedule():
    flat = np.tile([0.0, 4.0, 11.0], 100)
    assert not stall_grows(flat, slack=12.0)
    assert stall_grows(np.arange(300, dtype=float), slack=12.0)


def test_open_loop_is_seed_reproducible():
    def sched(seed):
        return open_loop(np.random.default_rng((seed, 3)), capacity=1000, horizon=5000.0)

    a, b, c = sched(7), sched(7), sched(8)
    key = [(r.time, r.lba, r.is_write) for r in a]
    assert key == [(r.time, r.lba, r.is_write) for r in b]
    assert key != [(r.time, r.lba, r.is_write) for r in c]
    assert all(np.array_equal(x.payload, y.payload) for x, y in zip(a, b) if x.is_write)
    gaps = np.diff([0.0] + [r.time for r in a])
    assert gaps.min() >= INTERARRIVAL[0] and gaps.max() <= INTERARRIVAL[1]
    assert a[-1].time < 5000.0 and 0.6 < np.mean([r.is_write for r in a]) < 0.8


def test_fleet_config_is_seed_reproducible():
    assert fleet_config(3) == fleet_config(3)
    assert fleet_config(3).fail_volumes != fleet_config(4).fail_volumes
    assert fleet_config(3).spares > len(fleet_config(3).fail_volumes)


def test_fleet_is_identical_at_pool_widths_one_and_two():
    signatures = []
    small = replace(
        fleet_config(5), volumes=6, groups=1, requests_per_volume=12, batch=12,
        fail_volumes=(1, 4), spares=3,
    )
    for clients in (1, 2):
        cfg = replace(small, clients=clients)
        volumes = provision_fleet(cfg, Recorder())
        results, _wall = run_fleet_pool(cfg, volumes, Recorder())
        assert all(fleet_gates(results).values())
        signatures.append(fleet_signature(results))
    assert signatures[0] == signatures[1]


def test_failures_are_counted_not_raised():
    checks = Checks()
    with checks.guard("conversion"):
        raise RuntimeError("boom")
    assert (checks.attempted, checks.failed) == (1, 1)
    with pytest.raises(KeyboardInterrupt):
        with checks.guard("conversion"):
            raise KeyboardInterrupt


def test_offline_check_counts_a_wrong_image():
    from repro.raid import BlockArray

    run = Run(seed=0, seconds=1.0)
    array = BlockArray(3, 4, block_size=8)
    oracle = ("0" * 64, array.reads.copy(), array.writes.copy())
    Offline(run).check(("code56", "direct"), array, oracle)
    assert (run.checks.attempted, run.checks.failed) == (1, 1)


def test_benchmark_json_matches_the_catalog():
    doc = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
