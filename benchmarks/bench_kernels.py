"""Fused kernel backends vs a stripe-tensor baseline.

Every supported (code, approach) pair at p=13 runs the same compiled
program three ways — the stripe-tensor baseline (the pre-kernel engine,
rebuilt here from public calls: :func:`_stripe_baseline`), the fused
region-op path under every available
:class:`~repro.kernels.base.XorKernel` backend, and the audited
per-block engine as the byte/counter oracle.  Results must be
byte-identical with identical per-disk counters everywhere; the fused
path must clear the speedup gate over the stripe-tensor baseline at
block sizes of 4 KiB and up.

Two gates, because the honest ceiling depends on the host:

* **smoke** (always, and what CI enforces): the median fused speedup
  across pairs AND the paper's headline Code 5-6 pairs must each clear
  2x.  On a single-core numpy-only container both paths are memory-
  bandwidth-bound; fused wins only the ~3x fewer bytes it moves, so 2x
  is the portable floor.  Overhead-bound micro pairs (pcode converts
  almost no parity at p=13, the whole run is ~15 ms) can dip below it
  and are recorded per-pair rather than gated.
* **full** (``min_speedup_full = 10x``, headline pairs): asserted only
  when the host can plausibly deliver it — the numba tier importable
  and several cores for its parallel reduction.  Elsewhere the target
  is recorded in the JSON (``full_target_enforced: false`` plus the
  host report) rather than silently waved through.

Machine-readable output lands in ``BENCH_kernels.json`` at the repo
root; set ``REPRO_BENCH_SMOKE=1`` for the CI-sized run (one block size,
fewer timing rounds).
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.compiled import compile_plan, execute_plan_compiled
from repro.kernels import available_kernels, kernel_info
from repro.migration import (
    build_plan,
    execute_plan,
    prepare_source_array,
    supported_conversions,
)
from repro.migration.approaches import alignment_cycle
from repro.obs.metrics import MetricsRegistry, set_registry

P = 13
SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
#: groups per block size — large batches at 4 KiB amortise phase
#: overhead; 64 KiB blocks shrink the batch to bound the array size
GROUPS_TARGET = {4096: 96} if SMOKE else {4096: 96, 65536: 12}
ROUNDS = 2 if SMOKE else 3
MIN_SPEEDUP_SMOKE = 2.0
MIN_SPEEDUP_FULL = 10.0
#: the paper's code — both rotations must clear every gate
HEADLINE_CODES = ("code56", "code56-right")
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def _host_report() -> dict:
    info = kernel_info()
    return {
        "cpus": os.cpu_count(),
        "kernels_available": available_kernels(),
        "numba_available": bool(info["numba"]["available"]),
    }


def _full_target_enforced(host: dict) -> bool:
    """The 10x bar needs the parallel numba tier and cores to feed it."""
    return not SMOKE and host["numba_available"] and (host["cpus"] or 1) >= 8


def _groups_for(code: str, approach: str, target: int) -> int:
    plan = build_plan(code, approach, P, groups=1)
    cycle = alignment_cycle(code, P, plan.n)
    return cycle * max(1, -(-target // cycle))


def _stripe_baseline(program, array, scratch: np.ndarray) -> None:
    """The pre-kernel compiled engine from public calls: per phase, the
    counted migrations, NULL writes and trims, then the read and fill
    cells gathered into a reused ``(batch, rows, cols, block)`` stripe
    tensor, one batched ``code.encode``, one counted parity scatter and
    the reused-parity compare."""
    code, bs = program.code, array.block_size
    array.reset_counters()
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
        stripes = scratch[: ph.batch * code.rows * code.cols * bs].reshape(
            ph.batch, code.rows, code.cols, bs
        )
        stripes[...] = 0
        flat = stripes.reshape(-1, bs)
        flat[ph.read_cell] = array.read_blocks(ph.read_disk, ph.read_block)
        if ph.fill_disk.size:
            flat[ph.fill_cell] = array.gather_raw(ph.fill_disk, ph.fill_block)
        code.encode(stripes)
        array.write_blocks(ph.parity_disk, ph.parity_block, flat[ph.parity_cell])
        if ph.check_disk.size:
            actual = array.gather_raw(ph.check_disk, ph.check_block)
            assert np.array_equal(flat[ph.check_cell], actual), "old parity was not valid"


def _time_config(code: str, approach: str, block_size: int) -> list[dict]:
    groups = _groups_for(code, approach, GROUPS_TARGET[block_size])
    plan = build_plan(code, approach, P, groups=groups)
    array, data = prepare_source_array(
        plan, np.random.default_rng(0), block_size=block_size
    )
    snapshot = array.snapshot()

    # oracle: the audited per-block engine
    execute_plan(plan, array, data)
    expect = array.snapshot()
    expect_reads, expect_writes = array.reads.copy(), array.writes.copy()

    program = compile_plan(plan)

    scratch = np.empty(
        max(ph.batch for ph in program.phases) * program.rows * program.cols * block_size,
        dtype=np.uint8,
    )

    def best_of(label, run):
        t_best = float("inf")
        for _ in range(ROUNDS):
            array.restore(snapshot)
            t0 = time.perf_counter()
            run()
            t_best = min(t_best, time.perf_counter() - t0)
        label = f"{code}/{approach}@bs={block_size} {label}"
        assert np.array_equal(array.snapshot(), expect), f"{label}: bytes differ"
        assert np.array_equal(array.reads, expect_reads), f"{label}: reads differ"
        assert np.array_equal(array.writes, expect_writes), f"{label}: writes differ"
        return t_best

    stripe_s = best_of("stripe", lambda: _stripe_baseline(program, array, scratch))
    rows = []
    for kernel in available_kernels():
        fused_s = best_of(
            f"kernel={kernel}",
            lambda k=kernel: execute_plan_compiled(
                plan, array, data, program=program, kernel=k
            ),
        )
        rows.append(
            {
                "code": code,
                "approach": approach,
                "block_size": block_size,
                "groups": groups,
                "data_blocks": plan.data_blocks,
                "kernel": kernel,
                "stripe_s": round(stripe_s, 4),
                "fused_s": round(fused_s, 4),
                "stripe_blocks_per_s": round(plan.data_blocks / stripe_s, 1),
                "fused_blocks_per_s": round(plan.data_blocks / fused_s, 1),
                "speedup": round(stripe_s / fused_s, 2),
                "byte_identical": True,
                "counter_identical": True,
            }
        )
    return rows


def _obs_drift_check() -> dict:
    """Fused run with live metrics: kernel counters recorded, zero I/O drift."""
    plan = build_plan("code56", "direct", P, groups=_groups_for("code56", "direct", 24))
    audited, data = prepare_source_array(plan, np.random.default_rng(1), block_size=4096)
    fused, _ = prepare_source_array(plan, np.random.default_rng(1), block_size=4096)
    execute_plan(plan, audited, data)
    registry = MetricsRegistry(enabled=True)
    prev = set_registry(registry)
    try:
        execute_plan_compiled(plan, fused, data)
    finally:
        set_registry(prev)
    assert np.array_equal(audited.reads, fused.reads), "obs bridge drifted reads"
    assert np.array_equal(audited.writes, fused.writes), "obs bridge drifted writes"
    counters = {
        m["name"]: m["value"]
        for m in registry.snapshot()["counters"]
        if m["name"].startswith("kernels.")
    }
    assert counters.get("kernels.fused_phases", 0) > 0
    assert counters.get("kernels.xor_bytes", 0) > 0
    return {"counters": counters, "io_drift": 0}


def _run() -> dict:
    host = _host_report()
    results = []
    for block_size in sorted(GROUPS_TARGET):
        for code, approach in supported_conversions():
            results.extend(_time_config(code, approach, block_size))
    return {
        "meta": {
            "p": P,
            "block_sizes": sorted(GROUPS_TARGET),
            "groups_target": GROUPS_TARGET,
            "smoke": SMOKE,
            "host": host,
            "min_speedup_smoke": MIN_SPEEDUP_SMOKE,
            "min_speedup_full": MIN_SPEEDUP_FULL,
            "headline_codes": list(HEADLINE_CODES),
            "full_target_enforced": _full_target_enforced(host),
            "full_target_note": (
                "the 10x bar applies to bare-metal multi-core hosts running "
                "the parallel numba tier; single-core numpy-only hosts are "
                "memory-bandwidth-bound on both paths, so only the portable "
                "2x floor is asserted there"
            ),
        },
        "results": results,
        "obs_bridge": _obs_drift_check(),
    }


def bench_kernels(benchmark, show):
    report = benchmark.pedantic(_run, rounds=1, iterations=1)
    big = [r for r in report["results"] if r["block_size"] >= 4096]
    headline = [r for r in big if r["code"] in HEADLINE_CODES]
    report["summary"] = {
        "median_speedup": round(float(np.median([r["speedup"] for r in big])), 2),
        "worst_headline_speedup": min(r["speedup"] for r in headline),
        "best_headline_speedup": max(r["speedup"] for r in headline),
    }
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    meta = report["meta"]
    lines = [
        f"fused kernels vs stripe-tensor baseline, p={P} "
        f"(BENCH_kernels.json; smoke={meta['smoke']}, "
        f"host={meta['host']['cpus']} cpu(s), "
        f"numba={'yes' if meta['host']['numba_available'] else 'no'})"
    ]
    for r in report["results"]:
        lines.append(
            f"{r['approach']:>10}({r['code']:<13}) bs={r['block_size']:>5} "
            f"g={r['groups']:>4} [{r['kernel']}]: "
            f"{r['stripe_blocks_per_s']:>10,.0f} -> "
            f"{r['fused_blocks_per_s']:>12,.0f} blk/s  ({r['speedup']:.2f}x)"
        )
    summary = report["summary"]
    lines.append(
        f"median {summary['median_speedup']}x; Code 5-6 "
        f"{summary['worst_headline_speedup']}x..{summary['best_headline_speedup']}x"
    )
    show("\n".join(lines))

    median = summary["median_speedup"]
    assert median >= MIN_SPEEDUP_SMOKE, (
        f"median fused speedup {median}x < portable floor {MIN_SPEEDUP_SMOKE}x"
    )
    worst_headline = summary["worst_headline_speedup"]
    assert worst_headline >= MIN_SPEEDUP_SMOKE, (
        f"headline Code 5-6 speedup {worst_headline}x < floor {MIN_SPEEDUP_SMOKE}x"
    )
    if meta["full_target_enforced"]:
        best_per_pair = {}
        for r in headline:
            key = (r["code"], r["approach"])
            best_per_pair[key] = max(best_per_pair.get(key, 0.0), r["speedup"])
        worst_full = min(best_per_pair.values())
        assert worst_full >= MIN_SPEEDUP_FULL, (
            f"headline fused speedup {worst_full}x < full target {MIN_SPEEDUP_FULL}x"
        )
