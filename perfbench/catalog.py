"""Names and units of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names; ``tests/test_harness.py``
keeps the two in step.
"""

from __future__ import annotations

P = 13
BLOCK = 4096

#: Code 5-6 conversions (left- and right-asymmetric source layouts)
CODE56_PAIRS = (("code56", "direct"), ("code56-right", "direct"))
#: the paper's comparison set: every other (code, approach) the planner supports
COMPARE_PAIRS = (
    ("xcode", "direct"),
    ("pcode", "direct"),
    ("hdp", "direct"),
    ("evenodd", "via-raid0"),
    ("rdp", "via-raid0"),
    ("hcode", "via-raid0"),
    ("evenodd", "via-raid4"),
    ("rdp", "via-raid4"),
    ("hcode", "via-raid4"),
)
PAIRS = CODE56_PAIRS + COMPARE_PAIRS


def pair_name(pair: tuple[str, str]) -> str:
    return f"{pair[0]}-{pair[1]}"


WORKLOADS = ("offline", "online", "degraded", "fleet")

#: gated end-to-end metrics: defined, and never 0, on every workload
END_TO_END = (
    ("convert_MB_per_ref", "MB/ref"),
    ("io_per_block", "io/block"),
    ("finish_ticks", "ticks"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("roofline.memcpy_GBps", "GB/s"),
    ("roofline.xor_reduce_GBps", "GB/s"),
    ("kernels.calls", "count"),
    ("kernels.GB", "GB"),
    ("kernels.busy_s", "s"),
    ("kernels.GBps", "GB/s"),
    ("kernels.roofline_frac", "ratio"),
    *((f"compiled.{pair_name(pair)}.MBps", "MB/s") for pair in PAIRS),
    *((f"compiled.{pair_name(pair)}.roofline_frac", "ratio") for pair in PAIRS),
    ("compiled.execute_s", "s"),
    ("compiled.kernel_share", "ratio"),
    ("compiled.fused_phases", "count"),
    ("compiled.stripe_phases", "count"),
    ("compiled.compile_s", "s"),
    ("online.convert_busy_s", "s"),
    ("online.serve_busy_s", "s"),
    ("online.runs", "count"),
    ("online.parities_per_run", "count"),
    ("online.batch_shrinks", "count"),
    ("online.serve_us_p50", "us"),
    ("online.serve_us_p99", "us"),
    ("online.conversion_ticks", "ticks"),
    ("online.app_ticks", "ticks"),
    ("online.interruptions", "count"),
    ("online.writes_to_converted", "count"),
    ("journal.flushes", "count"),
    ("journal.flushes_per_parity", "ratio"),
    ("journal.busy_s", "s"),
    ("raid.reads_per_parity", "count"),
    ("raid.writes_per_parity", "count"),
    ("degraded.reads", "count"),
    ("degraded.healthy_frac", "ratio"),
    ("checkpoint.busy_s", "s"),
    ("fleet.volume_run_s.p50", "s"),
    ("fleet.volume_run_s.max", "s"),
    ("fleet.pool_busy_frac", "ratio"),
    ("fleet.audit_s", "s"),
    ("fleet.provision_s", "s"),
    ("fleet.rebuilds", "count"),
    ("fleet.spare_denied", "count"),
    ("fleet.breaker_trips", "count"),
    ("fleet.breaker_open_ticks", "ticks"),
    ("fleet.degraded_reads", "count"),
    ("trace.overhead_frac", "ratio"),
)
