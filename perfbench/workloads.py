"""The four workloads: offline, online, degraded and fleet.

Each workload is chosen so that some layers do most of their work in it
and almost none in another (NOTES.md gives the reasons and sizes):

* ``offline``  — kernels and the compiled executor; no journal, no
  foreground traffic, no fleet;
* ``online``   — the batched online converter, its journal and the
  foreground serve path; the compiled executor is unused;
* ``degraded`` — every reconstruct-on-read path (checkpointed offline
  and online conversion with data disk 1 failed);
* ``fleet``    — fleet bookkeeping, QoS arbitration, spare rebuilds and
  the divergence audit over many small volumes.

Every workload exposes ``measure()`` (untraced: the gated end-to-end
metrics) and ``measure_traced()`` (alternating untraced and traced
repetitions: the per-layer metrics and the tracing overhead).  Both run
the same correctness checks and count failures in :class:`Checks`.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from repro.compiled import (
    clear_program_cache,
    compile_plan,
    execute_plan_compiled,
    set_program_cache_dir,
)
from repro.faults.checkpoint import execute_checkpointed
from repro.faults.journal import OnlineJournal
from repro.fleet.service import FleetConfig, FleetService
from repro.fleet.spares import SparePool
from repro.migration import build_plan, execute_plan, prepare_source_array
from repro.migration.online import OnlineCode56Conversion, OnlineRequest
from repro.obs.tracer import get_tracer

from catalog import BLOCK, CODE56_PAIRS, COMPARE_PAIRS, P, PAIRS, pair_name
from host import HostReference
from harness import (
    Checks,
    Recorder,
    decile_means,
    median,
    percentile,
    roofline_frac,
    stall_grows,
    tail_percentile,
)
from layers import TimedFleetVolume, TimedJournal, TimingKernel

ROWS = P - 1
M = P - 1
#: the data disk failed in ``degraded`` (and in the failed fleet volumes)
FAILED_DISK = 1
#: open-loop foreground: write share and uniform inter-arrival (ticks)
WRITE_FRAC = 0.7
INTERARRIVAL = (16, 48)
#: tick cost of one diagonal parity: p-2 chain reads + 1 write, and the
#: m-2 extra reads a chain cell on a failed data disk costs
PARITY_TICKS = P - 1
DEGRADED_EXTRA_TICKS = M - 2


class Window:
    """Spans recorded during one traced repetition."""

    def __init__(self) -> None:
        self.program: list = []
        self.bench: list = []

    def program_total(self, *names: str) -> float:
        return sum(s.dur_s for s in self.program if s.name in names)

    def program_durations(self, *names: str) -> list[float]:
        return [s.dur_s for s in self.program if s.name in names]

    def bench_total(self, name: str) -> float:
        return sum(s.dur for s in self.bench if s.name == name)

    def bench_durations(self, name: str) -> list[float]:
        return [s.dur for s in self.bench if s.name == name]


class Run:
    """One invocation: seed, time budget, checks and the in-memory trace."""

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.checks = Checks()
        self.recorder = Recorder()
        self.kernel = TimingKernel()
        self.program_spans: list = []
        #: same-run ceilings, filled by the traced run before measuring
        self.ceilings: dict[str, float] = {}
        self.reference = HostReference()
        #: reference time taken by the latest :meth:`settle`
        self.ref_s = 0.0
        set_program_cache_dir(None)  # every compile the bench times is cold

    def settle(self) -> float:
        """Call right before a timed region: collect the benchmark's own
        garbage (so a cycle collection inside the region is triggered by
        the program's allocations only), then time the host reference."""
        gc.collect()
        self.ref_s = self.reference.seconds()
        return self.ref_s

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, *key))

    @contextmanager
    def traced(self):
        """Turn on bench spans, the program's tracer and the timing kernel."""
        tracer = get_tracer()
        window = Window()
        mark = len(self.recorder.spans)
        tracer.clear()
        self.kernel.reset()
        tracer.enable()
        self.recorder.enabled = True
        try:
            yield window
        finally:
            self.recorder.enabled = False
            tracer.disable()
            window.program = list(tracer.spans)
            window.bench = self.recorder.spans[mark:]
            self.program_spans.extend(window.program)
            tracer.clear()

    def kernel_layer(self) -> dict[str, float]:
        k = self.kernel
        gbps = k.bytes / k.busy_s / 1e9 if k.busy_s > 0 else 0.0
        return {
            "kernels.calls": k.calls,
            "kernels.GB": k.bytes / 1e9,
            "kernels.busy_s": k.busy_s,
            "kernels.GBps": gbps,
            "kernels.roofline_frac": roofline_frac(
                gbps, self.ceilings.get("roofline.xor_reduce_GBps", 0.0)
            ),
        }


# ------------------------------------------------------------------ helpers
def digest(view: np.ndarray) -> str:
    return hashlib.sha256(memoryview(np.ascontiguousarray(view))).hexdigest()


def image_digest(array) -> str:
    """sha256 of the whole array's bytes (uncounted)."""
    return digest(array.bulk_view(slice(None), slice(None)))


def disk_digests(array) -> list[str]:
    """Per-disk sha256 of the array's bytes (uncounted)."""
    return [digest(array.bulk_view(slice(d, d + 1), slice(None))) for d in range(array.n_disks)]


def surviving_match(array, expected: list[str]) -> bool:
    """Every disk that has not failed holds exactly the expected bytes."""
    got = disk_digests(array)
    return all(got[d] == expected[d] for d in range(array.n_disks) if d not in array.failed_disks)


def open_loop(rng: np.random.Generator, capacity: int, horizon: float) -> list[OnlineRequest]:
    """Seeded open-loop foreground schedule over ``[0, horizon)`` ticks.

    70% writes of fresh 4 KiB payloads, uniform LBAs, inter-arrival
    uniform on ``INTERARRIVAL``.  ``horizon`` is the conversion's
    minimum tick cost, so arrivals span the whole conversion.
    """
    lo, hi = INTERARRIVAL
    reqs, t = [], 0.0
    while True:
        t += float(rng.integers(lo, hi + 1))
        if t >= horizon:
            return reqs
        write = bool(rng.random() < WRITE_FRAC)
        reqs.append(
            OnlineRequest(
                time=t,
                lba=int(rng.integers(capacity)),
                is_write=write,
                payload=rng.integers(0, 256, size=BLOCK, dtype=np.uint8) if write else None,
            )
        )


def final_data(data: np.ndarray, requests: list[OnlineRequest]) -> np.ndarray:
    """Logical data after the schedule's writes (last write wins)."""
    out = data.copy()
    for r in requests:
        if r.is_write:
            out[r.lba] = r.payload
    return out


def provision(plan, rng: np.random.Generator):
    """Seeded logical data formatted as the plan's source RAID-5."""
    data = rng.integers(0, 256, size=(plan.data_blocks, BLOCK), dtype=np.uint8)
    return prepare_source_array(plan, rng, block_size=BLOCK, data=data)


def fg_extras(stalls, latencies) -> dict[str, tuple[float, str]]:
    """Foreground stall + service from the arrival tick, with sample count."""
    fg = np.asarray(stalls, dtype=float) + np.asarray(latencies, dtype=float)
    out = {"fg_samples": (float(fg.size), "count")}
    if fg.size:
        out["fg_p50_ticks"] = (percentile(fg, 50), "ticks")
        q = tail_percentile(fg.size)
        if q is not None and q > 50:
            out[f"fg_p{q:g}_ticks"] = (percentile(fg, q), "ticks")
    return out


def alternate(seconds: float, step) -> None:
    """Call ``step(traced)`` alternately untraced and traced until
    ``seconds`` have passed and each kind has run at least once."""
    deadline = perf_counter() + seconds
    calls = 0
    while calls < 2 or perf_counter() < deadline:
        step(calls % 2 == 1)
        calls += 1


def median_layers(samples: list[dict[str, float]]) -> dict[str, float]:
    keys = {k for s in samples for k in s}
    return {k: median(s[k] for s in samples if k in s) for k in keys}


def overhead(traced_s: list[float], untraced_s: list[float]) -> float:
    base = median(untraced_s)
    return median(traced_s) / base - 1.0 if base > 0 else 0.0


# ------------------------------------------------------------------ offline
class Offline:
    """Healthy offline conversion of 11 (code, approach) pairs, one at a time.

    Each pass provisions every pair afresh (seeded data, RAID-5 format,
    cold compile: one ``setup_s`` sample), converts it through
    ``execute_plan_compiled`` and checks bytes and per-disk counters
    against the audited engine's result, computed once per run.
    """

    name = "offline"
    GROUPS = (95, 97)
    #: timed conversions per pair per pass
    REPEATS = {pair: (6 if pair in CODE56_PAIRS else 1) for pair in PAIRS}

    def __init__(self, run: Run):
        self.run = run
        lo, hi = self.GROUPS
        self.groups = int(run.rng(0).integers(lo, hi + 1))
        self.oracles: dict = {}
        self.array_bytes = 0

    def provision(self, index: int, pair):
        """(plan, array, data, program, source image, setup s, compile s)."""
        t0 = perf_counter()
        plan = build_plan(pair[0], pair[1], P, groups=self.groups)
        array, data = provision(plan, self.run.rng(1, index))
        t1 = perf_counter()
        clear_program_cache()
        program = compile_plan(plan)
        t2 = perf_counter()
        self.array_bytes = max(self.array_bytes, array.n_disks * array.blocks_per_disk * BLOCK)
        return plan, array, data, program, array.snapshot(), t2 - t0, t2 - t1

    def oracle(self, pair, plan, array, data, source):
        if pair not in self.oracles:
            execute_plan(plan, array, data)
            self.oracles[pair] = (image_digest(array), array.reads.copy(), array.writes.copy())
            array.restore(source)
        return self.oracles[pair]

    def convert(self, plan, array, data, program, source, kernel=None) -> float:
        array.restore(source)
        self.run.settle()
        with self.run.recorder.span("compiled.execute"):
            t0 = perf_counter()
            execute_plan_compiled(plan, array, data, program=program, kernel=kernel)
            return perf_counter() - t0

    def check(self, pair, array, oracle) -> None:
        want, reads, writes = oracle
        self.run.checks.check(
            image_digest(array) == want
            and np.array_equal(array.reads, reads)
            and np.array_equal(array.writes, writes),
            f"offline {pair_name(pair)}: bytes or per-disk counters differ from the audited engine",
        )

    def passes(self, body, end_pass=None) -> float:
        """Provision and convert pair after pair until the time budget is
        spent (the first pass always completes); ``end_pass`` sees every
        complete pass.  Returns the set-up time of one pass: the sum over
        pairs of each pair's median provisioning time."""
        deadline = perf_counter() + self.run.seconds
        setups: dict = {pair: [] for pair in PAIRS}
        first = True
        while first or perf_counter() < deadline:
            cur: dict = {}
            for index, pair in enumerate(PAIRS):
                if not first and perf_counter() >= deadline:
                    break
                with self.run.checks.guard(f"offline {pair_name(pair)}"):
                    plan, array, data, program, source, s, c = self.provision(index, pair)
                    setups[pair].append(s)
                    oracle = self.oracle(pair, plan, array, data, source)
                    body(cur, pair, plan, array, data, program, source, oracle, c)
                    del array, data, program, source
                gc.collect()
            else:
                if end_pass is not None:
                    end_pass(cur)
            first = False
        return sum(median(v) for v in setups.values())

    def measure(self) -> tuple[dict, dict]:
        times: dict = {pair: [] for pair in PAIRS}
        norms: dict = {pair: [] for pair in PAIRS}
        nbytes: dict = {}
        ios: dict = {}

        def body(_cur, pair, plan, array, data, program, source, oracle, _compile_s):
            self.convert(plan, array, data, program, source)  # warm caches and scratch
            for _ in range(self.REPEATS[pair]):
                dt = self.convert(plan, array, data, program, source)
                times[pair].append(dt)
                norms[pair].append(dt / self.run.ref_s)
                self.check(pair, array, oracle)
            nbytes[pair] = data.nbytes
            per_disk = array.reads + array.writes
            ios[pair] = (int(per_disk.sum()), int(per_disk.max()), plan.data_blocks)

        setup_s = self.passes(body)

        def rate(pairs, per) -> float:
            """MB over the summed per-pair median of ``per`` (seconds or refs)."""
            done = [p for p in pairs if per[p]]
            secs = sum(median(per[p]) for p in done)
            return sum(nbytes[p] for p in done) / secs / 1e6 if secs > 0 else 0.0

        code56 = [ios[p] for p in CODE56_PAIRS if p in ios]
        e2e = {
            "convert_MB_per_ref": rate(CODE56_PAIRS, norms),
            "io_per_block": sum(i[0] for i in code56) / max(1, sum(i[2] for i in code56)),
            "finish_ticks": float(sum(i[1] for i in code56)),
            "setup_s": setup_s,
        }
        extras = {
            "convert_MBps": (rate(CODE56_PAIRS, times), "MB/s"),
            "compare_MBps": (rate(COMPARE_PAIRS, times), "MB/s"),
            "compare_MB_per_ref": (rate(COMPARE_PAIRS, norms), "MB/ref"),
        }
        return e2e, extras

    def measure_traced(self) -> dict[str, float]:
        run = self.run
        samples: list[dict[str, float]] = []
        traced_s: list[float] = []
        untraced_s: list[float] = []

        def body(cur, pair, plan, array, data, program, source, oracle, compile_s):
            name = pair_name(pair)
            self.convert(plan, array, data, program, source)  # warm caches and scratch
            order = (False, True) if len(samples) % 2 == 0 else (True, False)
            for traced in order:
                if not traced:
                    untraced_s.append(self.convert(plan, array, data, program, source))
                    self.check(pair, array, oracle)
                    continue
                with run.traced() as win:
                    dt = self.convert(plan, array, data, program, source, kernel=run.kernel)
                self.check(pair, array, oracle)
                traced_s.append(dt)
                layer = run.kernel_layer()
                mbps = data.nbytes / dt / 1e6
                cur[f"compiled.{name}.MBps"] = mbps
                cur[f"compiled.{name}.roofline_frac"] = roofline_frac(
                    mbps / 1e3, run.ceilings.get("roofline.xor_reduce_GBps", 0.0)
                )
                for k in ("kernels.calls", "kernels.GB", "kernels.busy_s"):
                    cur[k] = cur.get(k, 0.0) + layer[k]
                cur["compiled.execute_s"] = cur.get("compiled.execute_s", 0.0) + win.bench_total(
                    "compiled.execute"
                )
                paths = [s.args.get("path") for s in win.program if s.cat == "compiled.phase"]
                cur["compiled.fused_phases"] = cur.get("compiled.fused_phases", 0) + paths.count("fused")
                cur["compiled.stripe_phases"] = cur.get("compiled.stripe_phases", 0) + paths.count(
                    "stripe"
                )
                cur["compiled.compile_s"] = cur.get("compiled.compile_s", 0.0) + compile_s
                if pair in CODE56_PAIRS:
                    cur["parities"] = cur.get("parities", 0) + plan.new_parities
                    cur["reads"] = cur.get("reads", 0) + array.total_reads
                    cur["writes"] = cur.get("writes", 0) + array.total_writes

        def end_pass(cur) -> None:
            busy, gb = cur.get("kernels.busy_s", 0.0), cur.get("kernels.GB", 0.0)
            execute_s = cur.get("compiled.execute_s", 0.0)
            cur["kernels.GBps"] = gb / busy if busy > 0 else 0.0
            cur["kernels.roofline_frac"] = roofline_frac(
                cur["kernels.GBps"], run.ceilings.get("roofline.xor_reduce_GBps", 0.0)
            )
            cur["compiled.kernel_share"] = busy / execute_s if execute_s > 0 else 0.0
            parities = max(1, cur.pop("parities", 0))
            cur["raid.reads_per_parity"] = cur.pop("reads", 0) / parities
            cur["raid.writes_per_parity"] = cur.pop("writes", 0) / parities
            samples.append(cur)

        self.passes(body, end_pass)
        out = median_layers(samples)
        out["trace.overhead_frac"] = overhead(traced_s, untraced_s)
        return out


# ------------------------------------------------------------------- online
class Online:
    """One Code 5-6 volume converted online under open-loop traffic.

    The batched converter claims the whole array as its budget; deadline
    shrinking cuts runs short at every arrival, so the work is serving
    requests, short runs and journal group commits.
    """

    name = "online"
    GROUPS = 512
    EPOCHS = 3
    FAILED: tuple[int, ...] = ()
    #: conversions of the whole data per repetition
    HALVES = 1

    def __init__(self, run: Run):
        self.run = run
        self.parities = self.GROUPS * ROWS
        self.capacity = self.GROUPS * ROWS * (M - 1)
        self.data_bytes = self.capacity * BLOCK
        cost = PARITY_TICKS + DEGRADED_EXTRA_TICKS * len(self.FAILED)
        self.slack = float(cost)
        self.requests = open_loop(run.rng(3), self.capacity, self.parities * cost)
        self.signature = None
        self.array = self.source = None

    @property
    def array_bytes(self) -> int:
        return P * self.GROUPS * ROWS * BLOCK

    def setup(self) -> float:
        self.array = self.source = None
        gc.collect()
        t0 = perf_counter()
        plan = build_plan("code56", "direct", P, groups=self.GROUPS)
        self.array = provision(plan, self.run.rng(2))[0]
        dt = perf_counter() - t0
        self.source = self.array.snapshot()
        return dt

    def reset(self, failed: tuple[int, ...]) -> None:
        for d in self.array.failed_disks:
            self.array.replace_disk(d)
        self.array.restore(self.source)
        self.array.reset_counters()
        for d in failed:
            self.array.fail_disk(d)

    def convert_online(self, kernel=None, journal_cls=OnlineJournal, healthy: bool = False):
        self.reset(() if healthy else self.FAILED)
        journal = journal_cls(self.GROUPS, ROWS)
        self.run.settle()
        with self.run.recorder.span("online.run"):
            t0 = perf_counter()
            conv = OnlineCode56Conversion(
                self.array, P, journal=journal, batch=self.parities, kernel=kernel
            )
            report = conv.run(self.requests)
            dt = perf_counter() - t0
        return conv, journal, report, dt

    def check_online(self, conv, journal, report) -> None:
        checks = self.run.checks
        checks.check(conv.verify(), "online: converted array fails the Code 5-6 stripe audit")
        self.check_common(journal, report)

    def check_common(self, journal, report) -> None:
        checks = self.run.checks
        checks.check(
            journal.count() == self.parities == report.parities_generated,
            f"{self.name}: journal marks {journal.count()} != parities {self.parities}",
        )
        signature = (
            report.finish_tick,
            self.array.total_ios,
            tuple(report.request_stalls),
            tuple(report.request_latencies),
        )
        if self.signature is None:
            self.signature = signature
        checks.check(signature == self.signature, f"{self.name}: tick-domain result not repeatable")
        checks.check(
            not stall_grows(report.request_stalls, self.slack),
            f"{self.name}: foreground stall grows over the run (schedule over capacity)",
        )

    def rep(self) -> tuple[float, float, object]:
        """(seconds, seconds per reference, report) of one repetition."""
        with self.run.checks.guard(f"{self.name} conversion"):
            conv, journal, report, dt = self.convert_online()
            self.check_online(conv, journal, report)
            return dt, dt / self.run.ref_s, report
        return 0.0, 0.0, None

    def measure(self) -> tuple[dict, dict]:
        start = perf_counter()
        setups, times, norms = [], [], []
        last = None
        for epoch in range(self.EPOCHS):
            setups.append(self.setup())
            until = start + self.run.seconds * (epoch + 1) / self.EPOCHS
            while True:
                dt, norm, report = self.rep()
                if report is not None:
                    times.append(dt)
                    norms.append(norm)
                    last = (report, self.array.total_ios)
                if perf_counter() >= until:
                    break
        if last is None:
            return {"setup_s": median(setups)}, {}
        report, ios = last
        megabytes = self.data_bytes * self.HALVES / 1e6
        e2e = {
            "convert_MB_per_ref": megabytes / median(norms),
            "io_per_block": ios / self.capacity,
            "finish_ticks": float(report.finish_tick),
            "setup_s": median(setups),
        }
        extras = fg_extras(report.request_stalls, report.request_latencies)
        extras["convert_MBps"] = (megabytes / median(times), "MB/s")
        return e2e, extras

    def online_layers(self, win: Window, journal, report) -> dict[str, float]:
        runs = report.runs_committed
        serve_us = [d * 1e6 for d in win.program_durations("app.read", "app.write")]
        q = tail_percentile(len(serve_us))
        return {
            "online.convert_busy_s": win.program_total("convert"),
            "online.serve_busy_s": win.program_total("app.read", "app.write"),
            "online.runs": runs,
            "online.parities_per_run": report.parities_generated / runs if runs else 0.0,
            "online.batch_shrinks": report.batch_shrinks,
            "online.serve_us_p50": percentile(serve_us, 50) if serve_us else 0.0,
            "online.serve_us_p99": percentile(serve_us, 99) if q is not None and q >= 99 else 0.0,
            "online.conversion_ticks": report.conversion_ticks,
            "online.app_ticks": report.app_ticks,
            "online.interruptions": report.interruptions,
            "online.writes_to_converted": report.writes_to_converted,
            "journal.flushes": journal.appends,
            "journal.flushes_per_parity": journal.appends / self.parities,
            "journal.busy_s": journal.busy_s,
        }

    def measure_traced(self) -> dict[str, float]:
        run = self.run
        self.setup()
        samples, traced_s, untraced_s = [], [], []

        def step(traced: bool) -> None:
            with run.checks.guard(f"{self.name} conversion"):
                if not traced:
                    conv, journal, report, dt = self.convert_online()
                    untraced_s.append(dt)
                    self.check_online(conv, journal, report)
                    return
                with run.traced() as win:
                    conv, journal, report, dt = self.convert_online(run.kernel, TimedJournal)
                traced_s.append(dt)
                layer = run.kernel_layer()
                layer.update(self.online_layers(win, journal, report))
                layer["raid.reads_per_parity"] = self.array.total_reads / self.parities
                layer["raid.writes_per_parity"] = self.array.total_writes / self.parities
                samples.append(layer)
                self.check_online(conv, journal, report)

        alternate(run.seconds, step)
        out = median_layers(samples)
        out["trace.overhead_frac"] = overhead(traced_s, untraced_s)
        return out


# ----------------------------------------------------------------- degraded
class Degraded(Online):
    """The Code 5-6 source with data disk 1 failed before conversion.

    Each repetition converts it offline through
    ``execute_checkpointed(engine="compiled")`` and online under the
    ``online`` schedule's rate and mix.  Surviving disks must match the
    audited engine's image of the final logical data.
    """

    name = "degraded"
    GROUPS = 192
    FAILED = (FAILED_DISK,)
    HALVES = 2

    def __init__(self, run: Run):
        super().__init__(run)
        self.plan = self.data = self.program = None
        #: audited images (per-disk digests), computed once per run
        self.expect_offline: list[str] | None = None
        self.expect_online: list[str] | None = None
        self.offline_ios = 0

    def setup(self) -> float:
        self.array = self.source = None
        gc.collect()
        t0 = perf_counter()
        self.plan = build_plan("code56", "direct", P, groups=self.GROUPS)
        self.array, self.data = provision(self.plan, self.run.rng(4))
        clear_program_cache()
        self.program = compile_plan(self.plan)
        dt = perf_counter() - t0
        self.source = self.array.snapshot()
        if self.expect_offline is None:
            self.expect_offline = self.audited_image(self.data)
            self.expect_online = self.audited_image(final_data(self.data, self.requests))
        return dt

    def audited_image(self, data: np.ndarray) -> list[str]:
        array, data = prepare_source_array(self.plan, None, block_size=BLOCK, data=data)
        execute_plan(self.plan, array, data)
        return disk_digests(array)

    def convert_offline(self, healthy: bool = False) -> float:
        self.reset(() if healthy else self.FAILED)
        self.run.settle()
        with self.run.recorder.span("checkpoint.execute"):
            t0 = perf_counter()
            execute_checkpointed(
                self.plan, self.array, self.data, engine="compiled", program=self.program
            )
            return perf_counter() - t0

    def check_offline(self) -> None:
        self.run.checks.check(
            surviving_match(self.array, self.expect_offline),
            "degraded offline: surviving disks differ from the audited conversion image",
        )

    def check_online(self, conv, journal, report) -> None:
        self.run.checks.check(
            surviving_match(self.array, self.expect_online),
            "degraded online: surviving disks differ from the audited image of the final data",
        )
        self.check_common(journal, report)

    def rep(self) -> tuple[float, float, object]:
        with self.run.checks.guard("degraded conversion"):
            t_off = self.convert_offline()
            n_off = t_off / self.run.ref_s
            ios = self.array.total_ios
            self.check_offline()
            conv, journal, report, t_on = self.convert_online()
            self.check_online(conv, journal, report)
            self.offline_ios = ios
            return t_off + t_on, n_off + t_on / self.run.ref_s, report
        return 0.0, 0.0, None

    def measure(self) -> tuple[dict, dict]:
        e2e, extras = super().measure()
        if "io_per_block" in e2e:
            # the online half's I/O plus the offline half's, per converted block
            e2e["io_per_block"] = (e2e["io_per_block"] + self.offline_ios / self.capacity) / 2
        return e2e, extras

    def measure_traced(self) -> dict[str, float]:
        run = self.run
        self.setup()
        samples, traced_s, untraced_s, healthy_s = [], [], [], []

        def healthy_seconds() -> tuple[float, int]:
            """The same two conversions on the array without the failure."""
            t_off = self.convert_offline(healthy=True)
            reads = self.array.total_reads
            *_, t_on = self.convert_online(healthy=True)
            return t_off + t_on, reads

        def step(traced: bool) -> None:
            with run.checks.guard("degraded conversion"):
                if not traced:
                    untraced_s.append(self.rep()[0])
                    return
                healthy, healthy_reads = healthy_seconds()
                healthy_s.append(healthy)
                with run.traced() as win:
                    t_off = self.convert_offline()
                    off_reads, off_writes = self.array.total_reads, self.array.total_writes
                    self.check_offline()
                    conv, journal, report, t_on = self.convert_online(run.kernel, TimedJournal)
                traced_s.append(t_off + t_on)
                layer = run.kernel_layer()
                layer.update(self.online_layers(win, journal, report))
                parities = 2 * self.parities
                layer["raid.reads_per_parity"] = (off_reads + self.array.total_reads) / parities
                layer["raid.writes_per_parity"] = (off_writes + self.array.total_writes) / parities
                layer["degraded.reads"] = off_reads - healthy_reads + report.degraded_reads
                layer["checkpoint.busy_s"] = win.bench_total("checkpoint.execute")
                samples.append(layer)
                self.check_online(conv, journal, report)

        alternate(run.seconds, step)
        out = median_layers(samples)
        out["trace.overhead_frac"] = overhead(traced_s, untraced_s)
        # degraded rate over healthy rate, both untraced
        out["degraded.healthy_frac"] = median(healthy_s) / max(median(untraced_s), 1e-12)
        return out


# -------------------------------------------------------------------- fleet
FLEET_VOLUMES = 96
#: 3 groups keep a volume (1.9 MB) inside one core's 2 MiB L2
FLEET_GROUPS = 3
FLEET_FAILURES = 3


def fleet_config(seed: int) -> FleetConfig:
    """The fleet workload's recipe; the spare pool covers every failure,
    so every claim is granted and results do not depend on the pool width."""
    rng = np.random.default_rng((seed, 5))
    failed = rng.choice(FLEET_VOLUMES, size=FLEET_FAILURES, replace=False)
    return FleetConfig(
        volumes=FLEET_VOLUMES,
        clients=2,
        p=P,
        groups=FLEET_GROUPS,
        block_size=BLOCK,
        seed=seed,
        requests_per_volume=48,
        batch=FLEET_GROUPS * ROWS,
        spares=FLEET_FAILURES + 1,
        fail_volumes=tuple(sorted(int(v) for v in failed)),
        fail_disk=FAILED_DISK,
    )


def spread_workers():
    """Thread-pool initializer that gives each worker its own CPU.

    The pool's Python work is serialised by the GIL either way; left to
    the OS, whether the two workers share a CPU changes fleet throughput
    by half from run to run.  Pinning them apart measures the 2-CPU case
    every time.
    """
    cpus = sorted(os.sched_getaffinity(0))
    slots = itertools.count()

    def pin() -> None:
        os.sched_setaffinity(0, {cpus[next(slots) % len(cpus)]})

    return pin


def provision_fleet(cfg: FleetConfig, recorder: Recorder) -> list[TimedFleetVolume]:
    """Build every volume (data, RAID-5 format, schedule) on the pool;
    their arrays are views into one shared segment, as in the service."""
    specs = FleetService(cfg).build_specs()
    stripes = cfg.groups * (cfg.p - 1)
    segment = np.zeros((cfg.volumes, cfg.p, stripes, cfg.block_size), dtype=np.uint8)
    with ThreadPoolExecutor(max_workers=cfg.clients, initializer=spread_workers()) as pool:
        volumes = list(
            pool.map(
                lambda s: TimedFleetVolume(s, buffer=segment[s.volume_id], recorder=recorder),
                specs,
            )
        )
    return volumes


def run_fleet_pool(cfg: FleetConfig, volumes, recorder: Recorder) -> tuple[list[dict], float]:
    """Admit volumes closed-loop through the pool; results by volume id."""
    spares = SparePool(cfg.spares)

    def drive(volume, parent):
        with recorder.span("fleet.volume", parent=parent):
            return volume.run(spares)

    with recorder.span("fleet.pool") as pool_span:
        t0 = perf_counter()
        with ThreadPoolExecutor(max_workers=cfg.clients, initializer=spread_workers()) as pool:
            futures = [pool.submit(drive, v, pool_span.sid) for v in volumes]
            results = [f.result() for f in futures]
        wall = perf_counter() - t0
    return sorted(results, key=lambda r: r["volume_id"]), wall


def fleet_gates(results: list[dict]) -> dict[str, bool]:
    """The service's four acceptance gates, scored from per-volume results."""
    return {
        "all_terminal": all(r["state"] in ("complete", "failed") for r in results),
        "zero_divergence": all(
            r["divergent_blocks"] <= 0 for r in results if r["state"] == "complete"
        ),
        "qos_ok": not qos_misses(results),
        "no_errors": all(r["error"] is None for r in results),
    }


def qos_misses(results: list[dict]) -> int:
    return sum(
        1
        for r in results
        if r["qos_p99_ticks"] is not None and r["breaker"]["closed_p99"] > r["qos_p99_ticks"]
    )


def fleet_signature(results: list[dict]) -> tuple:
    """Everything tick-domain about a fleet run (pool-width independent)."""
    return tuple(
        (r["volume_id"], r["state"], r["finish_tick"], r["conversion_ticks"],
         r["rebuilds_completed"], tuple(r["latency"]["ticks"]))
        for r in results
    )


class Fleet:
    """~96 small Code 5-6 volumes migrated on a pool of 2 threads.

    Provisioning runs on the pool outside the timed region and counts in
    ``setup_s``; the timed region is the pool draining the volumes.
    """

    name = "fleet"

    def __init__(self, run: Run):
        self.run = run
        self.cfg = fleet_config(run.seed)
        self.signature = None
        self.capacity = self.cfg.volumes * self.cfg.groups * ROWS * (M - 1)

    @property
    def array_bytes(self) -> int:
        return P * self.cfg.groups * ROWS * BLOCK

    def epoch(self):
        """Provision, drain and check one fleet; (setup s, wall s, results, vols)."""
        rec = self.run.recorder
        gc.collect()
        with rec.span("fleet.provision"):
            t0 = perf_counter()
            volumes = provision_fleet(self.cfg, rec)
            setup_s = perf_counter() - t0
        base = [v.array.total_ios for v in volumes]
        # a fleet gives few, long samples, so the reference is the median
        # of passes taken on both sides of the drain rather than one pass
        refs = [self.run.settle(), self.run.reference.seconds(), self.run.reference.seconds()]
        results, wall = run_fleet_pool(self.cfg, volumes, rec)
        refs += [self.run.reference.seconds() for _ in range(3)]
        ref_s = median(refs)
        checks = self.run.checks
        for gate, ok in fleet_gates(results).items():
            checks.check(ok, f"fleet gate {gate} failed")
        sig = fleet_signature(results)
        if self.signature is None:
            self.signature = sig
        checks.check(sig == self.signature, "fleet: tick-domain result not repeatable")
        first, last = zip(*(decile_means(v.report.request_stalls) for v in volumes))
        slack = PARITY_TICKS + DEGRADED_EXTRA_TICKS
        checks.check(
            float(np.mean(last)) <= float(np.mean(first)) + slack,
            "fleet: foreground stall grows over the run (schedule over capacity)",
        )
        ios = sum(v.array.total_ios for v in volumes) - sum(base)
        return setup_s, wall, results, volumes, ios, wall / ref_s

    def measure(self) -> tuple[dict, dict]:
        deadline = perf_counter() + self.run.seconds
        setups, walls, norms = [], [], []
        last = None
        epochs, epoch_s = 0, 0.0
        while epochs == 0 or deadline - perf_counter() > epoch_s / 2:
            epochs += 1
            t0 = perf_counter()
            with self.run.checks.guard("fleet run"):
                epoch = self.epoch()
                setups.append(epoch[0])
                walls.append(epoch[1])
                norms.append(epoch[5])
                last = (epoch[2], epoch[4])
                del epoch  # free this fleet's volumes before provisioning the next
            epoch_s = perf_counter() - t0
        if last is None:
            return {}, {}
        results, ios = last
        megabytes = self.capacity * BLOCK / 1e6
        e2e = {
            "convert_MB_per_ref": megabytes / median(norms),
            "io_per_block": ios / self.capacity,
            "finish_ticks": max(r["finish_tick"] for r in results),
            "setup_s": median(setups),
        }
        ticks = [t for r in results for t in r["latency"]["ticks"]]
        extras = fg_extras(ticks, np.zeros(len(ticks)))
        extras["convert_MBps"] = (megabytes / median(walls), "MB/s")
        extras["qos_miss_frac"] = (qos_misses(results) / len(results), "ratio")
        return e2e, extras

    def measure_traced(self) -> dict[str, float]:
        run = self.run
        samples, traced_s, untraced_s = [], [], []

        def step(traced: bool) -> None:
            with run.checks.guard("fleet run"):
                if not traced:
                    untraced_s.append(self.epoch()[1])
                    return
                with run.traced() as win:
                    _setup_s, wall, results, volumes, _ios, _norm = self.epoch()
                traced_s.append(wall)
                vol_s = win.bench_durations("fleet.volume")
                reports = [v.report for v in volumes]
                parities = sum(r.parities_generated for r in reports) or 1
                layer = run.kernel_layer()
                layer.update({
                    "fleet.volume_run_s.p50": percentile(vol_s, 50),
                    "fleet.volume_run_s.max": max(vol_s),
                    "fleet.pool_busy_frac": sum(vol_s) / (self.cfg.clients * wall),
                    "fleet.audit_s": win.bench_total("fleet.audit"),
                    "fleet.provision_s": win.bench_total("fleet.provision"),
                    "fleet.rebuilds": sum(r["rebuilds_completed"] for r in results),
                    "fleet.spare_denied": sum(r["spare_denied"] for r in results),
                    "fleet.breaker_trips": sum(r["breaker"]["trips"] for r in results),
                    "fleet.breaker_open_ticks": sum(r["breaker"]["open_ticks"] for r in results),
                    "fleet.degraded_reads": sum(r["degraded_reads"] for r in results),
                    "online.runs": sum(r.runs_committed for r in reports),
                    "online.parities_per_run": parities
                    / max(1, sum(r.runs_committed for r in reports)),
                    "online.conversion_ticks": sum(r.conversion_ticks for r in reports),
                    "online.app_ticks": sum(r.app_ticks for r in reports),
                    "online.interruptions": sum(r.interruptions for r in reports),
                    "online.writes_to_converted": sum(r.writes_to_converted for r in reports),
                    "journal.flushes": sum(v.journal.appends for v in volumes),
                    "journal.flushes_per_parity": sum(v.journal.appends for v in volumes)
                    / parities,
                    "raid.reads_per_parity": sum(v.array.total_reads for v in volumes) / parities,
                    "raid.writes_per_parity": sum(v.array.total_writes for v in volumes)
                    / parities,
                })
                samples.append(layer)

        alternate(run.seconds, step)
        out = median_layers(samples)
        out["trace.overhead_frac"] = overhead(traced_s, untraced_s)
        return out


WORKLOADS = {cls.name: cls for cls in (Offline, Online, Degraded, Fleet)}
