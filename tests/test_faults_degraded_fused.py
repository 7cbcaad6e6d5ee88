"""Degraded offline conversion on the fused tier.

With exactly one failed RAID-5 data disk,
``execute_checkpointed(engine="compiled")`` runs each phase through the
executor's fused kernel path, with every operand on the failed disk
rebuilt from its RAID-5 row mates
(:func:`repro.compiled.compiler.reroute_failed_disk`).  These tests pin
that route to the per-block reconstructing oracle: same surviving bytes,
same per-disk counters, a rebuildable RAID-6 result — and prove the
route never reads the failed column, survives crash/resume, and shows
up in the trace.  An attached plane still sees the per-block
reconstructing reads; two failed disks keep raising the audited
engine's error.
"""

import numpy as np
import pytest

from repro.codes.registry import get_code
from repro.compiled import compile_plan, reroute_failed_disk
from repro.compiled import executor as executor_mod
from repro.compiled.program import FusedPhase, RegionOp, RegionTerm, SparseTerm
from repro.faults import (
    ConversionCrash,
    ConversionJournal,
    FaultPlane,
    FaultScenario,
    execute_checkpointed,
)
from repro.migration.approaches import build_plan
from repro.migration.engine import prepare_source_array
from repro.obs.tracer import Tracer, set_tracer
from repro.raid.array import DiskFailure
from repro.raid.raid6 import Raid6Array
from repro.raid.scrub import scrub_raid6


class _FusedSpy:
    def __init__(self, monkeypatch):
        self.calls = 0
        orig = executor_mod._run_phase_fused

        def spy(*args, **kwargs):
            self.calls += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(executor_mod, "_run_phase_fused", spy)


def _source(p, failed, bs=8, groups=2, seed=11):
    plan = build_plan("code56", "direct", p, groups=groups)
    array, data = prepare_source_array(plan, np.random.default_rng(seed), block_size=bs)
    for d in failed:
        array.fail_disk(d)
    return plan, array, data


def _surviving(array) -> np.ndarray:
    snap = array.snapshot()
    snap[sorted(array.failed_disks)] = 0
    return snap


def _convert(p, failed, engine, bs=8, poison=None):
    plan, array, data = _source(p, failed, bs=bs)
    if poison is not None:
        blocks = np.arange(array.blocks_per_disk)
        array.restore_blocks(
            np.full_like(blocks, failed[0]), blocks,
            poison.integers(0, 256, (blocks.size, bs), dtype=np.uint8),
        )
    run = execute_checkpointed(plan, array, data, engine=engine)
    return plan, array, run


class TestIdentity:
    @pytest.mark.parametrize("bs", [8, 4096])
    @pytest.mark.parametrize(
        "p, disk", [(p, d) for p in (5, 7, 13) for d in range(p - 1)]
    )
    def test_matches_reconstructing_path(self, monkeypatch, p, disk, bs):
        _plan, ref, _run = _convert(p, [disk], "audited", bs=bs)
        spy = _FusedSpy(monkeypatch)
        plan, array, run = _convert(p, [disk], "compiled", bs=bs)
        assert spy.calls == len(compile_plan(plan).phases)  # no silent fallback
        assert run.degraded
        assert np.array_equal(_surviving(array), _surviving(ref))
        assert np.array_equal(array.reads, ref.reads)
        assert np.array_equal(array.writes, ref.writes)
        assert array.reads[disk] == 0
        raid6 = Raid6Array(array, get_code("code56", p))
        raid6.rebuild_disks(disk)
        assert raid6.verify()
        assert scrub_raid6(raid6).clean

    def test_two_failed_data_disks_still_refused(self, monkeypatch):
        errors = {}
        for engine in ("audited", "compiled"):
            spy = _FusedSpy(monkeypatch)
            plan, array, data = _source(5, [0, 2])
            with pytest.raises(DiskFailure) as exc:
                execute_checkpointed(plan, array, data, engine=engine)
            assert spy.calls == 0
            errors[engine] = str(exc.value)
        assert errors["compiled"] == errors["audited"]

    @pytest.mark.parametrize("approach", ["via-raid0", "via-raid4"])
    def test_failed_fill_disk_raises_like_audited(self, approach):
        """H-code's disk 4 is only ever filled (never counted-read); a
        plane failing it must stop the compiled phase where the audited
        engine stops, though no counted read touches it."""
        from repro.faults.spec import DiskFailureAt

        outcomes = []
        for engine in ("compiled", "audited"):
            plan = build_plan("hcode", approach, 5, groups=1)
            array, data = prepare_source_array(plan, np.random.default_rng(0), block_size=8)
            FaultPlane(FaultScenario(disk_failures=(DiskFailureAt(0, 4),))).attach(array)
            with pytest.raises(DiskFailure) as exc:
                execute_checkpointed(plan, array, data, engine=engine)
            outcomes.append((str(exc.value), array.snapshot(), array.reads, array.writes))
        (msg, *state), (ref_msg, *ref_state) = outcomes
        assert msg == ref_msg == "disk 4 has failed"
        assert all(np.array_equal(a, b) for a, b in zip(state, ref_state))

    def test_plane_attached_keeps_per_block_path(self, monkeypatch):
        plan, array, data = _source(5, [1])
        plane = FaultPlane(FaultScenario())
        plane.attach(array)
        spy = _FusedSpy(monkeypatch)
        execute_checkpointed(plan, array, data, engine="compiled")
        plane.detach()
        assert spy.calls == len(compile_plan(plan).phases)
        assert plane.counters["reconstructed_blocks"] > 0


class TestPoisonedColumn:
    """The failed disk still holds its true bytes in the simulator, so a
    route that read it would pass every identity check; overwrite it."""

    @pytest.mark.parametrize("p, disk", [(5, d) for d in range(4)] + [(7, 3)])
    def test_failed_column_is_never_read(self, monkeypatch, p, disk):
        _plan, clean, _run = _convert(p, [disk], "compiled")
        spy = _FusedSpy(monkeypatch)
        _plan, poisoned, _run = _convert(
            p, [disk], "compiled", poison=np.random.default_rng(99)
        )
        assert spy.calls > 0
        assert np.array_equal(_surviving(poisoned), _surviving(clean))
        assert np.array_equal(poisoned.reads, clean.reads)
        assert np.array_equal(poisoned.writes, clean.writes)


class TestResume:
    def test_crash_with_plane_then_resume_fused(self, monkeypatch):
        ref_plan, ref, ref_data = _source(5, [1])
        execute_checkpointed(ref_plan, ref, ref_data, engine="audited")

        probe_plan, probe, probe_data = _source(5, [1])
        plane = FaultPlane(FaultScenario())
        plane.attach(probe)
        execute_checkpointed(probe_plan, probe, probe_data, engine="compiled")
        plane.detach()
        events = plane.crash_events_done
        assert events > 0

        for crash_at in range(events):
            plan, array, data = _source(5, [1])
            plane = FaultPlane(FaultScenario(crash_at=crash_at, crash_tear=0.5))
            plane.attach(array)
            journal = ConversionJournal()
            with pytest.raises(ConversionCrash):
                execute_checkpointed(plan, array, data, journal, engine="compiled")
            plane.detach()
            spy = _FusedSpy(monkeypatch)
            run = execute_checkpointed(plan, array, data, journal, engine="compiled")
            assert spy.calls == run.units_executed > 0
            assert np.array_equal(array.snapshot(), ref.snapshot()), crash_at
            assert all(journal.validate(key, array) for key in journal.records)


class TestTrace:
    @pytest.mark.parametrize("attach_plane, path", [(False, "fused"), (True, "fused")])
    def test_phase_span_names_the_route(self, attach_plane, path):
        plan, array, data = _source(5, [1])
        plane = FaultPlane(FaultScenario())
        if attach_plane:
            plane.attach(array)
        tracer = Tracer(enabled=True)
        prev = set_tracer(tracer)
        try:
            execute_checkpointed(plan, array, data, engine="compiled")
        finally:
            set_tracer(prev)
            plane.detach()
        phases = [s for s in tracer.spans if s.cat == "compiled.phase"]
        assert phases
        for span in phases:
            assert span.args["path"] == path
            assert span.args["degraded"] is True


class TestReroute:
    BPD = 10

    def _phase(self, *terms, sparse=()):
        return FusedPhase(
            n_chains=1, batch=3,
            ops=(RegionOp(chain_index=0, parity=(0, 0), terms=terms, sparse=sparse),),
            parity_src=np.zeros(0, dtype=np.intp), check_src=np.zeros(0, dtype=np.intp),
            read_credit=np.array([3, 3, 3, 0], dtype=np.int64),
        )

    def test_terms_on_failed_disk_expand_to_row_mates(self):
        fz = self._phase(
            RegionTerm(kind="stride", start=12, step=1),  # disk 1
            RegionTerm(kind="const", start=4),  # disk 0: untouched
            RegionTerm(kind="gather", indices=np.array([11, 15, 13])),  # disk 1
            RegionTerm(kind="ref", ref=0),
            sparse=(SparseTerm(rows=np.array([0, 2]), indices=np.array([10, 19])),),
        )
        out = reroute_failed_disk(fz, disk=1, m=3, bpd=self.BPD)
        terms = out.ops[0].terms
        assert [(t.kind, t.start, t.step) for t in terms[:3]] == [
            ("stride", 2, 1), ("stride", 22, 1), ("const", 4, 0),
        ]
        assert [t.indices.tolist() for t in terms[3:5]] == [[1, 5, 3], [21, 25, 23]]
        assert terms[5].kind == "ref"
        assert [sp.indices.tolist() for sp in out.ops[0].sparse] == [[0, 9], [20, 29]]
        assert out.read_credit.tolist() == [6, 0, 6, 0]
        assert fz.read_credit.tolist() == [3, 3, 3, 0]  # input untouched

    @pytest.mark.parametrize(
        "term",
        [
            RegionTerm(kind="stride", start=8, step=1),
            RegionTerm(kind="gather", indices=np.array([1, 11, 21])),
        ],
    )
    def test_straddling_term_is_refused(self, term):
        assert reroute_failed_disk(self._phase(term), disk=1, m=3, bpd=self.BPD) is None

    def test_unrewritable_phase_is_refused(self, monkeypatch):
        from repro.compiled import UnsupportedPlanError

        monkeypatch.setattr(executor_mod, "reroute_failed_disk", lambda *a: None)
        plan, array, data = _source(5, [2])
        with pytest.raises(UnsupportedPlanError, match="failed disk 2"):
            execute_checkpointed(plan, array, data, engine="compiled")
        assert array.total_reads == array.total_writes == 0  # refused up front
