"""Benchmark entry point for Code 5-6 conversion.

    python3 perfbench/run.py --workload online --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the gated end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics and writes its spans to ``perfbench/out/``.  Every metric is
printed as ``<workload> <name> <value> <unit>``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs the four workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from catalog import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def write_trace(path: Path, run) -> dict[str, float]:
    """Write the run's spans; returns bench self time per span name."""
    from harness import self_time_by_name

    self_s = self_time_by_name(run.recorder.spans)
    path.parent.mkdir(exist_ok=True)
    doc = {
        "bench_spans": {
            "columns": ["id", "name", "start_s", "end_s", "parent"],
            "rows": [s.to_list() for s in run.recorder.spans],
        },
        "program_spans": {
            "columns": ["name", "cat", "track", "start_s", "dur_s", "path"],
            "rows": [
                [s.name, s.cat, s.track, s.start_s, s.dur_s, s.args.get("path")]
                for s in run.program_spans
            ],
        },
        "bench_self_s": self_s,
    }
    path.write_text(json.dumps(doc))
    return self_s


def run_one(name: str, args) -> tuple[dict, object]:
    """Measure one workload; returns (metrics, run) and prints its lines."""
    from catalog import END_TO_END, PER_LAYER
    from harness import peak_rss_mb
    from host import provenance, roofline
    from workloads import WORKLOADS, Run

    run = Run(args.seed, args.seconds)
    workload = WORKLOADS[name](run)
    if args.trace:
        run.ceilings = roofline()
        values = dict(run.ceilings)
        values.update(workload.measure_traced())
        catalog = PER_LAYER
        self_s = write_trace(HERE / "out" / f"{name}-seed{args.seed}.trace.json", run)
        for span, secs in sorted(self_s.items()):
            print(f"{name} self_s.{span} {secs!r} s")
        extras: dict = {}
    else:
        values, extras = workload.measure()
        values["peak_rss_mb"] = peak_rss_mb()
        catalog = END_TO_END
    checks = run.checks
    extras["failed_frac"] = (checks.failed / max(1, checks.attempted), "ratio")
    sizes = {name: workload.array_bytes}
    print("provenance " + json.dumps(provenance(ROOT, sizes), sort_keys=True))
    metrics = {}
    for metric, unit in catalog:
        value = float(values.get(metric, 0.0))
        metrics[metric] = {"value": value, "unit": unit}
        print(f"{name} {metric} {value!r} {unit}")
    for metric, (value, unit) in sorted(extras.items()):
        print(f"{name} {metric} {value!r} {unit}")
    return metrics, run


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    args = parse_args(argv)
    from catalog import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        got, run = run_one(name, args)
        attempted += run.checks.attempted
        failed += run.checks.failed
        if len(names) == 1:
            metrics = got
        else:
            metrics.update({f"{name}.{k}": v for k, v in got.items()})
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
