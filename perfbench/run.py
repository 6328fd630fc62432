"""The repository benchmark: one command, four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

``NAME`` is ``plan_serial``, ``plan_mix``, ``city_sim`` or ``paper`` (see
``perfbench/README.md``).  With ``--trace 0`` one untraced phase of ``S``
seconds runs and the end-to-end metrics are printed.  With ``--trace 1`` an
untraced phase and then a traced phase run, and the per-layer metrics are
printed, with the tracing overhead between the two.  ``--smoke`` shrinks
every input so a run takes seconds (the benchmark's own tests use it).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).  Time figures
are scaled to reference machine speed by a low-duty probe process that runs
beside each phase (``perfbench/speed_probe.py``); the raw figures and the
factor are in the stderr summary.  Everything the
run writes lives in a fresh directory under ``.perfbench-runs/`` in the
checkout, removed at the end.  Exits non-zero, printing no result, when the
program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import tempfile
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro  # noqa: E402,F401  (fail fast, before any output, without the program)

from perfbench.harness import SpeedProbe  # noqa: E402
from perfbench.layers import LAYER_METRICS, layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS, Context, Outcome  # noqa: E402

#: Units of the end-to-end metrics (as in BENCHMARK.json).
END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


#: Metrics scaled to reference machine speed: times multiply by the probe's
#: factor, rates divide by it.
TIMES = ("latency_p50_ms", "setup_s")
RATES = ("throughput_per_s",)


def _phase(name: str, ctx: Context, traced: bool) -> Outcome:
    probe = SpeedProbe(ctx.scratch)
    try:
        outcome = WORKLOADS[name](ctx, traced)
    except BaseException:
        probe.kill()
        raise
    scale = probe.stop()
    raw = dict(outcome.metrics)
    for metric in TIMES + RATES:
        if metric not in outcome.unscaled:
            factor = scale if metric in TIMES else 1.0 / scale
            outcome.metrics[metric] = raw[metric] * factor
    outcome.extra["speed_scale"] = scale
    outcome.extra["steal_share"] = probe.steal_share
    summary = {
        "phase": "traced" if traced else "untraced",
        "workload": name,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors[:5],
        "metrics": outcome.metrics,
        "raw_metrics": raw,
        "extra": {k: v for k, v in outcome.extra.items() if not k.startswith("experiments.")},
    }
    print(json.dumps(summary), file=sys.stderr, flush=True)
    return outcome


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    runs = ROOT / ".perfbench-runs"
    runs.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        ctx = Context(seed=args.seed, seconds=args.seconds, scratch=scratch, smoke=args.smoke)
        phases = [_phase(args.workload, ctx, traced=False)]
        if args.trace:
            phases.append(_phase(args.workload, ctx, traced=True))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            runs.rmdir()
        except OSError:
            pass  # another run is using it

    values: Dict[str, float]
    if args.trace:
        values = layer_metrics(args.workload, phases[0], phases[1])
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    else:
        values = phases[0].metrics
        units = END_TO_END_UNITS
    errors = [e for p in phases for e in p.errors]
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
