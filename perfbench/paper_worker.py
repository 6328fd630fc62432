"""The ``paper`` workload's process: regenerate all nine artifacts serially.

Usage (from the checkout root, ``src`` on ``PYTHONPATH``)::

    python perfbench/paper_worker.py --seconds S [--setup-only] [--trace SPANS.npz]

Set-up is the imports plus the first artifact, ``ebar`` (the ē_b table); a
``{"event": "ready"}`` line on stdout marks its end, so the parent times it
from launch.  Then full regenerations run through ``run_experiments`` (the
path behind ``repro-experiments all``, ``jobs=1``, full size) with every
``check_experiment`` applied: at least two, and more while another fits in
``S`` seconds.  The last stdout line is a JSON report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from typing import Dict, List, Optional


def _digest(result: object) -> str:
    blob = json.dumps(result.to_json_dict(), sort_keys=True, default=repr)  # type: ignore[attr-defined]
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="write spans to this .npz file")
    parser.add_argument("--fast", action="store_true", help="smoke size (the CLI's --fast)")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer, install_paper_layers

        tracer = Tracer()
        install_paper_layers(tracer)
    from repro.experiments.registry import (
        EXPERIMENTS,
        check_experiment,
        run_experiments,
    )

    ids = sorted(EXPERIMENTS)
    for module in EXPERIMENTS.values():
        __import__(module)
    first = run_experiments(["ebar"], jobs=1, fast=args.fast)[0]
    check_experiment(first)
    print(json.dumps({"event": "ready"}), flush=True)
    if args.setup_only:
        return 0

    regen_s: List[float] = []
    per_id_s: Dict[str, List[float]] = {name: [] for name in ids}
    digests: List[Dict[str, str]] = []
    siso_ebar = float("nan")
    failures: List[str] = []
    attempted = 0
    started = time.perf_counter()
    # Whole regenerations: stop before one would end past ``--seconds``
    # (judged by the last one's duration), but never before two.
    while len(regen_s) < 2 or time.perf_counter() - started + regen_s[-1] <= args.seconds:
        t0 = time.perf_counter()
        round_digests: Dict[str, str] = {}
        for name in ids:
            attempted += 1
            t_id = time.perf_counter()
            result = run_experiments([name], jobs=1, fast=args.fast)[0]
            per_id_s[name].append(time.perf_counter() - t_id)
            try:
                check_experiment(result)
            except AssertionError as exc:
                failures.append(f"{name}: {exc}")
            round_digests[name] = _digest(result)
            if name == "ebar":
                siso_ebar = next(r[2] for r in result.rows if (r[0], r[1]) == (1, 1))
        regen_s.append(time.perf_counter() - t0)
        digests.append(round_digests)
    if tracer is not None:
        tracer.dump(args.trace)
    report = {
        "attempted": attempted,
        "regen_s": regen_s,
        "per_id_s": per_id_s,
        "digests": digests,
        "siso_ebar": siso_ebar,
        "check_failures": failures,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
