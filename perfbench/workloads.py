"""The four workloads.  Each runs for ``ctx.seconds`` in whole rounds, checks
every output after the timed window, and returns an :class:`Outcome`.

End-to-end metrics (every workload reports all four; ``run.py`` scales the
time figures to reference machine speed, see ``harness.SpeedProbe``):

* ``setup_s``: median of three set-ups, each in a fresh process with fresh
  cache directories (service: launch to first ``/healthz`` "ok"; ``paper``:
  launch to the end of the imports and the ē_b table).
* ``peak_rss_mb``: the largest peak resident set of any child process the
  run started (server, its pool workers and simulation children, or the
  ``paper`` process), from ``getrusage(RUSAGE_CHILDREN)``.
* ``latency_p50_ms``: the median wait for one operation's answer: a request
  (``plan_*``; on ``plan_mix`` timed from its scheduled send time), the first
  snapshot row of a stream (``city_sim``; geometric mean of the per-size
  medians so both sizes weigh equally), or one full regeneration
  (``paper``).
* ``throughput_per_s``: requests completed per second (``plan_*``),
  simulated events per second of stream wall time (``city_sim``), or
  artifacts regenerated per second (``paper``).
"""

from __future__ import annotations

import itertools
import json
import pathlib
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.checks import CheckError, Checker, paper_errors
from perfbench.harness import (
    ROOT,
    Connection,
    Service,
    child_env,
    geomean,
    median,
    percentile,
    read_rows,
)
from perfbench.inputs import MIX_RATE_PER_S, city_specs, mix_plan, serial_requests
from perfbench.tracing import SpanTable

__all__ = ["Context", "Outcome", "WORKLOADS"]

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: ``plan_mix`` arrival rate at smoke size.
SMOKE_MIX_RATE_PER_S = 20.0
#: Seconds of the ``plan_mix`` schedule sent closed loop, untimed, before
#: the timed window.  Without it the timed window starts on a cold result
#: cache that the open-loop rate overloads: the backlog took 6 to 20 s to
#: drain, depending on the host, and the run median moved with it.
MIX_WARMUP_S = 10.0


@dataclass
class Context:
    seed: int
    seconds: float
    scratch: pathlib.Path
    smoke: bool = False


@dataclass
class Outcome:
    """What one phase of a workload measured."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Figures beside the end-to-end ones (tails, lateness, op counts).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Span tables by process: ``server``, ``sim`` (in process) or ``paper``.
    spans: Dict[str, SpanTable] = field(default_factory=dict)
    server_metrics: Dict[str, Any] = field(default_factory=dict)
    #: Figures set by the arrival schedule rather than machine speed.
    unscaled: Tuple[str, ...] = ()


def _peak_child_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _check(outcome: Outcome, fn: Callable[[], Any]) -> Any:
    try:
        return fn()
    except (CheckError, KeyError, TypeError, ValueError) as exc:
        outcome.errors.append(f"{type(exc).__name__}: {exc}")
        return None


def _service_setups(ctx: Context) -> List[float]:
    """``SETUPS - 1`` probe launches; the measured server adds the last one."""
    times = []
    for _ in range(SETUPS - 1):
        with Service(ctx.scratch) as probe:
            times.append(probe.setup_s)
    return times


def _spans_path(ctx: Context, traced: bool, name: str) -> Optional[pathlib.Path]:
    return ctx.scratch / f"{name}-spans.npz" if traced else None


# --------------------------------------------------------------------------- #
# plan_serial                                                                 #
# --------------------------------------------------------------------------- #


def plan_serial(ctx: Context, traced: bool) -> Outcome:
    """Closed loop on one keep-alive connection, unique scalar payloads."""
    out = Outcome()
    setups = _service_setups(ctx)
    spans = _spans_path(ctx, traced, "server")
    records: List[Tuple[str, Dict[str, Any], int, bytes]] = []
    latencies: List[float] = []
    service = Service(ctx.scratch, spans).start()
    try:
        setups.append(service.setup_s)
        conn = Connection(service.port)
        warmup = itertools.islice(serial_requests(ctx.seed, stream=1), 4)
        for _kind, path, body, blob in warmup:
            out.attempted += 1
            status, data = conn.post(path, blob)
            records.append((path, body, status, data))
        requests = serial_requests(ctx.seed)
        started = time.perf_counter()
        while time.perf_counter() - started < ctx.seconds:
            for _kind, path, body, blob in itertools.islice(requests, 4):
                out.attempted += 1
                t0 = time.perf_counter()
                status, data = conn.post(path, blob)
                latencies.append(time.perf_counter() - t0)
                records.append((path, body, status, data))
        elapsed = time.perf_counter() - started
        conn.close()
        if traced:
            out.server_metrics = service.metrics()
    finally:
        service.stop()
    out.failed = _check_buffered(out, records)
    lat_ms = [1000.0 * x for x in latencies]
    out.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": _peak_child_rss_mb(),
        "latency_p50_ms": median(lat_ms),
        "throughput_per_s": len(latencies) / elapsed,
    }
    out.extra = {
        "latency_p99_ms": percentile(lat_ms, 99.0),
        "latency_mean_ms": sum(lat_ms) / len(lat_ms),
        "ops": float(out.attempted),
    }
    if spans is not None:
        out.spans["server"] = SpanTable.load(str(spans))
    return out


def _check_buffered(out: Outcome, records: List[Tuple[str, Dict[str, Any], int, bytes]]) -> int:
    """Check every 200 response; return how many requests failed."""
    checker = Checker()
    failed = 0
    for path, body, status, data in records:
        if status != 200:
            failed += 1
            continue
        _check(out, lambda: checker.check(path, body, json.loads(data)))
    return failed


# --------------------------------------------------------------------------- #
# plan_mix                                                                    #
# --------------------------------------------------------------------------- #


def plan_mix(ctx: Context, traced: bool) -> Outcome:
    """Open loop: ``repro.loadgen`` Poisson schedule over two connections,
    after a closed-loop warm-up with the schedule's first ``MIX_WARMUP_S``."""
    out = Outcome()
    rate = SMOKE_MIX_RATE_PER_S if ctx.smoke else MIX_RATE_PER_S
    schedule = mix_plan(ctx.seed, MIX_WARMUP_S + ctx.seconds, rate)
    warmup = [request for request in schedule if request.t_send_s < MIX_WARMUP_S]
    blobs = [json.dumps(request.body).encode() for request in schedule]
    setups = _service_setups(ctx)
    spans = _spans_path(ctx, traced, "server")
    results: List[Optional[Tuple[int, Any, float, float]]] = [None] * len(schedule)
    service = Service(ctx.scratch, spans).start()
    try:
        setups.append(service.setup_s)
        conn = Connection(service.port)
        for i, request in enumerate(warmup):
            payload: Any
            if request.stream:
                status, payload, _ = read_rows(conn.stream(request.path, blobs[i]), 0.0)
            else:
                status, payload = conn.post(request.path, blobs[i])
            results[i] = (status, payload, float("nan"), float("nan"))
        conn.close()
        next_index = itertools.count(len(warmup))
        lock = threading.Lock()
        t_start = time.perf_counter() + 0.05 - MIX_WARMUP_S

        def sender() -> None:
            conn = Connection(service.port)
            try:
                while True:
                    with lock:
                        i = next(next_index)
                    if i >= len(schedule):
                        return
                    request = schedule[i]
                    due = t_start + request.t_send_s
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sent = time.perf_counter()
                    payload: Any
                    if request.stream:
                        status, payload, _ = read_rows(conn.stream(request.path, blobs[i]), sent)
                    else:
                        status, payload = conn.post(request.path, blobs[i])
                    results[i] = (status, payload, time.perf_counter() - due, sent - due)
            finally:
                conn.close()

        second = threading.Thread(target=sender)
        second.start()
        sender()
        second.join()
        elapsed = time.perf_counter() - t_start - MIX_WARMUP_S
        out.server_metrics = service.metrics()
    finally:
        service.stop()

    checker = Checker()
    latencies, lateness = [], []
    checked = set()  # (request, answer) pairs already verified: repeats skip
    for i, (request, blob, result) in enumerate(zip(schedule, blobs, results)):
        out.attempted += 1
        if result is None or result[0] != 200:
            out.failed += 1
            continue
        status, payload, latency, late = result
        if i >= len(warmup):
            latencies.append(1000.0 * latency)
            lateness.append(1000.0 * late)
        key = (request.path, request.stream, blob, json.dumps(payload) if request.stream else payload)
        if key in checked:
            continue
        checked.add(key)
        if request.stream:
            _check(out, lambda: checker.check_stream(request.path, request.body, payload))
        else:
            _check(out, lambda: checker.check(request.path, request.body, json.loads(payload)))
    cache = out.server_metrics["result_cache"]
    out.unscaled = ("throughput_per_s",)  # the open-loop schedule sets it
    out.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": _peak_child_rss_mb(),
        "latency_p50_ms": median(latencies),
        "throughput_per_s": len(latencies) / elapsed,
    }
    out.extra = {
        "latency_p99_ms": percentile(latencies, 99.0),
        "latency_mean_ms": sum(latencies) / len(latencies),
        "lateness_p50_ms": median(lateness),
        "lateness_max_ms": max(lateness),
        "result_cache_hit_share": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "ops": float(out.attempted),
    }
    if spans is not None:
        out.spans["server"] = SpanTable.load(str(spans))
    return out


# --------------------------------------------------------------------------- #
# city_sim                                                                    #
# --------------------------------------------------------------------------- #


def city_sim(ctx: Context, traced: bool) -> Outcome:
    """Closed loop: back-to-back streamed ``/v1/simulate`` runs, both sizes."""
    out = Outcome()
    setups = _service_setups(ctx)
    spans = _spans_path(ctx, traced, "server")
    streams: List[Tuple[Dict[str, Any], int, List[Any], float, float]] = []
    service = Service(ctx.scratch, spans).start()
    try:
        setups.append(service.setup_s)
        conn = Connection(service.port)
        started = time.perf_counter()
        for round_no in itertools.count():
            if time.perf_counter() - started >= ctx.seconds:
                break
            for spec in city_specs(ctx.seed, round_no, ctx.smoke):
                blob = json.dumps(spec).encode()
                t0 = time.perf_counter()
                status, rows, first_s = read_rows(conn.stream("/v1/simulate", blob), t0)
                streams.append((spec, status, rows, first_s, time.perf_counter() - t0))
        conn.close()
        if traced:
            out.server_metrics = service.metrics()
    finally:
        service.stop()

    checker = Checker()
    first_ms: Dict[int, List[float]] = {}
    events = 0
    wall = 0.0
    for spec, status, rows, first_s, total_s in streams:
        out.attempted += 1
        if status != 200 or not rows or rows[-1].get("row") == "error":
            out.failed += 1
            continue
        _check(out, lambda: checker.sim_rows(rows))
        first_ms.setdefault(spec["n_nodes"], []).append(1000.0 * first_s)
        events += int(rows[-1]["events_processed"])
        wall += total_s
    out.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": _peak_child_rss_mb(),
        "latency_p50_ms": geomean([median(v) for v in first_ms.values()]),
        "throughput_per_s": events / wall,
    }
    out.extra = {"ops": float(out.attempted)}
    if spans is not None:
        out.spans["server"] = SpanTable.load(str(spans))
        _city_in_process(streams[:2], out)
    return out


def _city_in_process(
    streams: List[Tuple[Dict[str, Any], int, List[Any], float, float]], out: Outcome
) -> None:
    """Re-run the first round's specs in process under the simulator wrappers;
    their digests must equal the streamed ones."""
    from perfbench.tracing import Tracer, install_sim_layers
    from repro.scenario import ScenarioRuntime
    from repro.scenario.spec import scenario_from_mapping

    tracer = Tracer()
    install_sim_layers(tracer)
    events = 0
    for spec, _status, streamed, _first, _total in streams:
        rows = list(ScenarioRuntime(scenario_from_mapping(spec)).run())
        events += int(rows[-1]["events_processed"])
        if rows[-1]["digest"] != streamed[-1].get("digest"):
            out.errors.append(f"{spec['n_nodes']}-node scenario: in-process digest differs")
    out.spans["sim"] = tracer.table()
    out.extra["sim_runs"] = float(len(streams))
    out.extra["sim_events"] = float(events)


# --------------------------------------------------------------------------- #
# paper                                                                       #
# --------------------------------------------------------------------------- #


def _paper_process(ctx: Context, extra: List[str]) -> Tuple[float, Dict[str, Any]]:
    """Launch ``paper_worker.py``; return its set-up time and last JSON line."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "paper_worker.py"), "--seconds", str(ctx.seconds)]
    if ctx.smoke:
        cmd.append("--fast")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd + extra, stdout=subprocess.PIPE, env=child_env(ctx.scratch), cwd=ctx.scratch
    )
    assert proc.stdout is not None
    with proc.stdout:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
    if proc.wait() != 0 or not ready:
        raise RuntimeError(f"paper worker exited with {proc.returncode}")
    return setup_s, json.loads(lines[-1]) if lines else {}


def paper(ctx: Context, traced: bool) -> Outcome:
    """In process, serial: all nine artifacts at full size, checks on."""
    out = Outcome()
    setups = [_paper_process(ctx, ["--setup-only"])[0] for _ in range(SETUPS - 1)]
    spans = _spans_path(ctx, traced, "paper")
    setup_s, report = _paper_process(ctx, ["--trace", str(spans)] if spans else [])
    setups.append(setup_s)
    out.attempted = int(report["attempted"])
    out.errors.extend(paper_errors(report))
    regen_s = report["regen_s"]
    n_artifacts = len(report["per_id_s"])
    out.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": _peak_child_rss_mb(),
        "latency_p50_ms": 1000.0 * median(regen_s),
        "throughput_per_s": n_artifacts * len(regen_s) / sum(regen_s),
    }
    out.extra = {f"experiments.{k}_s": median(v) for k, v in report["per_id_s"].items()}
    out.extra["ops"] = float(len(regen_s))
    if spans is not None:
        out.spans["paper"] = SpanTable.load(str(spans))
    return out


WORKLOADS: Dict[str, Callable[[Context, bool], Outcome]] = {
    "plan_serial": plan_serial,
    "plan_mix": plan_mix,
    "city_sim": city_sim,
    "paper": paper,
}
