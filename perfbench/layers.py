"""Per-layer metrics of a traced run, and the end-to-end metric each moves.

Every traced run prints every metric below.  A layer the workload does not
exercise reads 0 (no calls, no time).  Conventions:

* ``*_ms`` (unit ``ms/op``): milliseconds spent in the layer's spans per
  workload operation: per request (``plan_*``), per stream (service layers
  on ``city_sim``), per in-process scenario run (simulator layers) or per
  regeneration (``paper``).  "self" means the span's duration minus its
  child spans.
* ``*_calls``, ``pool.tasks``, ``httpio.stream_rows`` and
  ``simulation.events`` (unit ``count/op``): calls or items per operation.
* ``experiments.<id>_s``: median seconds of that artifact per regeneration.
* ``tracing.overhead_pct``: the traced ``latency_p50_ms`` over the untraced
  one, minus one, in percent (``throughput_per_s`` the other way round on
  ``city_sim``, whose primary figure is its event rate), both at reference
  machine speed.
* ``machine.speed_scale``: the traced phase's speed-probe factor (above 1
  when the machine ran faster than the reference).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from perfbench.workloads import Outcome

__all__ = ["LAYER_METRICS", "layer_metrics"]

EXPERIMENT_IDS = ("ebar", "fig6", "fig7", "fig8", "game", "table1", "table2", "table3", "table4")

#: name -> (unit, better, the end-to-end metric and workload it should move).
LAYER_METRICS: Dict[str, Tuple[str, str, str]] = {
    "service.handle_ms": ("ms/op", "lower", "latency_p50_ms on plan_serial"),
    "service.outside_ms": ("ms/op", "lower", "latency_p50_ms on plan_serial"),
    "schemas.parse_ms": ("ms/op", "lower", "latency_p50_ms on plan_serial"),
    "httpio.render_ms": ("ms/op", "lower", "latency_p50_ms on plan_serial"),
    "coalescer.wait_ms": ("ms/op", "lower", "latency_p50_ms on plan_serial"),
    "coalescer.batch_size": ("count", "higher", "latency_p50_ms on plan_mix"),
    "pool.submit_ms": ("ms/op", "lower", "latency_p50_ms on plan_mix"),
    "pool.tasks": ("count/op", "lower", "latency_p50_ms on plan_mix"),
    "rescache.get_ms": ("ms/op", "lower", "latency_p50_ms on plan_serial and plan_mix"),
    "rescache.put_ms": ("ms/op", "lower", "latency_p50_ms on plan_serial and plan_mix"),
    "rescache.hit_ratio": ("ratio", "higher", "latency_p50_ms on plan_mix"),
    "ebar_cache.hit_ratio": ("ratio", "higher", "latency_p50_ms on plan_mix"),
    "service.sim_first_row_ms": ("ms/op", "lower", "latency_p50_ms on city_sim"),
    "httpio.stream_rows": ("count/op", "higher", "throughput_per_s on city_sim"),
    "energy.table_lookup_ms": ("ms/op", "lower", "latency_p50_ms on plan_serial"),
    "energy.solve_ebar_batch_ms": ("ms/op", "lower", "setup_s, and latency_p50_ms on paper"),
    "energy.model_ms": ("ms/op", "lower", "throughput_per_s on city_sim"),
    "energy.model_calls": ("count/op", "lower", "throughput_per_s on city_sim"),
    "core.overlay_ms": ("ms/op", "lower", "latency_p50_ms on plan_serial and paper"),
    "core.underlay_ms": ("ms/op", "lower", "latency_p50_ms on plan_serial and paper"),
    "channel.amplitude_ms": ("ms/op", "lower", "latency_p50_ms on plan_serial"),
    "simulation.events": ("count/op", "higher", "throughput_per_s on city_sim"),
    "scenario.build_ms": ("ms/op", "lower", "latency_p50_ms on city_sim"),
    "network.recluster_ms": ("ms/op", "lower", "throughput_per_s and latency_p50_ms on city_sim"),
    "network.recluster_calls": ("count/op", "lower", "throughput_per_s on city_sim"),
    "network.route_ms": ("ms/op", "lower", "throughput_per_s on city_sim"),
    "network.route_calls": ("count/op", "lower", "throughput_per_s on city_sim"),
    "network.battery_ms": ("ms/op", "lower", "throughput_per_s on city_sim"),
    "network.battery_calls": ("count/op", "lower", "throughput_per_s on city_sim"),
    "network.mobility_ms": ("ms/op", "lower", "throughput_per_s on city_sim"),
    "scenario.encode_ms": ("ms/op", "lower", "throughput_per_s on city_sim"),
    "simulation.dispatch_ms": ("ms/op", "lower", "throughput_per_s on city_sim"),
    **{
        f"experiments.{k}_s": ("s", "lower", "latency_p50_ms on paper")
        for k in EXPERIMENT_IDS
    },
    "stbc.decode_ms": ("ms/op", "lower", "latency_p50_ms on paper"),
    "stbc.encode_ms": ("ms/op", "lower", "latency_p50_ms on paper"),
    "channel.awgn_ms": ("ms/op", "lower", "latency_p50_ms on paper"),
    "modulation.modulate_ms": ("ms/op", "lower", "latency_p50_ms on paper"),
    "phy.link_ms": ("ms/op", "lower", "latency_p50_ms on paper"),
    "latency_p99_ms": ("ms", "lower", "untraced tail on plan_serial and plan_mix (not bounded)"),
    "generator.lateness_p50_ms": ("ms", "lower", "how late the plan_mix sender ran"),
    "generator.lateness_max_ms": ("ms", "lower", "how late the plan_mix sender ran"),
    "tracing.overhead_pct": ("%", "lower", "none: the cost of the wrappers"),
    "machine.speed_scale": (
        "ratio",
        "higher",
        "none: reference over measured probe time, times the unstolen CPU share",
    ),
}


def layer_metrics(workload: str, untraced: Outcome, traced: Outcome) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` from one pair of phases."""
    server = traced.spans.get("server")
    sim = traced.spans.get("sim")
    paper = traced.spans.get("paper")
    ops = {
        "server": traced.extra.get("ops", 0.0),
        "sim": traced.extra.get("sim_runs", 0.0),
        "paper": traced.extra.get("ops", 0.0),
    }
    tables = [(t, ops[key]) for key, t in (("server", server), ("sim", sim), ("paper", paper)) if t]

    def per_op(get: Callable[..., float], *names: str) -> float:
        return sum(get(t, *names) / n for t, n in tables if n)

    def total(*names: str) -> float:
        return per_op(lambda t, *ns: t.total_ms(*ns), *names)

    def own(*names: str) -> float:
        return per_op(lambda t, *ns: t.self_ms(*ns), *names)

    def calls(*names: str) -> float:
        return per_op(lambda t, *ns: float(t.calls(*ns)), *names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    snapshot = traced.server_metrics
    ebar_cache = snapshot.get("ebar_cache", {"hits": 0, "misses": 0})
    handle = total("service.handle")
    client_mean = traced.extra.get("latency_mean_ms")
    values = {
        "service.handle_ms": handle,
        "service.outside_ms": client_mean - handle if client_mean is not None else 0.0,
        "schemas.parse_ms": total("schemas.parse"),
        "httpio.render_ms": total("httpio.render_response", "httpio.encode_ndjson_line"),
        "coalescer.wait_ms": own("coalescer.submit"),
        "coalescer.batch_size": float(snapshot.get("coalesce", {}).get("mean_batch_size", 0.0)),
        "pool.submit_ms": total("pool.submit"),
        "pool.tasks": calls("pool.submit"),
        "rescache.get_ms": total("rescache.get"),
        "rescache.put_ms": total("rescache.put"),
        "rescache.hit_ratio": ratio(
            float(server.counts.get("rescache.hits", 0)) if server else 0.0,
            float(server.calls("rescache.get")) if server else 0.0,
        ),
        "ebar_cache.hit_ratio": ratio(
            float(ebar_cache["hits"]), float(ebar_cache["hits"] + ebar_cache["misses"])
        ),
        "service.sim_first_row_ms": total("service.sim_first_row"),
        "httpio.stream_rows": calls("httpio.encode_ndjson_line"),
        "energy.table_lookup_ms": total("energy.table_lookup"),
        "energy.solve_ebar_batch_ms": total("energy.solve_ebar_batch"),
        "energy.model_ms": total("energy.model"),
        "energy.model_calls": calls("energy.model"),
        "core.overlay_ms": total("core.overlay"),
        "core.underlay_ms": total("core.underlay"),
        "channel.amplitude_ms": total("channel.amplitude"),
        "simulation.events": ratio(traced.extra.get("sim_events", 0.0), ops["sim"]),
        "scenario.build_ms": total("scenario.build"),
        "network.recluster_ms": total("network.recluster"),
        "network.recluster_calls": calls("network.recluster"),
        "network.route_ms": total("network.route"),
        "network.route_calls": calls("network.route"),
        "network.battery_ms": total("network.battery"),
        "network.battery_calls": calls("network.battery"),
        "network.mobility_ms": total("network.mobility"),
        "scenario.encode_ms": total("scenario.encode"),
        "simulation.dispatch_ms": own("simulation.run"),
        "stbc.decode_ms": total("stbc.decode"),
        "stbc.encode_ms": total("stbc.encode"),
        "channel.awgn_ms": total("channel.awgn"),
        "modulation.modulate_ms": total("modulation.modulate"),
        "phy.link_ms": own("phy.link"),
        "latency_p99_ms": untraced.extra.get("latency_p99_ms", 0.0),
        "generator.lateness_p50_ms": untraced.extra.get("lateness_p50_ms", 0.0),
        "generator.lateness_max_ms": untraced.extra.get("lateness_max_ms", 0.0),
    }
    for k in EXPERIMENT_IDS:
        values[f"experiments.{k}_s"] = traced.extra.get(f"experiments.{k}_s", 0.0)
    before, after = untraced.metrics, traced.metrics
    if workload == "city_sim":
        overhead = before["throughput_per_s"] / after["throughput_per_s"] - 1.0
    else:
        overhead = after["latency_p50_ms"] / before["latency_p50_ms"] - 1.0
    values["tracing.overhead_pct"] = 100.0 * overhead
    values["machine.speed_scale"] = traced.extra["speed_scale"]
    missing: List[str] = sorted(set(LAYER_METRICS) - set(values))
    if missing:
        raise KeyError(f"per-layer metrics without a value: {missing}")
    return values
