"""Seeded inputs for the workloads: the same seed gives the same inputs.

* ``plan_serial``: scalar requests round-robin over ``ebar``, ``overlay``,
  ``underlay`` and ``interweave`` with continuous p, d1, distance and angle
  drawn inside the feasible ranges ``repro.loadgen.plan`` samples from, so
  no two payloads repeat and no cache can hit.
* ``plan_mix``: ``repro.loadgen.build_plan(bench_spec(seed, ...))`` at a
  fixed Poisson rate, plus streamed overlay and underlay sweeps.
* ``city_sim``: two mobile, churning scenarios, about 200 and 1,000 nodes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

__all__ = [
    "MIX_RATE_PER_S",
    "SERIAL_KINDS",
    "city_specs",
    "mix_plan",
    "serial_requests",
]

#: Round-robin order of the ``plan_serial`` request kinds.
SERIAL_KINDS: Tuple[str, ...] = ("ebar", "overlay", "underlay", "interweave")

#: Total open-loop arrival rate of ``plan_mix``.  The server answers a
#: scalar request in about 4 ms (a cache hit in about 1 ms), so two
#: connections carry this rate with headroom on two CPUs.  After the 10 s
#: warm-up, about nine in ten of a 25 s timed window's requests repeat an
#: earlier body, which keeps the median latency inside the result cache's
#: hit path instead of on the boundary between hits and misses.
MIX_RATE_PER_S = 120.0

_PATHS = {
    "ebar": "/v1/ebar",
    "overlay": "/v1/overlay/feasible",
    "underlay": "/v1/underlay/energy",
    "interweave": "/v1/interweave/pattern",
}
#: (mt, mr) pairs on the default ē_b table grid (as ``repro.loadgen.plan``).
_EBAR_ANTENNAS = ((1, 1), (2, 2), (2, 3), (4, 4))

Request = Tuple[str, str, Dict[str, Any], bytes]  # kind, path, body, encoded body


def _serial_body(kind: str, rng: np.random.Generator) -> Dict[str, Any]:
    if kind == "ebar":
        mt, mr = _EBAR_ANTENNAS[int(rng.integers(len(_EBAR_ANTENNAS)))]
        return {
            "p": float(10.0 ** rng.uniform(math.log10(5e-4), -1.0)),
            "b": int(rng.integers(1, 17)),
            "mt": mt,
            "mr": mr,
            "solver": "table",
        }
    if kind == "overlay":
        return {"d1": float(rng.uniform(10.0, 84.375)), "m": int(rng.integers(2, 4)), "bandwidth": 10e3}
    if kind == "underlay":
        return {
            "p": 1e-3,
            "mt": 2,
            "mr": 2,
            "d": 5.0,
            "distance": float(rng.uniform(30.0, 89.5)),
            "bandwidth": 10e3,
        }
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    return {
        "st1": [0.0, 0.0],
        "st2": [15.0, 0.0],
        "wavelength": 30.0,
        "point": [300.0 * math.cos(angle), 300.0 * math.sin(angle)],
        "pr": [100.0, 0.0],
    }


def serial_requests(seed: int, stream: int = 0) -> Iterator[Request]:
    """Endless round-robin scalar requests; ``stream`` picks an independent
    sequence (the warm-up round uses its own)."""
    rng = np.random.default_rng([seed, stream])
    while True:
        for kind in SERIAL_KINDS:
            body = _serial_body(kind, rng)
            yield kind, _PATHS[kind], body, json.dumps(body).encode()


def mix_plan(seed: int, duration_s: float, rate_per_s: float = MIX_RATE_PER_S) -> List[Any]:
    """The ``plan_mix`` schedule: ``bench_spec`` plus streamed sweeps."""
    from repro.loadgen import ArrivalSpec, EndpointMix, bench_spec, build_plan

    spec = bench_spec(seed=seed, duration_s=duration_s, total_rate_per_s=rate_per_s)
    streams = tuple(
        EndpointMix(kind=kind, arrival=ArrivalSpec(rate_per_s=0.025 * rate_per_s), sweep_points=16)
        for kind in ("overlay_stream", "underlay_stream")
    )
    spec = dataclasses.replace(spec, mix=spec.mix + streams, max_concurrency=2)
    return build_plan(spec)


def city_specs(seed: int, round_no: int, smoke: bool = False) -> List[Dict[str, Any]]:
    """Round ``round_no`` of ``city_sim``: one small and one large scenario.

    Every round draws fresh scenario seeds, so a run averages over several
    cities instead of timing one city's quirks.
    """
    rng = np.random.default_rng([seed, 2, round_no])
    churn = {"leave_rate_per_node_s": 0.01, "join_rate_per_s": 1.0}
    sizes = ((20, 4.0, 1.0), (60, 2.0, 1.0)) if smoke else ((200, 6.0, 2.0), (1000, 2.0, 1.0))
    return [
        {
            "n_nodes": n,
            "duration_s": duration,
            "snapshot_interval_s": snapshot,
            "seed": int(rng.integers(2**31 - 1)),
            "churn": churn,
        }
        for n, duration, snapshot in sizes
    ]
