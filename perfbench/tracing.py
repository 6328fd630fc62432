"""In-memory span recorder and the wrappers that put it around public functions.

A :class:`Tracer` records one span per call of a wrapped function: its name,
start, end and the span that was open when it started (tracked through a
``contextvars`` variable, so concurrent asyncio tasks keep separate parent
chains).  Spans stay in memory as flat arrays and are written out once, with
:meth:`Tracer.dump`, when the traced process ends.

Wrappers are installed by rebinding the attribute every caller looks up: a
method is replaced on its class, a module-level function in every loaded
module that imported it by name.  Only the process that installed the wrappers
records; forked children (worker pools, simulation children) call straight
through.

Self time of a span is its duration minus the time covered by its child
spans (children are nested inside their parent, so their durations add up).
"""

from __future__ import annotations

import contextvars
import functools
import os
import sys
import time
from array import array
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

import numpy as np

__all__ = [
    "SpanTable",
    "Tracer",
    "install_paper_layers",
    "install_service_layers",
    "install_sim_layers",
]


#: An open span: its id, the context token that made it current, its start.
_Open = Tuple[int, Optional["contextvars.Token[int]"], float]


class Tracer:
    """Records spans for the process that created it."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._names: Dict[str, int] = {}
        self._name_idx = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self.counts: Dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, enter: bool = True) -> _Open:
        """Start a span; ``enter`` makes it the parent of spans opened inside."""
        idx = self._names.setdefault(name, len(self._names))
        span_id = len(self._start)
        self._name_idx.append(idx)
        self._parent.append(self._current.get())
        self._start.append(0.0)
        self._end.append(0.0)
        token = self._current.set(span_id) if enter else None
        return span_id, token, time.perf_counter()

    def _close(self, span: _Open) -> None:
        span_id, token, t0 = span
        self._end[span_id] = time.perf_counter()
        self._start[span_id] = t0
        if token is not None:
            self._current.reset(token)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a named counter kept beside the spans."""
        self.counts[name] = self.counts.get(name, 0) + n

    def active(self) -> bool:
        return os.getpid() == self._pid

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """A synchronous function recorded as one span per call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def wrap_async(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """A coroutine function recorded from its first step to its return."""

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != self._pid:
                return await fn(*args, **kwargs)
            span = self._open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def wrap_generator(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """A generator function recorded as one span per resumption."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                yield item

        return traced

    def wrap_first_item(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """An async generator function: one span from entry to its first item."""

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            # Not entered: the span may be closed from another context.
            span = self._open(name, enter=False) if os.getpid() == self._pid else None
            try:
                async for item in inner:
                    if span is not None:
                        self._close(span)
                        span = None
                    yield item
            finally:
                if span is not None:
                    self._close(span)
                await inner.aclose()

        return traced

    # -- output --------------------------------------------------------------

    def _arrays(self) -> Dict[str, np.ndarray]:
        names = sorted(self._names, key=self._names.__getitem__)
        counts = sorted(self.counts)
        return {
            "names": np.array(names, dtype=str),
            "name_idx": np.array(self._name_idx, dtype=np.int64),
            "start": np.array(self._start, dtype=np.float64),
            "end": np.array(self._end, dtype=np.float64),
            "parent": np.array(self._parent, dtype=np.int64),
            "count_names": np.array(counts, dtype=str),
            "count_values": np.array([self.counts[k] for k in counts], dtype=np.int64),
        }

    def dump(self, path: str) -> None:
        """Write every recorded span and counter to ``path`` (``.npz``)."""
        np.savez(path, **self._arrays())

    def table(self) -> "SpanTable":
        """The spans recorded so far, aggregated by name."""
        return SpanTable(self._arrays())


class SpanTable:
    """Per-name totals over a set of spans: calls, time and self time."""

    def __init__(self, arrays: Dict[str, np.ndarray]) -> None:
        name_idx, start, end, parent = (
            arrays[k] for k in ("name_idx", "start", "end", "parent")
        )
        closed = end > 0.0
        duration = np.where(closed, end - start, 0.0)
        child_time = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self.counts = {
            str(k): int(v) for k, v in zip(arrays["count_names"], arrays["count_values"])
        }
        self._calls: Dict[str, int] = {}
        self._total_s: Dict[str, float] = {}
        self._self_s: Dict[str, float] = {}
        for idx, name in enumerate(str(n) for n in arrays["names"]):
            mask = (name_idx == idx) & closed
            self._calls[name] = int(mask.sum())
            self._total_s[name] = float(duration[mask].sum())
            self._self_s[name] = float((duration[mask] - child_time[mask]).sum())

    @classmethod
    def load(cls, path: str) -> "SpanTable":
        with np.load(path) as data:
            return cls({k: data[k] for k in data.files})

    def calls(self, *names: str) -> int:
        return sum(self._calls.get(n, 0) for n in names)

    def total_ms(self, *names: str) -> float:
        return 1000.0 * sum(self._total_s.get(n, 0.0) for n in names)

    def self_ms(self, *names: str) -> float:
        return 1000.0 * sum(self._self_s.get(n, 0.0) for n in names)


# --------------------------------------------------------------------------- #
# Installation                                                                #
# --------------------------------------------------------------------------- #


def _wrap_method(tracer: Tracer, cls: type, attr: str, name: str, kind: str = "sync") -> None:
    fn = cls.__dict__[attr]
    wrapper = {
        "sync": tracer.wrap,
        "async": tracer.wrap_async,
        "generator": tracer.wrap_generator,
        "first_item": tracer.wrap_first_item,
    }[kind]
    setattr(cls, attr, wrapper(fn, name))


def _wrap_function(tracer: Tracer, module_name: str, attr: str, name: str) -> None:
    """Rebind ``module.attr`` wherever a loaded module holds that function."""
    original = getattr(sys.modules[module_name], attr)
    traced = tracer.wrap(original, name)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is not None and namespace.get(attr) is original:
            setattr(module, attr, traced)


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _install_energy_layers(tracer: Tracer) -> None:
    import repro.energy.table  # noqa: F401  (imports solve_ebar_batch by name)
    from repro.energy.model import EnergyModel

    for attr in ("local_tx", "local_rx", "mimo_tx", "mimo_rx"):
        _wrap_method(tracer, EnergyModel, attr, "energy.model")
    _wrap_function(tracer, "repro.energy.ebar", "solve_ebar_batch", "energy.solve_ebar_batch")


def install_service_layers(tracer: Tracer) -> None:
    """Wrap the planning service's layers (call before the service starts)."""
    import repro.service.cli  # noqa: F401  (loads every module the CLI uses)
    from repro.channel.multipath import MultipathEnvironment
    from repro.core.overlay import OverlaySystem
    from repro.core.underlay import UnderlaySystem
    from repro.energy.table import EbarTable
    from repro.service.app import PlanningService
    from repro.service.coalescer import Coalescer
    from repro.service.pool import WorkerPool
    from repro.service.rescache import ResultCache
    from repro.service.simulate import SimulationRunner

    _install_energy_layers(tracer)
    _wrap_method(tracer, PlanningService, "handle", "service.handle", "async")
    for attr in ("_ebar_batch", "_overlay_batch", "_underlay_batch", "_interweave_batch"):
        _wrap_method(tracer, PlanningService, attr, "coalescer.kernel")
    _wrap_method(tracer, Coalescer, "submit", "coalescer.submit", "async")
    _wrap_method(tracer, WorkerPool, "submit", "pool.submit", "async")
    _wrap_method(tracer, ResultCache, "put", "rescache.put")
    _wrap_method(tracer, SimulationRunner, "stream", "service.sim_first_row", "first_item")
    for kind in ("ebar", "overlay", "underlay", "interweave"):
        _wrap_function(
            tracer, "repro.service.schemas", f"parse_{kind}_request", "schemas.parse"
        )
    _wrap_function(tracer, "repro.service.httpio", "render_response", "httpio.render_response")
    _wrap_function(
        tracer, "repro.service.httpio", "encode_ndjson_line", "httpio.encode_ndjson_line"
    )
    _wrap_method(tracer, EbarTable, "lookup", "energy.table_lookup")
    _wrap_method(tracer, OverlaySystem, "distance_analyses", "core.overlay")
    _wrap_method(tracer, UnderlaySystem, "pa_energy_sweep", "core.underlay")
    _wrap_method(tracer, MultipathEnvironment, "amplitude_at", "channel.amplitude")

    get = ResultCache.__dict__["get"]

    def counted_get(cache: ResultCache, digest: str) -> Any:
        payload = get(cache, digest)
        if payload is not None and tracer.active():
            tracer.count("rescache.hits")
        return payload

    setattr(ResultCache, "get", tracer.wrap(functools.wraps(get)(counted_get), "rescache.get"))


def install_sim_layers(tracer: Tracer) -> None:
    """Wrap the scenario runtime, network, mobility and energy layers."""
    import repro.scenario  # noqa: F401
    from repro.network.comimonet import CoMIMONet
    from repro.network.graph import Graph
    from repro.network.mobility import RandomWaypointMobility
    from repro.network.node import SUNode
    from repro.scenario.runtime import ScenarioRuntime

    _install_energy_layers(tracer)
    _wrap_method(tracer, ScenarioRuntime, "__init__", "scenario.build")
    _wrap_method(tracer, ScenarioRuntime, "run", "simulation.run", "generator")
    _wrap_method(tracer, CoMIMONet, "__init__", "network.recluster")
    _wrap_method(tracer, Graph, "shortest_weighted_path", "network.route")
    _wrap_method(tracer, SUNode, "consume", "network.battery")
    _wrap_method(tracer, SUNode, "move_to", "network.mobility")
    _wrap_method(tracer, RandomWaypointMobility, "step", "network.mobility")
    _wrap_function(tracer, "repro.scenario.runtime", "canonical_row", "scenario.encode")


def install_paper_layers(tracer: Tracer) -> None:
    """Wrap the physical-layer, coding, modulation and analysis layers."""
    import repro.experiments.registry as registry
    from repro.core.overlay import OverlaySystem
    from repro.core.underlay import UnderlaySystem
    from repro.modulation.base import Modem
    from repro.stbc.ostbc import OSTBC

    for module in registry.EXPERIMENTS.values():
        __import__(module)
    import repro.phy.link  # noqa: F401

    _install_energy_layers(tracer)
    _wrap_method(tracer, OSTBC, "decode", "stbc.decode")
    _wrap_method(tracer, OSTBC, "encode", "stbc.encode")
    for cls in _subclasses(Modem):
        for attr in ("modulate", "demodulate"):
            if attr in cls.__dict__ and not getattr(cls.__dict__[attr], "__isabstractmethod__", False):
                _wrap_method(tracer, cls, attr, "modulation.modulate")
    _wrap_function(tracer, "repro.channel.awgn", "complex_gaussian", "channel.awgn")
    _wrap_function(tracer, "repro.phy.link", "transmit_bits", "phy.link")
    _wrap_method(tracer, OverlaySystem, "distance_analyses", "core.overlay")
    _wrap_method(tracer, UnderlaySystem, "pa_energy_sweep", "core.underlay")
