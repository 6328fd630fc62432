"""Output checks: every response is compared against a computation made apart
from the path that served it, or against a property the method must have.

* ``/v1/ebar``: the value agrees with the scalar Brent root-finder
  :func:`repro.energy.ebar.solve_ebar` at the echoed ``p_grid``, b, mt and mr
  (the table was built by batch bisection, a different algorithm).
* ``/v1/interweave/pattern``: each amplitude equals the two-source
  line-of-sight field sum recomputed here from the geometry and the echoed
  ``delta``, and lies in ``[0, sum(gamma)]``.
* ``/v1/overlay/feasible``: ``feasible == (d2 > 0 and d3 > 0)``; ``b_direct``
  and ``e1`` equal the scalar ``OverlaySystem.direct_link_energy``; the
  SIMO hop at ``d2`` and the MISO hop at ``d3``, priced through the scalar
  ``EnergyModel``, fit within ``e1`` (Algorithm 1's same-energy constraint).
* ``/v1/underlay/energy``: ``total_pa`` equals the Algorithm 2 sum at the
  returned b, recomputed through the scalar ``local_tx``/``mimo_tx``, and no
  other b in the range gives a smaller total.
* ``paper``: ``check_experiment`` passed for every artifact, every
  regeneration in a run is bit-identical to the first, and the SISO ē_b is
  within 5% of the paper's 1.90e-18 J.
* Streams end with their terminal row; simulation rows keep
  offered = delivered + dropped, monotone ``t_s``/``events_processed`` and
  live <= present, and the summary digest equals a SHA-256 computed here.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["CheckError", "Checker", "paper_errors", "rows_sha256"]

#: Relative tolerance between two computations of the same energy.  The
#: table (bisection) and Brent agree to ~1e-12 on every grid point.
REL_TOL = 1e-9

#: Default ē_b conventions of the endpoints (``repro.service.schemas``): the
#: overlay endpoint follows the paper's Figure 6 (``diversity_only``), the
#: others the ``paper`` convention.
OVERLAY_CONVENTION = "diversity_only"
DEFAULT_CONVENTION = "paper"

#: SISO ē_b at p = 1e-3, b = 2 printed in the paper (Section 6.2).
PAPER_SISO_EBAR_J = 1.90e-18

Row = Dict[str, Any]


class CheckError(Exception):
    """A response disagreed with its independent check."""


def _close(a: float, b: float, what: str, rel: float = REL_TOL) -> None:
    if not (math.isfinite(a) and math.isfinite(b)) or abs(a - b) > rel * max(abs(a), abs(b), 1e-300):
        raise CheckError(f"{what}: {a!r} != {b!r} (rel tol {rel:g})")


def _equal(a: object, b: object, what: str) -> None:
    if a != b:
        raise CheckError(f"{what}: {a!r} != {b!r}")


def rows_sha256(rows: Sequence[Row]) -> str:
    """SHA-256 over rows, each as sorted compact JSON plus a newline."""
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(row, sort_keys=True, separators=(",", ":")).encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


class Checker:
    """Checks service responses; memoizes the scalar reference models."""

    def __init__(self) -> None:
        from repro.core.overlay import OverlaySystem
        from repro.core.underlay import UnderlaySystem
        from repro.energy.ebar import solve_ebar
        from repro.energy.model import EnergyModel

        self._solve_ebar = solve_ebar
        self._ebar: Dict[Tuple[float, int, int, int, str], float] = {}
        self._models = {
            conv: EnergyModel(ebar_convention=conv)
            for conv in (OVERLAY_CONVENTION, DEFAULT_CONVENTION)
        }
        self._overlay = OverlaySystem(self._models[OVERLAY_CONVENTION])
        self._underlay_b = UnderlaySystem(self._models[DEFAULT_CONVENTION]).b_range

    # -- planning endpoints --------------------------------------------------

    def check(self, path: str, body: Row, payload: Row) -> None:
        """Check one buffered response payload to ``body`` on ``path``."""
        if path == "/v1/ebar":
            self.ebar(body, payload)
        elif path == "/v1/interweave/pattern":
            self.interweave(body, payload)
        elif path in ("/v1/overlay/feasible", "/v1/underlay/energy"):
            rows = payload.get("rows")
            if not isinstance(rows, list) or payload.get("count") != len(rows):
                raise CheckError(f"{path}: rows/count mismatch")
            self.sweep_rows(path, body, rows)
        else:
            raise CheckError(f"no check for {path}")

    def check_stream(self, path: str, body: Row, rows: List[Row]) -> None:
        """Check a streamed sweep: data rows, then ``{"done", "count"}``."""
        if not rows or rows[-1] != {"done": True, "count": len(rows) - 1}:
            raise CheckError(f"{path}: stream does not end with its terminal row")
        self.sweep_rows(path, body, rows[:-1])

    def sweep_rows(self, path: str, body: Row, rows: List[Row]) -> None:
        axis_key = "d1" if path == "/v1/overlay/feasible" else "distance"
        axis = body[axis_key]
        axis = axis if isinstance(axis, list) else [axis]
        _equal(len(rows), len(axis), f"{path} row count")
        for value, row in zip(axis, rows):
            _equal(row[axis_key], float(value), f"{path} echoed {axis_key}")
            if axis_key == "d1":
                self.overlay_row(body, row)
            else:
                self.underlay_row(body, row)

    def ebar(self, body: Row, payload: Row) -> None:
        for key in ("p", "b", "mt", "mr"):
            _equal(payload[key], body[key], f"ebar echoed {key}")
        convention = body.get("convention", DEFAULT_CONVENTION)
        key = (float(payload["p_grid"]), int(body["b"]), int(body["mt"]), int(body["mr"]), convention)
        expected = self._ebar.get(key)
        if expected is None:
            expected = self._solve_ebar(*key[:4], convention=convention)
            self._ebar[key] = expected
        _close(float(payload["e_bar"]), expected, f"ebar{key}")

    def interweave(self, body: Row, payload: Row) -> None:
        points = [body["point"]] if "point" in body else body["points"]
        amplitudes = payload["amplitudes"]
        _equal(len(amplitudes), len(points), "interweave amplitude count")
        delta = float(payload["delta"])
        gammas = body.get("amplitudes", (1.0, 1.0))
        k = 2.0 * math.pi / float(body["wavelength"])
        sources = ((body["st1"], delta), (body["st2"], 0.0))
        for point, amplitude in zip(points, amplitudes):
            re = im = 0.0
            for (source, phase), gamma in zip(sources, gammas):
                r = math.hypot(point[0] - source[0], point[1] - source[1])
                re += gamma * math.cos(phase - k * r)
                im += gamma * math.sin(phase - k * r)
            if not 0.0 <= amplitude <= sum(gammas) * (1.0 + REL_TOL):
                raise CheckError(f"interweave amplitude {amplitude} outside [0, sum(gamma)]")
            if abs(amplitude - math.hypot(re, im)) > 1e-9 * sum(gammas):
                raise CheckError(
                    f"interweave amplitude at {point}: {amplitude!r} != {math.hypot(re, im)!r}"
                )

    def overlay_row(self, body: Row, row: Row) -> None:
        m = int(body["m"])
        bandwidth = float(body["bandwidth"])
        _equal(row["m"], m, "overlay echoed m")
        d2, d3, e1 = float(row["d2"]), float(row["d3"]), float(row["e1"])
        _equal(row["feasible"], d2 > 0.0 and d3 > 0.0, "overlay feasible flag")
        b_direct, e1_ref = self._overlay.direct_link_energy(
            float(row["d1"]), float(row["p_direct"]), bandwidth
        )
        _equal(row["b_direct"], b_direct, "overlay b_direct")
        _close(e1, e1_ref, "overlay e1")
        model = self._models[OVERLAY_CONVENTION]
        p_relay = float(row["p_relay"])
        budget = e1 * (1.0 + REL_TOL)
        if d2 > 0.0:
            simo = model.mimo_tx(p_relay, int(row["b_simo"]), 1, m, d2, bandwidth).total
            if simo > budget:
                raise CheckError(f"overlay SIMO hop at d2={d2} costs {simo} > e1={e1}")
        if d3 > 0.0:
            b = int(row["b_miso"])
            miso = model.mimo_tx(p_relay, b, m, 1, d3, bandwidth).total
            miso += model.mimo_rx(b, bandwidth).total
            if miso > budget:
                raise CheckError(f"overlay MISO hop at d3={d3} costs {miso} > e1={e1}")

    def _underlay_total(self, body: Row, b: int, distance: float) -> Optional[float]:
        """Algorithm 2's PA sum at ``b``; None where ``b`` is infeasible."""
        model = self._models[DEFAULT_CONVENTION]
        p, mt, mr = float(body["p"]), int(body["mt"]), int(body["mr"])
        d, bandwidth = float(body["d"]), float(body["bandwidth"])
        try:
            local = model.local_tx(p, b, d, bandwidth).pa
            longhaul = model.mimo_tx(p, b, mt, mr, distance, bandwidth).pa
        except ValueError:
            return None
        return (local if mt > 1 else 0.0) + mt * longhaul + (mr * local if mr > 1 else 0.0)

    def underlay_row(self, body: Row, row: Row) -> None:
        for key in ("mt", "mr"):
            _equal(row[key], body[key], f"underlay echoed {key}")
        distance = float(row["distance"])
        b = int(row["b"])
        total = self._underlay_total(body, b, distance)
        if total is None:
            raise CheckError(f"underlay returned infeasible b={b}")
        _close(float(row["total_pa"]), total, f"underlay total_pa at b={b}")
        for other in self._underlay_b:
            alt = self._underlay_total(body, other, distance)
            if alt is not None and alt < total * (1.0 - REL_TOL):
                raise CheckError(f"underlay b={other} gives {alt} < {total} at b={b}")

    # -- simulation ----------------------------------------------------------

    def sim_rows(self, rows: List[Row]) -> str:
        """Check one scenario's rows; return the summary digest."""
        if len(rows) < 2 or rows[-1].get("row") != "summary":
            raise CheckError("simulation stream does not end with its summary row")
        snapshots = rows[:-1]
        t_prev, events_prev = -1.0, -1
        for row in snapshots:
            _equal(row.get("row"), "snapshot", "simulation row kind")
            if row["offered"] != row["delivered"] + sum(row["dropped"].values()):
                raise CheckError(f"offered != delivered + dropped at t={row['t_s']}")
            if row["t_s"] < t_prev or row["events_processed"] < events_prev:
                raise CheckError(f"t_s or events_processed decreased at t={row['t_s']}")
            if row["live_nodes"] > row["present_nodes"]:
                raise CheckError(f"live > present at t={row['t_s']}")
            t_prev, events_prev = row["t_s"], row["events_processed"]
        summary = rows[-1]
        last = snapshots[-1]
        for key in ("offered", "delivered", "events_processed"):
            _equal(summary[key], last[key], f"summary {key}")
        digest = rows_sha256(snapshots)
        _equal(summary["digest"], digest, "summary digest")
        return digest


def paper_errors(report: Dict[str, Any]) -> List[str]:
    """Problems in a ``paper_worker.py`` report (empty when all checks hold)."""
    errors = list(report["check_failures"])
    if any(d != report["digests"][0] for d in report["digests"][1:]):
        errors.append("two regenerations within the run differ")
    siso = float(report["siso_ebar"])
    if not abs(siso / PAPER_SISO_EBAR_J - 1.0) <= 0.05:
        errors.append(f"SISO e_bar_b {siso:.4g} J is not within 5% of 1.90e-18 J")
    return errors
