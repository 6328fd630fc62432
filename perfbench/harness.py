"""Process and HTTP plumbing shared by the workloads.

:class:`Service` launches the real entry point, ``python -m repro.service``
(one shard, ``--workers auto``, every other flag at its CLI default), or the
traced launcher, each with fresh cache directories; :class:`Connection` is a
keep-alive HTTP/1.1 client that times buffered and streamed requests.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import pathlib
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

__all__ = [
    "Connection",
    "ROOT",
    "Service",
    "SpeedProbe",
    "child_env",
    "geomean",
    "median",
    "percentile",
]

#: Seconds a server may take from launch to its first ``/healthz`` "ok".
BOOT_TIMEOUT_S = 60.0
#: Seconds a server may take to drain after SIGTERM before it is killed.
STOP_TIMEOUT_S = 30.0
#: Median of ``speed_probe.py``'s timed loop on the reference machine (2 CPUs,
#: Python 3.11, the machine the README's figures come from).  Time figures
#: are scaled by ``PROBE_REF_S / measured median``.
PROBE_REF_S = 1.5e-3
#: Status recorded for a request the transport failed (as ``repro.service``).
TRANSPORT_FAILURE = 599
#: A refused or broken connection, a truncated or malformed body.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException, ValueError)


def child_env(run_dir: pathlib.Path) -> Dict[str, str]:
    """Environment for a child: the checkout's ``src``, caches under ``run_dir``."""
    env = dict(os.environ)
    env.pop("REPRO_NO_CACHE", None)  # the result cache is on by default; measure it
    env.pop("REPRO_SERVICE_FAULTS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_CACHE_DIR"] = str(run_dir / "ebar-cache")
    env["XDG_CACHE_HOME"] = str(run_dir / "xdg-cache")
    return env


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def geomean(values: Sequence[float]) -> float:
    return float(statistics.geometric_mean(values))


class Service:
    """One planning-service process with its own cache directories."""

    def __init__(self, scratch: pathlib.Path, spans_path: Optional[pathlib.Path] = None) -> None:
        self.dir = pathlib.Path(tempfile.mkdtemp(prefix="service-", dir=scratch))
        self.spans_path = spans_path
        self.proc: Optional["subprocess.Popen[bytes]"] = None
        self.port = 0
        self.setup_s = float("nan")

    def start(self) -> "Service":
        args = [
            "--port", "0",
            "--workers", "auto",
            "--result-cache-dir", str(self.dir / "result-cache"),
        ]
        if self.spans_path is None:
            cmd = [sys.executable, "-m", "repro.service", *args]
        else:
            launcher = str(ROOT / "perfbench" / "service_launcher.py")
            cmd = [sys.executable, launcher, str(self.spans_path), *args]
        t0 = time.perf_counter()
        with open(self.dir / "server.stderr", "wb") as stderr:
            self.proc = subprocess.Popen(
                cmd,
                stdout=subprocess.PIPE,
                stderr=stderr,
                env=child_env(self.dir),
                cwd=self.dir,
            )
        try:
            self.port = int(self._announcement(t0)["port"])
            conn = Connection(self.port)
            while True:
                status, body = conn.get("/healthz")
                if status == 200 and json.loads(body)["status"] == "ok":
                    break
                if time.perf_counter() - t0 > BOOT_TIMEOUT_S:
                    raise RuntimeError("service never reported healthy")
                time.sleep(0.005)
            self.setup_s = time.perf_counter() - t0
            conn.close()
        except BaseException:
            self.stop()
            raise
        return self

    def _announcement(self, t0: float) -> Dict[str, Any]:
        assert self.proc is not None and self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        buf = b""
        while b"\n" not in buf:
            left = BOOT_TIMEOUT_S - (time.perf_counter() - t0)
            ready, _, _ = select.select([fd], [], [], max(0.0, left))
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                raise RuntimeError(
                    f"service exited or stalled before announcing its port: {self.stderr_tail()}"
                )
            buf += chunk
        return json.loads(buf.split(b"\n", 1)[0])  # type: ignore[no-any-return]

    def metrics(self) -> Dict[str, Any]:
        conn = Connection(self.port)
        try:
            status, body = conn.get("/metrics")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)  # type: ignore[no-any-return]

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if the drain hangs."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        if proc.returncode != 0:
            raise RuntimeError(f"service exited with {proc.returncode}: {self.stderr_tail()}")

    def stderr_tail(self) -> str:
        try:
            return (self.dir / "server.stderr").read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def __enter__(self) -> "Service":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


def _steal_ticks() -> Tuple[int, int]:
    """``(steal, total)`` CPU ticks of this guest so far, from the ``cpu``
    line of ``/proc/stat``; ``(0, 0)`` where the kernel does not report them."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0, 0
    if fields[:1] != ["cpu"] or len(fields) < 9:
        return 0, 0
    ticks = [int(x) for x in fields[1:9]]  # user nice system idle iowait irq softirq steal
    return ticks[7], sum(ticks)


class SpeedProbe:
    """``speed_probe.py`` running beside a phase; :meth:`stop` returns the
    factor that turns a time measured now into one at reference speed."""

    def __init__(self, scratch: pathlib.Path) -> None:
        self._steal0 = _steal_ticks()
        self.steal_share = 0.0
        self._proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "speed_probe.py")],
            stdout=subprocess.PIPE,
            env=child_env(scratch),
            cwd=scratch,
        )
        assert self._proc.stdout is not None
        self._proc.stdout.readline()  # ready
        self.median_s = float("nan")

    def stop(self) -> float:
        """Stop the probe; return ``PROBE_REF_S / median`` times the share of
        CPU time the host did not steal from this guest meanwhile (1.0 at
        reference speed).  The probe's median skips the passes the host
        interrupted, so it sees how fast the CPU runs but not how much of it
        the host takes back; the steal share adds that."""
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGTERM)
            out, _ = self._proc.communicate(timeout=STOP_TIMEOUT_S)
            self.median_s = float(json.loads(out)["median_s"])
            steal1, total1 = _steal_ticks()
            steal0, total0 = self._steal0
            if total1 > total0:
                self.steal_share = (steal1 - steal0) / (total1 - total0)
        return PROBE_REF_S / self.median_s * (1.0 - self.steal_share)

    def kill(self) -> None:
        """Stop without a result (error paths)."""
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.communicate()


class Connection:
    """A keep-alive HTTP/1.1 connection to the service on loopback."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120.0)

    def close(self) -> None:
        self._conn.close()

    def get(self, path: str) -> Tuple[int, bytes]:
        self._conn.request("GET", path)
        response = self._conn.getresponse()
        return response.status, response.read()

    def post(self, path: str, body: bytes) -> Tuple[int, bytes]:
        """POST JSON; a transport failure answers 599 and drops the connection."""
        try:
            self._conn.request("POST", path, body, {"Content-Type": "application/json"})
            response = self._conn.getresponse()
            return response.status, response.read()
        except TRANSPORT_ERRORS as exc:
            self._conn.close()
            return TRANSPORT_FAILURE, repr(exc).encode()

    def stream(self, path: str, body: bytes) -> Iterator[Tuple[int, Any]]:
        """POST asking for NDJSON; yield ``(status, row)`` as rows arrive.

        A non-200 answer yields one ``(status, payload)``; a transport
        failure or a body cut short (no last chunk) yields a final
        ``(599, error row)``.  The server closes the connection after a
        stream; the next request reconnects.
        """
        try:
            self._conn.request(
                "POST",
                path,
                body,
                {"Content-Type": "application/json", "Accept": "application/x-ndjson"},
            )
            response = self._conn.getresponse()
            if response.status != 200:
                yield response.status, json.loads(response.read())
                return
            while True:
                line = response.readline()
                if not line:
                    break
                yield 200, json.loads(line)
        except TRANSPORT_ERRORS as exc:
            yield TRANSPORT_FAILURE, {"row": "error", "detail": repr(exc)}
        self._conn.close()


def read_rows(stream: Iterator[Tuple[int, Any]], t0: float) -> Tuple[int, List[Any], float]:
    """Drain a :meth:`Connection.stream`; return status, rows, first-row time."""
    rows: List[Any] = []
    first_s = float("nan")
    status = 200
    for status, row in stream:
        if not rows:
            first_s = time.perf_counter() - t0
        rows.append(row)
    return status, rows, first_s
