"""Machine-speed probe: time a fixed pure-Python loop at a low duty cycle.

Usage: ``python perfbench/speed_probe.py`` runs until SIGTERM, then prints
``{"median_s": ..., "samples": n}``.  Every ``PERIOD_S`` it times one pass of
a fixed loop (about 2 ms, under 2% of one CPU), so the median tracks how
fast this machine runs Python while the workload runs beside it.  The
benchmark scales its time figures by that speed (see ``harness.SpeedProbe``).
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
import time
from typing import Any, List

#: Iterations of the timed loop, and the pause between two passes.
LOOP = 20_000
PERIOD_S = 0.1


def _loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


def main() -> int:
    stop = False

    def on_term(*_: Any) -> None:
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    print(json.dumps({"event": "ready"}), flush=True)
    samples: List[float] = []
    while not stop or not samples:
        t0 = time.perf_counter()
        _loop()
        samples.append(time.perf_counter() - t0)
        time.sleep(PERIOD_S)
    print(json.dumps({"median_s": statistics.median(samples), "samples": len(samples)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
