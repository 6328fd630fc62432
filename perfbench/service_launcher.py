"""Start the planning service with span wrappers installed.

Usage (from the checkout root, ``src`` and the root on ``PYTHONPATH``)::

    python perfbench/service_launcher.py SPANS.npz [repro-service flags...]

Installs :func:`perfbench.tracing.install_service_layers`, then calls the
service CLI entry point ``repro.service.cli.main`` with the remaining
arguments.  When the service drains (SIGTERM) the spans are written to
``SPANS.npz``.
"""

from __future__ import annotations

import sys

from perfbench.tracing import Tracer, install_service_layers


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_service_layers(tracer)
    from repro.service.cli import main as service_main

    try:
        return service_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
