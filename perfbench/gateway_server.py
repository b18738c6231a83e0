"""Run the gateway under test in its own process (the gateway_soak workload).

    python3 perfbench/gateway_server.py --seed N --cache-dir DIR --journal PATH

Builds ``specs/gateway.toml`` at the seed, calibrates it through
``Session.serve_gateway`` (from the result cache the load generator
filled) with the alarm journal on (fsync always), starts serving on
ephemeral loopback ports and prints one JSON line ``{"url": ...}`` when
ready.  It then answers one JSON line per command read from stdin:

* ``trace on`` / ``trace off`` — wrap / unwrap the layer functions;
* ``stats`` — the traced aggregates, peak RSS and rejected samples;
* ``quit`` (or end of input) — shut down and exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import benchspec  # noqa: E402
from tracing import Tracer  # noqa: E402


def _vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--journal", required=True)
    arguments = parser.parse_args(argv)

    from repro.api.session import Session

    spec = benchspec.load("gateway", arguments.seed, arguments.cache_dir)
    server = Session(spec).serve_gateway(journal=arguments.journal)
    tracer = Tracer()
    server.start()
    try:
        _reply({"url": server.url})
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                tracer.install()
                _reply({"ok": True})
            elif command == "trace off":
                tracer.uninstall()
                _reply({"ok": True})
            elif command == "stats":
                _reply(
                    {
                        "tracer": tracer.snapshot(),
                        "vm_hwm_mb": _vm_hwm_mb(),
                        "samples_rejected": server.pool.metrics.samples_rejected.value,
                    }
                )
            elif command == "quit":
                break
            else:
                _reply({"ok": False, "error": f"unknown command {command!r}"})
    finally:
        tracer.uninstall()
        server.shutdown()
        if tracer.n_spans:
            tracer.write_chrome_trace(HERE / "out" / "trace-gateway_soak-server.json.gz")
        if server.pool.journal is not None:
            server.pool.journal.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
