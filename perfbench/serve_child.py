"""The ``ingest`` workload's server process.

    python3 -u perfbench/serve_child.py [--trace-out FILE]

Runs ``python -m repro serve`` in-process with jobs=1, an ephemeral
TCP port on 127.0.0.1 and the default ring transport; it prints its
``serving on HOST:PORT`` line once it accepts connections and drains
on SIGTERM, then stops the shared-memory resource tracker it started.
With ``--trace-out`` the layer wrappers and an observability metrics
session are installed *before* the server starts, and its spans and
counters are written to FILE when it exits.
Without it, the host speed is sampled on the server's thread from the
start (see :mod:`hostspeed`).  The last stdout line is a JSON document
with the exit code, the process's peak RSS, the time it began and the
host-speed samples.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

if __name__ == "__main__":
    # Set-up is sampled too, so the sampler starts before the imports.
    BEGAN = time.perf_counter()
    SPEED = HostSpeed()
    SPEED.start()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/serve_child.py")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    tracer = None
    speed = SPEED
    if args.trace_out:
        from repro import obs
        from layertrace import PROGRAM_TARGETS, Tracer

        SPEED.stop()
        speed = None
        obs.configure(telemetry_path=None, profiling=False, spans=False)
        tracer = Tracer()
        tracer.install(PROGRAM_TARGETS)

    from repro.__main__ import main as repro_main

    code = repro_main(["serve", "--host", "127.0.0.1", "--port", "0", "--jobs", "1"])
    if speed is not None:
        speed.stop()
    # The rings' shared memory started a resource tracker process; stop
    # it and wait for it, so it does not outlive this process.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    if tracer is not None:
        tracer.uninstall()
        with open(args.trace_out, "w", encoding="utf-8") as stream:
            json.dump(
                {
                    "trace": tracer.export(),
                    "counters": obs.STATE.metrics.counters_snapshot(),
                },
                stream,
            )
    print(
        json.dumps(
            {
                "exit": code,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "began": BEGAN,
                "host_samples": speed.samples if speed is not None else [],
            }
        ),
        flush=True,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
