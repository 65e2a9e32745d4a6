"""One worker process of the ``report`` workload.

    python3 perfbench/worker.py --seed N --seconds S
        [--trace-out FILE] [--setup-only]

Samples the host speed on its thread from the start (see
:mod:`hostspeed`), sets up (imports and the experiment registry), and
prints ``ready`` with the set-up's start and its wall at the host's
calm-phase speed.  Then it repeats the workload, cycling through the
report seeds drawn from ``--seed``, until ``--seconds`` is spent (at
least once per report seed when untraced), and prints one JSON document
describing every repetition, each with its seed and calm-phase wall,
and the peak RSS after the first.  With ``--trace-out`` the sampler stops and the layer wrappers
and an observability metrics session are on instead; the spans of each
repetition are written to FILE.
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
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from workloads import REPORT_SCALE, REPORT_SEEDS, report_seeds  # noqa: E402


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class ReportWorkload:
    """``report.build_report`` at the ROADMAP scale, one caller, jobs=1."""

    def __init__(self) -> None:
        from repro.experiments import engine, report

        engine.load_all()
        self.report = report

    def run(self, seed: int, observe: bool, speed: HostSpeed | None) -> dict:
        from repro import obs

        if observe:
            # Exactly the session build_report opens for itself when none
            # is active; opened here so its counters outlive the call.
            obs.configure(telemetry_path=None)
        mark = speed.mark() if speed is not None else None
        start = time.perf_counter()
        result = self.report.build_report(
            scale=REPORT_SCALE, seed=seed, jobs=1
        )
        end = time.perf_counter()
        host = {"calm_s": speed.calm_since(mark, start, end)} if speed else {}
        counters = obs.STATE.metrics.counters_snapshot() if observe else None
        if observe:
            obs.reset()
        malformed = sum(1 for line in result.lines if not line.measured)
        return {
            "seed": seed,
            "start": start,
            "end": end,
            "digest": _digest(result.table_markdown()),
            "attempted": result.total,
            "failed": malformed,
            "in_band": result.in_band_count,
            "out_of_band": [
                f"{line.experiment} · {line.quantity}"
                for line in result.lines
                if not line.in_band
            ],
            "experiments": {
                r.experiment: r.wall_clock_s for r in result.resources
            },
            "records": sum(r.packets_offered for r in result.resources),
            "counters": counters,
            **host,
        }


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = ReportWorkload()
    ready = time.perf_counter()
    setup = {"began": BEGAN, "calm_s": SPEED.calm_since(0, BEGAN, ready)}
    print(f"ready {json.dumps(setup)}", flush=True)
    if args.setup_only:
        SPEED.stop()
        return 0

    tracer = None
    speed = SPEED
    if args.trace_out:
        from layertrace import PROGRAM_TARGETS, Tracer

        SPEED.stop()
        speed = None
        tracer = Tracer()
        tracer.install(PROGRAM_TARGETS)
    repetitions = []
    traces = []
    # Peak RSS as a user running the workload once sees it: after the
    # first repetition, so it does not grow with the repetition count.
    maxrss_kb = None
    began = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        try:
            seed = report_seeds(args.seed)[len(repetitions) % REPORT_SEEDS]
            repetitions.append(workload.run(seed, observe=tracer is not None, speed=speed))
        except Exception as exc:  # reported to the parent as a failed run
            traceback.print_exc()
            repetitions.append({"error": f"{type(exc).__name__}: {exc}"})
            break
        if maxrss_kb is None:
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            traces.append(tracer.export())
        elapsed = time.perf_counter() - began
        enough = tracer is not None or len(repetitions) >= REPORT_SEEDS
        if enough and elapsed + elapsed / len(repetitions) > args.seconds:
            break
    if speed is not None:
        speed.stop()
    if tracer is not None:
        tracer.uninstall()
        with open(args.trace_out, "w", encoding="utf-8") as stream:
            json.dump(traces, stream)
    print(
        json.dumps(
            {
                "repetitions": repetitions,
                "maxrss_kb": maxrss_kb or 0,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
