"""Serve-smoke: the streaming ingest service under concurrent load.

Starts a real :class:`TraceAnalysisServer` (``jobs=4``, shm-ring
transport, chunk coalescing) on a unix socket, then drives it from
**separate client processes** — ``run_loadgen_processes`` — so the
single asyncio loop of an in-process loadgen can never be the
bottleneck being measured.  Checks the three things that matter:

* **Correctness under concurrency** — every session's SUMMARY carries
  the exact verdict counts and the chunking-independent verdict digest
  of the batch classifier, and every session actually rode the shm
  ring (``CHUNK_REF`` frames), not the socket fallback.
* **Ingest throughput** — the aggregate server-side rate over the true
  client span (``max(end) − min(start)`` across worker processes on
  the shared monotonic clock) lands in the ``serve_ingest`` stage of
  ``BENCH_internal.json`` as ``ingest_packets_per_s``, where the
  ``bench diff`` gate tracks it against ``benchmarks/baseline.json``.
* **Offered load** — the client-side send rate is recorded alongside
  (``send_packets_per_s``); when it sits well above the ingest rate
  the server was the bottleneck being measured, when the two converge
  the *client* was and the ingest number is a lower bound.

Run with ``pytest -m serve_smoke benchmarks/bench_serve_ingest.py``.
The assert floor (``SERVE_SMOKE_MIN_PPS``, default 150k packets/s) is
a smoke check against order-of-magnitude regressions; the recorded
number is the real measurement (≈650k packets/s steady-state on the
development container, whose single core runs server parent, four
shard workers, and all client processes time-sliced — an in-process
single-loop loadgen on the same box peaks ≈860k because it skips the
cross-process scheduling tax).
"""

import asyncio
import functools
import hashlib
import os

import pytest

from repro.analysis.classify import IncrementalClassifier, verdict_row_bytes
from repro.serve.loadgen import run_loadgen_processes
from repro.serve.server import ServeConfig, TraceAnalysisServer
from repro.trace.columnar import ColumnarTrace
from repro.trace.persist import load_trace, save_trace
from repro.trace.trial import TrialConfig, run_fast_trial

try:
    from benchmarks.bench_internal_performance import _record_stage
except ImportError:  # running with benchmarks/ itself on sys.path
    from bench_internal_performance import _record_stage

SESSIONS = 32
PROCESSES = 4
JOBS = 4
REPEATS = 2
TRIAL_PACKETS = 20_000
CHUNK_RECORDS = 4_096
MIN_PPS = float(os.environ.get("SERVE_SMOKE_MIN_PPS", "150000"))


@pytest.fixture(scope="module")
def stored_trace(tmp_path_factory):
    """A clean office-grade trial, round-tripped through ``.wlt2`` so
    the benchmark ingests exactly what a stored trace replays.  Yields
    ``(trace, path)`` — client worker processes load from the path."""
    output = run_fast_trial(
        TrialConfig(
            name="serve-smoke",
            packets=TRIAL_PACKETS,
            mean_level=29.5,
            seed=20260808,
        )
    )
    path = tmp_path_factory.mktemp("serve") / "smoke.wlt2"
    save_trace(output.trace, path)
    trace = load_trace(path)
    assert isinstance(trace, ColumnarTrace)
    return trace, str(path)


def _reference(trace: ColumnarTrace) -> tuple[str, dict]:
    classifier = IncrementalClassifier(trace.spec, trace.packets_sent)
    classifier.feed(trace)
    digest = hashlib.blake2b(
        verdict_row_bytes(classifier.verdict_columns()), digest_size=8
    ).hexdigest()
    return digest, classifier.count_summary()


async def _run_once(trace_path: str, unix_path: str, *, warmup: int):
    """One server lifetime: jobs=4 ring ingest, external client procs.

    The loadgen runs in a thread (it blocks on a ProcessPoolExecutor)
    so this loop stays free to serve.
    """
    server = TraceAnalysisServer(
        ServeConfig(
            unix_path=unix_path,
            jobs=JOBS,
            heartbeat_s=0,
            coalesce_chunks=4,
        )
    )
    await server.start()
    try:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None,
            functools.partial(
                run_loadgen_processes,
                unix_path,
                trace_path,
                sessions=SESSIONS,
                processes=PROCESSES,
                chunk_records=CHUNK_RECORDS,
                name="smoke",
                repeats=REPEATS,
                warmup=warmup,
            ),
        )
    finally:
        await server.stop()


@pytest.mark.serve_smoke
def test_serve_ingest_throughput(stored_trace, tmp_path):
    """32 sessions from 4 client processes: exact verdicts, recorded
    server ingest rate and client offered rate."""
    trace, trace_path = stored_trace
    digest, counts = _reference(trace)

    best = None
    for attempt in range(2):
        report = asyncio.run(
            _run_once(
                trace_path,
                str(tmp_path / f"smoke{attempt}.sock"),
                # Each server lifetime starts with cold rings and cold
                # shard matchers; one unmeasured pass pages them in.
                warmup=1,
            )
        )
        if best is None or report.packets_per_s > best.packets_per_s:
            best = report

    expected_sessions = SESSIONS * REPEATS
    expected_records = trace.packets_received * expected_sessions
    assert len(best.sessions) == expected_sessions
    assert best.records == expected_records
    for session in best.sessions:
        assert session.summary["verdict_digest"] == digest
        assert session.summary["counts"] == counts
        # Same-host unix-socket clients must ride the shm ring; a
        # silent fall back to socket framing is a transport regression
        # even when the digest still checks out.
        assert session.ring_used
    # Backpressure invariant: the per-session queue never exceeded its
    # configured bound (well-behaved clients shouldn't even approach it).
    queue_bound = ServeConfig().queue_chunks
    assert 0 <= best.max_queue_depth <= queue_bound

    _record_stage(
        "serve_ingest",
        {
            "sessions": SESSIONS,
            "processes": PROCESSES,
            "jobs": JOBS,
            "repeats": REPEATS,
            "records_per_session": trace.packets_received,
            "chunk_records": CHUNK_RECORDS,
            "ingest_wall_s": round(best.wall_s, 4),
            "ingest_packets_per_s": round(best.packets_per_s),
            "send_packets_per_s": round(best.send_packets_per_s),
            "max_queue_depth": best.max_queue_depth,
        },
    )
    assert best.packets_per_s >= MIN_PPS
