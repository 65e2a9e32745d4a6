"""Load generator: replay stored traces over N concurrent sessions.

The client half of :mod:`repro.serve` — opens ``sessions`` concurrent
connections, streams the same trace down each as framed v2 chunks, and
respects the credit window the server advertises at handshake (at most
``window_chunks`` un-ACKed chunks in flight per session).  Chunk
payloads are encoded once and shared across sessions, so the offered
load measures the *server's* ingest path, not client-side encoding.

Two data paths, negotiated per session:

* **Shared-memory ring** (same host): the HELLO requests ``shm_ring``;
  when the server grants one, the client attaches the session's slot
  ring (:class:`repro.parallel.RingClient`), writes each chunk payload
  straight into a free slot, and sends a tiny CHUNK_REF frame — the
  socket never carries frame bytes.  ACKs return the freed slots.
* **Socket framing** (remote, or no grant): full CHUNK payload frames,
  exactly the original protocol.

For benchmarking, ``processes > 0`` forks the load into separate
client processes (sessions split round-robin), so a single asyncio
loop's send path can never be the bottleneck being measured; each
worker reports its own send-side wall clock.

Programmatic use::

    report = await run_loadgen(("127.0.0.1", port), trace,
                               sessions=32, chunk_records=512)
    print(report.packets_per_s, report.send_packets_per_s)

or from the CLI: ``python -m repro loadgen --connect HOST:PORT
--trace run.wlt2 --sessions 32 --processes 4``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
import uuid
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.parallel.handoff import RingClient
from repro.serve import protocol
from repro.serve.protocol import FrameType, ProtocolError
from repro.trace.columnar import ColumnarTrace
from repro.trace.persist import load_trace

Address = Union[str, tuple[str, int]]


@dataclass
class SessionReport:
    """One session's view of its own run, plus the server's SUMMARY."""

    session: str
    records: int
    chunks: int
    wall_s: float
    summary: dict
    send_wall_s: float = 0.0  # first CHUNK queued -> END drained
    ring_used: bool = False  # chunks travelled as CHUNK_REF slots


@dataclass
class LoadgenReport:
    """Aggregate results across all sessions of one loadgen run."""

    sessions: list[SessionReport] = field(default_factory=list)
    wall_s: float = 0.0
    send_wall_s: float = 0.0  # client-side send phase (max over lanes)
    # Measured-portion endpoints on the shared CLOCK_MONOTONIC timeline
    # (comparable across processes on Linux).  Multi-process merges use
    # max(end) − min(start) — the true aggregate span — instead of the
    # optimistic max-of-worker-walls, which overstates the rate when
    # worker runs are staggered.
    span_start: float = 0.0
    span_end: float = 0.0

    @property
    def records(self) -> int:
        return sum(s.records for s in self.sessions)

    @property
    def packets_per_s(self) -> float:
        return self.records / max(self.wall_s, 1e-9)

    @property
    def send_packets_per_s(self) -> float:
        """Client-side offered rate: records over the send-phase wall.

        When this sits well above :attr:`packets_per_s`, the server is
        the bottleneck being measured; when the two converge, scale the
        client out (more ``processes``) before trusting the number.
        """
        return self.records / max(self.send_wall_s, 1e-9)

    @property
    def max_queue_depth(self) -> int:
        return max(
            (s.summary.get("max_queue_depth", 0) for s in self.sessions),
            default=0,
        )

    def merged_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for report in self.sessions:
            for key, value in report.summary.get("counts", {}).items():
                counts[key] = counts.get(key, 0) + value
        return counts


def chunk_payloads(
    trace: ColumnarTrace, chunk_records: int
) -> list[bytes]:
    """The trace pre-sliced into CHUNK payloads (shared by sessions)."""
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
    total = trace.packets_received
    if total == 0:
        # A zero-record trace still makes one (empty) chunk so the
        # session exercises the full handshake/ACK/summary path.
        return [protocol.encode_chunk(trace, 0, 0)]
    return [
        protocol.encode_chunk(trace, start, min(start + chunk_records, total))
        for start in range(0, total, chunk_records)
    ]


async def _open_connection(connect: Address):
    if isinstance(connect, str):
        return await asyncio.open_unix_connection(connect)
    host, port = connect
    return await asyncio.open_connection(host, port)


def _attach_ring(grant: Optional[dict]) -> Optional[RingClient]:
    """Attach the granted slot ring; None when absent or unreachable
    (a grant from a server on another host names a segment this
    machine does not have — fall back to socket framing)."""
    if not grant:
        return None
    try:
        return RingClient(
            str(grant["name"]),
            int(grant["slots"]),
            int(grant["slot_bytes"]),
        )
    except (KeyError, TypeError, ValueError, FileNotFoundError, OSError):
        return None


async def run_session(
    connect: Address,
    payloads: Sequence[bytes],
    spec,
    packets_sent: int,
    *,
    session_id: Optional[str] = None,
    name: str = "loadgen",
    total_records: Optional[int] = None,
    use_ring: bool = True,
) -> SessionReport:
    """One full session: HELLO, windowed CHUNK stream, END, SUMMARY."""
    session_id = session_id or uuid.uuid4().hex[:12]
    reader, writer = await _open_connection(connect)
    frames = protocol.FrameReader(reader)
    started = time.perf_counter()
    ring: Optional[RingClient] = None
    try:
        protocol.write_frame(
            writer,
            FrameType.HELLO,
            protocol.hello_payload(
                session_id,
                name,
                spec,
                packets_sent,
                total_records=total_records,
                shm_ring=use_ring,
                chunk_bytes=(
                    max(len(p) for p in payloads) if payloads else None
                ),
            ),
        )
        await writer.drain()
        item = await frames.read_frame()
        if item is None:
            raise ProtocolError("server closed during handshake")
        frame_type, payload = item
        if frame_type is FrameType.ERROR:
            raise ProtocolError(
                protocol.decode_json(bytes(payload)).get("error", "rejected")
            )
        if frame_type is not FrameType.HELLO_OK:
            raise ProtocolError(f"expected HELLO_OK, got {frame_type.name}")
        hello_ok = protocol.decode_json(bytes(payload))
        window = int(hello_ok.get("window_chunks", 1))
        if use_ring:
            ring = _attach_ring(hello_ok.get("ring"))

        # The credit window: one permit per un-ACKed chunk.  The sender
        # blocks on acquire; the ACK reader releases.  The reader also
        # collects the final SUMMARY, so it runs for the whole session.
        credits = asyncio.Semaphore(max(window, 1))
        summary: dict = {}
        acks = 0

        async def read_acks() -> None:
            nonlocal summary, acks
            try:
                while True:
                    item = await frames.read_frame()
                    if item is None:
                        raise ProtocolError(
                            "server closed before sending SUMMARY"
                        )
                    frame_type, payload = item
                    if frame_type is FrameType.ACK:
                        acks += 1
                        if ring is not None:
                            released = protocol.decode_json(
                                bytes(payload)
                            ).get("released")
                            if released:
                                ring.reclaim(released)
                        credits.release()
                    elif frame_type is FrameType.SUMMARY:
                        summary = protocol.decode_json(bytes(payload))
                        return
                    elif frame_type is FrameType.ERROR:
                        raise ProtocolError(
                            protocol.decode_json(bytes(payload)).get(
                                "error", "?"
                            )
                        )
                    else:
                        raise ProtocolError(
                            f"unexpected {frame_type.name} from server"
                        )
            finally:
                # Once the reader exits no ACK will ever arrive again
                # (the server ERRORs a failed chunk instead of ACKing
                # it), so top the window back up: a sender parked in
                # ``credits.acquire()`` wakes, sees the task is done,
                # and surfaces the error instead of hanging forever.
                for _ in range(window):
                    credits.release()

        ack_task = asyncio.create_task(read_acks())
        send_started = time.perf_counter()
        try:
            for payload in payloads:
                await credits.acquire()
                if ack_task.done():
                    break  # surface the reader's error below
                placed = ring.write(payload) if ring is not None else None
                if placed is not None:
                    protocol.write_frame(
                        writer,
                        FrameType.CHUNK_REF,
                        protocol.chunk_ref_payload(*placed),
                    )
                else:
                    protocol.write_frame(writer, FrameType.CHUNK, payload)
                await writer.drain()
            protocol.write_frame(writer, FrameType.END)
            await writer.drain()
            send_wall_s = time.perf_counter() - send_started
            await ack_task
        except BaseException:
            ack_task.cancel()
            await asyncio.gather(ack_task, return_exceptions=True)
            raise
        return SessionReport(
            session=session_id,
            records=int(summary.get("records", 0)),
            chunks=int(summary.get("chunks", 0)),
            wall_s=time.perf_counter() - started,
            summary=summary,
            send_wall_s=send_wall_s,
            ring_used=ring is not None and ring.writes > 0,
        )
    finally:
        if ring is not None:
            ring.close()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


async def run_loadgen(
    connect: Address,
    trace: ColumnarTrace,
    *,
    sessions: int = 8,
    chunk_records: int = 2048,
    name: str = "loadgen",
    use_ring: bool = True,
    session_ids: Optional[Sequence[str]] = None,
    payloads: Optional[Sequence[bytes]] = None,
) -> LoadgenReport:
    """Replay ``trace`` over ``sessions`` concurrent sessions.

    ``payloads`` lets a caller that replays the same trace repeatedly
    (the serve-smoke benchmark) pre-encode the CHUNK payloads once and
    keep client-side encoding out of the measured window.
    """
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, got {sessions}")
    if session_ids is not None and len(session_ids) != sessions:
        raise ValueError("session_ids must match sessions")
    if payloads is None:
        payloads = chunk_payloads(trace, chunk_records)
    started = time.perf_counter()
    reports = await asyncio.gather(*(
        run_session(
            connect,
            payloads,
            trace.spec,
            trace.packets_sent,
            session_id=(
                session_ids[index] if session_ids is not None
                else f"{name}-{index:04d}"
            ),
            name=name,
            total_records=trace.packets_received,
            use_ring=use_ring,
        )
        for index in range(sessions)
    ))
    return LoadgenReport(
        sessions=list(reports),
        wall_s=time.perf_counter() - started,
        send_wall_s=max((r.send_wall_s for r in reports), default=0.0),
    )


# Per-process cache for multi-process loadgen workers: (trace_path,
# chunk_records) -> (trace, encoded payloads).  Lives in the *worker*
# process's module globals, surviving across executor submissions.
_WORKER_PAYLOADS: dict = {}


def _loadgen_worker(
    connect: Address,
    trace_path: str,
    session_ids: Sequence[str],
    chunk_records: int,
    name: str,
    use_ring: bool,
    repeats: int = 1,
    warmup: int = 0,
) -> LoadgenReport:
    """One client process's share of a multi-process loadgen run.

    ``repeats`` re-runs the worker's sessions back to back (payloads
    encoded once, up front); walls accumulate across repeats so the
    merged rate covers a sustained stream, not one burst.  ``warmup``
    passes run first and are *not* measured: the first pass through a
    fresh server pays one page fault per 4 KiB of ring it touches,
    which is server startup cost, not steady-state ingest cost.

    The loaded trace and its encoded payloads are cached per process:
    executor processes are reused across submissions, so a warm-wave
    pass followed by a measured pass pays the load/encode cost once.
    """
    key = (trace_path, chunk_records)
    cached = _WORKER_PAYLOADS.get(key)
    if cached is None:
        trace = load_trace(trace_path)
        cached = (trace, chunk_payloads(trace, chunk_records))
        _WORKER_PAYLOADS.clear()  # one trace at a time; these are big
        _WORKER_PAYLOADS[key] = cached
    trace, payloads = cached

    async def drive() -> LoadgenReport:
        merged = LoadgenReport()
        for _ in range(max(0, warmup)):
            await run_loadgen(
                connect,
                trace,
                sessions=len(session_ids),
                chunk_records=chunk_records,
                name=f"{name}-warm",
                use_ring=use_ring,
                session_ids=[f"{sid}-warm" for sid in session_ids],
                payloads=payloads,
            )
        merged.span_start = time.monotonic()
        for _ in range(max(0, repeats)):
            report = await run_loadgen(
                connect,
                trace,
                sessions=len(session_ids),
                chunk_records=chunk_records,
                name=name,
                use_ring=use_ring,
                session_ids=list(session_ids),
                payloads=payloads,
            )
            merged.sessions.extend(report.sessions)
            merged.wall_s += report.wall_s
            merged.send_wall_s += report.send_wall_s
        merged.span_end = time.monotonic()
        return merged

    return asyncio.run(drive())


def run_loadgen_processes(
    connect: Address,
    trace_path: str,
    *,
    sessions: int = 8,
    processes: int = 2,
    chunk_records: int = 2048,
    name: str = "loadgen",
    use_ring: bool = True,
    repeats: int = 1,
    warmup: int = 0,
) -> LoadgenReport:
    """Drive the load from ``processes`` separate client processes.

    Sessions are split round-robin; each worker runs its share on its
    own asyncio loop and measures its own walls, so the server's
    recorded ingest rate is never silently capped by one client loop.
    The merged wall is the true aggregate span — ``max(end) −
    min(start)`` of the workers' measured portions on the shared
    monotonic clock — so staggered worker starts lower the rate rather
    than inflating it; process spawn, module import, trace loading and
    ``warmup`` passes all happen before the span opens, so the rate
    reflects the server's steady-state ingest path, not executor
    startup.
    """
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    from concurrent.futures import ProcessPoolExecutor, wait

    processes = min(processes, sessions)
    ids = [f"{name}-{index:04d}" for index in range(sessions)]
    shares = [ids[worker::processes] for worker in range(processes)]
    with ProcessPoolExecutor(max_workers=processes) as executor:
        if warmup > 0:
            # Warm wave first, as its own synchronized phase: every
            # worker process imports, loads the trace, encodes (and
            # caches) payloads, and pages the server's rings in.  Only
            # once ALL of that is done does the measured wave start, so
            # the workers' measured spans open within milliseconds of
            # each other instead of staggering behind the slowest
            # starter.
            wait(
                [
                    executor.submit(
                        _loadgen_worker,
                        connect,
                        trace_path,
                        share,
                        chunk_records,
                        name,
                        use_ring,
                        0,
                        warmup,
                    )
                    for share in shares
                ]
            )
        futures = [
            executor.submit(
                _loadgen_worker,
                connect,
                trace_path,
                share,
                chunk_records,
                name,
                use_ring,
                repeats,
                0,
            )
            for share in shares
        ]
        partials = [future.result() for future in futures]
    merged = LoadgenReport()
    for partial in partials:
        merged.sessions.extend(partial.sessions)
        merged.wall_s = max(merged.wall_s, partial.wall_s)
        merged.send_wall_s = max(merged.send_wall_s, partial.send_wall_s)
    if partials and all(p.span_end > p.span_start for p in partials):
        merged.span_start = min(p.span_start for p in partials)
        merged.span_end = max(p.span_end for p in partials)
        # True aggregate span across workers: staggered starts count
        # against the rate rather than silently inflating it.
        merged.wall_s = max(merged.wall_s, merged.span_end - merged.span_start)
    return merged


def parse_connect(value: str) -> Address:
    """``HOST:PORT`` or a unix socket path (contains ``/``)."""
    if "/" in value:
        return value
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT or a socket path, got {value!r}"
        )
    return host, int(port)


def add_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Declare the ``loadgen`` flags on ``parser`` (the ``python -m repro
    loadgen`` subcommand, or :func:`main`'s own parser)."""
    parser.add_argument(
        "--connect",
        type=parse_connect,
        required=True,
        help="server address: HOST:PORT or a unix socket path",
    )
    parser.add_argument(
        "--trace",
        required=True,
        help="stored trace to replay (.wlt2 or v1 .json/.json.gz)",
    )
    parser.add_argument(
        "--sessions", type=int, default=8, help="concurrent sessions (default 8)"
    )
    parser.add_argument(
        "--chunk-records",
        type=int,
        default=2048,
        help="records per CHUNK frame (default 2048)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help="client processes driving the load (default 1 = in-process; "
        "sessions are split round-robin, and >1 keeps one asyncio loop "
        "from capping the offered rate)",
    )
    parser.add_argument(
        "--no-ring",
        action="store_true",
        help="never request the shared-memory slot ring; stream full "
        "CHUNK payload frames even to a same-host server",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    """Replay ``args.trace`` as :func:`add_arguments` parsed it; print
    the run's summary and return 1 when the server ingested a different
    record count than was sent."""
    trace = load_trace(args.trace)
    use_ring = not args.no_ring
    if args.processes > 1:
        report = run_loadgen_processes(
            args.connect,
            args.trace,
            sessions=args.sessions,
            processes=args.processes,
            chunk_records=args.chunk_records,
            use_ring=use_ring,
        )
    else:
        report = asyncio.run(
            run_loadgen(
                args.connect,
                trace,
                sessions=args.sessions,
                chunk_records=args.chunk_records,
                use_ring=use_ring,
            )
        )
    expected = trace.packets_received * args.sessions
    ring_lanes = sum(1 for s in report.sessions if s.ring_used)
    print(
        f"{len(report.sessions)} sessions, {report.records} records "
        f"in {report.wall_s:.3f}s ({report.packets_per_s:,.0f} packets/s "
        f"ingested, {report.send_packets_per_s:,.0f} packets/s offered, "
        f"{ring_lanes} ring sessions, "
        f"max queue depth {report.max_queue_depth})"
    )
    for key, value in sorted(report.merged_counts().items()):
        if value:
            print(f"  {key}: {value}")
    if report.records != expected:
        print(
            f"error: ingested {report.records} records, "
            f"expected {expected}",
            file=sys.stderr,
        )
        return 1
    return 0
