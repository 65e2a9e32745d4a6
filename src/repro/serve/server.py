"""The asyncio ingest server: many sessions, incremental classification.

One :class:`TraceAnalysisServer` owns a listening socket (TCP or unix),
a persistent worker pool, and any number of live client sessions.  Per
session the data path is::

    socket -> FrameReader -> ring-slot lease -> bounded asyncio.Queue
           -> consumer (coalesces all ready chunks into one batch)
           -> classify batch (inline thread, or the session's sticky
              pool shard via reusable shared-memory ring slots)
           -> merge running verdict counts/digest -> per-chunk ACKs

**Backpressure.**  The queue between the socket reader and the
consumer is bounded (``queue_chunks``); when it fills, the reader
coroutine blocks in ``queue.put`` and simply stops reading the socket,
so kernel buffers fill and TCP flow control pushes back on the client.
On top of that the handshake advertises ``window_chunks`` and the
server ACKs every classified chunk, so a well-behaved client bounds
its own in-flight data without ever feeling a stall.  Memory per
session is therefore O(ring slots × slot bytes), independent of trace
length.

**Sharding and affinity.**  With ``jobs > 1`` the server runs a
:class:`~repro.parallel.PersistentPool` of single-worker shards: every
session is pinned at HELLO to the least-loaded shard and all its
chunks classify on that one worker.  The session's matcher and running
verdict digest therefore live in that worker's per-session state
(:data:`_WORKER_SESSIONS`), created by the session's first batch and
retired when it finishes or aborts, so no worker state outlives its
session.  Chunk payloads cross the boundary through the session's
:class:`~repro.parallel.RingTransport`: a preallocated ring of
reusable shared-memory slots, one memcpy in, zero per-chunk segment
creation.  Ring overflow (payload too big, or every slot leased) sends
the chunk's bytes in the task arguments instead and is **counted
loudly** — ``serve.ring_overflows``, the session summary, and ring
stats all report it.

**Coalescing.**  The consumer takes everything already queued (up to
``coalesce_chunks``) and classifies it as one batch: one executor
round-trip, one classifier pass, one digest update — then per-chunk
cumulative ACKs so client credit flow is unchanged.  Under load the
batch naturally grows toward the cap; an idle session degrades to
batch-of-one with no added latency.  Verdict digests are byte-identical
either way (:func:`~repro.analysis.classify.verdict_row_bytes` row
packing is chunking-independent).

**Telemetry.**  When an observability session is active the server
emits one ``serve.session`` span per completed session (child of one
``serve.run`` root), plus periodic ``heartbeat`` records with
aggregate packets/s, active sessions, and the deepest session queue —
the live signals ``timeline --follow`` tails.  Span ids use the same
deterministic derivation as every other span in the codebase, but are
emitted directly (not via the recorder's stack) because concurrent
sessions interleave; the tree stitches identically in the exporters.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import signal
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro import obs
from repro.analysis.classify import (
    CLASS_ORDER,
    IncrementalClassifier,
    verdict_row_bytes,
)
from repro.analysis.matching import TraceMatcher
from repro.obs import resources as _resources
from repro.obs.spans import derive_span_id
from repro.parallel.handoff import (
    RingSlotHandle,
    RingTransport,
    detach_ring,
    load_ring_slot,
)
from repro.parallel.pool import PersistentPool
from repro.serve import protocol
from repro.serve.protocol import FrameType, ProtocolError
from repro.trace.columnar import spec_from_dict, spec_to_dict


@dataclass
class ServeConfig:
    """Tunables of one server instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is in ``address``
    unix_path: Optional[str] = None  # takes precedence over host/port
    jobs: int = 1  # >1 fans chunk classification across sharded workers
    queue_chunks: int = 8  # bounded per-session queue (backpressure)
    window_chunks: int = 4  # in-flight credit advertised at handshake
    coalesce_chunks: int = 4  # max ready chunks classified as one batch
    ring_slots: Optional[int] = None  # None = queue + coalesce + 1
    ring_slot_bytes: Optional[int] = None  # None = sized off chunk one
    heartbeat_s: float = 1.0  # aggregate heartbeat period (0 = off)
    drain_timeout_s: float = 10.0  # grace for live sessions at stop()
    keep_verdicts: bool = False  # retain per-session verdict columns


@dataclass
class Session:
    """One client stream's running state."""

    id: str
    name: str
    spec: object
    packets_sent: int
    queue: asyncio.Queue
    started_unix: float
    records: int = 0
    chunks: int = 0
    batches: int = 0
    max_queue_depth: int = 0
    counts: Counter = field(default_factory=Counter)
    digest: "object" = None  # running blake2b over verdict rows
    columns: list = field(default_factory=list)  # kept verdict columns
    matcher: Optional[TraceMatcher] = None  # inline mode's matcher
    spec_dict: Optional[dict] = None  # computed once at HELLO
    shard: Optional[int] = None  # sticky pool shard (jobs > 1)
    ring: Optional[RingTransport] = None  # reusable slot transport
    client_ring: bool = False  # client writes slots itself (CHUNK_REF)
    ring_overflows: int = 0
    digest_hex: Optional[str] = None  # worker-side digest, fetched once
    remote_finished: bool = False  # worker session state retired
    aborted: bool = False
    error: Optional[str] = None


#: A queued chunk on its way to classification: a leased ring slot, or
#: raw bytes (an inline session's socket-borne chunk, or a pooled
#: session's ring overflow).
ChunkItem = Union[RingSlotHandle, bytes]


# ----------------------------------------------------------------------
# Chunk classification (both sides of the pool boundary)
# ----------------------------------------------------------------------
def _load_item(item: ChunkItem):
    """One queued chunk back as a columnar trace (worker side)."""
    if isinstance(item, RingSlotHandle):
        return load_ring_slot(item)
    return protocol.decode_chunk(item)


#: Worker-side per-session state, keyed by session id: the session's
#: matcher and its running verdict digest.  Sticky sharding routes
#: every batch of a session to one worker, so both can live *here* —
#: the verdict columns never cross the pool boundary at all (the batch
#: result is a few counts), which at streaming rates saves a pickle +
#: copy of ~22 bytes per record each way.  The session's first batch
#: creates its entry and :func:`_session_finish_remote` removes it.
_WORKER_SESSIONS: dict = {}


def _batch_feed(
    items: Sequence[ChunkItem], matcher: TraceMatcher, packets_sent: int
) -> dict:
    """One classifier pass over a coalesced batch of chunks, in order.

    The verdicts come back as one set of compact columns plus
    per-chunk record counts (so the caller can ACK each chunk
    individually) and per-class counts.  Never returns per-record
    object graphs.
    """
    classifier = IncrementalClassifier(
        matcher.spec, packets_sent, matcher=matcher
    )
    chunk_records = []
    for item in items:
        trace = _load_item(item)
        classifier.feed_columnar(trace)
        chunk_records.append(trace.packets_received)
    return {
        "columns": classifier.verdict_columns(),
        "chunk_records": chunk_records,
        "batch_records": sum(chunk_records),
        "counts": {
            index: classifier.class_counts[cls]
            for index, cls in enumerate(CLASS_ORDER)
            if classifier.class_counts.get(cls)
        },
    }


def _classify_batch_remote(
    session_id: str,
    spec_dict: dict,
    packets_sent: int,
    items: Sequence[ChunkItem],
    keep_columns: bool = False,
) -> dict:
    """Pool-worker entry: feed one batch, fold it into session state.

    The session's first batch creates its state.  The verdict digest
    accumulates worker-side; the columns themselves stay here unless
    the parent asked to keep them (``ServeConfig.keep_verdicts``).
    """
    state = _WORKER_SESSIONS.get(session_id)
    if state is None:
        state = _WORKER_SESSIONS[session_id] = {
            "matcher": TraceMatcher(spec_from_dict(spec_dict), packets_sent),
            "digest": hashlib.blake2b(digest_size=8),
        }
    result = _batch_feed(items, state["matcher"], packets_sent)
    state["digest"].update(verdict_row_bytes(result["columns"]))
    if not keep_columns:
        del result["columns"]
    return result


def _session_finish_remote(session_id: str) -> dict:
    """Retire the worker's session state; returns the final digest."""
    state = _WORKER_SESSIONS.pop(session_id, None)
    if state is None:  # session never classified a batch
        return {"digest": hashlib.blake2b(digest_size=8).hexdigest()}
    return {"digest": state["digest"].hexdigest()}


def _session_close_remote(ring_name: Optional[str]) -> bool:
    """Drop the worker's cached ring attachment when a ring dies."""
    if ring_name is not None:
        detach_ring(ring_name)
    return True


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
class TraceAnalysisServer:
    """Long-running ingest service over the framed protocol.

    Lifecycle::

        server = TraceAnalysisServer(ServeConfig(jobs=4))
        await server.start()          # binds; server.address is live
        ...                           # sessions come and go
        await server.stop()           # drain + shut the pool down
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self._server: Optional[asyncio.base_events.Server] = None
        self._pool: Optional[PersistentPool] = None
        self._inline: Optional[ThreadPoolExecutor] = None
        self._sessions: dict[str, Session] = {}
        self._shard_sessions: list[int] = []
        # Warm-ring pool, keyed by (slots, slot_bytes).  Creating a
        # ring is cheap; *touching* it is not — every first write to a
        # fresh segment faults a zero page in, and at several MB per
        # slot the faults dominate the whole ingest path.  Rings are
        # returned here at session close and handed to the next
        # same-geometry session with their pages (and the workers'
        # cached attachments) still warm.
        self._ring_pool: dict[tuple[int, int], list[RingTransport]] = {}
        self._handler_tasks: set[asyncio.Task] = set()
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._accepting = False
        self._started_unix = 0.0
        self._started_perf = 0.0
        self._total_records = 0
        self._completed_sessions = 0
        # Deterministic span ids for concurrent sessions: our own
        # sibling ordinals per span name, same derivation as the
        # recorder's.
        self._span_ordinals: Counter = Counter()
        self._root_span_id: Optional[str] = None

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self):
        """Where clients connect: ``path`` (unix) or ``(host, port)``."""
        if self.config.unix_path is not None:
            return self.config.unix_path
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> None:
        config = self.config
        if config.jobs > 1:
            self._pool = PersistentPool(config.jobs)
            self._shard_sessions = [0] * config.jobs
        else:
            self._inline = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="serve-classify"
            )
        if config.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=config.unix_path
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host=config.host, port=config.port
            )
        self._accepting = True
        self._started_unix = time.time()
        self._started_perf = time.perf_counter()
        self._root_span_id = self._next_span_id("serve.run", parent=None)
        if config.heartbeat_s > 0:
            self._heartbeat_task = asyncio.create_task(
                self._heartbeat_loop()
            )

    async def serve_forever(self) -> None:
        assert self._server is not None, "server not started"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain: stop accepting, let live sessions finish
        (up to ``drain_timeout_s``), then tear the pool down."""
        self._accepting = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._handler_tasks:
            done, pending = await asyncio.wait(
                self._handler_tasks, timeout=self.config.drain_timeout_s
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        for rings in self._ring_pool.values():
            for ring in rings:
                await self._destroy_ring(ring)
        self._ring_pool.clear()
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._inline is not None:
            self._inline.shutdown(wait=True)
            self._inline = None
        self._emit_span(
            "serve.run",
            self._root_span_id,
            parent=None,
            start_unix=self._started_unix,
            wall_s=time.perf_counter() - self._started_perf,
            attrs={
                "sessions": self._completed_sessions,
                "records": self._total_records,
                "jobs": self.config.jobs,
            },
        )
        if self.config.unix_path is not None:
            try:
                os.unlink(self.config.unix_path)
            except OSError:
                pass

    # -- telemetry -----------------------------------------------------
    def _next_span_id(self, name: str, parent: Optional[str]) -> str:
        recorder = obs.STATE.spans
        if recorder is None:
            return ""
        key = (parent or "", name)
        index = self._span_ordinals[key]
        self._span_ordinals[key] = index + 1
        return derive_span_id(recorder.trace_id, parent, name, index)

    def _emit_span(
        self,
        name: str,
        span_id: Optional[str],
        parent: Optional[str],
        start_unix: float,
        wall_s: float,
        attrs: dict,
        status: str = "ok",
    ) -> None:
        """Emit one finished-span record with explicit parentage.

        Concurrent sessions cannot share the recorder's span *stack*
        (their lifetimes interleave), but their records are ordinary
        spans: same schema, same deterministic id derivation, so
        ``stats``/``timeline`` stitch them like any other tree.
        """
        recorder = obs.STATE.spans
        if recorder is None or not span_id:
            return
        record = {
            "type": "span",
            "trace": recorder.trace_id,
            "span": span_id,
            "parent": parent,
            "name": name,
            "pid": os.getpid(),
            "start_unix": start_unix,
            "attrs": dict(attrs),
            "wall_s": wall_s,
            "cpu_s": 0.0,
            "rss_delta_kb": 0,
            "status": status,
        }
        recorder.finished.append(record)
        if recorder.sink is not None:
            recorder.sink.emit(record)

    async def _heartbeat_loop(self) -> None:
        state = obs.STATE
        last_records = 0
        last_time = time.perf_counter()
        while True:
            await asyncio.sleep(self.config.heartbeat_s)
            now = time.perf_counter()
            rate = (self._total_records - last_records) / max(
                now - last_time, 1e-9
            )
            last_records = self._total_records
            last_time = now
            depth = max(
                (s.queue.qsize() for s in self._sessions.values()),
                default=0,
            )
            if state.enabled:
                state.metrics.gauge("serve.sessions").set(
                    len(self._sessions)
                )
                state.metrics.gauge("serve.packets_per_s").set(rate)
                state.metrics.gauge("serve.queue_depth").set(depth)
            if state.enabled and state.sink is not None:
                state.sink.emit({
                    "type": "heartbeat",
                    "label": "serve",
                    "done": self._total_records,
                    "total": self._total_records,
                    "packets_offered": self._total_records,
                    "packets_per_s": round(rate, 1),
                    "sessions": len(self._sessions),
                    "queue_depth": depth,
                    "rss_kb": _resources.rss_kb(),
                    "unix": time.time(),
                })
                state.sink.flush()

    # -- per-connection ------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        try:
            await self._handle_client(reader, writer)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _pick_shard(self) -> int:
        """Least-loaded shard for a new session (sticky thereafter)."""
        return min(
            range(len(self._shard_sessions)),
            key=self._shard_sessions.__getitem__,
        )

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        config = self.config
        frames = protocol.FrameReader(reader)
        try:
            first = await frames.read_frame()
        except ProtocolError as exc:
            await self._send_error(writer, str(exc))
            return
        if first is None:
            return  # connected and left; not worth a session
        frame_type, payload = first
        if frame_type is not FrameType.HELLO:
            await self._send_error(
                writer, f"expected HELLO, got {frame_type.name}"
            )
            return
        try:
            hello = protocol.parse_hello(bytes(payload))
        except ProtocolError as exc:
            await self._send_error(writer, str(exc))
            return
        if not self._accepting:
            await self._send_error(writer, "server is draining")
            return
        session_id = str(hello["session"])
        if session_id in self._sessions:
            # Session ids are client-chosen and key the live-session
            # table; letting a second connection reuse a live id would
            # clobber the first session's entry and gauges.
            await self._send_error(
                writer, f"session id {session_id!r} is already active"
            )
            return

        spec = hello["spec"]
        session = Session(
            id=session_id,
            name=str(hello["name"]),
            spec=spec,
            packets_sent=hello["packets_sent"],
            queue=asyncio.Queue(maxsize=config.queue_chunks),
            started_unix=time.time(),
            digest=hashlib.blake2b(digest_size=8),
            spec_dict=spec_to_dict(spec),
        )
        self._sessions[session.id] = session
        if self._pool is not None:
            session.shard = self._pick_shard()
            self._shard_sessions[session.shard] += 1
        started_perf = time.perf_counter()
        span_id = self._next_span_id("serve.session", self._root_span_id)
        hello_ok = {
            "session": session.id,
            "window_chunks": config.window_chunks,
            "queue_chunks": config.queue_chunks,
        }
        if hello.get("shm_ring") and "chunk_bytes" in hello:
            # Same-host fast path: grant the client direct slot access.
            # The client writes chunk payloads into the ring itself and
            # sends CHUNK_REF frames; the socket stops carrying frame
            # bytes.  ``chunk_bytes`` (the client's largest payload)
            # sizes the slots up front.
            ring = self._ring_for(session, hello["chunk_bytes"])
            session.client_ring = True
            hello_ok["ring"] = {
                "name": ring.name,
                "slots": ring.slots,
                "slot_bytes": ring.slot_bytes,
            }
        protocol.write_frame(
            writer, FrameType.HELLO_OK, protocol.encode_json(hello_ok)
        )
        await writer.drain()

        consumer = asyncio.create_task(self._consume(session, writer))
        try:
            await self._read_session(frames, session)
        finally:
            await consumer
            await self._close_session(session)
            self._sessions.pop(session.id, None)
            self._completed_sessions += 1
            state = obs.STATE
            if state.enabled:
                state.metrics.counter("serve.sessions_completed").inc()
                state.metrics.counter("serve.records_ingested").inc(
                    session.records
                )
            self._emit_span(
                "serve.session",
                span_id,
                parent=self._root_span_id,
                start_unix=session.started_unix,
                wall_s=time.perf_counter() - started_perf,
                attrs={
                    "session": session.id,
                    "name": session.name,
                    "records": session.records,
                    "chunks": session.chunks,
                    "batches": session.batches,
                    "shard": session.shard,
                    "ring_overflows": session.ring_overflows,
                    "max_queue_depth": session.max_queue_depth,
                    "aborted": session.aborted,
                },
                status="error" if session.error else "ok",
            )

    #: Warm rings kept per geometry; beyond this, closing sessions
    #: destroy their ring outright.  Sized for the bench's concurrency
    #: sweet spot; excess rings are only ever untouched pages anyway.
    _RING_POOL_CAP = 32

    async def _close_session(self, session: Session) -> None:
        """Release per-session transport state (consumer has exited)."""
        if (
            self._pool is not None
            and session.shard is not None
            and not session.remote_finished
        ):
            # Aborted session: its worker-side digest state was never
            # fetched; retire it so the worker's table can't grow.
            self._pool.submit(
                _session_finish_remote, session.id, shard=session.shard
            ).add_done_callback(lambda f: f.exception())
        if session.ring is not None:
            ring, session.ring = session.ring, None
            pool = self._ring_pool.setdefault(
                (ring.slots, ring.slot_bytes), []
            )
            if self._accepting and len(pool) < self._RING_POOL_CAP:
                # Keep it warm for the next same-geometry session; the
                # workers' cached attachments stay valid because the
                # segment (and its name) lives on.
                pool.append(ring)
            else:
                await self._destroy_ring(ring)
        if session.shard is not None and self._shard_sessions:
            self._shard_sessions[session.shard] -= 1

    async def _destroy_ring(self, ring: RingTransport) -> None:
        """Drop every process's attachment, then unlink the segment
        (unlinked even when a detach fails on a view still alive)."""
        try:
            if self._pool is not None:
                for shard in range(self.config.jobs):
                    try:
                        await self._pool.run(
                            _session_close_remote, ring.name, shard=shard
                        )
                    except Exception:  # pragma: no cover - pool dying
                        pass
            else:
                # Inline mode classified in-process; drop this process's
                # cached attachment before unlinking.
                detach_ring(ring.name)
        finally:
            ring.close()

    # -- chunk staging (reader side) -----------------------------------
    def _ring_for(self, session: Session, nbytes: int) -> RingTransport:
        """The session's slot ring, created lazily off chunk one.

        Slot capacity defaults to the first chunk's size plus ~12%
        headroom (trailing short chunks are smaller, equal-size chunks
        jitter by a few header bytes), rounded up to 4 KiB pages;
        slot count covers the full pipeline: everything the queue can
        hold, a batch in flight, the chunk being staged, and — for
        client-written rings — the client's full credit window.
        """
        if session.ring is None:
            config = self.config
            slot_bytes = config.ring_slot_bytes or max(
                4096, (nbytes + nbytes // 8 + 4095) & ~4095
            )
            slots = config.ring_slots or (
                config.queue_chunks
                + max(1, config.coalesce_chunks)
                + config.window_chunks
                + 1
            )
            pool = self._ring_pool.get((slots, slot_bytes))
            if pool:
                session.ring = pool.pop()
                session.ring.reset()
            else:
                session.ring = RingTransport(slots, slot_bytes)
        return session.ring

    def _stage_chunk(
        self, session: Session, payload: memoryview
    ) -> ChunkItem:
        """Copy a CHUNK payload out of the frame buffer, once, into
        whatever vehicle carries it to classification: a slot of the
        session's ring when a pool classifies, else (inline, or no slot
        fits) the bytes themselves."""
        if session.client_ring:
            # The client normally writes slots itself; a full CHUNK
            # frame here means its ring overflowed (slot shortage or
            # oversized payload) — count it exactly like a server-side
            # overflow and take the slow lane.
            self._count_overflow(session)
            return bytes(payload)
        if self._pool is None:
            return bytes(payload)
        slot = self._ring_for(session, len(payload)).lease(payload)
        if slot is not None:
            return slot
        # Loud fallback: the bytes ride in the task arguments, and
        # every path that can observe the slowdown sees why.
        self._count_overflow(session)
        return bytes(payload)

    @staticmethod
    def _count_overflow(session: Session) -> None:
        session.ring_overflows += 1
        state = obs.STATE
        if state.enabled:
            state.metrics.counter("serve.ring_overflows").inc()

    def _resolve_chunk_ref(
        self, session: Session, payload: memoryview
    ) -> RingSlotHandle:
        """Validate a client-written slot reference against the grant."""
        if not session.client_ring or session.ring is None:
            raise ProtocolError(
                "CHUNK_REF without a granted shared-memory ring"
            )
        slot, nbytes = protocol.parse_chunk_ref(payload)
        ring = session.ring
        if slot >= ring.slots or nbytes > ring.slot_bytes:
            raise ProtocolError(
                f"CHUNK_REF out of bounds (slot={slot}, nbytes={nbytes}, "
                f"ring has {ring.slots} slots of {ring.slot_bytes})"
            )
        return RingSlotHandle(
            ring=ring.name,
            index=slot,
            offset=slot * ring.slot_bytes,
            nbytes=nbytes,
        )

    async def _read_session(
        self, frames: protocol.FrameReader, session: Session
    ) -> None:
        """The socket-side half: frames into the bounded queue.

        ``queue.put`` blocking here *is* the backpressure mechanism —
        while the queue is full this coroutine does not read, the
        kernel receive buffer fills, and the client's sends stall.

        Whatever ends the loop — END, EOF, a protocol violation, or an
        abrupt disconnect (TCP RST raises ``ConnectionResetError`` out
        of the stream reader, not a clean EOF) — the ``finally`` always
        enqueues the ``None`` sentinel, so the consumer task the
        handler awaits can never be left blocked on an empty queue.
        """
        try:
            while True:
                try:
                    item = await frames.read_frame()
                except ProtocolError as exc:
                    session.aborted = True
                    session.error = str(exc)
                    return
                except (ConnectionError, OSError) as exc:
                    session.aborted = True
                    session.error = f"connection lost: {exc}"
                    return
                if item is None:  # EOF without END: client died
                    session.aborted = True
                    session.error = "connection closed before END"
                    return
                frame_type, payload = item
                if frame_type is FrameType.CHUNK:
                    await session.queue.put(
                        self._stage_chunk(session, payload)
                    )
                    session.max_queue_depth = max(
                        session.max_queue_depth, session.queue.qsize()
                    )
                elif frame_type is FrameType.CHUNK_REF:
                    try:
                        handle = self._resolve_chunk_ref(session, payload)
                    except ProtocolError as exc:
                        session.aborted = True
                        session.error = str(exc)
                        return
                    await session.queue.put(handle)
                    session.max_queue_depth = max(
                        session.max_queue_depth, session.queue.qsize()
                    )
                elif frame_type is FrameType.END:
                    return
                else:
                    session.aborted = True
                    session.error = (
                        f"unexpected {frame_type.name} mid-stream"
                    )
                    return
        finally:
            await session.queue.put(None)

    # -- classification (consumer side) --------------------------------
    @staticmethod
    def _discard_batch(session: Session, batch: list) -> None:
        """Give batch resources back without classifying (error paths).

        Server-leased ring slots return to the free list (client-owned
        slots stay the client's — the session teardown unlinks the
        whole ring anyway).
        """
        for item in batch:
            if isinstance(item, RingSlotHandle):
                if session.ring is not None and not session.client_ring:
                    session.ring.release(item.index)

    async def _consume(
        self, session: Session, writer: asyncio.StreamWriter
    ) -> None:
        """The classify-side half: coalesced batches off the queue.

        Each wakeup drains every already-queued chunk (up to
        ``coalesce_chunks``) into one classify call — one executor
        round-trip and one digest update amortized across the batch —
        then ACKs each chunk individually so client credit accounting
        never notices the batching.
        """
        config = self.config
        state = obs.STATE
        limit = max(1, config.coalesce_chunks)
        finished = False
        while not finished:
            item = await session.queue.get()
            if item is None:
                break
            batch = [item]
            while len(batch) < limit:
                try:
                    extra = session.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    finished = True
                    break
                batch.append(extra)
            try:
                result = await self._classify_batch(session, batch)
            except Exception as exc:  # must not kill the drain loop
                session.aborted = True
                session.error = f"classification failed: {exc}"
                self._discard_batch(session, batch)
                await self._send_error(writer, session.error)
                continue  # keep draining to unblock the reader
            if not session.client_ring:
                for item in batch:
                    if isinstance(item, RingSlotHandle):
                        session.ring.release(item.index)
            batch_records = int(result["batch_records"])
            acked_records = session.records
            session.records += batch_records
            self._total_records += batch_records
            session.batches += 1
            for code, count in result["counts"].items():
                session.counts[CLASS_ORDER[int(code)]] += int(count)
            if self._pool is None:
                # Inline mode digests here; pool sessions accumulate
                # the digest in their sticky worker and hand it back
                # once at session end.
                session.digest.update(
                    verdict_row_bytes(result["columns"])
                )
            if config.keep_verdicts:
                session.columns.append(result["columns"])
            if state.enabled and len(batch) > 1:
                state.metrics.counter("serve.coalesced_batches").inc()
                state.metrics.counter("serve.coalesced_chunks").inc(
                    len(batch)
                )
            try:
                for item, chunk_records in zip(
                    batch, result["chunk_records"]
                ):
                    session.chunks += 1
                    acked_records += chunk_records
                    ack = {
                        "session": session.id,
                        "records": acked_records,
                        "chunks": session.chunks,
                    }
                    if session.client_ring and isinstance(
                        item, RingSlotHandle
                    ):
                        # Hand the client its slot back with the ACK.
                        ack["released"] = [item.index]
                    protocol.write_frame(
                        writer, FrameType.ACK, protocol.encode_json(ack)
                    )
                await writer.drain()
            except (ConnectionError, OSError):
                session.aborted = True
                session.error = "client went away mid-ACK"
        if session.aborted:
            return
        if self._pool is not None and session.shard is not None:
            try:
                finish = await self._pool.run(
                    _session_finish_remote, session.id,
                    shard=session.shard,
                )
                session.digest_hex = finish["digest"]
            except Exception:  # pragma: no cover - pool dying
                session.digest_hex = ""
            session.remote_finished = True
        try:
            protocol.write_frame(
                writer, FrameType.SUMMARY, protocol.encode_json(
                    self._summary(session)
                )
            )
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover
            session.aborted = True

    def _summary(self, session: Session) -> dict:
        wall_s = max(time.time() - session.started_unix, 1e-9)
        doc = {
            "session": session.id,
            "name": session.name,
            "records": session.records,
            "chunks": session.chunks,
            "batches": session.batches,
            "counts": {
                cls.value: session.counts.get(cls, 0)
                for cls in CLASS_ORDER
            },
            "verdict_digest": (
                session.digest_hex
                if session.digest_hex is not None
                else session.digest.hexdigest()
            ),
            "max_queue_depth": session.max_queue_depth,
            "queue_chunks": self.config.queue_chunks,
            "shard": session.shard,
            "ring_overflows": session.ring_overflows,
            "wall_s": round(wall_s, 6),
            "packets_per_s": round(session.records / wall_s, 1),
        }
        if session.ring is not None:
            doc["ring"] = session.ring.stats()
        return doc

    async def _classify_batch(
        self, session: Session, batch: list
    ) -> dict:
        """One batch through the right lane: sticky shard or thread."""
        if self._pool is not None:
            return await self._pool.run(
                _classify_batch_remote,
                session.id,
                session.spec_dict,
                session.packets_sent,
                batch,
                self.config.keep_verdicts,
                shard=session.shard,
            )
        if session.matcher is None:
            session.matcher = TraceMatcher(session.spec, session.packets_sent)
        assert self._inline is not None
        return await asyncio.get_running_loop().run_in_executor(
            self._inline,
            _batch_feed,
            batch,
            session.matcher,
            session.packets_sent,
        )

    async def _send_error(
        self, writer: asyncio.StreamWriter, message: str
    ) -> None:
        try:
            protocol.write_frame(
                writer,
                FrameType.ERROR,
                protocol.encode_json({"error": message}),
            )
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


async def run_server(config: ServeConfig) -> None:
    """Start, print the address, and serve until cancelled (the CLI
    entry; SIGINT and SIGTERM both drain gracefully).

    SIGTERM matters for the shm ring transport: the segments live in
    ``/dev/shm`` until :meth:`TraceAnalysisServer.stop` unlinks them,
    so dying on the default signal action (as under ``systemd stop``
    or a container runtime's termination grace period) would leak one
    ring per live-or-pooled session and orphan the shard workers.
    """
    server = TraceAnalysisServer(config)
    await server.start()
    address = server.address
    if isinstance(address, str):
        print(f"serving on unix:{address} (jobs={config.jobs})")
    else:
        print(
            f"serving on {address[0]}:{address[1]} (jobs={config.jobs})"
        )
    loop = asyncio.get_running_loop()
    task = asyncio.current_task()
    sigterm_hooked = False
    try:
        loop.add_signal_handler(signal.SIGTERM, task.cancel)
        sigterm_hooked = True
    except (NotImplementedError, ValueError):  # pragma: no cover
        pass  # non-unix loop, or not on the main thread
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        if sigterm_hooked:
            loop.remove_signal_handler(signal.SIGTERM)
        await server.stop()
