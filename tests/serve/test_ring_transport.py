"""Shm-ring transport: slot lifecycle, leak-freedom, equivalence.

Three layers of coverage for the zero-copy ingest path:

* **Unit** — :class:`RingTransport` / :class:`RingClient` slot
  accounting: lease/release discipline, loud overflow counting, reset
  between owners, and segment unlink on close (checked against the
  actual ``/dev/shm`` listing).
* **Equivalence matrix** — both pooled chunk vehicles (a ring slot,
  or the counted bytes fallback when no slot fits) × coalescing
  reproduce, byte for byte, the verdict digest of the inline
  single-chunk path (the acceptance contract every serve PR rides on).
* **Lifecycle under misbehavior** — an abrupt client disconnect
  mid-chunk leaks no shm segments and frees every ring slot for the
  next session; a mis-sized ring falls back to socket framing loudly
  (summary ``ring_overflows``), never silently.
"""

import asyncio
import contextlib
import hashlib
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.analysis.classify import IncrementalClassifier, verdict_row_bytes
from repro.framing.bits import flip_bits
from repro.framing.testpacket import BODY_START
from repro.parallel.handoff import RingClient, RingTransport
from repro.phy.modem import ModemRxStatus
from repro.serve import protocol
from repro.serve.loadgen import run_loadgen
from repro.serve.protocol import FrameType
from repro.serve.server import ServeConfig, TraceAnalysisServer
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import PacketRecord

STATUS = ModemRxStatus(29, 3, 15, 0)
WEAK_STATUS = ModemRxStatus(6, 3, 8, 1)

SHM_DIR = "/dev/shm"
needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="no /dev/shm on this platform"
)


def _shm_names() -> set:
    return set(os.listdir(SHM_DIR))


@contextlib.contextmanager
def live_server(
    sock: str, jobs: int, stop_signal: int = signal.SIGTERM,
    sigint_ignored: bool = False,
):
    """Run ``python -m repro serve --unix SOCK --jobs JOBS`` around a block.

    Yields the child process once the socket is bound.  On exit a
    still-running server gets ``stop_signal`` and is reaped (after 30 s
    its whole process group, shard workers included, is killed); its
    combined stdout/stderr is then on ``proc.output``.
    ``sigint_ignored`` launches it the way a non-interactive shell
    launches a background job, with SIGINT ignored
    (``sh -c 'trap "" INT; exec python -m repro serve ...'``).
    """
    command = [
        sys.executable, "-m", "repro", "serve",
        "--unix", sock, "--jobs", str(jobs),
    ]
    if sigint_ignored:
        command = ["sh", "-c", 'trap "" INT; exec "$0" "$@"', *command]
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 30
        while not os.path.exists(sock):
            assert proc.poll() is None, proc.communicate()[0]
            assert time.monotonic() < deadline, "server never bound"
            time.sleep(0.05)
        yield proc
    finally:
        if proc.poll() is None:
            proc.send_signal(stop_signal)
        try:
            proc.output, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover
            # Orphaned shard workers would hold the output pipe open.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.output, _ = proc.communicate()


def _mixed_columnar(spec, factory, repeats: int = 8) -> ColumnarTrace:
    """A trace cycling clean / truncated / bit-damaged / outsider."""
    records = []
    for base in range(0, 4 * repeats, 4):
        records.append(
            PacketRecord.from_bytes(factory.build(base), STATUS)
        )
        records.append(
            PacketRecord.from_bytes(
                factory.build(base + 1)[:600], WEAK_STATUS
            )
        )
        records.append(
            PacketRecord.from_bytes(
                flip_bits(
                    factory.build(base + 2),
                    np.array([BODY_START * 8 + 1]),
                ),
                WEAK_STATUS,
            )
        )
        records.append(
            PacketRecord.from_bytes(b"\xa5" * 80, WEAK_STATUS)
        )
    return ColumnarTrace.from_records(records, "ring", spec, 4 * repeats)


def _reference(trace: ColumnarTrace) -> tuple[str, dict]:
    clf = IncrementalClassifier(trace.spec, trace.packets_sent)
    clf.feed(trace)
    digest = hashlib.blake2b(
        verdict_row_bytes(clf.verdict_columns()), digest_size=8
    ).hexdigest()
    return digest, clf.count_summary()


async def _serve(config: ServeConfig, work):
    server = TraceAnalysisServer(config)
    await server.start()
    try:
        return await work(server)
    finally:
        await server.stop()


class TestRingUnit:
    def test_lease_release_lifecycle(self):
        ring = RingTransport(slots=2, slot_bytes=64)
        try:
            first = ring.lease(b"a" * 10)
            second = ring.lease(b"b" * 64)
            assert first is not None and second is not None
            assert {first.index, second.index} == {0, 1}
            assert ring.slots_free == 0
            # Exhaustion is an overflow, not a block or an exception.
            assert ring.lease(b"c") is None
            assert ring.overflows == 1
            ring.release(first.index)
            assert ring.slots_free == 1
            third = ring.lease(b"d" * 3)
            assert third is not None and third.index == first.index
            stats = ring.stats()
            assert stats["leases"] == 3
            assert stats["overflows"] == 1
            assert stats["max_in_use"] == 2
        finally:
            ring.close()

    def test_oversized_payload_overflows(self):
        ring = RingTransport(slots=4, slot_bytes=16)
        try:
            assert ring.lease(b"x" * 17) is None
            assert ring.overflows == 1
            assert ring.slots_free == 4  # nothing was consumed
        finally:
            ring.close()

    def test_double_release_rejected(self):
        ring = RingTransport(slots=2, slot_bytes=8)
        try:
            handle = ring.lease(b"hi")
            ring.release(handle.index)
            with pytest.raises(ValueError):
                ring.release(handle.index)
            with pytest.raises(ValueError):
                ring.release(99)
        finally:
            ring.close()

    def test_reset_restores_fresh_ring(self):
        ring = RingTransport(slots=2, slot_bytes=8)
        try:
            ring.lease(b"a")
            ring.lease(b"b")
            ring.lease(b"c")  # overflow
            ring.reset()
            assert ring.slots_free == 2
            assert ring.leases == 0
            assert ring.overflows == 0
            assert ring.max_in_use == 0
            assert ring.lease(b"d") is not None
        finally:
            ring.close()
        with pytest.raises(ValueError):
            ring.reset()

    @needs_dev_shm
    def test_client_roundtrip_and_unlink(self):
        """Client writes a slot, worker-side view reads it back, close
        unlinks the segment from /dev/shm."""
        before = _shm_names()
        ring = RingTransport(slots=3, slot_bytes=32)
        assert ring.name in _shm_names()
        client = RingClient(ring.name, ring.slots, ring.slot_bytes)
        placed = client.write(b"payload-bytes")
        assert placed is not None
        slot, nbytes = placed
        from multiprocessing import shared_memory

        from repro.parallel import handoff as _handoff

        reader = shared_memory.SharedMemory(name=ring.name)
        # The ring owner unlinks; keep this attach out of the resource
        # tracker so interpreter exit doesn't warn about a "leak".
        _handoff._untrack_shm(ring.name)
        offset = slot * ring.slot_bytes
        assert bytes(reader.buf[offset : offset + nbytes]) == b"payload-bytes"
        reader.close()
        # Exhaust the client's free list, reclaim, write again.
        while client.write(b"x") is not None:
            pass
        assert client.fallbacks >= 1
        client.reclaim([slot])
        assert client.write(b"again") is not None
        client.close()
        ring.close()
        assert ring.name not in _shm_names()
        assert _shm_names() - before == set()

    def test_failed_slot_load_pins_no_view(self, monkeypatch):
        """A slot that fails to parse leaves no export of the ring
        behind, even while its error is kept alive (a future holds
        it): the worker's attachment then detaches cleanly, and
        dropping the error raises nothing unraisable."""
        import gc
        from concurrent.futures import Future

        from repro.parallel.handoff import detach_ring, load_ring_slot

        ring = RingTransport(slots=2, slot_bytes=64)
        try:
            handle = ring.lease(b"not a columnar block")
            future = Future()
            try:
                load_ring_slot(handle)
            except ValueError as exc:
                future.set_exception(exc)
            assert isinstance(future.exception(), ValueError)
            unraisable = []
            monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
            detach_ring(ring.name)
            del future
            gc.collect()
            assert unraisable == []
        finally:
            ring.close()


class TestTransportMatrix:
    """Acceptance contract: pooled/ring/coalesced == inline single-chunk."""

    @pytest.fixture(scope="class")
    def trace(self):
        from repro.framing.testpacket import (
            TestPacketFactory,
            TestPacketSpec,
        )

        spec = TestPacketSpec.default()
        return _mixed_columnar(spec, TestPacketFactory(spec))

    @pytest.fixture(scope="class")
    def inline_single_chunk(self, trace):
        """The reference digest, produced by the inline (jobs=1) path
        fed the whole trace as ONE chunk."""

        async def work(server):
            return await run_loadgen(
                server.address,
                trace,
                sessions=1,
                chunk_records=trace.packets_received,
            )

        report = asyncio.run(
            _serve(
                ServeConfig(jobs=1, heartbeat_s=0),
                work,
            )
        )
        summary = report.sessions[0].summary
        batch_digest, batch_counts = _reference(trace)
        assert summary["verdict_digest"] == batch_digest
        assert summary["counts"] == batch_counts
        return summary["verdict_digest"], summary["counts"]

    @pytest.mark.parametrize("vehicle", ["ring", "bytes"])
    @pytest.mark.parametrize("coalesce", [1, 4])
    def test_pooled_matches_inline(
        self, trace, inline_single_chunk, vehicle, coalesce
    ):
        """``bytes`` sizes the ring slots below any chunk, so every
        chunk overflows and travels as bytes in the task arguments."""
        digest, counts = inline_single_chunk

        async def work(server):
            return await run_loadgen(
                server.address, trace, sessions=2, chunk_records=9
            )

        report = asyncio.run(
            _serve(
                ServeConfig(
                    jobs=2,
                    coalesce_chunks=coalesce,
                    ring_slot_bytes=64 if vehicle == "bytes" else None,
                    heartbeat_s=0,
                ),
                work,
            )
        )
        assert len(report.sessions) == 2
        for session in report.sessions:
            assert session.summary["verdict_digest"] == digest
            assert session.summary["counts"] == counts
            overflowed = session.summary["ring_overflows"] > 0
            assert overflowed == (vehicle == "bytes")

    def test_socket_client_on_ring_server_matches(
        self, trace, inline_single_chunk
    ):
        """A client that declines the ring grant (plain CHUNK frames)
        still lands on the ring transport server-side — same digest."""
        digest, counts = inline_single_chunk

        async def work(server):
            return await run_loadgen(
                server.address,
                trace,
                sessions=1,
                chunk_records=7,
                use_ring=False,
            )

        report = asyncio.run(
            _serve(ServeConfig(jobs=2, heartbeat_s=0), work)
        )
        session = report.sessions[0]
        assert not session.ring_used
        assert session.summary["verdict_digest"] == digest
        assert session.summary["counts"] == counts


@needs_dev_shm
class TestSlotLifecycle:
    def test_abrupt_disconnect_mid_chunk_leaks_nothing(
        self, spec, factory
    ):
        """A client that dies mid-frame after parking a chunk in a
        ring slot leaks no shm segment: the session unwinds, the next
        session gets a clean ring, and server stop leaves ``/dev/shm``
        exactly as it found it."""
        trace = _mixed_columnar(spec, factory)
        digest, counts = _reference(trace)
        payloads = [
            protocol.encode_chunk(trace, 0, trace.packets_received)
        ]
        before = _shm_names()

        async def work(server):
            reader, writer = await asyncio.open_connection(
                *server.address
            )
            frames = protocol.FrameReader(reader)
            protocol.write_frame(
                writer,
                FrameType.HELLO,
                protocol.hello_payload(
                    "abrupt-1",
                    "abrupt",
                    trace.spec,
                    trace.packets_sent,
                    shm_ring=True,
                    chunk_bytes=max(len(p) for p in payloads),
                ),
            )
            await writer.drain()
            frame_type, payload = await frames.read_frame()
            assert frame_type is FrameType.HELLO_OK
            grant = protocol.decode_json(bytes(payload))["ring"]
            client = RingClient(
                str(grant["name"]),
                int(grant["slots"]),
                int(grant["slot_bytes"]),
            )
            try:
                # Park a chunk in a slot and reference it...
                slot, nbytes = client.write(payloads[0])
                protocol.write_frame(
                    writer,
                    FrameType.CHUNK_REF,
                    protocol.chunk_ref_payload(slot, nbytes),
                )
                # ...then die mid-way through the next frame: a length
                # prefix promising bytes that never arrive.
                writer.write(b"\x00\x00\xff\xff")
                await writer.drain()
            finally:
                client.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            # The server unwinds the session on reader EOF; give the
            # loop a few turns, then prove a fresh session gets a
            # clean, fully-free ring (pooled rings are reset between
            # owners — leaked slots would surface as overflows here).
            for _ in range(50):
                await asyncio.sleep(0.01)
                if not server._sessions:
                    break
            report = await run_loadgen(
                server.address,
                trace,
                sessions=1,
                chunk_records=trace.packets_received,
                payloads=payloads,
            )
            return report.sessions[0]

        session = asyncio.run(
            _serve(
                ServeConfig(jobs=2, heartbeat_s=0),
                work,
            )
        )
        assert session.ring_used
        assert session.summary["verdict_digest"] == digest
        assert session.summary["counts"] == counts
        assert session.summary["ring_overflows"] == 0
        leaked = _shm_names() - before
        assert leaked == set(), f"leaked shm segments: {leaked}"

    def test_ring_overflow_falls_back_loudly(self, spec, factory):
        """Slots too small for any chunk: every chunk rides the socket
        slow lane, the summary says so (``ring_overflows``), and the
        verdicts are still exact."""
        trace = _mixed_columnar(spec, factory)
        digest, counts = _reference(trace)
        chunk_records = 9
        chunks = -(-trace.packets_received // chunk_records)

        async def work(server):
            return await run_loadgen(
                server.address,
                trace,
                sessions=1,
                chunk_records=chunk_records,
            )

        report = asyncio.run(
            _serve(
                ServeConfig(
                    jobs=2,
                    ring_slot_bytes=64,  # far below any chunk payload
                    heartbeat_s=0,
                ),
                work,
            )
        )
        session = report.sessions[0]
        assert session.summary["verdict_digest"] == digest
        assert session.summary["counts"] == counts
        # Loud: every fallback is counted, none are silent.
        assert session.summary["ring_overflows"] == chunks
        assert not session.ring_used

    @staticmethod
    def _stop_drains(trace, sock: str, **server) -> None:
        """Serve one ring session, leave the block (which signals the
        server) and require a clean exit 0 with no ring left behind."""
        before = _shm_names()
        with live_server(sock, jobs=2, **server) as srv:
            report = asyncio.run(
                run_loadgen(sock, trace, sessions=1, chunk_records=16)
            )
            assert report.sessions[0].ring_used
            # The closed session's ring is still parked in the pool.
            assert _shm_names() - before
        # Leaving the block sent the signal and reaped the server.
        assert srv.returncode == 0, srv.output
        leaked = _shm_names() - before
        assert leaked == set(), f"leaked shm segments: {leaked}"

    def test_sigterm_unlinks_rings_and_reaps_workers(
        self, spec, factory, tmp_path
    ):
        """SIGTERM (``systemd stop``, a container runtime's grace
        period) must drain like SIGINT: every ring — live or pooled —
        unlinked from ``/dev/shm``, shard workers reaped, exit 0.  The
        default signal action would leak one segment per session."""
        self._stop_drains(
            _mixed_columnar(spec, factory), str(tmp_path / "term.sock")
        )

    def test_sigint_drains_when_started_with_sigint_ignored(
        self, spec, factory, tmp_path
    ):
        """A server started as a background job of a non-interactive
        shell inherits SIGINT as ignored; ``kill -INT`` must still
        drain it like SIGTERM, by itself, leaking no ring."""
        self._stop_drains(
            _mixed_columnar(spec, factory),
            str(tmp_path / "int.sock"),
            stop_signal=signal.SIGINT,
            sigint_ignored=True,
        )
