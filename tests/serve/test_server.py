"""End-to-end server tests: sessions, equivalence, backpressure, drain.

Each test runs a real :class:`TraceAnalysisServer` on an ephemeral
loopback port and talks to it with the loadgen client (or a raw
socket, for the misbehaving-client cases).  The load here is tiny —
these are correctness tests; throughput lives in
``benchmarks/bench_serve_ingest.py``.
"""

import asyncio
import hashlib
import json

import numpy as np
import pytest

from repro.analysis.classify import IncrementalClassifier, verdict_row_bytes
from repro.framing.bits import flip_bits
from repro.framing.testpacket import BODY_START, TestPacketSpec
from repro.phy.modem import ModemRxStatus
from repro.serve import protocol
from repro.serve.loadgen import chunk_payloads, run_loadgen, run_session
from repro.serve.protocol import FrameType, ProtocolError
from repro.serve.server import ServeConfig, TraceAnalysisServer
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import PacketRecord

STATUS = ModemRxStatus(29, 3, 15, 0)
WEAK_STATUS = ModemRxStatus(6, 3, 8, 1)
SPEC = TestPacketSpec.default()


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
    return ColumnarTrace.from_records(records, "serve", spec, 4 * repeats)


def _reference(trace: ColumnarTrace) -> tuple[str, dict]:
    clf = IncrementalClassifier(trace.spec, trace.packets_sent)
    clf.feed(trace)
    digest = hashlib.blake2b(
        verdict_row_bytes(clf.verdict_columns()), digest_size=8
    ).hexdigest()
    return digest, clf.count_summary()


async def _open(host, port):
    """A raw client connection, its replies read through a FrameReader."""
    reader, writer = await asyncio.open_connection(host, port)
    return protocol.FrameReader(reader), writer


async def _reply(frames: protocol.FrameReader):
    """The next reply frame, its payload copied out of the reader."""
    item = await frames.read_frame()
    return None if item is None else (item[0], bytes(item[1]))


async def _serve(config: ServeConfig, work):
    server = TraceAnalysisServer(config)
    await server.start()
    try:
        return await work(server)
    finally:
        await server.stop()


class TestEndToEnd:
    @pytest.mark.parametrize("chunk_records", [1, 7, 1000])
    def test_session_matches_batch(self, spec, factory, chunk_records):
        """Any wire chunking reproduces the batch digest and counts."""
        trace = _mixed_columnar(spec, factory)
        digest, counts = _reference(trace)

        async def work(server):
            return await run_loadgen(
                server.address,
                trace,
                sessions=3,
                chunk_records=chunk_records,
            )

        report = asyncio.run(
            _serve(ServeConfig(heartbeat_s=0), work)
        )
        assert len(report.sessions) == 3
        for session in report.sessions:
            assert session.summary["verdict_digest"] == digest
            assert session.summary["counts"] == counts
            assert session.records == trace.packets_received

    def test_pooled_equals_inline(self, spec, factory):
        """jobs=2 (pool workers, ring-slot handoff) == jobs=1 (inline)."""
        trace = _mixed_columnar(spec, factory)

        async def work(server):
            return await run_loadgen(
                server.address, trace, sessions=2, chunk_records=9
            )

        inline = asyncio.run(
            _serve(ServeConfig(jobs=1, heartbeat_s=0), work)
        )
        pooled = asyncio.run(
            _serve(ServeConfig(jobs=2, heartbeat_s=0), work)
        )
        digest, counts = _reference(trace)
        for report in (inline, pooled):
            for session in report.sessions:
                assert session.summary["verdict_digest"] == digest
                assert session.summary["counts"] == counts

    def test_zero_record_session(self, spec):
        """An empty trace still completes the full protocol round."""
        trace = ColumnarTrace.from_records([], "empty", spec, 0)

        async def work(server):
            return await run_loadgen(
                server.address, trace, sessions=2, chunk_records=4
            )

        report = asyncio.run(_serve(ServeConfig(heartbeat_s=0), work))
        for session in report.sessions:
            assert session.records == 0
            assert sum(session.summary["counts"].values()) == 0

    def test_unix_socket(self, spec, factory, tmp_path):
        trace = _mixed_columnar(spec, factory, repeats=2)
        digest, _ = _reference(trace)
        path = str(tmp_path / "serve.sock")

        async def work(server):
            return await run_loadgen(
                server.address, trace, sessions=2, chunk_records=5
            )

        report = asyncio.run(
            _serve(ServeConfig(unix_path=path, heartbeat_s=0), work)
        )
        assert all(
            s.summary["verdict_digest"] == digest for s in report.sessions
        )


async def _handshake(server, fields: dict):
    """Send a valid HELLO with ``fields`` written over it.  Returns the
    last reply (an ERROR, or the SUMMARY that answers an END after
    HELLO_OK), whether the server then closed the connection, and the
    session ids still live."""
    doc = json.loads(protocol.hello_payload("probe", "hello-test", SPEC, 10))
    doc.update(fields)
    frames, writer = await _open(*server.address)
    protocol.write_frame(writer, FrameType.HELLO, protocol.encode_json(doc))
    await writer.drain()
    reply = await asyncio.wait_for(_reply(frames), 5.0)
    if reply[0] is FrameType.HELLO_OK:
        protocol.write_frame(writer, FrameType.END)
        await writer.drain()
        while reply[0] is not FrameType.SUMMARY:
            reply = await asyncio.wait_for(_reply(frames), 5.0)
    closed = await asyncio.wait_for(_reply(frames), 5.0) is None
    writer.close()
    return reply, closed, list(server._sessions)


class TestRobustness:
    @pytest.mark.parametrize(
        "fields",
        [
            {"packets_sent": "x"},
            {"packets_sent": None},
            {"packets_sent": -5},
            {"packets_sent": True},
            {"shm_ring": True, "chunk_bytes": "big"},
            {"shm_ring": True, "chunk_bytes": 0},
            {"chunk_bytes": 2**40},
        ],
        ids=[
            "packets_sent-str", "packets_sent-null", "packets_sent-negative",
            "packets_sent-bool", "chunk_bytes-str", "chunk_bytes-zero",
            "chunk_bytes-oversize",
        ],
    )
    def test_malformed_hello_gets_error(self, fields):
        """A HELLO whose counts are not counts is answered with a typed
        ERROR, its connection closes, and no session stays registered."""
        (frame_type, payload), closed, live = asyncio.run(
            _serve(ServeConfig(heartbeat_s=0), lambda s: _handshake(s, fields))
        )
        assert frame_type is FrameType.ERROR
        key = next(k for k in fields if k != "shm_ring")
        assert key in protocol.decode_json(payload)["error"]
        assert closed
        assert live == []

    @pytest.mark.parametrize(
        "fields", [{}, {"first_sequence": "abc"}],
        ids=["plain", "first_sequence-str"],
    )
    def test_valid_hello_is_served(self, fields):
        """A well-formed HELLO gets HELLO_OK; keys the server does not
        read, such as ``first_sequence``, are ignored."""
        (frame_type, payload), closed, live = asyncio.run(
            _serve(ServeConfig(heartbeat_s=0), lambda s: _handshake(s, fields))
        )
        assert frame_type is FrameType.SUMMARY
        assert protocol.decode_json(payload)["records"] == 0
        assert closed
        assert live == []

    def test_abort_mid_stream_then_new_session(self, spec, factory):
        """A client dying mid-stream doesn't poison the server: the
        next session on the same server completes normally."""
        trace = _mixed_columnar(spec, factory)
        payloads = chunk_payloads(trace, 8)
        digest, _ = _reference(trace)

        async def work(server):
            host, port = server.address
            # Session 1: HELLO + one chunk, then vanish without END.
            reader, writer = await _open(host, port)
            protocol.write_frame(
                writer,
                FrameType.HELLO,
                protocol.hello_payload(
                    "doomed", "abort-test", trace.spec, trace.packets_sent
                ),
            )
            await writer.drain()
            await _reply(reader)  # HELLO_OK
            protocol.write_frame(writer, FrameType.CHUNK, payloads[0])
            await writer.drain()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            # Session 2: a clean full run on the same server.
            return await run_session(
                server.address,
                payloads,
                trace.spec,
                trace.packets_sent,
                session_id="survivor",
            )

        report = asyncio.run(_serve(ServeConfig(heartbeat_s=0), work))
        assert report.summary["verdict_digest"] == digest
        assert report.records == trace.packets_received

    def test_rst_disconnect_does_not_leak_session(self, spec, factory):
        """An abrupt reset (TCP RST, not a clean FIN) must still put
        the sentinel on the session queue: the handler's consumer
        unblocks, the session is removed, and the server stays
        usable — no hung handler task leaks until shutdown."""
        import socket as socketmod
        import struct

        trace = _mixed_columnar(spec, factory)
        payloads = chunk_payloads(trace, 8)
        digest, _ = _reference(trace)

        async def work(server):
            host, port = server.address
            reader, writer = await _open(host, port)
            protocol.write_frame(
                writer,
                FrameType.HELLO,
                protocol.hello_payload(
                    "reset", "rst-test", trace.spec, trace.packets_sent
                ),
            )
            await writer.drain()
            await _reply(reader)  # HELLO_OK: session live
            assert "reset" in server._sessions
            protocol.write_frame(writer, FrameType.CHUNK, payloads[0])
            await writer.drain()
            sock = writer.get_extra_info("socket")
            sock.setsockopt(
                socketmod.SOL_SOCKET,
                socketmod.SO_LINGER,
                struct.pack("ii", 1, 0),  # close() now sends RST
            )
            writer.close()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 5.0
            while server._sessions:
                assert loop.time() < deadline, (
                    "reset session was never cleaned up"
                )
                await asyncio.sleep(0.01)
            # The same server then completes a clean session.
            return await run_session(
                server.address,
                payloads,
                trace.spec,
                trace.packets_sent,
                session_id="after-reset",
            )

        report = asyncio.run(_serve(ServeConfig(heartbeat_s=0), work))
        assert report.summary["verdict_digest"] == digest
        assert report.records == trace.packets_received

    def test_duplicate_session_id_rejected(self, spec, factory):
        """A HELLO reusing a live session id gets an ERROR instead of
        clobbering the first session's state."""
        trace = _mixed_columnar(spec, factory, repeats=1)

        async def work(server):
            host, port = server.address
            r1, w1 = await _open(host, port)
            protocol.write_frame(
                w1,
                FrameType.HELLO,
                protocol.hello_payload(
                    "dup", "first", trace.spec, trace.packets_sent
                ),
            )
            await w1.drain()
            await _reply(r1)  # HELLO_OK: "dup" is live
            r2, w2 = await _open(host, port)
            protocol.write_frame(
                w2,
                FrameType.HELLO,
                protocol.hello_payload(
                    "dup", "second", trace.spec, trace.packets_sent
                ),
            )
            await w2.drain()
            rejection = await _reply(r2)
            w2.close()
            # The first session is unharmed and finishes normally.
            protocol.write_frame(w1, FrameType.END)
            await w1.drain()
            summary = None
            while summary is None:
                frame_type, payload = await _reply(r1)
                if frame_type is FrameType.SUMMARY:
                    summary = protocol.decode_json(payload)
            w1.close()
            return rejection, summary

        (frame_type, payload), summary = asyncio.run(
            _serve(ServeConfig(heartbeat_s=0), work)
        )
        assert frame_type is FrameType.ERROR
        assert "already active" in protocol.decode_json(payload)["error"]
        assert summary["session"] == "dup"

    def test_failed_chunk_error_reaches_client(self, spec, factory):
        """A chunk the server cannot classify is answered with ERROR,
        never ACK — the client must surface it promptly rather than
        parking forever on the exhausted credit window."""
        trace = _mixed_columnar(spec, factory, repeats=1)
        garbage = [b"not a columnar block"] * 8

        async def work(server):
            return await asyncio.wait_for(
                run_session(
                    server.address,
                    garbage,
                    trace.spec,
                    trace.packets_sent,
                    session_id="garbage",
                ),
                timeout=10.0,
            )

        with pytest.raises(ProtocolError, match="classification failed"):
            asyncio.run(
                _serve(ServeConfig(window_chunks=2, heartbeat_s=0), work)
            )

    def test_worker_session_state_lives_with_session(self, spec, factory):
        """A worker holds a session's matcher and digest only from its
        first batch to its finish, so a stream of distinct client
        handshakes never piles up worker memory."""
        from repro.serve import server as server_mod
        from repro.trace.columnar import spec_to_dict

        trace = _mixed_columnar(spec, factory, repeats=1)
        payload = chunk_payloads(trace, trace.packets_received)[0]
        digest, _ = _reference(trace)
        spec_dict = spec_to_dict(spec)
        sessions = server_mod._WORKER_SESSIONS
        before = set(sessions)
        for index in range(8):
            session_id = f"churn-{index}"
            packets_sent = trace.packets_sent + index
            assert session_id not in sessions
            server_mod._classify_batch_remote(
                session_id, spec_dict, packets_sent, [payload]
            )
            matcher = sessions[session_id]["matcher"]
            assert matcher.packets_sent == packets_sent
            finish = server_mod._session_finish_remote(session_id)
            assert finish["digest"] == digest
            assert session_id not in sessions
        assert set(sessions) == before

    def test_garbage_handshake_rejected(self, spec, factory):
        async def work(server):
            host, port = server.address
            reader, writer = await _open(host, port)
            protocol.write_frame(writer, FrameType.CHUNK, b"not-hello")
            await writer.drain()
            item = await _reply(reader)
            writer.close()
            return item

        frame_type, payload = asyncio.run(
            _serve(ServeConfig(heartbeat_s=0), work)
        )
        assert frame_type is FrameType.ERROR
        assert "HELLO" in protocol.decode_json(payload)["error"]

    def test_queue_depth_stays_bounded(self, spec, factory):
        """A client that ignores the credit window and floods chunks
        still sees the server's queue bounded at queue_chunks."""
        trace = _mixed_columnar(spec, factory, repeats=16)
        payloads = chunk_payloads(trace, 2)  # many small chunks
        queue_chunks = 3

        async def work(server):
            host, port = server.address
            reader, writer = await _open(host, port)
            protocol.write_frame(
                writer,
                FrameType.HELLO,
                protocol.hello_payload(
                    "flood", "flood-test", trace.spec, trace.packets_sent
                ),
            )
            await writer.drain()
            await _reply(reader)  # HELLO_OK
            # Blast every chunk without waiting for a single ACK.
            for payload in payloads:
                protocol.write_frame(writer, FrameType.CHUNK, payload)
            protocol.write_frame(writer, FrameType.END)
            await writer.drain()
            summary = None
            while summary is None:
                frame_type, payload = await _reply(reader)
                if frame_type is FrameType.SUMMARY:
                    summary = protocol.decode_json(payload)
            writer.close()
            return summary

        summary = asyncio.run(
            _serve(
                ServeConfig(queue_chunks=queue_chunks, heartbeat_s=0),
                work,
            )
        )
        assert summary["records"] == trace.packets_received
        assert 1 <= summary["max_queue_depth"] <= queue_chunks

    def test_draining_server_rejects_new_hello(self, spec, factory):
        """After stop() begins, a connection that got through the race
        window is told the server is draining."""
        trace = _mixed_columnar(spec, factory, repeats=1)

        async def main():
            server = TraceAnalysisServer(ServeConfig(heartbeat_s=0))
            await server.start()
            host, port = server.address
            reader, writer = await _open(host, port)
            server._accepting = False  # simulate the drain window
            protocol.write_frame(
                writer,
                FrameType.HELLO,
                protocol.hello_payload(
                    "late", "late-test", trace.spec, trace.packets_sent
                ),
            )
            await writer.drain()
            item = await _reply(reader)
            writer.close()
            await server.stop()
            return item

        frame_type, payload = asyncio.run(main())
        assert frame_type is FrameType.ERROR
        assert "drain" in protocol.decode_json(payload)["error"]


class TestTelemetry:
    def test_session_spans_recorded(self, spec, factory, tmp_path):
        """One serve.session span per session, parented under one
        serve.run root, readable by the span tooling."""
        from repro import obs
        from repro.obs.spans import span_tree

        trace = _mixed_columnar(spec, factory, repeats=2)
        telemetry = tmp_path / "serve.jsonl"
        obs.configure(telemetry_path=str(telemetry), trace_label="test")
        try:

            async def work(server):
                return await run_loadgen(
                    server.address, trace, sessions=3, chunk_records=4
                )

            asyncio.run(_serve(ServeConfig(heartbeat_s=0), work))
            recorder = obs.STATE.spans
            spans = list(recorder.finished)
        finally:
            obs.reset()
        by_name = {}
        for record in spans:
            by_name.setdefault(record["name"], []).append(record)
        assert len(by_name["serve.run"]) == 1
        assert len(by_name["serve.session"]) == 3
        root = by_name["serve.run"][0]
        for session_span in by_name["serve.session"]:
            assert session_span["parent"] == root["span"]
            assert session_span["attrs"]["records"] == (
                trace.packets_received
            )
            assert session_span["status"] == "ok"
        # The tree stitches: 3 children under the one root.
        roots, children = span_tree(spans)
        assert root in roots
        assert len(children.get(root["span"], [])) == 3
