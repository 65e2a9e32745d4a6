"""The framed wire protocol of the streaming trace-analysis service.

Every message is one length-prefixed frame::

    [0:4]  u32 big-endian — length of everything after these 4 bytes
    [4:5]  u8 frame type  (:class:`FrameType`)
    [5:..] payload        (length - 1 bytes)

Control payloads (handshake, acks, summaries) are UTF-8 JSON.  Data
payloads (:attr:`FrameType.CHUNK`) are **format v2 columnar blocks**
(:mod:`repro.trace.columnar`) — the exact bytes a ``.wlt2`` file holds,
so the protocol reuses the trace store's one reader/writer pair, every
chunk is self-describing (spec, counts, column table), and the server
can ship a chunk to a pool worker through a shared-memory
:class:`~repro.parallel.RingTransport` slot without re-encoding.

Session flow (client frames on the left, server on the right)::

    HELLO {session, name, spec, packets_sent, ...}
                                HELLO_OK {session, window_chunks, ...}
    CHUNK <v2 block>            ACK {records, chunks}      (per chunk)
    CHUNK <v2 block>            ...
    END {}                      SUMMARY {records, counts, ...}

Flow control: the server advertises ``window_chunks`` in HELLO_OK; a
well-behaved client keeps at most that many un-ACKed chunks in flight.
Misbehaving clients are still bounded — the server parks excess chunks
against a bounded per-session queue and simply stops reading the
socket while it is full, so TCP backpressure does the rest.
"""

from __future__ import annotations

import asyncio
import enum
import io
import json
from typing import Optional, Union

from repro.trace.columnar import (
    ColumnarTrace,
    read_columnar_buffer,
    spec_from_dict,
    spec_to_dict,
    write_columnar,
)

PROTOCOL_VERSION = 1

#: Upper bound on one frame's payload; a peer announcing more is
#: corrupt or hostile, and the connection is dropped loudly rather
#: than buffered into oblivion.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN_BYTES = 4


class FrameType(enum.IntEnum):
    """Wire frame types (client 0x0x, server 0x8x)."""

    HELLO = 0x01
    CHUNK = 0x02
    END = 0x03
    CHUNK_REF = 0x04
    HELLO_OK = 0x81
    ACK = 0x82
    SUMMARY = 0x83
    ERROR = 0x84


class ProtocolError(ValueError):
    """A malformed, truncated, or out-of-sequence frame."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def frame(frame_type: FrameType, payload: bytes = b"") -> bytes:
    """One encoded frame: length prefix + type byte + payload."""
    if len(payload) + 1 > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return (
        (len(payload) + 1).to_bytes(_LEN_BYTES, "big")
        + bytes([frame_type])
        + payload
    )


def write_frame(
    writer: asyncio.StreamWriter, frame_type: FrameType, payload: bytes = b""
) -> None:
    """Queue one frame on the stream (caller drains)."""
    writer.write(frame(frame_type, payload))


class FrameReader:
    """The frame decoder: both ends read every frame through one.

    The reader pulls large blocks (``read_bytes`` at a time) into one
    reusable ``bytearray`` and carves frames out of it, so a burst of
    buffered chunks costs one syscall and zero per-frame copies, where
    a ``readexactly`` per length prefix and per body would cost two
    event-loop round-trips and two bytes objects per frame.

    The payload comes back as a :class:`memoryview` into the internal
    buffer, valid **only until the next** :meth:`read_frame` call —
    the next call releases it and may compact or refill the buffer
    underneath.  Callers copy out what they keep (into a ring slot, a
    bytes object, a decoded trace); the hot path copies exactly once,
    straight to its destination.

    ``None`` at EOF on a frame boundary; EOF *inside* a frame — a peer
    dying mid-send — raises :class:`ProtocolError`, so truncation is
    never mistaken for a clean goodbye (the stance the columnar store
    takes on missing trailers).  So do a length outside
    ``[1, MAX_FRAME_BYTES]`` and an unknown frame type.
    """

    _COMPACT_BYTES = 1 << 16

    def __init__(
        self, reader: asyncio.StreamReader, read_bytes: int = 1 << 20
    ) -> None:
        self._reader = reader
        self._read_bytes = read_bytes
        self._buf = bytearray()
        self._pos = 0
        self._view: Optional[memoryview] = None

    async def _fill(self, total: int) -> bool:
        """Grow the buffer to ``total`` unconsumed bytes; False on EOF."""
        target = self._pos + total
        while len(self._buf) < target:
            data = await self._reader.read(
                max(self._read_bytes, target - len(self._buf))
            )
            if not data:
                return False
            self._buf += data
        return True

    async def read_frame(self) -> Optional[tuple[FrameType, memoryview]]:
        """Next frame as ``(type, payload_view)``; ``None`` on clean EOF."""
        if self._view is not None:
            self._view.release()
            self._view = None
        if self._pos:
            # Compact consumed bytes away — cheap when the buffer is
            # fully drained (the common case: truncate to empty), lazy
            # otherwise so back-to-back small frames don't memmove the
            # tail every call.
            if self._pos == len(self._buf):
                del self._buf[:]
                self._pos = 0
            elif self._pos >= self._COMPACT_BYTES:
                del self._buf[: self._pos]
                self._pos = 0
        if not await self._fill(_LEN_BYTES):
            if len(self._buf) - self._pos:
                raise ProtocolError(
                    "connection closed mid-frame (inside the length prefix)"
                )
            return None
        length = int.from_bytes(
            self._buf[self._pos : self._pos + _LEN_BYTES], "big"
        )
        if length < 1 or length > MAX_FRAME_BYTES:
            raise ProtocolError(f"invalid frame length {length}")
        if not await self._fill(_LEN_BYTES + length):
            raise ProtocolError(
                f"connection closed mid-frame "
                f"({len(self._buf) - self._pos - _LEN_BYTES} of "
                f"{length} bytes)"
            )
        start = self._pos + _LEN_BYTES
        try:
            frame_type = FrameType(self._buf[start])
        except ValueError as exc:
            raise ProtocolError(
                f"unknown frame type 0x{self._buf[start]:02x}"
            ) from exc
        self._pos = start + length
        self._view = memoryview(self._buf)[start + 1 : self._pos]
        return frame_type, self._view


# ----------------------------------------------------------------------
# Control payloads
# ----------------------------------------------------------------------
def encode_json(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def decode_json(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed control payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("control payload must be a JSON object")
    return obj


def hello_payload(
    session: str,
    name: str,
    spec,
    packets_sent: int,
    total_records: Optional[int] = None,
    shm_ring: bool = False,
    chunk_bytes: Optional[int] = None,
) -> bytes:
    """The handshake: everything the matcher needs before frame one.

    ``shm_ring=True`` asks the server to grant direct access to the
    session's shared-memory slot ring (same-host clients only): the
    grant comes back in HELLO_OK as ``{"ring": {name, slots,
    slot_bytes}}``, after which the client writes chunk payloads into
    slots itself and sends tiny :attr:`FrameType.CHUNK_REF` frames in
    place of full CHUNK payloads — the socket stops carrying frame
    bytes entirely.  ``chunk_bytes`` (the largest payload the client
    will send) lets the server size the slots up front.
    """
    doc = {
        "version": PROTOCOL_VERSION,
        "session": session,
        "name": name,
        "spec": spec_to_dict(spec),
        "packets_sent": packets_sent,
    }
    if total_records is not None:
        doc["total_records"] = total_records
    if shm_ring:
        doc["shm_ring"] = True
    if chunk_bytes is not None:
        doc["chunk_bytes"] = int(chunk_bytes)
    return encode_json(doc)


def parse_hello(payload: bytes) -> dict:
    doc = decode_json(payload)
    if doc.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {doc.get('version')} "
            f"(this server speaks {PROTOCOL_VERSION})"
        )
    for key in ("session", "name", "spec", "packets_sent"):
        if key not in doc:
            raise ProtocolError(f"HELLO missing {key!r}")
    if not _is_int(doc["packets_sent"], 0, None):
        raise ProtocolError(
            f"HELLO packets_sent {doc['packets_sent']!r} is not a count"
        )
    # A chunk sizes the ring slots; it can be no larger than a frame.
    if "chunk_bytes" in doc and not _is_int(
        doc["chunk_bytes"], 1, MAX_FRAME_BYTES
    ):
        raise ProtocolError(
            f"HELLO chunk_bytes {doc['chunk_bytes']!r} is not a size in "
            f"[1, {MAX_FRAME_BYTES}]"
        )
    try:
        doc["spec"] = spec_from_dict(doc["spec"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"HELLO carries a malformed spec: {exc}") from exc
    return doc


def _is_int(value: object, low: int, high: Optional[int]) -> bool:
    """``value`` is a JSON integer (not a bool) in ``[low, high]``."""
    return (
        type(value) is int
        and value >= low
        and (high is None or value <= high)
    )


def chunk_ref_payload(slot: int, nbytes: int) -> bytes:
    """A CHUNK_REF frame body: the chunk is already in ring slot
    ``slot`` (first ``nbytes`` bytes), written there by the client."""
    return encode_json({"slot": int(slot), "nbytes": int(nbytes)})


def parse_chunk_ref(payload: Union[bytes, memoryview]) -> tuple[int, int]:
    doc = decode_json(bytes(payload))
    try:
        slot = int(doc["slot"])
        nbytes = int(doc["nbytes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed CHUNK_REF: {exc}") from exc
    if slot < 0 or nbytes < 1:
        raise ProtocolError(
            f"CHUNK_REF out of range (slot={slot}, nbytes={nbytes})"
        )
    return slot, nbytes


# ----------------------------------------------------------------------
# Data payloads
# ----------------------------------------------------------------------
def encode_chunk(
    trace: ColumnarTrace, start: int = 0, stop: Optional[int] = None
) -> bytes:
    """Rows ``[start, stop)`` of ``trace`` as one CHUNK payload.

    The payload is a complete v2 columnar block (magic, payload,
    columns, footer, trailer) of just those rows — self-describing and
    truncation-detectable on its own.
    """
    if stop is None:
        stop = trace.packets_received
    buffer = io.BytesIO()
    write_columnar(trace.slice(start, stop), buffer)
    return buffer.getvalue()


def decode_chunk(
    payload: Union[bytes, memoryview], origin: str = "<chunk>"
) -> ColumnarTrace:
    """A CHUNK payload back as a zero-copy columnar trace.

    Columns are views into ``payload``; the trace pins the buffer as
    its backing so the caller may drop their reference.
    """
    return read_columnar_buffer(payload, origin=origin, backing=payload)
