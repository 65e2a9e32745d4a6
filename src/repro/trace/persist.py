"""Trace persistence: save and reload trial traces.

The paper's workflow was capture-then-analyze-offline; a library user
wants the same separation — run a long capture once, keep the trace,
iterate on analysis.  Two formats are supported (docs/TRACE_FORMAT.md):

* **v1 — JSON-lines** (optionally gzipped by ``.gz`` extension):
  line 1 the trial header, each further line one packet record with
  hex-encoded bytes.  Deliberately self-describing and greppable; the
  interchange format for traces captured from real hardware.
* **v2 — columnar binary** (:mod:`repro.trace.columnar`): a flat
  frame-bytes payload plus contiguous numpy columns and a JSON footer,
  loaded via ``np.memmap`` so the analysis pipeline consumes the
  columns zero-copy.  The performance format for large traces.

``load_trace`` auto-detects the format from the file's leading bytes
(v2 magic / gzip magic / JSON), never from the filename.  ``save_trace``
picks v2 for the ``.wlt2`` suffix and v1 otherwise unless ``format=``
overrides.  Gzipped v1 output is byte-deterministic: the gzip member
header is written with ``mtime=0`` and no embedded filename, so two
identical saves produce identical files (the serial-vs-``jobs=N``
byte-identity invariants extend to compressed artifacts).
"""

from __future__ import annotations

import gzip
import json
import zlib
from pathlib import Path
from typing import Optional, Union

from repro.obs import runtime as _obs
from repro.obs.events import open_jsonl
from repro.phy.modem import ModemRxStatus
from repro.trace import columnar
from repro.trace.columnar import (
    ColumnarTrace,
    read_columnar,
    spec_from_dict,
    spec_to_dict,
    transient_payload,
    write_columnar,
)
from repro.trace.records import PacketRecord

FORMAT_VERSION = 1
GZIP_MAGIC = b"\x1f\x8b"

PathLike = Union[str, Path]

def _infer_save_format(path: PathLike, format: Optional[str]) -> str:
    if format is not None:
        if format not in ("v1", "v2"):
            raise ValueError(f"unknown trace format {format!r}")
        return format
    return "v2" if Path(path).suffix == columnar.V2_SUFFIX else "v1"


def save_trace(
    trace: ColumnarTrace, path: PathLike, format: Optional[str] = None
) -> None:
    """Write a trace to ``path``.

    ``format`` is ``"v1"`` (JSON-lines; gzipped when the name ends in
    ``.gz``) or ``"v2"`` (columnar binary); when omitted it is inferred
    from the suffix — ``.wlt2`` means v2, anything else v1, preserving
    the historical behaviour of every existing call site.
    """
    fmt = _infer_save_format(path, format)
    with _obs.trace_span("trace.save", path=str(path), format=fmt):
        _save_trace(trace, path, fmt)


def _save_trace(trace: ColumnarTrace, path: PathLike, fmt: str) -> None:
    if fmt == "v2":
        write_columnar(trace, path)
        return
    with open_jsonl(path, "w") as stream:
        header = {
            "format": FORMAT_VERSION,
            "kind": "wavelan-trial-trace",
            "name": trace.name,
            "packets_sent": trace.packets_sent,
            "spec": spec_to_dict(trace.spec),
        }
        stream.write(json.dumps(header) + "\n")
        payload = transient_payload(trace)
        columns = zip(
            trace.times.tolist(),
            trace.levels.tolist(),
            trace.silences.tolist(),
            trace.qualities.tolist(),
            trace.antennas.tolist(),
            trace.offsets.tolist(),
            trace.lengths.tolist(),
        )
        for time, level, silence, quality, antenna, offset, length in columns:
            line = {
                "t": time,
                "lvl": level,
                "sil": silence,
                "q": quality,
                "ant": antenna,
                "data": payload[offset : offset + length].tobytes().hex(),
            }
            stream.write(json.dumps(line) + "\n")


def load_trace(path: PathLike) -> ColumnarTrace:
    """Read a trace written by :func:`save_trace`, either format.

    The format is sniffed from the file's first bytes: the v2 magic
    selects the zero-copy columnar reader, anything else the v1
    JSON-lines reader, whose records are columnarized once.  Both
    return a :class:`ColumnarTrace`.  Every malformed file raises
    ValueError naming it — version/kind mismatches, malformed headers
    and record lines, and a damaged gzip stream or undecodable text
    alike; the formats are simple enough that failing loudly beats
    guessing.
    """
    with open(path, "rb") as probe:
        head = probe.read(len(columnar.MAGIC))
    if head == columnar.MAGIC:
        with _obs.trace_span("trace.load", path=str(path), format="v2"):
            return read_columnar(path)
    with _obs.trace_span("trace.load", path=str(path), format="v1"):
        try:
            return _load_v1(path)
        except (EOFError, gzip.BadGzipFile, zlib.error, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: unreadable trace file: {exc!r}") from exc


def _integer(value, what: str) -> int:
    """``value`` if it is a JSON integer (a bool is not one)."""
    if type(value) is not int:
        raise ValueError(f"{what} is {value!r}, not an integer")
    return value


def _time(value) -> float:
    """``value`` if it is a JSON number (a bool is not one)."""
    if type(value) not in (int, float):
        raise ValueError(f"time 't' is {value!r}, not a number")
    return value


def _load_v1(path: PathLike) -> ColumnarTrace:
    """The JSON-lines reader behind :func:`load_trace`.

    Values must be what the format says: the four registers and the
    header's ``packets_sent`` (also ``>= 0``) JSON integers, ``t`` a
    JSON number.  Anything else — a string, a bool, a fraction — fails
    naming the file and line rather than being coerced.
    """
    with open_jsonl(path, "r") as stream:
        header_line = stream.readline()
        if not header_line:
            raise ValueError(f"{path}: empty trace file")
        try:
            header = json.loads(header_line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{path}:1: malformed trace header: {exc}") from exc
        if not isinstance(header, dict) or header.get("kind") != "wavelan-trial-trace":
            raise ValueError(f"{path}: not a trial trace file")
        if header.get("format") != FORMAT_VERSION:
            raise ValueError(
                f"{path}: format {header.get('format')} "
                f"(this reader supports {FORMAT_VERSION})"
            )
        try:
            name = header["name"]
            spec = spec_from_dict(header["spec"])
            packets_sent = _integer(header["packets_sent"], "packets_sent")
            if packets_sent < 0:
                raise ValueError(f"packets_sent is {packets_sent}, below 0")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:1: malformed trace header: {exc!r}") from exc
        records = []
        for lineno, line in enumerate(stream, start=2):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                status = ModemRxStatus(
                    signal_level=_integer(entry["lvl"], "register 'lvl'"),
                    silence_level=_integer(entry["sil"], "register 'sil'"),
                    signal_quality=_integer(entry["q"], "register 'q'"),
                    antenna=_integer(entry["ant"], "register 'ant'"),
                )
                record = PacketRecord.from_bytes(
                    bytes.fromhex(entry["data"]), status, _time(entry["t"])
                )
            except (
                json.JSONDecodeError, KeyError, TypeError, ValueError,
                RecursionError,
            ) as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed trace record: {exc!r}"
                ) from exc
            records.append(record)
    try:
        return ColumnarTrace.from_records(records, name, spec, packets_sent)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed trace record: {exc!r}") from exc
