"""Structured run telemetry: the JSONL sink and the simulator tracer.

The telemetry file follows the same conventions as the trial-trace
format (docs/TRACE_FORMAT.md): JSON-lines, gzipped when the filename
ends in ``.gz``, a self-describing header on line 1, and a reader that
refuses unknown versions loudly.  Record types after the header:

* ``event`` — one fired simulator event (name, sim time, queueing
  delay, handler wall-clock, queue depth after firing);
* ``manifest`` — one per-experiment run manifest (see
  :mod:`repro.obs.manifest`);
* ``metrics`` — a full metrics snapshot, normally emitted once when the
  observability session closes.

The schema is documented in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import gzip
import io
import json
import time
from pathlib import Path
from typing import IO, Iterator, Optional, Union

TELEMETRY_FORMAT = 1
TELEMETRY_KIND = "repro-telemetry"

PathLike = Union[str, Path]


class _DeterministicGzip(gzip.GzipFile):
    """Gzip writer whose member header carries no timestamp/filename.

    ``gzip.open`` stamps the current time (and lifts the target name)
    into the header, making identical contents compare unequal.  Owning
    the raw stream and passing ``mtime=0`` with an empty ``filename``
    drops both fields.
    """

    def __init__(self, path: Path) -> None:
        self._raw = open(path, "wb")
        super().__init__(filename="", fileobj=self._raw, mode="wb", mtime=0)

    def close(self) -> None:
        try:
            super().close()
        finally:
            self._raw.close()


def open_jsonl(path: PathLike, mode: str) -> IO:
    """A UTF-8 text stream on a JSON-lines file, gzipped by ``.gz`` suffix.

    Telemetry files and v1 trial traces share this convention.  A
    written ``.gz`` file is byte-deterministic (member header with
    mtime 0, no filename), so the serial-vs-``jobs=N`` byte-identity
    invariants extend to compressed traces and shard families.
    """
    path = Path(path)
    if path.suffix == ".gz":
        if "w" in mode:
            return io.TextIOWrapper(_DeterministicGzip(path), encoding="utf-8")
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


class JsonlTelemetrySink:
    """Append-only JSONL telemetry writer.

    Writes the header eagerly so even an aborted run leaves a valid,
    identifiable file.  ``emit`` takes any JSON-serializable mapping
    with a ``type`` key; the sink never rewrites or buffers records
    beyond the underlying stream's own buffering.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.records_written = 0
        self._stream: Optional[IO] = open_jsonl(path, "w")
        self._stream.write(json.dumps({
            "format": TELEMETRY_FORMAT,
            "kind": TELEMETRY_KIND,
            "created_unix": time.time(),
        }) + "\n")

    def emit(self, record: dict) -> None:
        if self._stream is None:
            raise ValueError(f"{self.path}: telemetry sink already closed")
        self._stream.write(json.dumps(record) + "\n")
        self.records_written += 1

    def flush(self) -> None:
        """Push buffered records to disk now.

        Worker processes of a parallel run exit through ``os._exit``
        (multiprocessing skips ``atexit``), which discards stream
        buffers — so shard sinks flush after every record batch.
        """
        if self._stream is not None:
            self._stream.flush()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "JsonlTelemetrySink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _read_header(path: PathLike, stream: IO) -> dict:
    """Read and validate the line-1 header of an open telemetry stream."""
    header_line = stream.readline()
    if not header_line:
        raise ValueError(f"{path}: empty telemetry file")
    header = json.loads(header_line)
    if header.get("kind") != TELEMETRY_KIND:
        raise ValueError(f"{path}: not a telemetry file")
    if header.get("format") != TELEMETRY_FORMAT:
        raise ValueError(
            f"{path}: format {header.get('format')} "
            f"(this reader supports {TELEMETRY_FORMAT})"
        )
    return header


def read_telemetry_header(path: PathLike) -> dict:
    """Read just the validated line-1 header of a telemetry file."""
    with open_jsonl(path, "r") as stream:
        return _read_header(path, stream)


def read_telemetry(path: PathLike) -> tuple[dict, list[dict]]:
    """Read a telemetry file; returns ``(header, records)``.

    Raises ValueError on kind/format mismatches — same contract as the
    trial-trace reader.  Loads the whole file; for multi-GB telemetry
    families prefer the streaming :func:`iter_telemetry`.
    """
    with open_jsonl(path, "r") as stream:
        header = _read_header(path, stream)
        records = [json.loads(line) for line in stream if line.strip()]
    return header, records


def iter_telemetry(path: PathLike) -> Iterator[dict]:
    """Stream records one at a time (header validated and skipped).

    A true generator over the open stream — constant memory however
    large the file, which is what lets ``stats`` fold multi-GB shard
    directories.  Header validation errors raise on the first
    ``next()``, matching :func:`read_telemetry`'s contract.
    """
    with open_jsonl(path, "r") as stream:
        _read_header(path, stream)
        for line in stream:
            if line.strip():
                yield json.loads(line)


class EventTracer:
    """Per-event tracing hook the :class:`~repro.simkit.simulator.Simulator`
    calls from its dispatch loop.

    ``sample_every`` thins the record stream (1 = every event); the
    aggregate histograms in the metrics registry are unaffected by
    sampling, so summaries stay exact even when the event log is thinned.
    """

    def __init__(self, sink: JsonlTelemetrySink, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.sink = sink
        self.sample_every = sample_every
        self.events_seen = 0

    def event_fired(
        self,
        name: str,
        sim_time: float,
        created_time: float,
        duration_s: float,
        queue_depth: int,
    ) -> None:
        self.events_seen += 1
        if self.events_seen % self.sample_every:
            return
        self.sink.emit({
            "type": "event",
            "name": name,
            "sim_t": sim_time,
            "queued_s": sim_time - created_time,
            "dur_us": duration_s * 1e6,
            "queue_depth": queue_depth,
        })
