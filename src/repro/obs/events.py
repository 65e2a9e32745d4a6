"""Structured run telemetry: the JSONL sink and its readers.

The telemetry file follows the same conventions as the trial-trace
format (docs/TRACE_FORMAT.md): JSON-lines, gzipped when the filename
ends in ``.gz``, a self-describing header on line 1 (carrying the git
revision that wrote it), and a reader that refuses unknown versions
loudly.  Record types after the header:

* ``span`` — one finished trace span (see :mod:`repro.obs.spans`),
  the run's only per-experiment and per-task record;
* ``heartbeat`` — live progress (see :func:`repro.obs.emit_heartbeat`);
* ``metrics`` — the final counter snapshot, normally emitted once when
  the observability session closes.

The schema is documented in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import functools
import gzip
import io
import json
import subprocess
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


@functools.lru_cache(maxsize=1)
def git_revision() -> Optional[str]:
    """Short git revision of the working tree, or None outside a repo.

    Read once per process (forked pool workers inherit the answer), so
    shard headers cost no extra ``git`` call.
    """
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


class JsonlTelemetrySink:
    """Append-only JSONL telemetry writer.

    Writes the header eagerly so even an aborted run leaves a valid,
    identifiable file; the header records the git revision once per
    file.  ``emit`` takes any JSON-serializable mapping with a ``type``
    key; the sink never rewrites or buffers records beyond the
    underlying stream's own buffering.

    Opening a parent file (not a shard) deletes that path's existing
    shard family, so the family only ever holds the shards of the
    session writing it (see :mod:`repro.parallel.shards`).
    """

    def __init__(self, path: PathLike) -> None:
        from repro.parallel.shards import remove_shards

        self.path = Path(path)
        self.records_written = 0
        self._stream: Optional[IO] = open_jsonl(path, "w")
        remove_shards(self.path)
        self._stream.write(json.dumps({
            "format": TELEMETRY_FORMAT,
            "kind": TELEMETRY_KIND,
            "created_unix": time.time(),
            "git_rev": git_revision(),
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
