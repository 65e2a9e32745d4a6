"""Telemetry shard naming and discovery for parallel runs.

A parallel run with ``--telemetry run.jsonl --jobs N`` produces the
parent file ``run.jsonl`` (the parent's spans + final merged metrics)
plus one shard per worker process — ``run.shard-000.jsonl``,
``run.shard-001.jsonl``, … — holding that worker's task spans, the
spans nested in them, and its event records.  The ``stats`` and
``timeline`` subcommands discover the shards automatically and read
the whole family as one stream.

A family holds exactly one session's shards: opening the parent file
deletes the shards already next to it (:func:`remove_shards`), and
every pool of a session numbers its workers after the shards the
session already wrote, so a second pool never reopens the first's.

Shard names derive deterministically from the parent path: the
``.jsonl`` / ``.jsonl.gz`` suffix is preserved (so gzip-by-suffix keeps
working) and the worker index is zero-padded for stable sort order.
Gzipped shards are also byte-deterministic in content: the telemetry
writer (:func:`repro.obs.events.open_jsonl`) pins the gzip member
header's mtime to zero and embeds no filename, so re-running a parallel
experiment produces bit-identical ``.gz`` shard families.
"""

from __future__ import annotations

import glob
from pathlib import Path

_SUFFIXES = (".jsonl.gz", ".jsonl", ".gz")
SHARD_TAG = ".shard-"


def split_suffix(path: Path) -> tuple[str, str]:
    """Split ``run.jsonl.gz`` into ``("run", ".jsonl.gz")``.

    Paths without a recognized telemetry suffix keep their name whole
    and get shards named ``<name>.shard-NNN`` (no extension).
    """
    name = path.name
    for suffix in _SUFFIXES:
        if name.endswith(suffix) and len(name) > len(suffix):
            return name[: -len(suffix)], suffix
    return name, ""


def shard_path(parent: str | Path, index: int) -> Path:
    """The telemetry path worker ``index`` of a parallel run writes to."""
    parent = Path(parent)
    stem, suffix = split_suffix(parent)
    return parent.with_name(f"{stem}{SHARD_TAG}{index:03d}{suffix}")


def find_shards(parent: str | Path) -> list[Path]:
    """All existing shard files of ``parent``, in worker-index order.

    Returns an empty list for a serial run (no shards) or when
    ``parent`` is itself a shard (shards have no sub-shards).
    """
    parent = Path(parent)
    stem, suffix = split_suffix(parent)
    if SHARD_TAG in stem:
        return []
    # Escaped: a name with glob characters must not match (and, through
    # remove_shards, delete) another family's shards.
    pattern = f"{glob.escape(stem)}{SHARD_TAG}*{glob.escape(suffix)}"
    directory = parent.parent if parent.parent != Path("") else Path(".")
    return sorted(directory.glob(pattern))


def remove_shards(parent: str | Path) -> None:
    """Delete every existing shard file of ``parent`` (none for a shard)."""
    for shard in find_shards(parent):
        shard.unlink(missing_ok=True)
