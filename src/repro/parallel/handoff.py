"""Shared-memory ring transport for the streaming ingest service.

Batch pool results need no transport of their own: a worker returns
its :class:`~repro.trace.columnar.ColumnarTrace` or
:class:`~repro.analysis.classify.ClassifiedTrace` as a plain value and
pickle moves the numpy columns (a simulated trial whose frames were
never read pickles its frame builder, not the frames).

A streaming session is different: it sends thousands of same-sized
chunks to one sticky worker, so each session gets a
:class:`RingTransport` of reusable shared-memory slots.  A chunk that
finds no free slot (or does not fit one) travels as plain bytes in the
task arguments instead, counted as a ring overflow.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from typing import Optional

from repro.trace.columnar import ColumnarTrace, read_columnar_buffer


_RING_COUNTER = 0


def _untrack_shm(name: str) -> None:
    """Remove ``name`` from this process's shm resource tracker.

    Creating *or attaching* a segment registers it (CPython <=3.12),
    and forked pool workers share the parent's tracker — so explicit
    lifecycle management has to unregister on both sides or the
    tracker ends up double-removing one name and warning about it.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # pragma: no cover - tracker impl detail
        pass


@dataclass(frozen=True)
class RingSlotHandle:
    """A picklable lease on one slot of a :class:`RingTransport`.

    Loading a slot does **not** consume it — the slot belongs to the
    ring owner, who releases it back to the free list after the
    worker's result arrives.  The handle is
    just coordinates: which ring, which slot, how many bytes are live.
    """

    ring: str
    index: int
    offset: int
    nbytes: int


class RingTransport:
    """A preallocated ring of reusable shared-memory slots.

    A per-chunk shared-memory block would pay a segment create +
    resource-tracker dance + unlink for every chunk.  A streaming
    session sends thousands of same-sized chunks; the ring pays the
    segment cost **once**, then every chunk is a single ``memcpy`` into
    a leased slot and a free-list push when the verdict comes back.  Steady state: zero allocations, zero
    filesystem traffic, zero kernel object churn.

    Overflow is loud, never silent: :meth:`lease` returns ``None`` when
    no slot is free or the payload exceeds ``slot_bytes``, bumps the
    ``overflows`` counter, and the caller sends the payload as plain
    bytes instead.  :meth:`stats` reports ``leases`` /
    ``overflows`` / ``max_in_use`` so a mis-sized ring shows up in
    summaries and metrics instead of as mystery latency.

    Single-owner discipline: the creating process leases, releases and
    closes; workers only attach read-only views via
    :func:`load_ring_slot`.  ``close()`` unlinks the segment — call it
    exactly once, when the session ends.
    """

    def __init__(
        self,
        slots: int,
        slot_bytes: int,
        name: Optional[str] = None,
    ) -> None:
        from multiprocessing import shared_memory

        if slots <= 0:
            raise ValueError("ring needs at least one slot")
        if slot_bytes <= 0:
            raise ValueError("ring slots need positive capacity")
        global _RING_COUNTER
        _RING_COUNTER += 1
        self.name = name or f"repro_ring_{os.getpid()}_{_RING_COUNTER}"
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._block = shared_memory.SharedMemory(
            name=self.name, create=True, size=slots * slot_bytes
        )
        # The ring's lifetime is managed explicitly (``close`` unlinks
        # it); take it out of the resource tracker's hands so parent
        # and forked workers — who share one tracker — never fight
        # over the same registration.
        _untrack_shm(self.name)
        # LIFO free list: the most recently released slot is the most
        # likely to still be warm in cache when re-leased.
        self._free = list(range(slots - 1, -1, -1))
        self._closed = False
        self.leases = 0
        self.overflows = 0
        self.max_in_use = 0

    @property
    def slots_free(self) -> int:
        return len(self._free)

    def reset(self) -> None:
        """Make the ring fresh for a new owner without recreating it.

        Rebuilds the free list and zeroes the per-session counters but
        keeps the segment — and, critically, its already-faulted pages
        — alive.  A reused ring costs warm ``memcpy``; a recreated one
        pays a page fault per 4 KiB touched, which dominates the whole
        ingest path.  Only call between owners (no slot handles may be
        outstanding).
        """
        if self._closed:
            raise ValueError(f"ring {self.name} is closed")
        self._free = list(range(self.slots - 1, -1, -1))
        self.leases = 0
        self.overflows = 0
        self.max_in_use = 0

    def lease(self, payload) -> Optional[RingSlotHandle]:
        """Copy ``payload`` into a free slot and return its handle.

        Returns ``None`` (and counts an overflow) when the payload
        exceeds slot capacity or every slot is leased out — the caller
        must send the bytes themselves; the ring never blocks and never
        drops bytes silently.
        """
        nbytes = len(payload)
        if self._closed or nbytes > self.slot_bytes or not self._free:
            self.overflows += 1
            return None
        index = self._free.pop()
        offset = index * self.slot_bytes
        self._block.buf[offset : offset + nbytes] = payload
        self.leases += 1
        in_use = self.slots - len(self._free)
        if in_use > self.max_in_use:
            self.max_in_use = in_use
        return RingSlotHandle(
            ring=self.name, index=index, offset=offset, nbytes=nbytes
        )

    def release(self, index: int) -> None:
        """Return a leased slot to the free list (owner side)."""
        if self._closed:
            return
        if not 0 <= index < self.slots:
            raise ValueError(f"slot {index} outside ring of {self.slots}")
        if index in self._free:
            raise ValueError(f"slot {index} double-released")
        self._free.append(index)

    def stats(self) -> dict:
        return {
            "slots": self.slots,
            "slot_bytes": self.slot_bytes,
            "leases": self.leases,
            "overflows": self.overflows,
            "max_in_use": self.max_in_use,
        }

    def close(self) -> None:
        """Tear the segment down (idempotent).  Owner side only."""
        if self._closed:
            return
        self._closed = True
        self._free = []
        self._block.close()
        # Unlink without going through SharedMemory.unlink(): that
        # would also unregister a name this process already untracked,
        # and the tracker complains loudly about unbalanced removals.
        try:
            import _posixshmem

            _posixshmem.shm_unlink(f"/{self.name}")
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        except ImportError:  # pragma: no cover - non-POSIX platform
            try:
                self._block.unlink()
            except FileNotFoundError:
                pass


class RingClient:
    """Same-host client access to a server-granted slot ring.

    The inverse perspective of :class:`RingTransport`: the *server*
    created and will unlink the segment; the client attaches by name,
    owns the free list (the HELLO_OK grant hands over every slot), and
    writes chunk payloads straight into slots — the socket then carries
    only slot references.  Slots come back via the ``released`` list on
    ACK frames (:meth:`reclaim`).  ``write`` returning ``None`` means
    no slot fits — the caller falls back to an ordinary full-payload
    CHUNK frame, which the server counts as a ring overflow.
    """

    def __init__(self, name: str, slots: int, slot_bytes: int) -> None:
        from multiprocessing import shared_memory

        self.name = name
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._block = shared_memory.SharedMemory(name=name)
        # The server unlinks at session end; this process must not.
        _untrack_shm(name)
        self._free = list(range(slots - 1, -1, -1))
        self.writes = 0
        self.fallbacks = 0

    @property
    def slots_free(self) -> int:
        return len(self._free)

    def write(self, payload) -> Optional[tuple[int, int]]:
        """Place ``payload`` in a free slot; ``(slot, nbytes)`` or None."""
        nbytes = len(payload)
        if nbytes > self.slot_bytes or not self._free:
            self.fallbacks += 1
            return None
        slot = self._free.pop()
        offset = slot * self.slot_bytes
        self._block.buf[offset : offset + nbytes] = payload
        self.writes += 1
        return slot, nbytes

    def reclaim(self, slots) -> None:
        """Return ACK-released slots to the free list."""
        for slot in slots:
            slot = int(slot)
            if 0 <= slot < self.slots and slot not in self._free:
                self._free.append(slot)

    def close(self) -> None:
        """Detach (never unlink — the ring belongs to the server)."""
        try:
            self._block.close()
        except BufferError:  # pragma: no cover - live views
            pass


# Worker-side attachment cache: one mmap per ring per worker process,
# reused across every chunk of the session (attach once, view many).
_ATTACHED_RINGS: dict = {}


def _attach_ring(name: str):
    from multiprocessing import shared_memory

    block = _ATTACHED_RINGS.get(name)
    if block is None:
        block = shared_memory.SharedMemory(name=name)
        # The owner controls the ring's lifetime; this worker's attach
        # must not leave a tracker registration behind.
        _untrack_shm(name)
        _ATTACHED_RINGS[name] = block
    return block


def load_ring_slot(handle: RingSlotHandle) -> ColumnarTrace:
    """Worker side: map a leased slot as a zero-copy columnar trace.

    The returned trace's columns alias the shared segment directly —
    valid until the owner reuses the slot, which by protocol cannot
    happen before the worker's result for this chunk returns.
    """
    block = _attach_ring(handle.ring)
    view = block.buf[handle.offset : handle.offset + handle.nbytes]
    try:
        return read_columnar_buffer(
            view,
            origin=f"ring://{handle.ring}/{handle.index}",
            backing=block,
        )
    except BaseException as exc:
        # The parser's frames in the traceback hold arrays over
        # ``view``, and whoever keeps the error (a future does) would
        # keep the slot exported, so the ring could never close.
        traceback.clear_frames(exc.__traceback__)
        view.release()
        raise


def detach_ring(name: str) -> None:
    """Drop this process's cached attachment to a ring (worker side).

    Raises ``BufferError`` when a view into the ring is still alive:
    the mapping cannot close then, and swallowing that would only move
    the failure to an unraisable error in ``SharedMemory.__del__``.
    """
    block = _ATTACHED_RINGS.pop(name, None)
    if block is not None:
        block.close()
