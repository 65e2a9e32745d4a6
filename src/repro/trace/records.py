"""Trace records: what the paper's modified driver logged.

A :class:`PacketRecord` holds the raw received bytes (possibly damaged,
possibly truncated, possibly not a test packet at all) plus the modem
status registers.  The analysis package consumes *only* this artifact —
it re-identifies test packets heuristically, exactly as the paper's
offline tooling had to.

A record is one row as an event-driven source logs it (the MAC
receiver, a v1 trace line); every source hands its rows on as one
:class:`~repro.trace.columnar.ColumnarTrace`, the only in-memory trial
trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.phy.modem import ModemRxStatus


@dataclass
class PacketRecord:
    """One received packet: every bit, plus the status registers."""

    status: ModemRxStatus
    time: float = 0.0
    _data: Optional[bytes] = None

    @classmethod
    def from_bytes(
        cls, data: bytes, status: ModemRxStatus, time: float = 0.0
    ) -> "PacketRecord":
        return cls(status=status, time=time, _data=data)

    @property
    def data(self) -> bytes:
        if self._data is None:
            raise ValueError("empty PacketRecord")
        return self._data

    @property
    def length(self) -> int:
        return len(self.data)


class LazyRecordList(list):
    """Exists only because ``perfbench/layertrace.py`` wraps
    ``LazyRecordList._materialize`` by name; nothing builds one.  Fast
    trials return columns (:class:`~repro.trace.columnar.ColumnarTrace`).
    """

    def _materialize(self) -> None:
        """Exists only for ``perfbench/layertrace.py``; never called."""
