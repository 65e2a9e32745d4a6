"""Trace records: what the paper's modified driver logged.

A :class:`PacketRecord` holds the raw received bytes (possibly damaged,
possibly truncated, possibly not a test packet at all) plus the modem
status registers.  The analysis package consumes *only* this artifact —
it re-identifies test packets heuristically, exactly as the paper's
offline tooling had to.

Record lists are what event-driven sources produce (the MAC trial's
receiver log, v1 trace files); the vectorized trial and the analysis
work on the columnar form of the same bytes
(:class:`~repro.trace.columnar.ColumnarTrace`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.framing.testpacket import TestPacketSpec
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


@dataclass
class TrialTrace:
    """Everything one trial produced, as the offline analysis sees it.

    ``packets_sent`` is ground truth the experimenters knew (they ran
    the sender); everything else must be inferred from ``records``.
    """

    name: str
    spec: TestPacketSpec
    packets_sent: int
    records: list[PacketRecord] = field(default_factory=list)
    first_sequence: int = 0

    @property
    def packets_received(self) -> int:
        return len(self.records)

    def extend(self, other: "TrialTrace") -> None:
        """Aggregate another burst into this trial (paper: "aggregating
        multiple bursts to form a long trial")."""
        if other.spec != self.spec:
            raise ValueError("cannot aggregate traces with different specs")
        self.packets_sent += other.packets_sent
        self.records.extend(other.records)
