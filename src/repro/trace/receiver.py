"""The promiscuous trace recorder.

Wraps a :class:`~repro.link.station.LinkStation` so everything its
controller accepts lands in a list of ``PacketRecord`` rows
— the software equivalent of the paper's modified NetBSD driver
("place both the Ethernet controller and the modem control unit into
'promiscuous' mode and ... log, for each incoming packet, every bit
and all available status information").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.framing.testpacket import TestPacketSpec
from repro.link.station import LinkStation, ReceivedFrame
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import PacketRecord


@dataclass
class TraceRecorder:
    """Attach to a station; harvest its receptions into a trace."""

    station: LinkStation
    spec: TestPacketSpec = field(default_factory=TestPacketSpec.default)
    trial_name: str = "recorded"
    records: list[PacketRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        previous = self.station.on_receive

        def hook(frame: ReceivedFrame) -> None:
            self.records.append(
                PacketRecord.from_bytes(frame.data, frame.status, frame.time)
            )
            if previous is not None:
                previous(frame)

        self.station.on_receive = hook

    @property
    def packets_recorded(self) -> int:
        return len(self.records)

    def to_trace(self, packets_sent: int) -> ColumnarTrace:
        """The recording so far as an analyzable trial trace.

        ``packets_sent`` is ground truth the experimenter supplies (they
        ran the sender), exactly as in the paper.
        """
        return ColumnarTrace.from_records(
            self.records, self.trial_name, self.spec, packets_sent
        )

    def reset(self) -> None:
        """Discard the recording (start a new burst)."""
        self.records.clear()
