"""A WaveLAN host: position + modem + controller + MAC."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.environment.geometry import Point
from repro.framing.ethernet import MacAddress
from repro.mac.controller import ControllerConfig, LanController
from repro.obs import runtime as _obs
from repro.obs.metrics import CounterHandle
from repro.phy.modem import ModemConfig, ModemRxStatus, WaveLanModem


@dataclass
class ReceivedFrame:
    """One frame as logged by a station (bytes + modem status + time)."""

    data: bytes
    status: ModemRxStatus
    time: float
    crc_ok: Optional[bool] = None


@dataclass
class LinkStation:
    """One WaveLAN unit in a scenario.

    The MAC is attached by the channel/scenario wiring (it needs the
    simulator and medium); receive logging is always on — stations
    append everything their controller accepts to :attr:`log`, the same
    artifact the paper's modified device driver produced.
    """

    station_id: int
    position: Point
    mac_address: MacAddress
    modem: WaveLanModem = field(default_factory=WaveLanModem)
    controller: Optional[LanController] = None
    on_receive: Optional[Callable[[ReceivedFrame], None]] = None
    log: list[ReceivedFrame] = field(default_factory=list)

    _frames_logged: CounterHandle = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.controller is None:
            self.controller = LanController(
                ControllerConfig(station_address=self.mac_address)
            )
        self._frames_logged = _obs.STATE.metrics.handle("link.frames_logged")

    @classmethod
    def tracing_station(
        cls,
        station_id: int,
        position: Point,
        modem_config: ModemConfig | None = None,
    ) -> "LinkStation":
        """A station configured like the paper's receiver: promiscuous,
        CRC filtering disabled, everything logged."""
        mac_address = MacAddress.station(station_id)
        controller = LanController(
            ControllerConfig(
                station_address=mac_address,
                promiscuous=True,
                check_crc=False,
            )
        )
        return cls(
            station_id=station_id,
            position=position,
            mac_address=mac_address,
            modem=WaveLanModem(config=modem_config or ModemConfig()),
            controller=controller,
        )

    def deliver(self, frame: ReceivedFrame) -> None:
        """Called by the channel when the controller accepted a frame."""
        self.log.append(frame)
        self._frames_logged.inc()
        if self.on_receive is not None:
            self.on_receive(frame)

    @property
    def receive_threshold(self) -> int:
        return self.modem.config.receive_threshold
