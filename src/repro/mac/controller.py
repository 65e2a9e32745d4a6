"""The 82593 LAN controller's receive path.

"Aside from the modified MAC protocol and lower data rate, the 82593
performs all standard Ethernet functions, including framing, address
recognition and filtering, CRC generation and checking" (paper, Section
2).  The paper's tracing driver put both the controller and the modem
into promiscuous mode and disabled CRC filtering so damaged packets
reached the log — this module implements both the normal filtering path
and that promiscuous path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.framing import ethernet, modem
from repro.framing.crc import check_fcs
from repro.framing.ethernet import MacAddress
from repro.obs import runtime as _obs
from repro.obs.metrics import CounterFamily


class RxFrameStatus(enum.Enum):
    """The controller's verdict on an incoming frame."""

    ACCEPTED = "accepted"
    WRONG_NETWORK_ID = "wrong_network_id"
    ADDRESS_MISMATCH = "address_mismatch"
    CRC_ERROR = "crc_error"
    RUNT = "runt"  # too short to contain a header


@dataclass
class ControllerConfig:
    """Receive-side filter configuration."""

    station_address: MacAddress
    network_id: int = modem.DEFAULT_NETWORK_ID
    promiscuous: bool = False
    filter_network_id: bool = True
    check_crc: bool = True
    accept_broadcast: bool = True


@dataclass
class RxResult:
    """Controller output for one frame offered by the modem."""

    status: RxFrameStatus
    ethernet_bytes: Optional[bytes] = None
    crc_ok: Optional[bool] = None

    @property
    def delivered(self) -> bool:
        return self.status is RxFrameStatus.ACCEPTED


@dataclass
class LanController:
    """Filters modem frames down to host-visible Ethernet frames."""

    config: ControllerConfig
    stats: dict[RxFrameStatus, int] = field(default_factory=dict)
    _rx: CounterFamily = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._rx = _obs.STATE.metrics.family("mac.controller_rx", "status")

    def _count(self, status: RxFrameStatus) -> None:
        self.stats[status] = self.stats.get(status, 0) + 1
        self._rx[status.value].inc()

    def receive(self, modem_frame: bytes) -> RxResult:
        """Apply network-ID, length, address and CRC filters.

        In promiscuous mode with CRC checking disabled — the paper's
        tracing configuration — everything parseable is accepted; the
        CRC verdict is still computed and reported so the analysis can
        classify wrapper damage.
        """
        if len(modem_frame) < modem.NETWORK_ID_LEN:
            self._count(RxFrameStatus.RUNT)
            return RxResult(RxFrameStatus.RUNT)
        parsed = modem.ModemFrame.parse(modem_frame)

        if self.config.filter_network_id and not self.config.promiscuous:
            if not parsed.matches(self.config.network_id):
                self._count(RxFrameStatus.WRONG_NETWORK_ID)
                return RxResult(RxFrameStatus.WRONG_NETWORK_ID)

        eth_bytes = parsed.ethernet
        if len(eth_bytes) < ethernet.HEADER_LEN:
            self._count(RxFrameStatus.RUNT)
            return RxResult(RxFrameStatus.RUNT, ethernet_bytes=eth_bytes)

        crc_ok: Optional[bool] = None
        if len(eth_bytes) >= ethernet.HEADER_LEN + ethernet.FCS_LEN:
            crc_ok = check_fcs(eth_bytes)

        if not self.config.promiscuous:
            dst = MacAddress(eth_bytes[0:6])
            is_mine = dst.octets == self.config.station_address.octets
            is_broadcast = (
                self.config.accept_broadcast and dst.octets == b"\xff" * 6
            )
            if not (is_mine or is_broadcast or dst.is_multicast):
                self._count(RxFrameStatus.ADDRESS_MISMATCH)
                return RxResult(
                    RxFrameStatus.ADDRESS_MISMATCH, ethernet_bytes=eth_bytes
                )
            if self.config.check_crc and crc_ok is False:
                self._count(RxFrameStatus.CRC_ERROR)
                return RxResult(
                    RxFrameStatus.CRC_ERROR, ethernet_bytes=eth_bytes, crc_ok=False
                )

        self._count(RxFrameStatus.ACCEPTED)
        return RxResult(RxFrameStatus.ACCEPTED, ethernet_bytes=eth_bytes, crc_ok=crc_ok)
