"""The WaveLAN modem control unit.

Ties together antenna diversity, the AGC, the clock-stress/quality model
and the impairment pipeline, and applies the two receive-side filters
the hardware offers (paper, Sections 2 and 5.3):

* the **receive threshold** — "gives receivers the ability to mask out
  weak signals", used to simulate pseudo-cell boundaries; the paper's
  Figure 3 shows it filters *cleanly* (no damaged remnants leak through)
  but imperfectly near the signal level, because per-packet readings
  jitter;
* the **quality threshold** — present but set to 1 (effectively off) in
  all the paper's runs (footnote 1).

The modem also reports, per packet, the four status values the paper's
driver logged: signal level, silence level, signal quality, antenna.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.framing.bits import flip_bits
from repro.framing.modem import DEFAULT_NETWORK_ID
from repro.obs import runtime as _obs
from repro.obs.metrics import CounterFamily
from repro.phy.agc import AgcModel
from repro.phy.antenna import AntennaDiversity
from repro.phy.errormodel import (
    ErrorModelParams,
    InterferenceSample,
    PacketFate,
    WaveLanErrorModel,
)

# The threshold defaults used by "all runs" in the paper unless a
# scenario says otherwise (Section 4).
DEFAULT_RECEIVE_THRESHOLD = 3
DEFAULT_QUALITY_THRESHOLD = 1


class RxDisposition(enum.Enum):
    """What became of one transmitted packet at this receiver."""

    DELIVERED = "delivered"
    MISSED = "missed"  # BOF never detected / host loss: nothing logged
    THRESHOLD_FILTERED = "threshold_filtered"  # masked by receive threshold
    QUALITY_FILTERED = "quality_filtered"  # masked by quality threshold


class DropReason(enum.Enum):
    """Why a transmitted frame never reached the receiving host.

    Mirrors the paper's loss / truncation / corruption split at the
    granularity the metrics need: "lost below receive threshold" and
    "quality-threshold truncation" are distinguishable from each other
    and from MAC-level causes.  Used as the ``reason`` label of the
    ``link.drops`` counter family.
    """

    BOF_MISSED = "bof_missed"  # beginning-of-frame never detected / host loss
    BELOW_RECEIVE_THRESHOLD = "below_receive_threshold"
    QUALITY_FILTERED = "quality_filtered"  # quality-threshold truncation mask
    HALF_DUPLEX = "half_duplex"  # receiver was itself transmitting
    MAC_COLLISION = "mac_collision"  # transmission aborted after overlap
    MAC_BACKOFF_EXHAUSTED = "mac_backoff_exhausted"  # dropped before airtime
    CONTROLLER_REJECTED = "controller_rejected"  # 82593 filter discard

    @classmethod
    def from_disposition(
        cls, disposition: RxDisposition
    ) -> Optional["DropReason"]:
        """The drop reason a non-delivered disposition maps to."""
        return _DISPOSITION_DROPS.get(disposition)


_DISPOSITION_DROPS = {
    RxDisposition.MISSED: DropReason.BOF_MISSED,
    RxDisposition.THRESHOLD_FILTERED: DropReason.BELOW_RECEIVE_THRESHOLD,
    RxDisposition.QUALITY_FILTERED: DropReason.QUALITY_FILTERED,
}


@dataclass(frozen=True)
class ModemRxStatus:
    """The per-packet status the modem reports to the host driver."""

    signal_level: int
    silence_level: int
    signal_quality: int
    antenna: int


@dataclass
class ModemConfig:
    """Receive-side configuration of one WaveLAN unit."""

    network_id: int = DEFAULT_NETWORK_ID
    receive_threshold: int = DEFAULT_RECEIVE_THRESHOLD
    quality_threshold: int = DEFAULT_QUALITY_THRESHOLD


@dataclass
class Reception:
    """Result of offering one on-air frame to the modem."""

    disposition: RxDisposition
    data: Optional[bytes] = None
    status: Optional[ModemRxStatus] = None
    fate: Optional[PacketFate] = None


@dataclass
class WaveLanModem:
    """One unit's receive pipeline."""

    config: ModemConfig = field(default_factory=ModemConfig)
    error_model: WaveLanErrorModel = field(
        default_factory=lambda: WaveLanErrorModel(ErrorModelParams())
    )
    antenna: AntennaDiversity = field(default_factory=AntennaDiversity)
    agc: AgcModel = field(default_factory=AgcModel)
    _rx: CounterFamily = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._rx = _obs.STATE.metrics.family("phy.rx", "disposition")

    def receive(
        self,
        frame: bytes,
        mean_level: float,
        ambient_level: float,
        rng: np.random.Generator,
        interference: Sequence[InterferenceSample] = (),
    ) -> Reception:
        """Offer a transmitted ``frame`` to this receiver.

        ``mean_level`` is the propagation model's prediction for the
        transmitter→receiver path; ``ambient_level`` seeds the silence
        reading.  Returns the disposition plus, when delivered, the
        possibly damaged bytes and the status registers.
        """
        selection = self.antenna.select(mean_level, rng)
        fate = self.error_model.sample_packet(
            selection.level, len(frame), rng, interference
        )
        if fate.missed:
            self._rx[RxDisposition.MISSED.value].inc()
            return Reception(RxDisposition.MISSED, fate=fate)

        signal_reading = self.agc.signal_reading(
            selection.level,
            (s.signal_sample_dbm for s in interference),
            rng,
        )
        if signal_reading < self.config.receive_threshold:
            # The receive threshold filters cleanly: the packet never
            # reaches the controller (paper, Section 5.3).
            self._rx[RxDisposition.THRESHOLD_FILTERED.value].inc()
            return Reception(RxDisposition.THRESHOLD_FILTERED, fate=fate)
        if fate.quality < self.config.quality_threshold:
            self._rx[RxDisposition.QUALITY_FILTERED.value].inc()
            return Reception(RxDisposition.QUALITY_FILTERED, fate=fate)

        silence_reading = self.agc.silence_reading(
            ambient_level,
            (s.silence_sample_dbm for s in interference),
            rng,
        )
        data = self.apply_fate(frame, fate)
        status = ModemRxStatus(
            signal_level=signal_reading,
            silence_level=silence_reading,
            signal_quality=fate.quality,
            antenna=selection.antenna,
        )
        self._rx[RxDisposition.DELIVERED.value].inc()
        return Reception(RxDisposition.DELIVERED, data=data, status=status, fate=fate)

    @staticmethod
    def apply_fate(frame: bytes, fate: PacketFate) -> bytes:
        """Materialize a fate's damage onto the frame bytes."""
        data = flip_bits(frame, fate.flipped_bits) if len(fate.flipped_bits) else frame
        if fate.truncated_at_byte is not None:
            data = data[: fate.truncated_at_byte]
        return data

    def senses_carrier(self, signal_reading: int) -> bool:
        """Carrier sense as the MAC sees it: readings below the receive
        threshold are hidden from the Ethernet chip (paper, Section 5.3)."""
        return signal_reading >= self.config.receive_threshold
