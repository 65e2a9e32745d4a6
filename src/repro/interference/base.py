"""The interference source interface and shared emitter geometry.

Two sampling surfaces coexist:

* :meth:`InterferenceSource.sample_packet` — one packet at a time,
  consumed by the event-driven MAC simulation and the scalar reference
  trial path;
* :func:`bulk_schedule` — a whole trial at once, returning per-packet
  *arrays* (:class:`BulkInterference`).  The burst-and-jam processes the
  paper measures are memoryless between packets (each packet's exposure
  is an independent draw against the source's duty cycle), so a trial's
  interference schedule factorizes into independent per-packet columns
  that vectorize cleanly.  Concrete sources override ``sample_bulk``
  with closed-form vectorized draws; any source that only implements
  ``sample_packet`` still works through the generic stacking fallback.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.environment.geometry import Point
from repro.phy.errormodel import InterferenceSample

# Emitters decay like free space (the phones and WaveLAN units sit in
# the same rooms as the receivers, mostly line of sight): path-loss
# exponent 2 = 10 levels per decade in our 2 dB/level AGC mapping.
EMITTER_LEVELS_PER_DECADE = 10.0
MIN_EMITTER_DISTANCE_FT = 0.25


@dataclass(frozen=True)
class EmitterGeometry:
    """A point emitter characterized in AGC level units.

    ``level_at_1ft`` is the AGC level its signal would read at one foot;
    received level decays log-linearly with distance.
    """

    position: Point
    level_at_1ft: float

    def level_at(self, rx: Point) -> float:
        distance = max(self.position.distance_to(rx), MIN_EMITTER_DISTANCE_FT)
        return self.level_at_1ft - EMITTER_LEVELS_PER_DECADE * math.log10(distance)


@dataclass
class BulkInterference:
    """One source's contribution to every packet of a trial, as arrays.

    The column-per-packet counterpart of :class:`InterferenceSample`:
    each array has one entry per test packet.  dBm columns use ``NaN``
    where the source was quiet at that AGC sampling instant (the array
    analogue of ``None``); probability/stress columns are zero where the
    source had no effect.  ``bursty`` is a per-source property of the
    emission process, not a per-packet draw.
    """

    source_name: str
    signal_sample_dbm: np.ndarray
    silence_sample_dbm: np.ndarray
    jam_ber: np.ndarray
    miss_probability: np.ndarray
    truncate_probability: np.ndarray
    clock_stress: np.ndarray
    bursty: bool = False

    @classmethod
    def quiet(cls, name: str, count: int) -> "BulkInterference":
        """A schedule on which the source never fires."""
        return cls(
            source_name=name,
            signal_sample_dbm=np.full(count, np.nan),
            silence_sample_dbm=np.full(count, np.nan),
            jam_ber=np.zeros(count),
            miss_probability=np.zeros(count),
            truncate_probability=np.zeros(count),
            clock_stress=np.zeros(count),
        )

    @classmethod
    def from_samples(
        cls, name: str, samples: Sequence[InterferenceSample]
    ) -> "BulkInterference":
        """Stack per-packet samples into columns (the generic fallback)."""
        return cls(
            source_name=name,
            signal_sample_dbm=np.array(
                [np.nan if s.signal_sample_dbm is None else s.signal_sample_dbm
                 for s in samples]
            ),
            silence_sample_dbm=np.array(
                [np.nan if s.silence_sample_dbm is None else s.silence_sample_dbm
                 for s in samples]
            ),
            jam_ber=np.array([s.jam_ber for s in samples]),
            miss_probability=np.array([s.miss_probability for s in samples]),
            truncate_probability=np.array(
                [s.truncate_probability for s in samples]
            ),
            clock_stress=np.array([s.clock_stress for s in samples]),
            bursty=any(s.bursty for s in samples),
        )

    def __len__(self) -> int:
        return len(self.jam_ber)


def bulk_schedule(
    source: "InterferenceSource",
    rx_position: Point,
    signal_level: float,
    count: int,
    rng: np.random.Generator,
) -> BulkInterference:
    """``count`` packets' worth of one source's contributions.

    Dispatches to the source's vectorized ``sample_bulk`` when it has
    one; otherwise stacks ``count`` scalar :meth:`sample_packet` draws
    (statistically identical, just slower).  Sources are registered as
    virtual subclasses, so the fallback lives here rather than on the
    ABC.
    """
    sample_bulk = getattr(source, "sample_bulk", None)
    if sample_bulk is not None:
        return sample_bulk(rx_position, signal_level, count, rng)
    return BulkInterference.from_samples(
        source.name,
        [source.sample_packet(rx_position, signal_level, rng) for _ in range(count)],
    )


class InterferenceSource(abc.ABC):
    """A competing radiation source.

    ``sample_packet`` is called once per test packet and returns this
    source's contribution; ``name`` labels it in traces and diagnostics.
    Sources may additionally provide ``sample_bulk(rx_position,
    signal_level, count, rng) -> BulkInterference`` — a vectorized
    whole-trial schedule that :func:`bulk_schedule` prefers.
    """

    name: str = "interference"

    @abc.abstractmethod
    def sample_packet(
        self,
        rx_position: Point,
        signal_level: float,
        rng: np.random.Generator,
    ) -> InterferenceSample:
        """This source's effect on one packet arriving at ``rx_position``
        with desired-signal level ``signal_level``."""
