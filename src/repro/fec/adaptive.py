"""Adaptive FEC rate control driven by the modem's signal metrics.

Section 8: "there were other situations, some plausibly predictable by
signal measurements, in which there is frequent but minor packet
corruption.  Our observations ... argue that the errors we did observe
might be recoverable through a variable FEC mechanism."

The controller maps the per-packet observables the WaveLAN modem already
reports — signal level, silence level, signal quality — to an RCPC rate:

* clean & strong (the common case): the weakest code, because "FEC would
  be useless overhead in most situations";
* marginal signal level (the Figure 2 transition band) or depressed
  quality: step the redundancy up;
* silence level near the signal level (an active wideband interferer,
  the Table 12 signature): strongest code.

The decision uses an exponentially weighted history so a single noisy
reading does not thrash the rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fec.rcpc import RATE_ORDER


@dataclass
class RateDecision:
    """The controller's output for one packet."""

    rate_name: str
    reason: str
    smoothed_level: float
    smoothed_quality: float
    smoothed_silence: float

    @property
    def overhead_fraction(self) -> float:
        transmitted = {"8/9": 9 / 8, "4/5": 10 / 8, "2/3": 12 / 8, "1/2": 2.0}
        return transmitted[self.rate_name] - 1.0


@dataclass
class AdaptiveFecController:
    """Chooses an RCPC rate from smoothed link observations."""

    # Decision thresholds (AGC level units / quality units).
    strong_level: float = 12.0  # at or above: link is comfortably clean
    weak_level: float = 8.5  # below: deep in the Figure-2 error region
    quality_alarm: float = 13.0  # persistent quality depression
    # Silence within this many levels of the signal means an active
    # wideband interferer.
    sinr_alarm_margin: float = 10.0
    # EWMA smoothing factor per observation.
    alpha: float = 0.25

    _level: float = field(default=30.0, init=False)
    _quality: float = field(default=15.0, init=False)
    _silence: float = field(default=3.0, init=False)
    history: list[RateDecision] = field(default_factory=list, init=False)

    def observe(
        self, signal_level: int, silence_level: int, signal_quality: int
    ) -> RateDecision:
        """Fold one packet's status registers in; return the rate to use
        for the *next* transmission."""
        a = self.alpha
        self._level += a * (signal_level - self._level)
        self._quality += a * (signal_quality - self._quality)
        self._silence += a * (silence_level - self._silence)

        sinr_proxy = self._level - self._silence
        if sinr_proxy < self.sinr_alarm_margin and self._quality < 14.5:
            rate, reason = "1/2", "wideband interference (silence near signal)"
        elif self._level < self.weak_level:
            rate, reason = "1/2", "signal in the error region"
        elif self._level < self.strong_level or self._quality < self.quality_alarm:
            rate, reason = "2/3", "marginal signal or depressed quality"
        elif self._quality < 14.5:
            rate, reason = "4/5", "mild quality depression"
        else:
            rate, reason = "8/9", "clean strong link"

        decision = RateDecision(
            rate_name=rate,
            reason=reason,
            smoothed_level=self._level,
            smoothed_quality=self._quality,
            smoothed_silence=self._silence,
        )
        self.history.append(decision)
        return decision

    def rate_index(self, rate_name: str) -> int:
        """Position of a rate in the family (0 = weakest)."""
        return RATE_ORDER.index(rate_name)

    def _ewma_bulk(self, start: float, values: np.ndarray) -> np.ndarray:
        """EWMA of ``values`` seeded at ``start``, one entry per step.

        Chunked closed form: within a chunk of 64 observations,
        ``s_j = d^(j+1) * s0 + a * d^j * cumsum(x_i / d^i)`` with
        ``d = 1 - a`` — the recurrence unrolled, with the chunk bound
        keeping ``d^j`` well away from underflow.  Values agree with
        the iterative :meth:`observe` smoothing to float rounding;
        decisions can differ only when a smoothed value lands within
        ~1e-12 of a threshold (a razor-edge tie).
        """
        a = self.alpha
        d = 1.0 - a
        out = np.empty(values.shape[0], dtype=np.float64)
        s0 = start
        for lo in range(0, values.shape[0], 64):
            chunk = values[lo : lo + 64]
            j = np.arange(chunk.shape[0], dtype=np.float64)
            decay = d**j
            out[lo : lo + chunk.shape[0]] = d * decay * s0 + a * decay * (
                np.cumsum(chunk / decay)
            )
            s0 = out[lo + chunk.shape[0] - 1]
        return out

    def observe_bulk(
        self,
        signal_levels: np.ndarray,
        silence_levels: np.ndarray,
        signal_qualities: np.ndarray,
    ) -> list[str]:
        """Fold a whole trial's status registers in at once.

        Returns the rate name chosen after each packet — the batched
        twin of calling :meth:`observe` per packet, with the decision
        cascade evaluated as one ``np.select`` over the smoothed
        columns.  ``history`` is *not* populated (the per-decision
        dataclasses are the cost this path exists to avoid); the
        smoothed state advances exactly as if every packet had been
        observed, so scalar and bulk calls can be interleaved.
        """
        levels = np.asarray(signal_levels, dtype=np.float64)
        silences = np.asarray(silence_levels, dtype=np.float64)
        qualities = np.asarray(signal_qualities, dtype=np.float64)
        if levels.shape != silences.shape or levels.shape != qualities.shape:
            raise ValueError("status columns must have identical shapes")
        if levels.size == 0:
            return []
        level = self._ewma_bulk(self._level, levels)
        quality = self._ewma_bulk(self._quality, qualities)
        silence = self._ewma_bulk(self._silence, silences)
        self._level = float(level[-1])
        self._quality = float(quality[-1])
        self._silence = float(silence[-1])

        sinr_proxy = level - silence
        choice = np.select(
            [
                (sinr_proxy < self.sinr_alarm_margin) & (quality < 14.5),
                level < self.weak_level,
                (level < self.strong_level) | (quality < self.quality_alarm),
                quality < 14.5,
            ],
            [3, 3, 2, 1],
            default=0,
        )
        # choice indexes RATE_ORDER (0 = weakest "8/9" ... 3 = "1/2").
        return [RATE_ORDER[i] for i in choice]
