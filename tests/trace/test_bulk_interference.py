"""Bulk vs per-packet equivalence with *active* interference sources.

``_run_bulk`` folds interference through vectorized schedules
(:func:`repro.interference.base.bulk_schedule`) while the per-packet
oracle (``tests/trace/per_packet_oracle.py``) samples each source one
packet at a time.  Both draw from the same calibrated distributions but consume
their RNG streams differently, so the comparison is distributional:
outcome rates must agree within a few standard errors for every source
family the paper measured (spread-spectrum phones, narrowband phones,
competing WaveLAN units).
"""

import math

import pytest

from repro.analysis.classify import PacketClass, classify_trace
from repro.environment.geometry import Point
from repro.interference.narrowband import NarrowbandPhonePair
from repro.interference.spreadspectrum import SpreadSpectrumPhonePair
from repro.interference.wavelan import CompetingWaveLanTransmitter
from repro.trace.trial import TrialConfig, run_fast_trial
from tests.trace.per_packet_oracle import run_per_packet_trial

PACKETS = 4_000

TX = Point(0.0, 0.0)
RX = Point(10.0, 5.0)


def _spread_source():
    return SpreadSpectrumPhonePair(
        handset_position=Point(11.0, 6.0), base_position=Point(9.0, 4.0)
    )


def _narrowband_source():
    return NarrowbandPhonePair(Point(11.0, 6.0), Point(9.0, 4.0))


def _competing_source():
    return CompetingWaveLanTransmitter(position=Point(12.0, 3.0))


def _rates(source_factory, seed: int, per_packet: bool) -> dict[str, float]:
    config = TrialConfig(
        name="bulk-equiv",
        packets=PACKETS,
        seed=seed,
        tx_position=TX,
        rx_position=RX,
        interference=(source_factory(),),
    )
    output = (run_per_packet_trial if per_packet else run_fast_trial)(config)
    classified = classify_trace(output.trace)
    truncated = len(classified.by_class(PacketClass.TRUNCATED))
    body = len(classified.by_class(PacketClass.BODY_DAMAGED))
    return {
        "delivered": output.dispositions.delivered / PACKETS,
        "missed": output.dispositions.missed / PACKETS,
        "truncated": truncated / PACKETS,
        "body_damaged": body / PACKETS,
    }


def _assert_rates_close(bulk: dict, scalar: dict) -> None:
    for key in bulk:
        p = (bulk[key] + scalar[key]) / 2.0
        # Standard error of a rate difference over two independent
        # trials of PACKETS packets; 4 sigma plus an absolute floor so
        # near-zero rates don't produce a vacuously tight bound.
        sigma = math.sqrt(max(p * (1.0 - p), 1e-12) * 2.0 / PACKETS)
        tolerance = max(4.0 * sigma, 0.004)
        assert abs(bulk[key] - scalar[key]) < tolerance, (
            f"{key}: bulk={bulk[key]:.4f} scalar={scalar[key]:.4f} "
            f"tolerance={tolerance:.4f}"
        )


@pytest.mark.parametrize(
    "source_factory",
    [_spread_source, _narrowband_source, _competing_source],
    ids=["spread-spectrum", "narrowband", "competing-wavelan"],
)
class TestBulkInterferenceEquivalence:
    def test_outcome_rates_match(self, source_factory):
        bulk = _rates(source_factory, seed=1234, per_packet=False)
        scalar = _rates(source_factory, seed=5678, per_packet=True)
        _assert_rates_close(bulk, scalar)

    def test_bulk_is_deterministic(self, source_factory):
        a = _rates(source_factory, seed=42, per_packet=False)
        b = _rates(source_factory, seed=42, per_packet=False)
        assert a == b


class TestSignalRegisterEquivalence:
    """Interference power must fold into the AGC registers identically
    (in distribution) on both paths — the silence level is the paper's
    fingerprint for several interferers."""

    def _signal_means(self, per_packet: bool) -> tuple[float, float]:
        config = TrialConfig(
            name="agc-equiv",
            packets=PACKETS,
            seed=9 if per_packet else 8,
            tx_position=TX,
            rx_position=RX,
            interference=(_narrowband_source(),),
        )
        output = (run_per_packet_trial if per_packet else run_fast_trial)(config)
        trace = output.trace
        assert trace.packets_received
        return float(trace.levels.mean()), float(trace.silences.mean())

    def test_agc_fold_matches(self):
        bulk_signal, bulk_silence = self._signal_means(per_packet=False)
        scalar_signal, scalar_silence = self._signal_means(per_packet=True)
        assert bulk_signal == pytest.approx(scalar_signal, abs=0.5)
        assert bulk_silence == pytest.approx(scalar_silence, abs=0.5)
