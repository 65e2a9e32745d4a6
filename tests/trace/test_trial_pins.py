"""Byte pins for the fast trial's output.

Every received row of :func:`run_fast_trial` — its bytes, the four
status registers and its time — is folded into one digest per config.
The configs cover a clean link, a deep-error link (truncations and bit
flips), outsiders merged by time, and one active spread-spectrum and
one narrowband source.  Any change to how the trial assembles its rows
must leave these digests alone: equivalence in distribution is not
enough, the emission itself is pinned.
"""

import hashlib
import struct

import pytest

from repro.environment.geometry import Point
from repro.framing.testpacket import FRAME_BYTES
from repro.interference.narrowband import NarrowbandPhonePair
from repro.interference.spreadspectrum import SpreadSpectrumPhonePair
from repro.trace.outsiders import OutsiderTraffic
from repro.trace.trial import TrialConfig, run_fast_trial

TX = Point(0.0, 0.0)
RX = Point(10.0, 5.0)

# name -> (config, rows received, truncated rows, outsider rows, digest)
PINS = {
    "clean": (
        TrialConfig(name="pin-clean", packets=3000, mean_level=29.5, seed=11),
        2999, 0, 0, "b98f9e93cedd7d07",
    ),
    "deep-error": (
        TrialConfig(name="pin-deep", packets=3000, mean_level=4.5, seed=12),
        1734, 54, 0, "d496f325e98d8cdb",
    ),
    "outsiders": (
        TrialConfig(
            name="pin-outsiders", packets=3000, mean_level=8.5, seed=13,
            outsiders=OutsiderTraffic(
                mean_level=4.6, level_sd=1.6, rate_per_test_packet=0.11
            ),
        ),
        3156, 3, 160, "71f5bb8ed403afd0",
    ),
    "spread-spectrum": (
        TrialConfig(
            name="pin-spread", packets=3000, seed=14, tx_position=TX,
            rx_position=RX,
            interference=(
                SpreadSpectrumPhonePair(
                    handset_position=Point(11.0, 6.0),
                    base_position=Point(9.0, 4.0),
                ),
            ),
        ),
        1579, 1488, 0, "f8ca27d86bafcf38",
    ),
    "narrowband": (
        TrialConfig(
            name="pin-narrowband", packets=3000, seed=15, tx_position=TX,
            rx_position=RX,
            interference=(NarrowbandPhonePair(Point(11.0, 6.0), Point(9.0, 4.0)),),
        ),
        3000, 0, 0, "f2c8e750fa4f73b5",
    ),
}


def _records(trace) -> list:
    return [trace.record(index) for index in range(trace.packets_received)]


def _row_digest(trace) -> str:
    digest = hashlib.sha256()
    for record in _records(trace):
        data = record.data
        status = record.status
        digest.update(struct.pack("<I", len(data)))
        digest.update(data)
        digest.update(struct.pack(
            "<4hd",
            status.signal_level,
            status.silence_level,
            status.signal_quality,
            status.antenna,
            record.time,
        ))
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PINS))
def test_fast_trial_rows_are_pinned(name):
    config, received, truncated, outsiders, expected = PINS[name]
    trace = run_fast_trial(config).trace
    records = _records(trace)
    assert trace.packets_received == len(records) == received
    sent = [r for r in records if float(r.time).is_integer()]
    assert len(records) - len(sent) == outsiders
    assert sum(len(r.data) < FRAME_BYTES for r in sent) == truncated
    assert _row_digest(trace) == expected
