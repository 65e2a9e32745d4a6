"""The whole-trial frame builder, kept as a reference oracle.

``run_fast_trial``'s trace builds any range of its rows
(``repro.trace.trial._frames``), one classifier chunk at a time.  This
module keeps the builder it replaced, which built the whole trial's
frames in one piece: one ``build_bulk`` of every delivered sequence,
every delivered flip in one scattered xor, every cut closed, and the
outsiders' bytes merged in by time.  ``tests/trace/test_frame_ranges.py``
checks that every range the production builder makes is the matching
slice of this one's bytes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.framing.testpacket import TestPacketFactory
from repro.phy.modem import WaveLanModem
from repro.simkit.rng import RngRegistry
from repro.trace.columnar import ColumnarTrace, start_offsets
from repro.trace.trial import (
    TrialConfig,
    TrialDispositions,
    _close_cuts,
    _inject_outsiders,
    _run_bulk,
)


def whole_trial_frames(
    factory: TestPacketFactory,
    rows: dict[str, np.ndarray],
    outsiders: Optional[ColumnarTrace],
) -> np.ndarray:
    """The trial's frame bytes, back to back in time order.

    ``rows`` are ``_run_bulk``'s delivered rows and damaged rows' flips;
    ``outsiders`` the delivered outsider rows as a built trace.
    """
    frames = factory.build_bulk(rows["sequences"])
    flip_rows = np.repeat(rows["flip_owner"], np.diff(rows["flip_offsets"]))
    delivered = flip_rows >= 0
    positions = rows["flip_positions"][delivered]
    np.bitwise_xor.at(
        frames,
        (flip_rows[delivered], positions >> 3),
        np.uint8(0x80) >> (positions & 7).astype(np.uint8),
    )
    lengths = rows["lengths"]
    payload = _close_cuts(frames, lengths)
    if outsiders is None:
        return payload
    before = np.searchsorted(rows["sequences"], outsiders.times).tolist()
    bounds = [*start_offsets(lengths).tolist(), int(payload.shape[0])]
    extra = [*outsiders.offsets.tolist(), int(outsiders.payload.shape[0])]
    pieces = []
    taken = 0
    for index, count in enumerate(before):
        pieces.append(payload[bounds[taken] : bounds[count]])
        pieces.append(outsiders.payload[extra[index] : extra[index + 1]])
        taken = count
    pieces.append(payload[bounds[taken] :])
    return np.concatenate(pieces)


def whole_trial_payload(config: TrialConfig) -> np.ndarray:
    """``run_fast_trial(config)``'s payload, built in one piece: the
    same draws in the same order, then :func:`whole_trial_frames`."""
    rng_registry = RngRegistry(config.seed).fork(config.name)
    modem = WaveLanModem(config=config.modem_config)
    modem.antenna.branches = config.antenna_branches
    dispositions = TrialDispositions()
    rows = _run_bulk(
        config, modem, config.resolved_mean_level(), rng_registry,
        dispositions,
    )
    outsiders = None
    if config.outsiders is not None:
        records = _inject_outsiders(config, modem, rng_registry, dispositions)
        if records:
            outsiders = ColumnarTrace.from_records(
                records, config.name, config.spec, config.packets
            )
    return whole_trial_frames(TestPacketFactory(config.spec), rows, outsiders)
