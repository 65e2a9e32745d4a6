"""The scalar per-packet trial loop, kept as a reference oracle.

``run_fast_trial`` decides every packet's fate in whole-trial arrays
(``_run_bulk``).  This module keeps the loop the bulk path replaced:
one ``modem.receive`` per packet, each interference source sampled one
packet at a time.  Both sample the same calibrated impairment model but
consume their RNG streams differently, so tests compare them in
distribution (``tests/trace/test_trial_equivalence.py``,
``tests/trace/test_bulk_interference.py``) and the
``interference_trial_*`` bench_smoke races time the bulk path against
it.
"""

from __future__ import annotations

from repro.framing.testpacket import TestPacketFactory
from repro.phy.modem import RxDisposition, WaveLanModem
from repro.simkit.rng import RngRegistry
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import PacketRecord
from repro.trace.trial import (
    TrialConfig,
    TrialDispositions,
    TrialOutput,
    _inject_outsiders,
)


def run_per_packet_trial(config: TrialConfig) -> TrialOutput:
    """``run_fast_trial`` with the bulk fates replaced by the scalar loop."""
    rng_registry = RngRegistry(config.seed).fork(config.name)
    factory = TestPacketFactory(config.spec)
    modem = WaveLanModem(config=config.modem_config)
    modem.antenna.branches = config.antenna_branches
    mean_level = config.resolved_mean_level()
    dispositions = TrialDispositions()
    records = []
    rng = rng_registry.stream("channel")
    ambient = config.propagation.ambient
    for sequence in range(config.packets):
        frame = factory.build(sequence)
        samples = [
            source.sample_packet(config.rx_position, mean_level, rng)
            for source in config.interference
        ]
        ambient_level = float(ambient.sample(rng, 1)[0])
        reception = modem.receive(frame, mean_level, ambient_level, rng, samples)
        if reception.disposition is RxDisposition.DELIVERED:
            dispositions.delivered += 1
            records.append(
                PacketRecord.from_bytes(
                    reception.data, reception.status, time=float(sequence)
                )
            )
        elif reception.disposition is RxDisposition.MISSED:
            dispositions.missed += 1
        elif reception.disposition is RxDisposition.THRESHOLD_FILTERED:
            dispositions.threshold_filtered += 1
        else:
            dispositions.quality_filtered += 1
    if config.outsiders is not None:
        outsiders = _inject_outsiders(config, modem, rng_registry, dispositions)
        records = sorted(records + outsiders, key=lambda record: record.time)
    trace = ColumnarTrace.from_records(
        records, config.name, config.spec, config.packets
    )
    return TrialOutput(trace=trace, dispositions=dispositions)
