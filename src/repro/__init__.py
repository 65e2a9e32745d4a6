"""repro — a reproduction of Eckhardt & Steenkiste, "Measurement and
Analysis of the Error Characteristics of an In-Building Wireless
Network" (SIGCOMM 1996).

The package simulates the paper's measurement apparatus — an AT&T
WaveLAN 900 MHz in-building wireless LAN, its DSSS physical layer,
CSMA/CA MAC, and the error environment of offices, walls, human bodies
and interfering phones — and re-implements the paper's offline trace
analysis on top, faithfully enough that every table and figure in the
paper can be regenerated in shape.

Quick start::

    from repro import TrialConfig, run_fast_trial, analyze_trial

    output = run_fast_trial(TrialConfig(name="demo", packets=10_000,
                                        mean_level=29.5))
    metrics = analyze_trial(output.trace)
    print(metrics.packet_loss_percent, metrics.bit_error_rate)

Layer map (bottom-up):

* :mod:`repro.simkit` — deterministic discrete-event kernel.
* :mod:`repro.framing` — bit-exact packet formats (CRC-32, IP/UDP,
  modem framing, the paper's 256-word test packet).
* :mod:`repro.environment` — floor plans, materials, propagation.
* :mod:`repro.phy` — DSSS, AGC, antenna diversity, the calibrated
  impairment pipeline, the modem control unit.
* :mod:`repro.mac` — CSMA/CA (and a CSMA/CD baseline), the 82593
  controller.
* :mod:`repro.interference` — cordless phones, overload sources,
  competing WaveLAN units.
* :mod:`repro.link` — stations on a shared radio channel.
* :mod:`repro.trace` — the tracing methodology (Section 4).
* :mod:`repro.analysis` — heuristic matching, damage classification,
  Table-1 metrics, signal statistics.
* :mod:`repro.fec` — the Section-8 variable-FEC proposal, implemented.
* :mod:`repro.experiments` — one module per paper table/figure.
"""

from repro.analysis import analyze_trial, classify_trace, signal_stats_by_class
from repro.analysis.metrics import TrialMetrics
from repro.environment import FloorPlan, Point, PropagationModel, Wall
from repro.fec import AdaptiveFecController, ConvolutionalCode, RcpcCodec
from repro.framing import TestPacketFactory, TestPacketSpec
from repro.link import LinkStation, RadioChannel
from repro.phy import ModemConfig, WaveLanErrorModel, WaveLanModem
from repro.simkit import Simulator
from repro.trace import TrialConfig, run_fast_trial, run_mac_trial

__version__ = "1.0.0"

__all__ = [
    "AdaptiveFecController",
    "ConvolutionalCode",
    "FloorPlan",
    "LinkStation",
    "ModemConfig",
    "Point",
    "PropagationModel",
    "RadioChannel",
    "RcpcCodec",
    "Simulator",
    "TestPacketFactory",
    "TestPacketSpec",
    "TrialConfig",
    "TrialMetrics",
    "Wall",
    "WaveLanErrorModel",
    "WaveLanModem",
    "analyze_trial",
    "classify_trace",
    "run_fast_trial",
    "run_mac_trial",
    "signal_stats_by_class",
    "__version__",
]
