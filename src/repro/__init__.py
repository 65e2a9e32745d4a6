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

The quick-start names are imported on first use, so ``import repro``
loads none of the layers, and each ``python -m repro`` command loads
only what it runs.  The subpackages re-export nothing: import from the
defining module, e.g. ``from repro.environment.geometry import Point``.
"""

import importlib

__version__ = "1.0.0"

#: Quick-start name -> the module that defines it.
_EXPORTS = {
    "AdaptiveFecController": "repro.fec.adaptive",
    "ConvolutionalCode": "repro.fec.convolutional",
    "FloorPlan": "repro.environment.floorplan",
    "LinkStation": "repro.link.station",
    "ModemConfig": "repro.phy.modem",
    "Point": "repro.environment.geometry",
    "PropagationModel": "repro.environment.propagation",
    "RadioChannel": "repro.link.channel",
    "RcpcCodec": "repro.fec.rcpc",
    "Simulator": "repro.simkit.simulator",
    "TestPacketFactory": "repro.framing.testpacket",
    "TestPacketSpec": "repro.framing.testpacket",
    "TrialConfig": "repro.trace.trial",
    "TrialMetrics": "repro.analysis.metrics",
    "Wall": "repro.environment.floorplan",
    "WaveLanErrorModel": "repro.phy.errormodel",
    "WaveLanModem": "repro.phy.modem",
    "analyze_trial": "repro.analysis.metrics",
    "classify_trace": "repro.analysis.classify",
    "run_fast_trial": "repro.trace.trial",
    "run_mac_trial": "repro.trace.trial",
    "signal_stats_by_class": "repro.analysis.signalstats",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """Import a quick-start name from its defining module on first use."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
