"""The WaveLAN physical layer model.

The modem control unit reports, for every received packet: signal level
and silence level (AGC readings) and signal quality (4-bit), and selects
between two antennas (paper, Section 2).  This package models:

* :mod:`~repro.phy.dsss` — the 11-chip direct-sequence spread spectrum
  layer, implemented at chip level, which is what confers WaveLAN's
  resistance to narrowband interference.
* :mod:`~repro.phy.dqpsk` — DQPSK bit-error-rate theory curves.
* :mod:`~repro.phy.agc` — AGC power summation and register readings.
* :mod:`~repro.phy.antenna` — dual-antenna selection diversity.
* :mod:`~repro.phy.quality` — the clock-recovery "stress" model behind
  the signal-quality register.
* :mod:`~repro.phy.errormodel` — the calibrated per-packet impairment
  pipeline (miss / truncate / corrupt), the heart of the simulator.
* :mod:`~repro.phy.modem` — the modem control unit: receive/quality
  thresholds and per-packet status reporting.
"""
