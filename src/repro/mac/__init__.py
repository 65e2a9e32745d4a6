"""The Intel-82593-style medium access control layer.

WaveLAN "employs a CSMA/CA (collision avoidance) MAC protocol ...
WaveLAN CSMA/CA attempts to avoid collision losses by treating a busy
medium as a collision: any stations which become ready to transmit while
the medium is busy will delay for a random interval when the medium
becomes free" (paper, Section 2).  The controller otherwise performs all
standard Ethernet functions: framing, address filtering, CRC checking,
and exponential backoff.

* :mod:`~repro.mac.backoff` — truncated binary exponential backoff.
* :mod:`~repro.mac.csma` — CSMA/CA, plus a CSMA/CD baseline used by the
  ablation benchmarks.
* :mod:`~repro.mac.controller` — the 82593 receive path: network-ID and
  address filtering, CRC check, promiscuous mode.
"""
