"""A small reliable-transport layer over the simulated WaveLAN link.

The paper's Section 9.3 surveys the mobile-IP community's work on
TCP-over-wireless (I-TCP, proxies, snooping) and closes with a claim
this package makes testable: "Our initial experience suggests that
there may be a class of high-performance wireless networks for which
less aggressive approaches may suffice."

* :mod:`~repro.transport.link` — a half-duplex WaveLAN link adapter:
  one shared transmit queue, per-packet fates from the calibrated PHY
  pipeline, optional transparent link-layer ARQ.
* :mod:`~repro.transport.tcp` — a compact TCP-Reno sender/receiver
  (slow start, congestion avoidance, fast retransmit, Jacobson/Karels
  RTO) driven by the event kernel.
"""
