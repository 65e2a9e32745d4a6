"""The paper's measurement methodology (Section 4).

"On the receiver, the kernel device driver was modified to place both
the Ethernet controller and the modem control unit into 'promiscuous'
mode and to log, for each incoming packet, every bit and all available
status information, even if the packet failed the Ethernet CRC check."

* :mod:`~repro.trace.records` — the per-packet log record (raw bytes +
  level/silence/quality/antenna), as event-driven sources log it.
* :mod:`~repro.trace.columnar` — the trial trace, held as a flat
  frame-bytes payload + numpy columns, and its v2 binary store,
  memory-mapped for zero-copy analysis.
* :mod:`~repro.trace.sender` — the UDP burst test-traffic generator.
* :mod:`~repro.trace.trial` — trial runners: a vectorized fast path for
  contention-free scenarios (half-million-packet office trials) and an
  event-driven path through the full MAC/channel simulation.
"""
