"""Deterministic discrete-event simulation substrate.

Every stochastic experiment in this repository runs on this kernel so
that trials are exactly reproducible from a seed.  The kernel is a
classic event-list simulator:

* :class:`~repro.simkit.simulator.Simulator` — the clock and event loop.
* :class:`~repro.simkit.event.Event` — a scheduled callback.
* :class:`~repro.simkit.rng.RngRegistry` — named, independently seeded
  random streams, so adding a new consumer of randomness never perturbs
  the draws made by existing consumers.
"""
