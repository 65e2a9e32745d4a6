"""Streaming trace-analysis service.

Turns the batch analysis pipeline into long-running infrastructure: a
:mod:`asyncio` ingest server (:mod:`repro.serve.server`) accepts trace
streams from many concurrent client sessions over a framed,
length-prefixed wire protocol (:mod:`repro.serve.protocol`), classifies
packets *incrementally* as frames arrive through
:class:`repro.analysis.classify.IncrementalClassifier`, and shards
per-chunk classification across a persistent worker pool
(:class:`repro.parallel.pool.PersistentPool`) using the shared-memory
:class:`~repro.parallel.handoff.RingTransport` slot rings.  Ingest is
flow-controlled end to end: bounded per-session queues backpressure the
socket, and a credit window advertised at handshake bounds the client's
in-flight chunks — a slow consumer never costs unbounded memory.

A load-generator client (:mod:`repro.serve.loadgen`) replays stored
``.wlt2`` traces over N concurrent sessions for benchmarking; both ends
are wired into the CLI (``python -m repro serve`` / ``loadgen``).  See
docs/SERVING.md for the protocol, backpressure semantics, and the
session telemetry schema.
"""
