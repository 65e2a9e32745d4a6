"""Variable forward error correction — the paper's Section-8 proposal.

"Our observations, especially the spread spectrum phone results in
Section 7.3, argue that the errors we did observe might be recoverable
through a variable FEC mechanism."  The paper points at Hagenauer's
rate-compatible punctured convolutional (RCPC) codes decoded with the
Viterbi algorithm; this package implements that stack from scratch:

* :mod:`~repro.fec.convolutional` — the K=7 rate-1/2 convolutional
  encoder (the standard (171, 133) octal generators the Qualcomm parts
  the paper cites implement).
* :mod:`~repro.fec.viterbi` — hard-decision Viterbi decoding with
  erasure support (punctured positions carry no metric).
* :mod:`~repro.fec.rcpc` — a rate-compatible puncturing family from
  rate 8/9 down to the 1/2 mother code.
* :mod:`~repro.fec.interleave` — block interleaving, because the
  channel's errors are bursty (Section 6.2's multi-bit corruption).
* :mod:`~repro.fec.replay` — replays observed error syndromes through
  the codec, a whole population per batched decode.
* :mod:`~repro.fec.adaptive` — a rate controller driven by the modem's
  per-packet signal metrics.
"""
