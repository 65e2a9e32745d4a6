"""Bit-exact packet framing.

The paper's receiver logs *every bit* of every incoming frame, including
frames that fail the Ethernet CRC, and the offline analysis re-identifies
test packets heuristically from the raw bits.  This package provides the
frame formats involved, built from scratch:

* :mod:`~repro.framing.crc` — IEEE 802.3 CRC-32.
* :mod:`~repro.framing.checksum` — RFC 1071 Internet checksum.
* :mod:`~repro.framing.ethernet` / :mod:`~repro.framing.ip` /
  :mod:`~repro.framing.udp` — header construction and tolerant parsing.
* :mod:`~repro.framing.modem` — the WaveLAN modem's 16-bit network-ID
  wrapper.
* :mod:`~repro.framing.testpacket` — the paper's test payload: 256
  identical 32-bit words, incremented between packets (Section 4).
"""
