"""Competing radiation sources (paper, Section 7).

Each source model produces, per packet, an
:class:`~repro.phy.errormodel.InterferenceSample` describing its
contribution at a given receiver: in-band power during the signal and
silence AGC samples, plus the impairments it induces (jam BER, missed
starts, truncation, clock stress).  The paper characterizes each source
class by exactly these effect signatures:

* **Narrowband** 900 MHz FM cordless phones and AMPS cellular: raise the
  silence level, damage *nothing* (DSSS processing gain) — Table 10.
* **Spread-spectrum** 900 MHz cordless phones: knife-edge behaviour —
  devastating when near (≈50 % loss, 100 % truncation), an intermediate
  regime of frequent correctable body damage, harmless (but noisy) when
  far — Tables 11-13.
* **Front-end overload** sources (144 MHz amateur transmitter, microwave
  oven): no observed effect — Section 7.1.
* **Competing WaveLAN units**: carrier + packet interference, handled
  jointly with the MAC in :mod:`repro.link` — Table 14.
"""
