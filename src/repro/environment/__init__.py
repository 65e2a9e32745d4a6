"""Physical-world model: geometry, materials, floor plans, propagation.

The paper expresses all of its propagation findings in WaveLAN AGC
"level" units: a plaster-over-wire-mesh wall costs about 5 levels, a
concrete-block wall about 2, a human body about 6, and signal level
decays smoothly with distance apart from room-specific multipath dips
(Figure 1).  This package turns a floor plan (walls with materials,
station positions) into the *mean* signal level a receiver observes,
which the PHY layer then perturbs per packet.
"""
