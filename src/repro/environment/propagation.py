"""Distance and obstacles → mean WaveLAN signal level.

Calibration targets (DESIGN.md section 3, all from the paper):

* in an office at ~7 ft, level ≈ 29.5–30.5 (Tables 2 and 4);
* across a large lecture hall the level decays smoothly from a saturated
  reading near contact down to ~5 at the far side (Figure 1), with
  room-specific multipath dips (the paper saw them at 6 ft and 30 ft);
* level ≥ ~10 ⇒ reliable reception; level < 8 ⇒ the "error region"
  (Figure 2).

We model mean level as a log-distance law in AGC units:

    level(d) = ref_level_1ft - levels_per_decade * log10(d / 1 ft)
               - sum(obstacle levels) - sum(multipath dips)

clamped at the receiver's AGC saturation for a single coherent signal.
With ``DB_PER_LEVEL = 2`` the default slope of 17.5 levels/decade is a
path-loss exponent of 3.5 — typical of cluttered indoor propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.environment.floorplan import FloorPlan
from repro.environment.geometry import Point

# AGC saturation for a single coherent signal: in-contact units read
# about this value.  Readings above it occur only when interference
# power adds to the signal sample (Tables 12/14).
SIGNAL_SATURATION_LEVEL = 34.0

# Minimum modelled distance: units in physical contact are still a few
# tenths of a foot of circuit-to-circuit separation.
MIN_DISTANCE_FT = 0.5


@dataclass(frozen=True)
class MultipathDip:
    """A room-specific destructive-interference notch.

    The paper attributes the non-monotonic dips of Figure 1 at 6 and 30
    feet to multipath, "likely to be particular to the room where the
    measurements were taken".  Each dip is a Gaussian notch in level as
    a function of transmitter-receiver distance.
    """

    distance_ft: float
    depth_levels: float
    width_ft: float = 1.5

    def attenuation_at(self, distance_ft: float) -> float:
        z = (distance_ft - self.distance_ft) / self.width_ft
        return self.depth_levels * math.exp(-z * z)


@dataclass(frozen=True)
class AmbientNoise:
    """Background silence-level distribution with no interferers active.

    The paper's quiet trials report silence means of roughly 1.3–4.2
    with maxima up to 13; we model the ambient reading as a clipped
    normal per packet.
    """

    mean_level: float = 2.8
    sd_level: float = 1.4

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        draws = rng.normal(self.mean_level, self.sd_level, size=n)
        return np.clip(draws, 0.0, None)

    def sample_level(self, rng: np.random.Generator) -> float:
        """One reading: ``sample(rng, 1)[0]`` as a float, from the same
        single draw (a scalar normal consumes the stream as a size-1
        one does)."""
        draw = rng.normal(self.mean_level, self.sd_level)
        return 0.0 if draw <= 0.0 else draw


@dataclass
class PropagationModel:
    """Mean-signal-level predictor over a floor plan."""

    floorplan: FloorPlan = field(default_factory=FloorPlan.open_room)
    ref_level_1ft: float = 45.3
    levels_per_decade: float = 17.5
    dips: tuple[MultipathDip, ...] = ()
    saturation_level: float = SIGNAL_SATURATION_LEVEL
    ambient: AmbientNoise = field(default_factory=AmbientNoise)

    def distance_ft(self, tx: Point, rx: Point) -> float:
        return max(tx.distance_to(rx), MIN_DISTANCE_FT)

    def path_level(self, distance_ft: float) -> float:
        """Level from distance alone (no obstacles, no dips)."""
        d = max(distance_ft, MIN_DISTANCE_FT)
        level = self.ref_level_1ft - self.levels_per_decade * math.log10(d)
        return min(level, self.saturation_level)

    def mean_level(self, tx: Point, rx: Point) -> float:
        """Mean AGC signal level for a transmitter/receiver pair.

        May be negative for hopeless paths; the PHY clamps the reported
        register at zero but uses the continuous value for error rates.
        """
        d = self.distance_ft(tx, rx)
        level = self.path_level(d)
        level -= self.floorplan.total_obstacle_levels(tx, rx)
        for dip in self.dips:
            level -= dip.attenuation_at(d)
        return level

    @classmethod
    def calibrated(
        cls,
        level: float,
        at_distance_ft: float,
        levels_per_decade: float = 17.5,
        floorplan: FloorPlan | None = None,
        dips: tuple[MultipathDip, ...] = (),
    ) -> "PropagationModel":
        """Build a model anchored at a measured (level, distance) point.

        The paper's rooms differ in absolute signal level for a given
        distance (antenna orientation, furniture, construction), so each
        scenario anchors the log-distance law at the level the paper
        reports for its geometry.  Obstacles in ``floorplan`` are *not*
        folded into the anchor: the anchor describes the unobstructed
        path in that room.
        """
        ref = level + levels_per_decade * math.log10(max(at_distance_ft, MIN_DISTANCE_FT))
        return cls(
            floorplan=floorplan or FloorPlan.open_room(),
            ref_level_1ft=ref,
            levels_per_decade=levels_per_decade,
            dips=dips,
        )

    @classmethod
    def from_spec(
        cls,
        spec: Mapping[str, Any],
        floorplan: FloorPlan | None = None,
    ) -> "PropagationModel":
        """Build a model from a declarative calibration mapping.

        Two shapes are accepted:

        * ``{"preset": "lecture_hall"}`` — a named factory calibration
          (``"lecture_hall"`` or ``"office"``); a ``floorplan`` argument
          replaces the preset's own plan when given.
        * ``{"level": L, "at_distance_ft": D}`` with optional
          ``"levels_per_decade"`` and ``"dips"`` (each dip a mapping of
          :class:`MultipathDip` fields) — the :meth:`calibrated` anchor
          form the paper scenarios use.
        """
        preset = spec.get("preset")
        if preset is not None:
            factories = {"lecture_hall": cls.lecture_hall, "office": cls.office}
            if preset not in factories:
                valid = ", ".join(sorted(factories))
                raise ValueError(
                    f"unknown propagation preset {preset!r}; valid presets: {valid}"
                )
            model = factories[preset]()
            if floorplan is not None:
                model.floorplan = floorplan
            return model
        missing = [key for key in ("level", "at_distance_ft") if key not in spec]
        if missing:
            raise ValueError(
                "calibration needs 'level' and 'at_distance_ft' (or a 'preset'); "
                f"missing: {', '.join(missing)}"
            )
        return cls.calibrated(
            level=float(spec["level"]),
            at_distance_ft=float(spec["at_distance_ft"]),
            levels_per_decade=float(spec.get("levels_per_decade", 17.5)),
            floorplan=floorplan,
            dips=tuple(MultipathDip(**dict(dip)) for dip in spec.get("dips", ())),
        )

    @classmethod
    def office(cls, floorplan: FloorPlan | None = None) -> "PropagationModel":
        """Calibration for the small-office trials (Tables 2, 4, 5):
        level ≈ 30.5 at 7 ft (Table 4, "Air 1")."""
        return cls(floorplan=floorplan or FloorPlan.open_room("office"))

    @classmethod
    def lecture_hall(cls) -> "PropagationModel":
        """Calibration for the Figure-1 lecture-hall sweep, including the
        multipath dips the paper observed at 6 and 30 feet.

        The slope is slightly steeper than the office model so the far
        side of a ~90 ft hall lands in the error region (level < 8), as
        Figures 1 and 2 show.
        """
        return cls(
            floorplan=FloorPlan.open_room("lecture hall"),
            ref_level_1ft=42.0,
            levels_per_decade=18.0,
            dips=(
                MultipathDip(distance_ft=6.0, depth_levels=6.0, width_ft=1.2),
                MultipathDip(distance_ft=30.0, depth_levels=7.0, width_ft=2.5),
            ),
        )
