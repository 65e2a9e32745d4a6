"""Lower a validated :class:`ScenarioSpec` into engine-ready physics.

The compiler is the one place declarative topology turns into live
objects: per-floor :class:`~repro.environment.floorplan.FloorPlan`s,
per-floor :class:`~repro.environment.propagation.PropagationModel`s
anchored by the spec's calibration, interference-source wiring, and —
per measurement link — a :class:`~repro.trace.trial.TrialConfig` ready
for :func:`~repro.trace.trial.run_fast_trial`.

Equivalence contract: for the paper scenarios the compiled objects are
*structurally equal* to the hand-coded setups the experiment modules
used to build inline (same floor-plan names, wall order, calibration
anchors, interference parameters), so trial results are byte-identical.
The golden tests in ``tests/scenario/`` pin this.

Cross-floor links have no 2-D wall geometry to intersect; their mean
level is computed directly — the slant-path log-distance level (storey
separation from ``floor_height_ft``) minus one concrete-floor-slab
attenuation per storey crossed minus the spec's free-floating obstacles
— and injected as the trial's ``mean_level`` override.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.environment.floorplan import FloorPlan
from repro.environment.geometry import Point
from repro.environment.materials import CONCRETE_FLOOR_SLAB, material_named
from repro.environment.propagation import PropagationModel
from repro.interference.narrowband import NarrowbandPhonePair
from repro.interference.spreadspectrum import SpreadSpectrumPhonePair
from repro.interference.wavelan import CompetingWaveLanTransmitter
from repro.phy.modem import DEFAULT_RECEIVE_THRESHOLD, ModemConfig
from repro.scenario.spec import (
    ScenarioError,
    ScenarioSpec,
    StationSpec,
)
from repro.trace.outsiders import OutsiderTraffic
from repro.trace.trial import TrialConfig


@dataclass(frozen=True)
class CompiledLink:
    """One tx→rx measurement pair with its resolved radio path."""

    name: str
    tx: StationSpec
    rx: StationSpec
    distance_ft: float
    floor_crossings: int
    predicted_level: float
    #: Set only for cross-floor links (2-D wall intersection does not
    #: apply); same-floor links resolve through the propagation model.
    mean_level_override: Optional[float]


class CompiledScenario:
    """A spec lowered to floor plans, propagation, and trial configs."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self._propagation: dict[int, PropagationModel] = {}
        self.floors = sorted(
            {s.position.floor for s in spec.stations}
            | {w.floor for w in spec.walls}
            | {0}
        )
        self.links = tuple(self._resolve_links())

    # ------------------------------------------------------------------
    # Physics
    # ------------------------------------------------------------------
    def floorplan(self, floor: int = 0) -> Optional[FloorPlan]:
        """The floor's plan, or ``None`` for the canonical open room."""
        walls = [w for w in self.spec.walls if w.floor == floor]
        obstacles: list[str] = []
        for obstacle in self.spec.obstacles:
            obstacles.extend([obstacle.material] * obstacle.count)
        if not walls and not obstacles and self.spec.room is None:
            return None
        base = self.spec.room if self.spec.room is not None else self.spec.name
        name = base if floor == 0 else f"{base} (floor {floor})"
        return FloorPlan.from_spec(
            name,
            walls=[
                {
                    "a": [w.ax, w.ay],
                    "b": [w.bx, w.by],
                    "material": w.material,
                    "name": w.name,
                }
                for w in walls
            ],
            obstacles=obstacles,
        )

    def propagation(self, floor: int = 0) -> PropagationModel:
        """The floor's propagation model (cached; treat as read-only)."""
        if floor not in self._propagation:
            calibration = self.spec.calibration
            spec_dict: dict[str, Any] = (
                {"preset": calibration.preset}
                if calibration.preset is not None
                else {
                    "level": calibration.level,
                    "at_distance_ft": calibration.at_distance_ft,
                    "levels_per_decade": calibration.levels_per_decade,
                    "dips": [
                        {
                            "distance_ft": dip.distance_ft,
                            "depth_levels": dip.depth_levels,
                            "width_ft": dip.width_ft,
                        }
                        for dip in calibration.dips
                    ],
                }
            )
            self._propagation[floor] = PropagationModel.from_spec(
                spec_dict, floorplan=self.floorplan(floor)
            )
        return self._propagation[floor]

    def station_point(self, name: str) -> Point:
        position = self.spec.station(name).position
        return Point(position.x, position.y)

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def _resolve_links(self) -> list[CompiledLink]:
        pairs: list[tuple[StationSpec, StationSpec, str]]
        if self.spec.links:
            pairs = [
                (self.spec.station(link.tx), self.spec.station(link.rx), link.name)
                for link in self.spec.links
            ]
        else:
            receivers = self.spec.receivers()
            pairs = [
                (tx, min(receivers, key=lambda rx: self._distance(tx, rx)), "")
                for tx in self.spec.transmitters()
            ]
        resolved = []
        for tx, rx, name in pairs:
            resolved.append(self._compile_link(tx, rx, name))
        return resolved

    def _distance(self, a: StationSpec, b: StationSpec) -> float:
        dz = (a.position.floor - b.position.floor) * self.spec.floor_height_ft
        return math.hypot(
            a.position.x - b.position.x, a.position.y - b.position.y, dz
        )

    def _compile_link(
        self, tx: StationSpec, rx: StationSpec, name: str
    ) -> CompiledLink:
        crossings = abs(tx.position.floor - rx.position.floor)
        distance = self._distance(tx, rx)
        if crossings == 0:
            propagation = self.propagation(rx.position.floor)
            predicted = propagation.mean_level(
                Point(tx.position.x, tx.position.y),
                Point(rx.position.x, rx.position.y),
            )
            override = None
        else:
            propagation = self.propagation(rx.position.floor)
            level = propagation.path_level(distance)
            level -= crossings * CONCRETE_FLOOR_SLAB.attenuation_levels
            for obstacle in self.spec.obstacles:
                level -= (
                    obstacle.count
                    * material_named(obstacle.material).attenuation_levels
                )
            predicted = override = level
        return CompiledLink(
            name=name or (tx.name if len(self.spec.receivers()) <= 1
                          else f"{tx.name}->{rx.name}"),
            tx=tx,
            rx=rx,
            distance_ft=distance,
            floor_crossings=crossings,
            predicted_level=predicted,
            mean_level_override=override,
        )

    def link(self, name: str) -> CompiledLink:
        for link in self.links:
            if link.name == name:
                return link
        valid = ", ".join(link.name for link in self.links)
        raise ScenarioError(
            f"scenario {self.spec.name!r} has no link {name!r}; links: {valid}"
        )

    # ------------------------------------------------------------------
    # Trial wiring
    # ------------------------------------------------------------------
    def modem_config(self) -> ModemConfig:
        kwargs: dict[str, Any] = {}
        if self.spec.modem.receive_threshold is not None:
            kwargs["receive_threshold"] = self.spec.modem.receive_threshold
        if self.spec.modem.quality_threshold is not None:
            kwargs["quality_threshold"] = self.spec.modem.quality_threshold
        return ModemConfig(**kwargs)

    def outsiders(self) -> Optional[OutsiderTraffic]:
        outsiders = self.spec.traffic.outsiders
        if outsiders is None:
            return None
        return OutsiderTraffic(
            mean_level=outsiders.mean_level,
            level_sd=outsiders.level_sd,
            rate_per_test_packet=outsiders.rate_per_test_packet,
        )

    def interference_sources(self) -> list:
        """Fresh interference-source instances, in spec order."""
        return [
            self._build_interferer(interferer.kind, dict(interferer.params))
            for interferer in self.spec.interferers
        ]

    def _build_interferer(self, kind: str, params: dict[str, Any]):
        if kind == "spread_phone":
            return SpreadSpectrumPhonePair(
                handset_position=Point(*params.pop("handset")),
                base_position=Point(*params.pop("base")),
                **params,
            )
        if kind == "narrowband_phone":
            return NarrowbandPhonePair(
                handset_position=Point(*params.pop("handset")),
                base_position=Point(*params.pop("base")),
                **params,
            )
        if kind == "competing_wavelan":
            return self._build_competing(params)
        raise ScenarioError(f"unknown interferer kind {kind!r}")

    def _build_competing(self, params: dict[str, Any]):
        at_station = params.pop("at_station", None)
        if at_station is not None:
            position = self.station_point(at_station)
        else:
            position = Point(*params.pop("at"))
        kwargs: dict[str, Any] = {
            "position": position,
            "victim_receive_threshold": (
                self.spec.modem.receive_threshold
                if self.spec.modem.receive_threshold is not None
                else DEFAULT_RECEIVE_THRESHOLD
            ),
        }
        if params.pop("match_received_level", False):
            # Invert the emitter model so level_at(rx) reproduces what
            # the scenario's propagation predicts from this position —
            # the Table-14 "same emitted power as a test station" wiring.
            (rx,) = self.spec.receivers()
            rx_point = Point(rx.position.x, rx.position.y)
            received = self.propagation(rx.position.floor).mean_level(
                position, rx_point
            )
            distance = max(position.distance_to(rx_point), 0.25)
            kwargs["level_at_1ft"] = received + 10.0 * math.log10(distance)
        for key in ("name", "level_at_1ft", "duty"):
            if key in params:
                kwargs[key] = params.pop(key)
        return CompetingWaveLanTransmitter(**kwargs)

    def trial_config(
        self,
        link: Union[CompiledLink, str, None] = None,
        *,
        packets: Optional[int] = None,
        seed: int = 0,
        name: Optional[str] = None,
    ) -> TrialConfig:
        """An engine-ready trial for one link of this scenario.

        ``link`` may be a :class:`CompiledLink`, a link name, or ``None``
        for a single-link scenario.  ``name`` defaults to the link name
        and matters: the trial's RNG streams fork on it.
        """
        if link is None:
            if len(self.links) != 1:
                names = ", ".join(one.name for one in self.links)
                raise ScenarioError(
                    f"scenario {self.spec.name!r} has {len(self.links)} links "
                    f"({names}); pass one explicitly"
                )
            resolved = self.links[0]
        elif isinstance(link, str):
            resolved = self.link(link)
        else:
            resolved = link
        return TrialConfig(
            name=name if name is not None else resolved.name,
            packets=packets if packets is not None else self.spec.traffic.packets,
            seed=seed,
            propagation=self.propagation(resolved.rx.position.floor),
            tx_position=Point(resolved.tx.position.x, resolved.tx.position.y),
            rx_position=Point(resolved.rx.position.x, resolved.rx.position.y),
            mean_level=resolved.mean_level_override,
            modem_config=self.modem_config(),
            interference=self.interference_sources(),
            outsiders=self.outsiders(),
            antenna_branches=self.spec.modem.antenna_branches,
        )


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Validate and lower one spec (raises :class:`ScenarioError`)."""
    return CompiledScenario(spec.validate())
