"""The typed scenario model: a declarative description of one topology.

A :class:`ScenarioSpec` is everything the paper fixes per physical
setup — stations with positions (optionally on different floors), walls
with materials, free-floating obstacles, interference sources, traffic
mix, modem settings, and the calibration anchor that pins the
propagation law to a measured (level, distance) point.  Specs are plain
frozen dataclasses with structural equality, built three ways:

* hand-written YAML (see :mod:`repro.scenario.yamlio`),
* the fluent :class:`ScenarioBuilder`,
* the generator layer (:mod:`repro.scenario.generate`).

``validate()`` collects *every* problem (unknown materials, dangling
link endpoints, bad roles, malformed interferer parameters) and raises
one :class:`ScenarioError`, so a YAML author fixes a file in one pass.
The compiler (:mod:`repro.scenario.compiler`) lowers a validated spec
into ``PropagationModel`` + ``FloorPlan`` + interference wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional, Sequence

from repro.environment.materials import MATERIALS_BY_NAME


class ScenarioError(ValueError):
    """A scenario spec failed validation or a registry lookup."""


STATION_ROLES = ("tx", "rx", "ap", "sta")
#: Roles that transmit test packets / that receive them.  An access
#: point is a receiver in the paper's fixed-receiver methodology; a
#: plain station is a transmitter.
TRANSMIT_ROLES = ("tx", "sta")
RECEIVE_ROLES = ("rx", "ap")

#: Interferer kinds the compiler can wire, with their parameter schema:
#: ``positions`` are [x, y] pairs, ``passthrough`` forward verbatim to
#: the interference-source constructor.
INTERFERER_KINDS: dict[str, dict[str, tuple[str, ...]]] = {
    "spread_phone": {
        "required": ("handset", "base"),
        "positions": ("handset", "base"),
        "passthrough": (
            "talking",
            "variant",
            "name",
            "base_level_at_1ft",
            "handset_level_at_1ft",
        ),
    },
    "narrowband_phone": {
        "required": ("handset", "base"),
        "positions": ("handset", "base"),
        "passthrough": ("talking", "power_control", "name"),
    },
    "competing_wavelan": {
        "required": (),
        "positions": ("at",),
        "passthrough": ("name", "level_at_1ft", "duty", "at_station",
                        "match_received_level"),
    },
}


@dataclass(frozen=True)
class Position:
    """A station position: feet in the floor plane, plus a storey index."""

    x: float
    y: float
    floor: int = 0


@dataclass(frozen=True)
class StationSpec:
    """One radio: a transmitter (``tx``/``sta``) or receiver (``rx``/``ap``)."""

    name: str
    role: str
    position: Position


@dataclass(frozen=True)
class WallSpec:
    """A wall segment on one floor, referencing a material by name."""

    ax: float
    ay: float
    bx: float
    by: float
    material: str
    name: str = ""
    floor: int = 0


@dataclass(frozen=True)
class ObstacleSpec:
    """A free-floating obstacle applied to every path (e.g. a human body)."""

    material: str
    count: int = 1


@dataclass(frozen=True)
class DipSpec:
    """A room-specific multipath notch (mirrors ``MultipathDip``)."""

    distance_ft: float
    depth_levels: float
    width_ft: float = 1.5


@dataclass(frozen=True)
class CalibrationSpec:
    """The propagation anchor: a preset name, or a (level, distance) pin."""

    level: Optional[float] = None
    at_distance_ft: Optional[float] = None
    levels_per_decade: float = 17.5
    preset: Optional[str] = None
    dips: tuple[DipSpec, ...] = ()


@dataclass(frozen=True)
class InterfererSpec:
    """One interference source: a kind plus its constructor parameters.

    ``params`` values are scalars, strings, booleans, or ``(x, y)``
    position tuples; the per-kind schema lives in
    :data:`INTERFERER_KINDS` so typos fail at validation.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class OutsiderSpec:
    """Background foreign-station traffic heard during the trial."""

    mean_level: float = 5.0
    level_sd: float = 1.3
    rate_per_test_packet: float = 0.05


@dataclass(frozen=True)
class TrafficSpec:
    """The offered test traffic: packet count plus optional outsiders."""

    packets: int = 1_440
    outsiders: Optional[OutsiderSpec] = None


@dataclass(frozen=True)
class ModemSpec:
    """Receiver settings; ``None`` keeps the modem's own default."""

    receive_threshold: Optional[int] = None
    quality_threshold: Optional[int] = None
    antenna_branches: int = 2


@dataclass(frozen=True)
class LinkSpec:
    """An explicit tx→rx measurement pair (defaults are derived)."""

    tx: str
    rx: str
    name: str = ""


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete declarative topology.

    ``room`` names the floor plan (kept for byte-identity with the
    hand-coded setups, e.g. ``"figure-4 building"``); when ``None`` and
    the scenario has no walls or obstacles the compiler uses the
    canonical open room.  ``floor_height_ft`` only matters for links
    that cross storeys.
    """

    name: str
    description: str = ""
    room: Optional[str] = None
    floor_height_ft: float = 10.0
    calibration: CalibrationSpec = field(default_factory=CalibrationSpec)
    stations: tuple[StationSpec, ...] = ()
    walls: tuple[WallSpec, ...] = ()
    obstacles: tuple[ObstacleSpec, ...] = ()
    interferers: tuple[InterfererSpec, ...] = ()
    links: tuple[LinkSpec, ...] = ()
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    modem: ModemSpec = field(default_factory=ModemSpec)

    # ------------------------------------------------------------------
    def station(self, name: str) -> StationSpec:
        for station in self.stations:
            if station.name == name:
                return station
        raise ScenarioError(f"scenario {self.name!r} has no station {name!r}")

    def transmitters(self) -> list[StationSpec]:
        return [s for s in self.stations if s.role in TRANSMIT_ROLES]

    def receivers(self) -> list[StationSpec]:
        return [s for s in self.stations if s.role in RECEIVE_ROLES]

    # ------------------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Check the whole spec; raise one ScenarioError listing every
        problem, or return ``self`` for chaining."""
        problems: list[str] = []
        if not self.name:
            problems.append("scenario name must be non-empty")

        seen: set[str] = set()
        for station in self.stations:
            if station.role not in STATION_ROLES:
                problems.append(
                    f"station {station.name!r}: role {station.role!r} not in "
                    f"{'/'.join(STATION_ROLES)}"
                )
            if station.name in seen:
                problems.append(f"duplicate station name {station.name!r}")
            seen.add(station.name)
            if station.position.floor < 0:
                problems.append(
                    f"station {station.name!r}: floor must be >= 0"
                )

        for index, wall in enumerate(self.walls):
            if wall.material not in MATERIALS_BY_NAME:
                problems.append(
                    f"walls[{index}]: unknown material {wall.material!r} "
                    f"(valid: {', '.join(sorted(MATERIALS_BY_NAME))})"
                )
            if (wall.ax, wall.ay) == (wall.bx, wall.by):
                problems.append(f"walls[{index}]: zero-length segment")
        for index, obstacle in enumerate(self.obstacles):
            if obstacle.material not in MATERIALS_BY_NAME:
                problems.append(
                    f"obstacles[{index}]: unknown material {obstacle.material!r}"
                )
            if obstacle.count < 1:
                problems.append(f"obstacles[{index}]: count must be >= 1")

        calibration = self.calibration
        if calibration.preset is None:
            if calibration.level is None or calibration.at_distance_ft is None:
                problems.append(
                    "calibration needs level + at_distance_ft (or a preset)"
                )
            elif calibration.at_distance_ft <= 0:
                problems.append("calibration at_distance_ft must be positive")
        elif calibration.level is not None or calibration.at_distance_ft is not None:
            problems.append(
                "calibration preset and level/at_distance_ft are exclusive"
            )

        problems.extend(self._validate_interferers())
        problems.extend(self._validate_links(seen))

        if self.traffic.packets < 1:
            problems.append("traffic.packets must be >= 1")
        if self.modem.antenna_branches < 1:
            problems.append("modem.antenna_branches must be >= 1")
        if self.floor_height_ft <= 0:
            problems.append("floor_height_ft must be positive")

        if problems:
            raise ScenarioError(
                f"scenario {self.name!r} is invalid:\n  - "
                + "\n  - ".join(problems)
            )
        return self

    def _validate_interferers(self) -> list[str]:
        problems: list[str] = []
        station_names = {s.name for s in self.stations}
        for index, interferer in enumerate(self.interferers):
            label = f"interferers[{index}]"
            schema = INTERFERER_KINDS.get(interferer.kind)
            if schema is None:
                problems.append(
                    f"{label}: unknown kind {interferer.kind!r} "
                    f"(valid: {', '.join(sorted(INTERFERER_KINDS))})"
                )
                continue
            allowed = set(schema["positions"]) | set(schema["passthrough"])
            for key in interferer.params:
                if key not in allowed:
                    problems.append(
                        f"{label}: unknown parameter {key!r} for kind "
                        f"{interferer.kind!r} (valid: {', '.join(sorted(allowed))})"
                    )
            for key in schema["required"]:
                if key not in interferer.params:
                    problems.append(f"{label}: missing required parameter {key!r}")
            for key in schema["positions"]:
                value = interferer.params.get(key)
                if value is not None and (
                    not isinstance(value, (tuple, list)) or len(value) != 2
                ):
                    problems.append(f"{label}: {key!r} must be an [x, y] pair")
            if interferer.kind == "competing_wavelan":
                at_station = interferer.params.get("at_station")
                if at_station is not None and at_station not in station_names:
                    problems.append(
                        f"{label}: at_station {at_station!r} names no station"
                    )
                if at_station is None and "at" not in interferer.params:
                    problems.append(f"{label}: needs 'at' or 'at_station'")
                if interferer.params.get("match_received_level") and len(
                    self.receivers()
                ) != 1:
                    problems.append(
                        f"{label}: match_received_level needs exactly one receiver"
                    )
        return problems

    def _validate_links(self, station_names: set[str]) -> list[str]:
        problems: list[str] = []
        for index, link in enumerate(self.links):
            label = f"links[{index}]"
            for endpoint, role_set, role_label in (
                (link.tx, TRANSMIT_ROLES, "transmit"),
                (link.rx, RECEIVE_ROLES, "receive"),
            ):
                if endpoint not in station_names:
                    problems.append(f"{label}: unknown station {endpoint!r}")
                else:
                    role = self.station(endpoint).role
                    if role not in role_set:
                        problems.append(
                            f"{label}: {endpoint!r} (role {role!r}) cannot "
                            f"{role_label}"
                        )
        if not self.links:
            if not self.transmitters():
                problems.append("scenario has no transmitter (role tx/sta)")
            if not self.receivers():
                problems.append("scenario has no receiver (role rx/ap)")
        return problems

    # ------------------------------------------------------------------
    # Serialization (shared by YAML io and the pool-crossing fleet runner)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A plain-dict form that omits defaulted fields (tidy YAML)."""
        out: dict[str, Any] = {"name": self.name}
        if self.description:
            out["description"] = self.description
        if self.room is not None:
            out["room"] = self.room
        if self.floor_height_ft != 10.0:
            out["floor_height_ft"] = self.floor_height_ft
        out["calibration"] = _calibration_to_dict(self.calibration)
        out["stations"] = [_station_to_dict(s) for s in self.stations]
        if self.walls:
            out["walls"] = [_wall_to_dict(w) for w in self.walls]
        if self.obstacles:
            out["obstacles"] = [_obstacle_to_dict(o) for o in self.obstacles]
        if self.interferers:
            out["interferers"] = [
                {"kind": i.kind, "params": _params_to_plain(i.params)}
                for i in self.interferers
            ]
        if self.links:
            out["links"] = [_link_to_dict(link) for link in self.links]
        out["traffic"] = _traffic_to_dict(self.traffic)
        modem = _modem_to_dict(self.modem)
        if modem:
            out["modem"] = modem
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Parse (and validate) a plain-dict spec; unknown keys are errors."""
        known = {
            "name", "description", "room", "floor_height_ft", "calibration",
            "stations", "walls", "obstacles", "interferers", "links",
            "traffic", "modem",
        }
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(
                f"unknown scenario keys: {', '.join(sorted(unknown))} "
                f"(valid: {', '.join(sorted(known))})"
            )
        if "name" not in data:
            raise ScenarioError("scenario is missing required key 'name'")
        spec = cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            room=data.get("room"),
            floor_height_ft=float(data.get("floor_height_ft", 10.0)),
            calibration=_calibration_from_dict(data.get("calibration", {})),
            stations=tuple(
                _station_from_dict(i, entry)
                for i, entry in enumerate(data.get("stations", ()))
            ),
            walls=tuple(
                _wall_from_dict(i, entry)
                for i, entry in enumerate(data.get("walls", ()))
            ),
            obstacles=tuple(
                _obstacle_from_dict(i, entry)
                for i, entry in enumerate(data.get("obstacles", ()))
            ),
            interferers=tuple(
                _interferer_from_dict(i, entry)
                for i, entry in enumerate(data.get("interferers", ()))
            ),
            links=tuple(
                _link_from_dict(i, entry)
                for i, entry in enumerate(data.get("links", ()))
            ),
            traffic=_traffic_from_dict(data.get("traffic", {})),
            modem=_modem_from_dict(data.get("modem", {})),
        )
        return spec.validate()

    def renamed(self, name: str) -> "ScenarioSpec":
        return replace(self, name=name)


# ----------------------------------------------------------------------
# dict <-> spec helpers
# ----------------------------------------------------------------------
def _station_to_dict(station: StationSpec) -> dict[str, Any]:
    out: dict[str, Any] = {
        "name": station.name,
        "role": station.role,
        "at": [station.position.x, station.position.y],
    }
    if station.position.floor:
        out["floor"] = station.position.floor
    return out


def _station_from_dict(index: int, data: Mapping[str, Any]) -> StationSpec:
    try:
        x, y = data["at"]
        return StationSpec(
            name=str(data["name"]),
            role=str(data.get("role", "sta")),
            position=Position(float(x), float(y), int(data.get("floor", 0))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"stations[{index}]: {exc}") from exc


def _wall_to_dict(wall: WallSpec) -> dict[str, Any]:
    out: dict[str, Any] = {
        "a": [wall.ax, wall.ay],
        "b": [wall.bx, wall.by],
        "material": wall.material,
    }
    if wall.name:
        out["name"] = wall.name
    if wall.floor:
        out["floor"] = wall.floor
    return out


def _wall_from_dict(index: int, data: Mapping[str, Any]) -> WallSpec:
    try:
        (ax, ay), (bx, by) = data["a"], data["b"]
        return WallSpec(
            ax=float(ax), ay=float(ay), bx=float(bx), by=float(by),
            material=str(data["material"]),
            name=str(data.get("name", "")),
            floor=int(data.get("floor", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"walls[{index}]: {exc}") from exc


def _obstacle_to_dict(obstacle: ObstacleSpec) -> dict[str, Any]:
    out: dict[str, Any] = {"material": obstacle.material}
    if obstacle.count != 1:
        out["count"] = obstacle.count
    return out


def _obstacle_from_dict(index: int, data: Mapping[str, Any]) -> ObstacleSpec:
    try:
        return ObstacleSpec(
            material=str(data["material"]), count=int(data.get("count", 1))
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"obstacles[{index}]: {exc}") from exc


def _calibration_to_dict(calibration: CalibrationSpec) -> dict[str, Any]:
    if calibration.preset is not None:
        return {"preset": calibration.preset}
    out: dict[str, Any] = {
        "level": calibration.level,
        "at_distance_ft": calibration.at_distance_ft,
    }
    if calibration.levels_per_decade != 17.5:
        out["levels_per_decade"] = calibration.levels_per_decade
    if calibration.dips:
        out["dips"] = [
            {
                "distance_ft": dip.distance_ft,
                "depth_levels": dip.depth_levels,
                **({"width_ft": dip.width_ft} if dip.width_ft != 1.5 else {}),
            }
            for dip in calibration.dips
        ]
    return out


def _calibration_from_dict(data: Mapping[str, Any]) -> CalibrationSpec:
    known = {"level", "at_distance_ft", "levels_per_decade", "preset", "dips"}
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(
            f"calibration: unknown keys {', '.join(sorted(unknown))}"
        )
    level = data.get("level")
    at_distance = data.get("at_distance_ft")
    return CalibrationSpec(
        level=float(level) if level is not None else None,
        at_distance_ft=float(at_distance) if at_distance is not None else None,
        levels_per_decade=float(data.get("levels_per_decade", 17.5)),
        preset=data.get("preset"),
        dips=tuple(
            DipSpec(
                distance_ft=float(dip["distance_ft"]),
                depth_levels=float(dip["depth_levels"]),
                width_ft=float(dip.get("width_ft", 1.5)),
            )
            for dip in data.get("dips", ())
        ),
    )


def _params_to_plain(params: Mapping[str, Any]) -> dict[str, Any]:
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in params.items()
    }


def normalize_params(params: Mapping[str, Any]) -> dict[str, Any]:
    """Lists → tuples so specs compare equal regardless of source."""
    return {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in params.items()
    }


def _interferer_from_dict(index: int, data: Mapping[str, Any]) -> InterfererSpec:
    try:
        return InterfererSpec(
            kind=str(data["kind"]),
            params=normalize_params(data.get("params", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"interferers[{index}]: {exc}") from exc


def _link_to_dict(link: LinkSpec) -> dict[str, Any]:
    out: dict[str, Any] = {"tx": link.tx, "rx": link.rx}
    if link.name:
        out["name"] = link.name
    return out


def _link_from_dict(index: int, data: Mapping[str, Any]) -> LinkSpec:
    try:
        return LinkSpec(
            tx=str(data["tx"]), rx=str(data["rx"]), name=str(data.get("name", ""))
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"links[{index}]: {exc}") from exc


def _traffic_to_dict(traffic: TrafficSpec) -> dict[str, Any]:
    out: dict[str, Any] = {"packets": traffic.packets}
    if traffic.outsiders is not None:
        outsiders = traffic.outsiders
        entry: dict[str, Any] = {"mean_level": outsiders.mean_level}
        if outsiders.level_sd != 1.3:
            entry["level_sd"] = outsiders.level_sd
        entry["rate_per_test_packet"] = outsiders.rate_per_test_packet
        out["outsiders"] = entry
    return out


def _traffic_from_dict(data: Mapping[str, Any]) -> TrafficSpec:
    known = {"packets", "outsiders"}
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(f"traffic: unknown keys {', '.join(sorted(unknown))}")
    outsiders = data.get("outsiders")
    return TrafficSpec(
        packets=int(data.get("packets", 1_440)),
        outsiders=OutsiderSpec(
            mean_level=float(outsiders["mean_level"]),
            level_sd=float(outsiders.get("level_sd", 1.3)),
            rate_per_test_packet=float(outsiders["rate_per_test_packet"]),
        )
        if outsiders is not None
        else None,
    )


def _modem_to_dict(modem: ModemSpec) -> dict[str, Any]:
    out: dict[str, Any] = {}
    if modem.receive_threshold is not None:
        out["receive_threshold"] = modem.receive_threshold
    if modem.quality_threshold is not None:
        out["quality_threshold"] = modem.quality_threshold
    if modem.antenna_branches != 2:
        out["antenna_branches"] = modem.antenna_branches
    return out


def _modem_from_dict(data: Mapping[str, Any]) -> ModemSpec:
    known = {"receive_threshold", "quality_threshold", "antenna_branches"}
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(f"modem: unknown keys {', '.join(sorted(unknown))}")
    receive = data.get("receive_threshold")
    quality = data.get("quality_threshold")
    return ModemSpec(
        receive_threshold=int(receive) if receive is not None else None,
        quality_threshold=int(quality) if quality is not None else None,
        antenna_branches=int(data.get("antenna_branches", 2)),
    )


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
class ScenarioBuilder:
    """Fluent construction of a :class:`ScenarioSpec`.

    ::

        spec = (
            ScenarioBuilder("paper/office", "Table 2 office desk")
            .calibrate(level=29.5, at_distance_ft=8.0)
            .station("tx", 0.0, 0.0, role="tx")
            .station("rx", 8.0, 0.0, role="rx")
            .traffic(packets=12_720)
            .build()
        )

    ``build()`` validates; every other method returns ``self``.
    """

    def __init__(self, name: str, description: str = "") -> None:
        self._name = name
        self._description = description
        self._room: Optional[str] = None
        self._floor_height_ft = 10.0
        self._calibration = CalibrationSpec()
        self._stations: list[StationSpec] = []
        self._walls: list[WallSpec] = []
        self._obstacles: list[ObstacleSpec] = []
        self._interferers: list[InterfererSpec] = []
        self._links: list[LinkSpec] = []
        self._traffic = TrafficSpec()
        self._modem = ModemSpec()

    def room(self, name: str) -> "ScenarioBuilder":
        self._room = name
        return self

    def floor_height(self, feet: float) -> "ScenarioBuilder":
        self._floor_height_ft = feet
        return self

    def calibrate(
        self,
        level: float,
        at_distance_ft: float,
        levels_per_decade: float = 17.5,
        dips: Sequence[DipSpec] = (),
    ) -> "ScenarioBuilder":
        self._calibration = CalibrationSpec(
            level=level,
            at_distance_ft=at_distance_ft,
            levels_per_decade=levels_per_decade,
            dips=tuple(dips),
        )
        return self

    def preset(self, name: str) -> "ScenarioBuilder":
        self._calibration = CalibrationSpec(preset=name)
        return self

    def station(
        self, name: str, x: float, y: float, role: str = "sta", floor: int = 0
    ) -> "ScenarioBuilder":
        self._stations.append(StationSpec(name, role, Position(x, y, floor)))
        return self

    def wall(
        self,
        ax: float,
        ay: float,
        bx: float,
        by: float,
        material: str,
        name: str = "",
        floor: int = 0,
    ) -> "ScenarioBuilder":
        self._walls.append(WallSpec(ax, ay, bx, by, material, name, floor))
        return self

    def obstacle(self, material: str, count: int = 1) -> "ScenarioBuilder":
        self._obstacles.append(ObstacleSpec(material, count))
        return self

    def interferer(self, kind: str, **params: Any) -> "ScenarioBuilder":
        self._interferers.append(InterfererSpec(kind, normalize_params(params)))
        return self

    def link(self, tx: str, rx: str, name: str = "") -> "ScenarioBuilder":
        self._links.append(LinkSpec(tx, rx, name))
        return self

    def traffic(
        self, packets: int, outsiders: Optional[OutsiderSpec] = None
    ) -> "ScenarioBuilder":
        self._traffic = TrafficSpec(packets=packets, outsiders=outsiders)
        return self

    def modem(
        self,
        receive_threshold: Optional[int] = None,
        quality_threshold: Optional[int] = None,
        antenna_branches: int = 2,
    ) -> "ScenarioBuilder":
        self._modem = ModemSpec(receive_threshold, quality_threshold, antenna_branches)
        return self

    def build(self) -> ScenarioSpec:
        return ScenarioSpec(
            name=self._name,
            description=self._description,
            room=self._room,
            floor_height_ft=self._floor_height_ft,
            calibration=self._calibration,
            stations=tuple(self._stations),
            walls=tuple(self._walls),
            obstacles=tuple(self._obstacles),
            interferers=tuple(self._interferers),
            links=tuple(self._links),
            traffic=self._traffic,
            modem=self._modem,
        ).validate()
