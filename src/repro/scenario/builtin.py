"""Built-in scenarios: every paper setup, declaratively, exactly once.

This module is the single source of truth for the paper's physical
geometry.  The experiment modules resolve these registry names — so
the Table-4 walls, the Figure-4 building, and the interference rooms
each exist in exactly one place.

Naming convention: ``paper/<artifact>-<variant>`` for reproduced
setups, ``demo/<name>`` for the new scenarios the DSL unlocks (3-floor
building, dense office, interferer pareto point).

The numbers themselves (anchors, positions, wall coordinates) are
pinned by the golden-equivalence tests in ``tests/scenario/`` against
the pre-refactor constructors — do not tweak them casually.
"""

from __future__ import annotations

from repro.environment.materials import (
    CONCRETE_BLOCK_WALL,
)
from repro.scenario.spec import (
    DipSpec,
    OutsiderSpec,
    ScenarioBuilder,
    ScenarioSpec,
)

# Positions used by the phone trials, relative to the receiver at the
# origin (see the paper's Section 7 prose).
PHONE_NEAR = (0.4, 0.3)  # "a few inches from the receiver's modem unit"
PHONE_NEAR_2 = (-0.4, 0.3)  # the second phone's unit, also clustered
PHONE_ACROSS_HALL = (0.0, 30.0)  # "an office across the hall"
PHONE_ACROSS_HALL_2 = (2.0, 30.0)
PHONE_FAR = (11.0, 8.7)  # "approximately 14 feet from the receiver"
PHONE_FAR_BASE = (12.5, 8.7)

#: Experiment-trial name -> registry scenario name, per experiment.
#: The experiment modules use these to tag their plans and compile
#: their geometry; the keys are the paper's trial labels.
TABLE4_SCENARIOS = {
    "Air 1": "paper/table4-air1",
    "Wall 1": "paper/table4-wall1",
    "Air 2": "paper/table4-air2",
    "Wall 2": "paper/table4-wall2",
}
TABLE10_SCENARIOS = {
    "Phones off": "paper/table10-phones-off",
    "Cluster": "paper/table10-cluster",
    "Handsets nearby": "paper/table10-handsets-nearby",
    "Handsets nearby talking": "paper/table10-handsets-talking",
    "Bases nearby": "paper/table10-bases-nearby",
}
TABLE11_SCENARIOS = {
    "Phones off": "paper/table11-phones-off",
    "RS base": "paper/table11-rs-base",
    "RS cluster": "paper/table11-rs-cluster",
    "AT&T cluster": "paper/table11-att-cluster",
    "RS remote cluster": "paper/table11-rs-remote",
    "AT&T handset": "paper/table11-att-handset",
}
TABLE14_SCENARIOS = {
    "Without interference": "paper/table14-quiet",
    "With interference": "paper/table14-masked",
    "Unmasked (threshold 3)": "paper/table14-unmasked",
}


def _office() -> ScenarioSpec:
    return (
        ScenarioBuilder("paper/office", "Table 2: two laptops across an office desk")
        .calibrate(level=29.5, at_distance_ft=8.0)
        .station("tx", 0.0, 0.0, role="tx")
        .station("rx", 8.0, 0.0, role="rx")
        .traffic(packets=12_720)
        .build()
    )


def _lecture_hall() -> ScenarioSpec:
    return (
        ScenarioBuilder(
            "paper/lecture-hall",
            "Figures 1-3: the lecture hall with its multipath dips",
        )
        .preset("lecture_hall")
        .station("tx", 30.0, 0.0, role="tx")
        .station("rx", 0.0, 0.0, role="rx")
        .traffic(packets=576)
        .build()
    )


def _table4() -> list[ScenarioSpec]:
    def pair(name: str, description: str, level: float, distance: float):
        return (
            ScenarioBuilder(name, description)
            .calibrate(level=level, at_distance_ft=distance)
            .station("tx", distance, 0.0, role="tx")
            .station("rx", 0.0, 0.0, role="rx")
            .traffic(packets=12_720)
        )

    air1 = pair(
        "paper/table4-air1", "Table 4 'Air 1': 7 ft, no wall", 30.58, 7.0
    ).build()
    wall1 = (
        pair("paper/table4-wall1", "Table 4 'Wall 1': plaster+mesh wall", 30.58, 7.0)
        .room("plaster office")
        .wall(3.5, -8.0, 3.5, 8.0, "plaster+wire-mesh wall")
        .build()
    )
    air2 = pair(
        "paper/table4-air2", "Table 4 'Air 2': 11 ft, no wall", 28.58, 11.0
    ).build()
    wall2 = (
        pair("paper/table4-wall2", "Table 4 'Wall 2': concrete-block wall", 28.58, 11.0)
        .room("concrete office")
        .wall(5.5, -8.0, 5.5, 8.0, "concrete-block wall")
        .build()
    )
    return [air1, wall1, air2, wall2]


def _multiroom_builder(name: str, description: str) -> ScenarioBuilder:
    """The Figure-4 concrete-block building (Tables 5-7 and 14).

    One geometry definition serves both experiments — the dedupe the
    scenario layer exists for.
    """
    return (
        ScenarioBuilder(name, description)
        .room("figure-4 building")
        .calibrate(level=28.58, at_distance_ft=9.0)
        # West: one concrete wall between the office and Tx2's room.
        .wall(-5.0, -6.0, -5.0, 6.0, "concrete-block wall", name="w-wall")
        # North corridor toward Tx4: two concrete walls and a door.
        .wall(-8.0, 15.0, 8.0, 15.0, "concrete-block wall", name="n-wall-1")
        .wall(-8.0, 32.0, 8.0, 32.0, "interior door", name="n-door")
        # East toward Tx5: two concrete walls, two metal obstacles, a door.
        .wall(5.0, -3.0, 5.0, 3.0, "concrete-block wall", name="e-wall-1")
        .wall(12.0, -3.0, 12.0, 3.0, "concrete-block wall", name="e-wall-2")
        .wall(18.0, -3.0, 18.0, 3.0, "metal obstacle", name="e-cabinet-1")
        .wall(22.0, -3.0, 22.0, 3.0, "metal obstacle", name="e-cabinet-2")
        .wall(26.0, -3.0, 26.0, 3.0, "interior door", name="e-door")
        .station("rx", 0.0, 0.0, role="rx")
        .station("Tx1", 7.2, 5.4, role="tx")  # 9.0 ft diagonal, same office
        .station("Tx2", -9.6, 0.0, role="tx")  # through the west concrete wall
        .station("Tx4", 0.0, 45.0, role="tx")  # north, 45 ft, wall + door
        .station("Tx5", 30.0, 0.0, role="tx")  # east, 30 ft, walls + metal
    )


def _multiroom() -> ScenarioSpec:
    return (
        _multiroom_builder(
            "paper/multiroom", "Tables 5-7: four transmitter locations, Figure 4"
        )
        .traffic(packets=12_720)
        .build()
    )


def _table14() -> list[ScenarioSpec]:
    def variant(name: str, description: str, threshold: int, jammed: bool):
        builder = (
            _multiroom_builder(name, description)
            .link("Tx1", "rx", name="Tx1")
            .modem(receive_threshold=threshold)
            .traffic(packets=12_715)
        )
        if jammed:
            for location in ("Tx4", "Tx5"):
                builder.interferer(
                    "competing_wavelan",
                    at_station=location,
                    match_received_level=True,
                    name=f"hostile-{location}",
                )
        return builder.build()

    return [
        variant(
            "paper/table14-quiet",
            "Table 14: Tx1 link, victim threshold 25, no competition",
            25,
            False,
        ),
        variant(
            "paper/table14-masked",
            "Table 14: hostile units at Tx4/Tx5 masked by threshold 25",
            25,
            True,
        ),
        variant(
            "paper/table14-unmasked",
            "Table 14: default threshold 3 — 'completely unusable'",
            3,
            True,
        ),
    ]


def _body(with_body: bool) -> ScenarioSpec:
    name = "paper/body" if with_body else "paper/no-body"
    builder = (
        ScenarioBuilder(
            name,
            "Tables 8-9: 56 ft across a hallway, two concrete walls"
            + (", a person in the way" if with_body else ""),
        )
        .room("hallway classrooms")
        .calibrate(
            level=12.55 + 2.0 * CONCRETE_BLOCK_WALL.attenuation_levels,
            at_distance_ft=56.0,
        )
        .wall(15.0, -10.0, 15.0, 10.0, "concrete-block wall")
        .wall(40.0, -10.0, 40.0, 10.0, "concrete-block wall")
        .station("tx", 56.0, 0.0, role="tx")
        .station("rx", 0.0, 0.0, role="rx")
        .traffic(packets=1_440)
    )
    if with_body:
        builder.obstacle("human body")
    return builder.build()


def _narrowband_room(variant: str) -> ScenarioSpec:
    """Table 10: FM cordless phones around a 20 ft lecture-hall link."""
    builder = (
        ScenarioBuilder(
            TABLE10_SCENARIOS[variant],
            f"Table 10 {variant!r}: narrowband 900 MHz cordless phones",
        )
        .calibrate(level=26.71, at_distance_ft=20.0)
        .station("tx", 20.0, 0.0, role="tx")
        .station("rx", 0.0, 0.0, role="rx")
    )
    outsiders = None
    if variant == "Phones off":
        outsiders = OutsiderSpec(mean_level=4.7, rate_per_test_packet=0.23)
    elif variant == "Cluster":
        # Handsets docked on their bases, all a few inches away.
        builder.interferer(
            "narrowband_phone", handset=PHONE_NEAR, base=PHONE_NEAR, name="att-9100"
        )
        builder.interferer(
            "narrowband_phone", handset=PHONE_NEAR_2, base=PHONE_NEAR_2,
            name="panasonic",
        )
    elif variant == "Handsets nearby":
        builder.interferer(
            "narrowband_phone", handset=PHONE_NEAR, base=PHONE_ACROSS_HALL,
            name="att-9100",
        )
        builder.interferer(
            "narrowband_phone", handset=PHONE_NEAR_2, base=PHONE_ACROSS_HALL_2,
            name="panasonic",
        )
    elif variant == "Handsets nearby talking":
        builder.interferer(
            "narrowband_phone", handset=PHONE_NEAR, base=PHONE_ACROSS_HALL,
            talking=True, name="att-9100",
        )
        builder.interferer(
            "narrowband_phone", handset=PHONE_NEAR_2, base=PHONE_ACROSS_HALL_2,
            talking=True, name="panasonic",
        )
        outsiders = OutsiderSpec(mean_level=7.0, rate_per_test_packet=0.15)
    elif variant == "Bases nearby":
        builder.interferer(
            "narrowband_phone", handset=PHONE_ACROSS_HALL, base=PHONE_NEAR,
            name="att-9100",
        )
        builder.interferer(
            "narrowband_phone", handset=PHONE_ACROSS_HALL_2, base=PHONE_NEAR_2,
            name="panasonic",
        )
    return builder.traffic(packets=1_440, outsiders=outsiders).build()


def _spread_room(variant: str) -> ScenarioSpec:
    """Tables 11-13: spread-spectrum phones around a 25 ft link."""
    builder = (
        ScenarioBuilder(
            TABLE11_SCENARIOS[variant],
            f"Table 11 {variant!r}: 900 MHz spread-spectrum cordless phones",
        )
        .calibrate(level=29.63, at_distance_ft=25.0)
        .station("tx", 25.0, 0.0, role="tx")
        .station("rx", 0.0, 0.0, role="rx")
    )
    outsiders = None
    if variant == "Phones off":
        # The quiet trial heard many outsiders (619 of 2008 records).
        outsiders = OutsiderSpec(
            mean_level=5.5, level_sd=2.2, rate_per_test_packet=0.45
        )
    elif variant == "RS base":
        builder.interferer(
            "spread_phone", handset=PHONE_FAR, base=PHONE_NEAR, variant="rs",
            base_level_at_1ft=31.5, name="rs-et909",
        )
    elif variant == "RS cluster":
        builder.interferer(
            "spread_phone", handset=PHONE_NEAR_2, base=PHONE_NEAR, variant="rs",
            base_level_at_1ft=31.5, name="rs-et909",
        )
    elif variant == "AT&T cluster":
        builder.interferer(
            "spread_phone", handset=PHONE_NEAR_2, base=PHONE_NEAR, variant="att",
            base_level_at_1ft=33.0, name="att-9300",
        )
    elif variant == "RS remote cluster":
        builder.interferer(
            "spread_phone", handset=PHONE_FAR, base=PHONE_FAR_BASE, variant="rs",
            base_level_at_1ft=31.5, name="rs-et909",
        )
    elif variant == "AT&T handset":
        builder.interferer(
            "spread_phone", handset=PHONE_NEAR, base=PHONE_ACROSS_HALL,
            variant="att", base_level_at_1ft=33.0,
            # The AT&T handset runs hot enough at inches from the
            # receiver to land in the intermediate-damage regime.
            handset_level_at_1ft=23.5, name="att-9300",
        )
    return builder.traffic(packets=1_440, outsiders=outsiders).build()


def _demo_interferer_pareto() -> ScenarioSpec:
    """One point of the interferer pareto family the generator sweeps:
    an office link with a spread-spectrum phone at middling distance
    (see ``examples/scenario_sweep.py`` for the whole frontier)."""
    return (
        ScenarioBuilder(
            "demo/interferer-pareto",
            "Office link vs one SS phone at middling range (sweep anchor)",
        )
        .calibrate(level=29.5, at_distance_ft=8.0)
        .station("tx", 0.0, 0.0, role="tx")
        .station("rx", 8.0, 0.0, role="rx")
        .interferer(
            "spread_phone", handset=(8.5, 4.0), base=(10.0, 4.0), name="ss-phone"
        )
        .traffic(packets=1_440)
        .build()
    )


def builtin_specs() -> list[ScenarioSpec]:
    """Every built-in scenario, in registry (= presentation) order."""
    from repro.scenario.generate import dense_office, stack_floors

    specs: list[ScenarioSpec] = [_office(), _lecture_hall()]
    specs.extend(_table4())
    specs.append(_multiroom())
    specs.extend([_body(False), _body(True)])
    specs.extend(_narrowband_room(variant) for variant in TABLE10_SCENARIOS)
    specs.extend(_spread_room(variant) for variant in TABLE11_SCENARIOS)
    specs.extend(_table14())
    specs.append(
        stack_floors(
            floors=3, name="demo/three-floor",
            description="A 3-floor building: one AP on the middle storey",
        )
    )
    specs.append(
        dense_office(
            stations=50, name="demo/dense-office",
            description="50-station dense office, two APs, interior walls",
        )
    )
    specs.append(_demo_interferer_pareto())
    return specs
