"""Golden equivalence: DSL-compiled scenarios == the hand-coded setups.

The experiment modules used to build their ``TrialConfig`` objects by
hand; they now compile them from the scenario registry.  These tests
pin the compiled configurations to inline copies of the original
hand-coded constructions — structurally where the configs are fully
comparable, and byte-identically on the persisted trial traces, so any
drift in the compiler or the built-in specs shows up as a failure here
rather than as silently shifted tables.
"""

from __future__ import annotations

import pytest

from repro.environment.floorplan import FloorPlan, Wall
from repro.environment.geometry import Point
from repro.environment.materials import (
    CONCRETE_BLOCK_WALL,
    INTERIOR_DOOR,
    METAL_OBSTACLE,
    PLASTER_MESH_WALL,
)
from repro.environment.propagation import PropagationModel
from repro.interference.spreadspectrum import SpreadSpectrumPhonePair
from repro.scenario.registry import REGISTRY
from repro.trace.outsiders import OutsiderTraffic
from repro.trace.persist import save_trace
from repro.trace.trial import TrialConfig, run_fast_trial

PACKETS = 300


def _trace_bytes(config, tmp_path, tag):
    output = run_fast_trial(config)
    path = tmp_path / f"{tag}.wlt2"
    save_trace(output.trace, str(path), format="v2")
    return path.read_bytes()


def _assert_byte_identical(legacy_config, compiled_config, tmp_path, tag):
    legacy = _trace_bytes(legacy_config, tmp_path, f"{tag}-legacy")
    compiled = _trace_bytes(compiled_config, tmp_path, f"{tag}-compiled")
    assert legacy == compiled, f"{tag}: compiled trial diverged from legacy"


def test_table2_office_byte_identical(tmp_path):
    propagation = PropagationModel.calibrated(level=29.5, at_distance_ft=8.0)
    legacy = TrialConfig(
        name="office1",
        packets=PACKETS,
        seed=11,
        propagation=propagation,
        tx_position=Point(0.0, 0.0),
        rx_position=Point(8.0, 0.0),
    )
    compiled = REGISTRY.compile("paper/office").trial_config(
        name="office1", packets=PACKETS, seed=11
    )
    assert compiled.propagation == propagation
    assert (compiled.tx_position, compiled.rx_position) == (
        legacy.tx_position,
        legacy.rx_position,
    )
    _assert_byte_identical(legacy, compiled, tmp_path, "office")


@pytest.mark.parametrize(
    "trial,scenario,level,anchor_ft,plan",
    [
        ("Air 1", "paper/table4-air1", 30.58, 7.0, None),
        ("Wall 1", "paper/table4-wall1", 30.58, 7.0, "plaster"),
        ("Air 2", "paper/table4-air2", 28.58, 11.0, None),
        ("Wall 2", "paper/table4-wall2", 28.58, 11.0, "concrete"),
    ],
)
def test_table4_byte_identical(tmp_path, trial, scenario, level, anchor_ft, plan):
    floorplan = None
    if plan == "plaster":
        floorplan = FloorPlan(
            name="plaster office",
            walls=[Wall.between(3.5, -8.0, 3.5, 8.0, PLASTER_MESH_WALL)],
        )
    elif plan == "concrete":
        floorplan = FloorPlan(
            name="concrete office",
            walls=[Wall.between(5.5, -8.0, 5.5, 8.0, CONCRETE_BLOCK_WALL)],
        )
    propagation = PropagationModel.calibrated(
        level=level, at_distance_ft=anchor_ft, floorplan=floorplan
    )
    legacy = TrialConfig(
        name=trial,
        packets=PACKETS,
        seed=64,
        propagation=propagation,
        tx_position=Point(anchor_ft, 0.0),
        rx_position=Point(0.0, 0.0),
    )
    compiled = REGISTRY.compile(scenario).trial_config(
        name=trial, packets=PACKETS, seed=64
    )
    assert compiled.propagation == propagation
    _assert_byte_identical(legacy, compiled, tmp_path, trial)


def _legacy_multiroom_propagation() -> PropagationModel:
    plan = FloorPlan(name="figure-4 building")
    plan.add_wall(
        Wall.between(-5.0, -6.0, -5.0, 6.0, CONCRETE_BLOCK_WALL, "w-wall")
    )
    plan.add_wall(
        Wall.between(-8.0, 15.0, 8.0, 15.0, CONCRETE_BLOCK_WALL, "n-wall-1")
    )
    plan.add_wall(Wall.between(-8.0, 32.0, 8.0, 32.0, INTERIOR_DOOR, "n-door"))
    plan.add_wall(
        Wall.between(5.0, -3.0, 5.0, 3.0, CONCRETE_BLOCK_WALL, "e-wall-1")
    )
    plan.add_wall(
        Wall.between(12.0, -3.0, 12.0, 3.0, CONCRETE_BLOCK_WALL, "e-wall-2")
    )
    plan.add_wall(
        Wall.between(18.0, -3.0, 18.0, 3.0, METAL_OBSTACLE, "e-cabinet-1")
    )
    plan.add_wall(
        Wall.between(22.0, -3.0, 22.0, 3.0, METAL_OBSTACLE, "e-cabinet-2")
    )
    plan.add_wall(Wall.between(26.0, -3.0, 26.0, 3.0, INTERIOR_DOOR, "e-door"))
    return PropagationModel.calibrated(
        level=28.58, at_distance_ft=9.0, floorplan=plan
    )


@pytest.mark.parametrize(
    "link,tx",
    [
        ("Tx1", Point(7.2, 5.4)),
        ("Tx2", Point(-9.6, 0.0)),
        ("Tx4", Point(0.0, 45.0)),
        ("Tx5", Point(30.0, 0.0)),
    ],
)
def test_multiroom_byte_identical(tmp_path, link, tx):
    legacy = TrialConfig(
        name=link,
        packets=PACKETS,
        seed=65,
        propagation=_legacy_multiroom_propagation(),
        tx_position=tx,
        rx_position=Point(0.0, 0.0),
    )
    compiled = REGISTRY.compile("paper/multiroom").trial_config(
        link=link, packets=PACKETS, seed=65
    )
    assert compiled.tx_position == tx
    _assert_byte_identical(legacy, compiled, tmp_path, link)


def _legacy_table11_config(trial, interference, outsiders, seed=73):
    propagation = PropagationModel.calibrated(level=29.63, at_distance_ft=25.0)
    return TrialConfig(
        name=trial,
        packets=PACKETS,
        seed=seed,
        propagation=propagation,
        tx_position=Point(25.0, 0.0),
        rx_position=Point(0.0, 0.0),
        interference=interference,
        outsiders=outsiders,
    )


PHONE_NEAR = Point(0.4, 0.3)
PHONE_FAR = Point(11.0, 8.7)


@pytest.mark.parametrize(
    "trial,scenario,interference,outsiders",
    [
        (
            "Phones off",
            "paper/table11-phones-off",
            [],
            OutsiderTraffic(mean_level=5.5, level_sd=2.2, rate_per_test_packet=0.45),
        ),
        (
            "RS base",
            "paper/table11-rs-base",
            [
                SpreadSpectrumPhonePair(
                    handset_position=PHONE_FAR,
                    base_position=PHONE_NEAR,
                    variant="rs",
                    base_level_at_1ft=31.5,
                    name="rs-et909",
                )
            ],
            None,
        ),
        (
            "AT&T handset",
            "paper/table11-att-handset",
            [
                SpreadSpectrumPhonePair(
                    handset_position=PHONE_NEAR,
                    base_position=Point(0.0, 30.0),
                    variant="att",
                    base_level_at_1ft=33.0,
                    handset_level_at_1ft=23.5,
                    name="att-9300",
                )
            ],
            None,
        ),
    ],
)
def test_table11_configs_equal_and_byte_identical(
    tmp_path, trial, scenario, interference, outsiders
):
    legacy = _legacy_table11_config(trial, interference, outsiders)
    compiled = REGISTRY.compile(scenario).trial_config(
        name=trial, packets=PACKETS, seed=73
    )
    # Legacy passed explicit interference lists and outsiders, so the
    # whole config is structurally comparable here.
    assert compiled == legacy
    _assert_byte_identical(legacy, compiled, tmp_path, trial.replace(" ", "-"))


def test_registry_unknown_name_lists_valid_names():
    from repro.scenario.spec import ScenarioError

    with pytest.raises(ScenarioError) as exc:
        REGISTRY.get("paper/no-such-thing")
    message = str(exc.value)
    assert "paper/no-such-thing" in message
    assert "paper/office" in message  # valid names are listed


def test_engine_rejects_plans_tagged_with_unknown_scenario():
    from repro.experiments.engine import (
        ENGINE,
        ExperimentSpec,
        PlanContext,
        TrialPlan,
    )

    def build_plans(ctx: PlanContext):
        return [
            TrialPlan(
                "t", lambda seed: seed, {}, scenario="bogus/not-registered"
            )
        ]

    spec = ExperimentSpec(
        name="bogus-scenario-test",
        artifact="none",
        description="plan tagged with an unregistered scenario",
        build_plans=build_plans,
        aggregate=lambda ctx, values: values,
    )
    with pytest.raises(Exception) as exc:
        ENGINE.run(spec, scale=1.0, seed=0)
    assert "bogus/not-registered" in str(exc.value)


def test_experiment_plans_are_tagged_with_registered_scenarios():
    """Every paper experiment advertises which topology its trials use."""
    from repro.experiments import engine as engine_module

    tagged = {}
    for spec in engine_module.specs():
        ctx = engine_module.PlanContext(
            scale=0.01, seed=spec.default_seed, jobs=1
        )
        for plan in spec.build_plans(ctx):
            if plan.scenario is not None:
                assert plan.scenario in REGISTRY, (
                    f"{spec.name}:{plan.name} tags unregistered "
                    f"scenario {plan.scenario!r}"
                )
                tagged.setdefault(spec.name, set()).add(plan.scenario)
    # The paper-table experiments all declare their topologies.
    for name in ("table2", "table4", "table5", "table8", "table10",
                 "table11", "table14", "table3", "fec"):
        assert name in tagged, f"experiment {name} has untagged plans"
