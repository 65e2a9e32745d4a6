"""The calibrated propagation model."""

import numpy as np
import pytest

from repro.environment.floorplan import FloorPlan, Wall
from repro.environment.geometry import Point
from repro.environment.materials import CONCRETE_BLOCK_WALL
from repro.environment.propagation import (
    AmbientNoise,
    MultipathDip,
    PropagationModel,
)


class TestLogDistanceLaw:
    def test_monotone_decreasing_beyond_saturation(self):
        model = PropagationModel()
        levels = [model.path_level(d) for d in (5, 10, 20, 40, 80)]
        assert levels == sorted(levels, reverse=True)
        assert len(set(levels)) == len(levels)

    def test_slope_per_decade(self):
        model = PropagationModel(levels_per_decade=17.5, saturation_level=99.0)
        drop = model.path_level(5.0) - model.path_level(50.0)
        assert drop == pytest.approx(17.5)

    def test_saturation_near_contact(self):
        model = PropagationModel()
        assert model.path_level(0.0) == model.saturation_level
        assert model.path_level(0.5) == model.saturation_level

    def test_office_anchor(self):
        # The office model reads ~30.5 at 7 ft (Table 4 "Air 1").
        model = PropagationModel.office()
        assert model.path_level(7.0) == pytest.approx(30.5, abs=0.5)

    def test_calibrated_hits_anchor(self):
        model = PropagationModel.calibrated(level=26.71, at_distance_ft=20.0)
        assert model.mean_level(Point(0, 0), Point(20, 0)) == pytest.approx(26.71)


class TestObstaclesAndDips:
    def test_wall_subtracts_material_levels(self):
        plan = FloorPlan(
            walls=[Wall.between(5, -5, 5, 5, CONCRETE_BLOCK_WALL)]
        )
        with_wall = PropagationModel(floorplan=plan)
        without = PropagationModel()
        a, b = Point(0, 0), Point(10, 0)
        assert without.mean_level(a, b) - with_wall.mean_level(a, b) == pytest.approx(
            CONCRETE_BLOCK_WALL.attenuation_levels
        )

    def test_dip_attenuates_at_its_distance(self):
        dip = MultipathDip(distance_ft=30.0, depth_levels=7.0, width_ft=2.5)
        assert dip.attenuation_at(30.0) == pytest.approx(7.0)
        assert dip.attenuation_at(40.0) < 0.01

    def test_lecture_hall_has_both_paper_dips(self):
        model = PropagationModel.lecture_hall()
        rx = Point(0, 0)

        def level(d):
            return model.mean_level(Point(d, 0), rx)

        # Level at the dip sits below both neighbours (non-monotonic).
        assert level(6.0) < level(4.0)
        assert level(6.0) < level(9.0)
        assert level(30.0) < level(25.0)
        assert level(30.0) < level(35.0)

    def test_error_region_reachable_in_hall(self):
        # The far side of a ~90 ft hall lands below level 8 (Figure 2).
        model = PropagationModel.lecture_hall()
        assert model.mean_level(Point(90, 0), Point(0, 0)) < 8.0


class TestAmbientNoise:
    def test_samples_non_negative(self, rng):
        ambient = AmbientNoise()
        draws = ambient.sample(rng, 10_000)
        assert (draws >= 0).all()

    def test_mean_matches_paper_quiet_trials(self, rng):
        ambient = AmbientNoise()
        draws = ambient.sample(rng, 50_000)
        assert draws.mean() == pytest.approx(ambient.mean_level, abs=0.15)

    @pytest.mark.parametrize("mean", [2.8, 0.5, -1.0])
    def test_sample_level_equals_clipped_size_one_draw(self, mean):
        """The scalar reading is the old ``np.clip(normal(m, sd, 1), 0,
        None)[0]``, draw for draw, clipped readings included."""
        ambient = AmbientNoise(mean_level=mean, sd_level=1.4)
        scalar = np.random.default_rng(7)
        reference = np.random.default_rng(7)
        for _ in range(2_000):
            level = ambient.sample_level(scalar)
            expected = np.clip(
                reference.normal(ambient.mean_level, ambient.sd_level, 1),
                0.0,
                None,
            )[0]
            assert type(level) is float
            assert level == expected
        assert scalar.random() == reference.random()
