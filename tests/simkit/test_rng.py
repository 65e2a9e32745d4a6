"""Named random streams: determinism and independence."""

import numpy as np

from repro import obs
from repro.simkit.rng import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "channel") == derive_seed(42, "channel")

    def test_differs_by_name(self):
        assert derive_seed(42, "channel") != derive_seed(42, "mac")

    def test_differs_by_root(self):
        assert derive_seed(1, "channel") != derive_seed(2, "channel")

    def test_fits_32_bits(self):
        for seed in (0, 1, 2**31, 2**63 - 1):
            assert 0 <= derive_seed(seed, "x") < 2**32


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        reg = RngRegistry(seed=1)
        assert reg.stream("a") is reg.stream("a")

    def test_different_names_independent_draws(self):
        reg = RngRegistry(seed=1)
        a = reg.stream("a").random(100)
        b = reg.stream("b").random(100)
        assert not np.allclose(a, b)

    def test_reproducible_across_registries(self):
        draws_1 = RngRegistry(seed=7).stream("x").random(50)
        draws_2 = RngRegistry(seed=7).stream("x").random(50)
        assert np.array_equal(draws_1, draws_2)

    def test_new_stream_does_not_perturb_existing(self):
        """The property the registry exists for: adding a consumer of a
        new stream must not change draws on existing streams."""
        reg_1 = RngRegistry(seed=7)
        reg_1.stream("a").random(10)
        tail_1 = reg_1.stream("a").random(10)

        reg_2 = RngRegistry(seed=7)
        reg_2.stream("a").random(10)
        reg_2.stream("newcomer").random(1000)  # interloper
        tail_2 = reg_2.stream("a").random(10)
        assert np.array_equal(tail_1, tail_2)

    def test_fork_gives_distinct_seed_space(self):
        reg = RngRegistry(seed=7)
        child_1 = reg.fork("trial-1").stream("a").random(10)
        child_2 = reg.fork("trial-2").stream("a").random(10)
        assert not np.allclose(child_1, child_2)

    def test_names_lists_created_streams(self):
        reg = RngRegistry(seed=1)
        reg.stream("zeta")
        reg.stream("alpha")
        assert reg.names() == ["alpha", "zeta"]

    def test_session_does_not_change_draws(self):
        """A stream is the plain generator, and its draws are the same
        with an observability session open or not."""

        def draws() -> list:
            stream = RngRegistry(seed=11).stream("channel")
            assert type(stream) is np.random.Generator
            return [
                stream.random(4).tolist(),
                stream.random(),
                stream.integers(0, 1000, 3).tolist(),
                stream.random(),
                stream.normal(0.0, 1.0, 2).tolist(),
            ]

        plain = draws()
        with obs.session(telemetry_path=None):
            observed = draws()
        assert observed == plain
