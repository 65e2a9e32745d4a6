"""The unified experiment engine: registry, seed streams, golden pins.

Three pillars:

* **Registry coverage** — every experiment module registers exactly one
  spec, the CLI surfaces (``list``, per-name subcommands, ``report``)
  are generated from the registry, and aliases resolve without
  shadowing canonical names.
* **Seed streams** — every trial's RNG stream is a pure function of
  ``(root seed, experiment name, trial label)``; no two trials anywhere
  in a full ``report`` run collide, which is what makes sharing one
  root seed across all experiments sound.
* **Golden equivalence** — the engine's plumbing (plan -> task -> seed
  injection -> aggregation) is behaviour-neutral: running through
  ``ExperimentEngine`` equals a hand-rolled loop over the trial runner
  with the same derived seeds.
"""

import pkgutil

import numpy as np
import pytest

import repro.experiments as experiments_pkg
from repro.experiments import baseline, engine, fec_eval, phones_spread, walls
from repro.experiments.engine import (
    ENGINE,
    ExperimentSpec,
    PlanContext,
    TrialPlan,
    experiment,
)
from repro.experiments.report import report_specs
from repro.experiments.trials import TrialSpec, run_trial
from repro.scenario.builtin import TABLE4_SCENARIOS, TABLE11_SCENARIOS
from repro.simkit.rng import spawn_seed
from tests.integration.test_fec_replay import ADAPTIVE_GOLDEN, FEC_GOLDEN

# Package modules that are infrastructure, not experiments.
NON_EXPERIMENT_MODULES = {"engine", "report", "trials"}


class TestRegistry:
    def test_every_experiment_module_registers_exactly_one_spec(self):
        """New module => new spec; the CLI and report pick it up free."""
        modules = {
            info.name
            for info in pkgutil.iter_modules(experiments_pkg.__path__)
            if info.name not in NON_EXPERIMENT_MODULES
        }
        by_module: dict[str, list[str]] = {}
        for spec in engine.specs():
            short = spec.module.rsplit(".", 1)[-1]
            by_module.setdefault(short, []).append(spec.name)
        assert set(by_module) == modules
        for short, names in by_module.items():
            assert len(names) == 1, f"{short} registered {names}"

    def test_cli_parser_accepts_every_registered_name(self):
        """Subcommands are generated from the registry, aliases too."""
        from repro.__main__ import _build_parser

        parser = _build_parser()
        for name in engine.known_names():
            args = parser.parse_args([name])
            assert args.experiment == engine.canonical_name(name)

    def test_cli_list_covers_registry(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for spec in engine.specs():
            assert spec.name in out
            for alias in spec.aliases:
                assert alias in out

    def test_report_covers_every_spec_with_report_lines(self):
        with_lines = [
            spec.name for spec in engine.specs()
            if spec.report_lines is not None
        ]
        assert [spec.name for spec in report_specs()] == with_lines
        assert len(with_lines) >= 13  # every paper table/figure headline

    def test_duplicate_registration_rejected(self):
        decorate = experiment(
            name="table2",  # already taken by baseline
            artifact="dup",
            description="dup",
            aggregate=lambda ctx, values: values,
        )
        with pytest.raises(ValueError, match="registered twice"):
            decorate(lambda ctx: [])

    def test_alias_collision_rejected(self):
        decorate = experiment(
            name="definitely-new",
            artifact="dup",
            description="dup",
            aggregate=lambda ctx, values: values,
            aliases=("table6",),  # already an alias of table5
        )
        with pytest.raises(ValueError, match="already taken"):
            decorate(lambda ctx: [])
        assert "definitely-new" not in {s.name for s in engine.specs()}

    def test_parallel_flag_matches_plan_count(self):
        """``parallel_names()`` (the --jobs help text) is honest: every
        listed experiment really fans into more than one plan."""
        for spec in engine.specs():
            ctx = PlanContext(
                scale=spec.default_scale,
                seed=spec.default_seed,
                extras=dict(spec.report_extras),
            )
            plans = spec.build_plans(ctx)
            assert (len(plans) > 1) == spec.parallel, spec.name

    def test_traceable_specs_have_traceable_plans(self):
        for spec in engine.specs():
            ctx = PlanContext(scale=spec.default_scale, seed=spec.default_seed)
            plans = spec.build_plans(ctx)
            assert any(p.traceable for p in plans) == spec.traceable, spec.name


class TestSeedStreams:
    def test_spawn_seed_is_pure_and_label_sensitive(self):
        assert spawn_seed(1996, "table2", "office1") == spawn_seed(
            1996, "table2", "office1"
        )
        assert spawn_seed(1996, "table2", "office1") != spawn_seed(
            1996, "table2", "office2"
        )
        assert spawn_seed(1996, "table2", "office1") != spawn_seed(
            1996, "table4", "office1"
        )
        # Label order matters: (a, b) and (b, a) are different streams.
        assert spawn_seed(7, "a", "b") != spawn_seed(7, "b", "a")

    def test_no_two_trials_in_a_full_report_share_a_stream(self):
        """The report hands ONE root seed to every experiment; the
        engine's ``(root, experiment, label)`` derivation must keep all
        trial streams distinct — the collision the old ``seed + index``
        scheme could not rule out."""
        root = 1996
        seeds: dict[int, tuple[str, str]] = {}
        total_plans = 0
        for spec in report_specs():
            scale = (
                spec.report_scale(0.25)
                if spec.report_scale is not None
                else 0.25
            )
            ctx = PlanContext(
                scale=scale, seed=root, extras=dict(spec.report_extras)
            )
            for plan in spec.build_plans(ctx):
                total_plans += 1
                if plan.seed_arg is None:
                    continue
                label = plan.seed_label or plan.name
                derived = engine.trial_seed(root, spec.name, label)
                owner = (spec.name, label)
                assert seeds.get(derived, owner) == owner, (
                    f"stream collision: {owner} vs {seeds[derived]}"
                )
                seeds[derived] = owner
        assert len(seeds) == total_plans  # every plan has its own stream
        assert total_plans > 40

    def test_derived_seed_ignores_job_count_and_plan_order(self):
        """A trial's seed depends only on (root, experiment, label) —
        the engine derives it in the parent before any fan-out."""
        ctx1 = PlanContext(scale=0.1, seed=11, jobs=1)
        ctx8 = PlanContext(scale=0.1, seed=11, jobs=8)
        spec = engine.get("table4")
        for plan1, plan8 in zip(spec.build_plans(ctx1), spec.build_plans(ctx8)):
            assert plan1.name == plan8.name
            assert engine.trial_seed(
                ctx1.seed, spec.name, plan1.name
            ) == engine.trial_seed(ctx8.seed, spec.name, plan8.name)


class TestGoldenEquivalence:
    """Engine runs equal hand-rolled loops over the trial runner."""

    def test_baseline_rows_match_hand_rolled_loop(self):
        scale, seed = 0.01, 1996
        result = baseline.run(scale=scale, seed=seed)
        expected = [
            run_trial(
                TrialSpec(
                    name,
                    max(1000, int(paper_count * scale)),
                    scenario=baseline.SCENARIO,
                ),
                engine.trial_seed(seed, "table2", name),
            ).metrics
            for name, paper_count in baseline.PAPER_TRIALS
        ]
        assert result.rows == expected

    def test_walls_rows_match_hand_rolled_loop(self):
        scale, seed = 0.05, 64
        result = walls.run(scale=scale, seed=seed)
        packets = max(500, int(walls.PAPER_PACKETS * scale))
        expected = [
            run_trial(
                TrialSpec(
                    name, packets, scenario=scenario, reads=("metrics", "signal")
                ),
                engine.trial_seed(seed, "table4", name),
            )
            for name, scenario in TABLE4_SCENARIOS.items()
        ]
        assert result.metrics_rows == [o.metrics for o in expected]
        assert result.signal_rows == [o.signal for o in expected]

    def test_phones_spread_match_hand_rolled_loop(self):
        scale, seed = 0.1, 73
        result = ENGINE.run(
            "table11", scale=scale, seed=seed,
            extras={"keep_classified": False},
        )
        packets = max(400, int(phones_spread.PAPER_PACKETS * scale))
        expected = [
            run_trial(
                TrialSpec(
                    trial,
                    packets,
                    scenario=TABLE11_SCENARIOS[trial],
                    reads=("metrics", "signal"),
                ),
                engine.trial_seed(seed, "table11", trial),
            )
            for trial in phones_spread.TRIALS
        ]
        assert result.summaries == [
            phones_spread.TrialSummary.from_metrics(o.metrics) for o in expected
        ]
        assert result.metrics_rows == [o.metrics for o in expected]
        assert result.signal_rows == [o.signal for o in expected]
        assert result.classified == {}  # keep_classified=False dropped them


def _single_plan_fn(seed: int) -> int:
    """Module-level so the engine can build a Task around it."""
    return seed


_SOLO_SPEC = ExperimentSpec(
    name="solo-test",
    artifact="test",
    description="single-plan spec for warning tests",
    build_plans=lambda ctx: [TrialPlan("only", _single_plan_fn, {})],
    aggregate=lambda ctx, values: values[0],
)


class TestLoudWarnings:
    """Flags that cannot apply warn on stderr instead of no-opping."""

    def test_save_traces_on_non_traceable_experiment_warns(
        self, tmp_path, capsys
    ):
        trace_dir = tmp_path / "traces"
        ENGINE.run("burst", scale=0.001, seed=3, trace_dir=str(trace_dir))
        err = capsys.readouterr().err
        assert "warning:" in err
        assert "does not capture packet traces" in err
        assert not trace_dir.exists()  # flag really was dropped

    def test_jobs_on_single_plan_experiment_warns(self, capsys):
        value = ENGINE.run(_SOLO_SPEC, jobs=4)
        err = capsys.readouterr().err
        assert "warning:" in err
        assert "single trial plan" in err
        # ... but the run still completes, serially, with a derived seed.
        assert value == engine.trial_seed(0, "solo-test", "only")

    def test_no_warning_on_clean_run(self, capsys):
        ENGINE.run(_SOLO_SPEC)
        assert "warning:" not in capsys.readouterr().err


#: Seeds the counted plan function was called with, in call order.
_COUNTED_CALLS: list[int] = []


def _counted_plan_fn(seed: int) -> int:
    _COUNTED_CALLS.append(seed)
    return seed


_COUNTED_SPEC = ExperimentSpec(
    name="selection-test",
    artifact="test",
    description="three-plan spec for trial-selection tests",
    build_plans=lambda ctx: [
        TrialPlan(label, _counted_plan_fn, {}) for label in ("a", "b", "c")
    ],
    aggregate=lambda ctx, values: values,
)


def _same_classified(selected, full) -> None:
    """Verdict columns and syndromes of two classified traces agree."""
    assert selected.columns.keys() == full.columns.keys()
    for key, column in full.columns.items():
        assert np.array_equal(selected.columns[key], column), key
    assert selected.syndromes.keys() == full.syndromes.keys()
    for row, syndrome in full.syndromes.items():
        other = selected.syndromes[row]
        assert other.sequence == syndrome.sequence
        assert np.array_equal(other.body_bit_positions, syndrome.body_bit_positions)
        assert np.array_equal(
            other.wrapper_bit_positions, syndrome.wrapper_bit_positions
        )


def _fec_rows(result) -> list[tuple]:
    return [
        (o.scenario, o.rate_name, o.interleaved, o.marking, o.packets,
         o.packets_recovered, o.residual_bit_errors, o.overhead_fraction)
        for o in result.outcomes
    ]


class TestTrialSelection:
    """``extras["trials"]``: the engine keeps only the named plans."""

    def setup_method(self):
        _COUNTED_CALLS.clear()

    def test_unknown_label_fails_before_any_plan_runs(self):
        with pytest.raises(ValueError) as excinfo:
            ENGINE.run(_COUNTED_SPEC, seed=5, extras={"trials": ("a", "zz")})
        message = str(excinfo.value)
        assert "'zz'" in message
        assert "valid labels: ['a', 'b', 'c']" in message
        assert _COUNTED_CALLS == []

    def test_keeps_plan_order_and_label_seeds(self):
        values = ENGINE.run(_COUNTED_SPEC, seed=5, extras={"trials": ("c", "a")})
        expected = [engine.trial_seed(5, "selection-test", label) for label in "ac"]
        assert values == expected
        assert _COUNTED_CALLS == expected
        assert ENGINE.run(_COUNTED_SPEC, seed=5)[::2] == expected

    def test_table11_trial_equals_its_full_run_self(self):
        full = ENGINE.run("table11", scale=0.05, seed=73)
        alone = ENGINE.run(
            "table11", scale=0.05, seed=73, extras={"trials": ("AT&T handset",)}
        )
        assert list(alone.classified) == ["AT&T handset"]
        _same_classified(
            alone.classified["AT&T handset"], full.classified["AT&T handset"]
        )
        assert alone.summaries == [full.summary("AT&T handset")]
        assert alone.handset_breakdown == full.handset_breakdown

    def test_table5_tx5_equals_its_full_run_self(self):
        full = ENGINE.run("table5", scale=0.05, seed=65)
        alone = ENGINE.run(
            "table5", scale=0.05, seed=65, extras={"trials": ("Tx5",)}
        )
        assert alone.metrics_rows == [full.metrics("Tx5")]
        assert alone.level_mean("Tx5") == full.level_mean("Tx5")
        assert alone.tx5_breakdown == full.tx5_breakdown
        _same_classified(alone.tx5_classified, full.tx5_classified)

    def test_selected_run_jobs2_equals_jobs1(self):
        extras = {"trials": ("RS remote cluster", "RS base")}
        serial = ENGINE.run("table11", scale=0.05, seed=9, extras=extras)
        pooled = ENGINE.run("table11", scale=0.05, seed=9, jobs=2, extras=extras)
        assert [s.name for s in serial.summaries] == ["RS base", "RS remote cluster"]
        assert pooled.summaries == serial.summaries
        assert pooled.metrics_rows == serial.metrics_rows
        assert pooled.signal_rows == serial.signal_rows
        for trial in serial.classified:
            _same_classified(pooled.classified[trial], serial.classified[trial])

    def test_table14_folds_a_selection_by_trial_name(self):
        full = ENGINE.run("table14", scale=0.02, seed=74)
        alone = ENGINE.run(
            "table14", scale=0.02, seed=74,
            extras={"trials": ("With interference",)},
        )
        assert alone.metrics_rows == [full.metrics("With interference")]
        assert alone.unusable_metrics is None

    def test_figure3_refuses_a_subset(self):
        # Its sweep folds by position, so a subset would mislabel rows.
        with pytest.raises(ValueError, match="subset"):
            ENGINE.run(
                "figure3", scale=0.01, seed=53, extras={"trials": ("filter-12",)}
            )


class TestFecVariants:
    """``fec``'s ``variants`` extra replays a subset of ``VARIANTS``."""

    def test_subset_equals_the_pinned_full_run(self):
        variants = [("1/2", True, "soft"), ("4/5", True, "none")]
        result = ENGINE.run(
            "fec", scale=0.05, seed=2004,
            extras={"syndrome_limit": 25, "variants": variants},
        )
        # Kept in VARIANTS order, per scenario, equal to the full run's rows.
        assert _fec_rows(result) == [
            row for row in FEC_GOLDEN if tuple(row[1:4]) in set(variants)
        ]
        assert [
            (a.scenario, a.packets, a.rate_counts, a.mean_overhead)
            for a in result.adaptive
        ] == ADAPTIVE_GOLDEN

    def test_unknown_variant_fails_at_plan_build(self):
        spec = engine.get("fec")
        ctx = PlanContext(
            scale=0.05, seed=1, extras={"variants": [("3/4", True, "none")]}
        )
        with pytest.raises(ValueError, match="unknown FEC replay variant"):
            spec.build_plans(ctx)

    def test_default_replays_every_variant(self):
        spec = engine.get("fec")
        plans = spec.build_plans(PlanContext(scale=0.05, seed=1))
        assert [plan.kwargs["variants"] for plan in plans] == [
            fec_eval.VARIANTS
        ] * len(fec_eval.DAMAGE_SOURCES)

    def test_trials_select_a_damage_scenario(self):
        result = ENGINE.run(
            "fec", scale=0.05, seed=2004,
            extras={
                "syndrome_limit": 25,
                "variants": [("4/5", True, "none")],
                "trials": ("Tx5 attenuation",),
            },
        )
        assert _fec_rows(result) == [
            row for row in FEC_GOLDEN
            if row[0] == "Tx5 attenuation" and row[1:4] == ("4/5", True, "none")
        ]
