"""The CLI surface and the reproduction-report builder."""

import pytest

from repro.experiments.report import ReportLine, ReproductionReport


class TestReportContainer:
    def test_counts(self):
        report = ReproductionReport()
        report.add("T1", "q1", "p", "m", True)
        report.add("T1", "q2", "p", "m", False)
        assert report.total == 2
        assert report.in_band_count == 1

    def test_markdown_shape(self):
        report = ReproductionReport()
        report.add("T2 baseline", "loss", "<= .07%", "0.03%", True)
        text = report.markdown()
        assert "1/1 headline quantities in band" in text
        assert "| T2 baseline | loss |" in text

    def test_out_of_band_flagged(self):
        line = ReportLine("T", "q", "p", "m", False)
        assert "**NO**" in line.markdown()


class TestCliExperiments:
    def test_alias_resolution(self):
        """table6/7/9/12/13 and figure2 resolve to their carrier spec."""
        from repro.experiments import engine

        for alias in ("figure2", "table6", "table7", "table9", "table12",
                      "table13"):
            spec = engine.get(alias)
            assert spec.name != alias
            assert engine.canonical_name(alias) == spec.name

    def test_aliases_never_shadow_canonical_names(self):
        """'all' covers each spec exactly once: no alias is also a
        canonical name, so iterating the registry never duplicates."""
        from repro.experiments import engine

        canonical = {spec.name for spec in engine.specs()}
        aliases = set(engine.alias_map())
        assert not canonical & aliases
        assert set(engine.alias_map().values()) <= canonical

    def test_every_experiment_module_has_run(self):
        """Each module's ``run`` returns its result; ``python -m repro
        NAME`` is the one way to print it."""
        import importlib

        from repro.experiments import engine

        for spec in engine.specs():
            module = importlib.import_module(spec.module)
            assert callable(getattr(module, "run"))
            assert not hasattr(module, "main")


@pytest.mark.slow
class TestReportEndToEnd:
    def test_small_scale_report_mostly_in_band(self, tmp_path):
        """A tiny-scale report still lands most quantities in band
        (the bands are shape claims, not decimals)."""
        from repro.experiments.report import build_report

        report = build_report(scale=0.1, seed=1996)
        assert report.total >= 20
        assert report.in_band_count >= report.total - 3
