"""The report runs only what its lines read, and its verdict is pinned.

Each report spec's ``report_extras`` may select trials (the engine's
``trials``) or FEC replay variants (``fec``'s ``variants``).  A
selection is sound when the spec's report lines are the same with it
and without it; a selection that dropped a trial or variant a line
reads would fail here (a missing trial raises ``KeyError``, a missing
variant changes or removes the line).
"""

from __future__ import annotations

import functools
import hashlib

import pytest

from repro.experiments import engine
from repro.experiments.report import ReproductionReport, build_report, report_specs

#: The ``report_extras`` keys that narrow what an experiment runs.
SELECTION_KEYS = {"trials", "variants"}

SELECTING_SPECS = [
    spec.name for spec in report_specs() if SELECTION_KEYS & set(spec.report_extras)
]


def _report_lines(spec, extras: dict, scale: float, seed: int) -> list:
    eff_scale = spec.report_scale(scale) if spec.report_scale else scale
    result = engine.ENGINE.run(spec, scale=eff_scale, seed=seed, extras=extras)
    report = ReproductionReport()
    spec.report_lines(report, result, scale)
    return report.lines


def test_the_report_selects_in_five_experiments():
    assert SELECTING_SPECS == ["table5", "table11", "fec", "mac", "hidden"]


@pytest.mark.parametrize("name", SELECTING_SPECS)
def test_selection_keeps_every_line(name):
    spec = engine.get(name)
    selected = dict(spec.report_extras)
    full = {k: v for k, v in selected.items() if k not in SELECTION_KEYS}
    lines = _report_lines(spec, selected, scale=0.02, seed=1996)
    assert lines
    assert lines == _report_lines(spec, full, scale=0.02, seed=1996)


#: ``build_report(scale=0.05)`` comparison-table digests (sha256, first
#: 16 hex digits of ``table_markdown()``).
REPORT_DIGESTS = {1996: "51373359680dc980", 4: "5e4eff0379bd792c"}

#: The resource footer's ``(experiment, events fired, packets offered)``
#: for seed 4 at scale 0.05, read off each experiment's task span.
REPORT_FOOTER_SEED_4 = [
    ("table2", 0, 14071),
    ("figure1", 0, 1600),
    ("table3", 0, 3000),
    ("table4", 0, 2544),
    ("table5", 0, 400),
    ("table8", 0, 800),
    ("table10", 0, 2000),
    ("table11", 0, 1200),
    ("table14", 0, 1905),
    ("fec", 0, 800),
    ("mac", 1486, 0),
    ("hidden", 122, 0),
    ("throughput", 0, 2400),
]


@functools.lru_cache(maxsize=None)
def _report(seed: int) -> ReproductionReport:
    return build_report(scale=0.05, seed=seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", sorted(REPORT_DIGESTS))
def test_report_digest_pinned(seed):
    table = _report(seed).table_markdown()
    assert hashlib.sha256(table.encode()).hexdigest()[:16] == REPORT_DIGESTS[seed]


@pytest.mark.slow
def test_report_footer_pinned():
    resources = _report(4).resources
    assert [
        (r.experiment, r.events_fired, r.packets_offered) for r in resources
    ] == REPORT_FOOTER_SEED_4
    assert sum(r.packets_offered for r in resources) == 30720
    assert all(r.wall_clock_s > 0 and r.peak_rss_kb > 0 for r in resources)
