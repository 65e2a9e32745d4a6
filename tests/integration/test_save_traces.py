"""``--save-traces`` end to end: a traceable experiment's saved trials.

``table4`` runs four trials.  Saved through ``trace_dir`` in either
format, at ``jobs=1`` or ``jobs=2``, each trial lands in one file named
after it; the file reloads to the trial the run analyzed, the two
formats load to the same columns, and pool workers write the bytes the
serial run writes.  Every traceable experiment writes one file per
plan.
"""

import numpy as np
import pytest

from repro.analysis.metrics import analyze_trial
from repro.experiments import engine
from repro.experiments.engine import ENGINE, PlanContext
from repro.experiments.error_vs_level import SUBTRIAL_DISTANCES_FT
from repro.experiments.signal_vs_distance import DISTANCES_FT
from repro.experiments.threshold import THRESHOLD_SWEEP
from repro.trace.persist import load_trace

SUFFIX = {"v2": ".wlt2", "v1": ".jsonl"}
SLUGS = {"Air 1": "air_1", "Wall 1": "wall_1", "Air 2": "air_2", "Wall 2": "wall_2"}
COLUMNS = (
    "times", "levels", "silences", "qualities", "antennas", "offsets", "lengths",
)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``(format, jobs) -> (directory, result)`` for table4 at 500
    packets a trial."""
    out = {}
    for fmt in SUFFIX:
        for jobs in (1, 2):
            directory = tmp_path_factory.mktemp(f"{fmt}-jobs{jobs}")
            result = ENGINE.run(
                "table4", scale=0.01, seed=64, jobs=jobs,
                trace_dir=str(directory), trace_format=fmt,
            )
            out[fmt, jobs] = (directory, result)
    return out


def _path(runs, fmt, jobs, trial):
    directory, _ = runs[fmt, jobs]
    return directory / f"{SLUGS[trial]}{SUFFIX[fmt]}"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("fmt", sorted(SUFFIX))
def test_one_slug_named_file_per_trial(runs, fmt, jobs):
    directory, _ = runs[fmt, jobs]
    assert sorted(path.name for path in directory.iterdir()) == sorted(
        slug + SUFFIX[fmt] for slug in SLUGS.values()
    )


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("fmt", sorted(SUFFIX))
def test_saved_trial_analyzes_like_the_run(runs, fmt, jobs):
    _, result = runs[fmt, jobs]
    rows = {row.name: row for row in result.metrics_rows}
    assert sorted(rows) == sorted(SLUGS)
    for trial in SLUGS:
        assert analyze_trial(load_trace(_path(runs, fmt, jobs, trial))) == rows[trial]


def test_formats_load_to_the_same_trace(runs):
    for trial in SLUGS:
        v1 = load_trace(_path(runs, "v1", 1, trial))
        v2 = load_trace(_path(runs, "v2", 1, trial))
        assert (v1.name, v1.spec, v1.packets_sent) == (
            v2.name, v2.spec, v2.packets_sent
        )
        for key in COLUMNS:
            np.testing.assert_array_equal(getattr(v1, key), getattr(v2, key))
        np.testing.assert_array_equal(v1.payload, v2.payload)


@pytest.mark.parametrize("fmt", sorted(SUFFIX))
def test_pooled_files_equal_serial(runs, fmt):
    for trial in SLUGS:
        serial = _path(runs, fmt, 1, trial).read_bytes()
        assert _path(runs, fmt, 2, trial).read_bytes() == serial


#: Where the file name is not the plan label: figure1 and figure3 name
#: files after the trial's config name, and table3, whose sub-trials
#: share one config name, after the label.
PINNED_FILES = {
    "figure1": [f"d_{d}_0ft.wlt2" for d in DISTANCES_FT],
    "figure3": [f"threshold_{t}.wlt2" for t in THRESHOLD_SWEEP],
    "table3": [f"subtrial_{d}ft.wlt2" for d in SUBTRIAL_DISTANCES_FT],
}


@pytest.mark.parametrize("name", engine.traceable_names())
def test_every_traceable_experiment_writes_one_file_per_plan(tmp_path, name):
    scale, seed = 0.001, 3
    ENGINE.run(name, scale=scale, seed=seed, trace_dir=str(tmp_path))
    plans = engine.get(name).build_plans(PlanContext(scale=scale, seed=seed))
    files = sorted(path.name for path in tmp_path.iterdir())
    assert len(files) == sum(plan.traceable for plan in plans)
    if name in PINNED_FILES:
        assert files == sorted(PINNED_FILES[name])
