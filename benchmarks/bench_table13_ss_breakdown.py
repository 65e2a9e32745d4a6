"""T13 — Table 13: spread-spectrum test packets by damage class.

Paper (aggregated over all SS trials): truncated packets have sharply
reduced quality (mean 8.76); body-damaged packets mildly reduced
(13.62); undamaged keep 14.81; "very low signal quality seems to be a
good predictor of truncation".
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis.classify import ClassifiedTrace
from repro.analysis.signalstats import signal_stats_by_class
from repro.analysis.tables import render_signal_table
from repro.experiments import phones_spread
from repro.trace.columnar import ColumnarTrace


def test_table13_ss_breakdown(benchmark, bench_scale):
    result = run_once(benchmark, phones_spread.run, scale=1.0 * bench_scale, seed=273)
    print()

    # Aggregate the damage-class stats across all six trials, as the
    # paper's Table 13 does.
    trials = list(result.classified.values())
    merged = ClassifiedTrace(
        trace=ColumnarTrace.concat([c.trace for c in trials]),
        columns={
            key: np.concatenate([c.columns[key] for c in trials])
            for key in trials[0].columns
        },
    )
    rows = signal_stats_by_class(merged)
    print("Table 13: SS test packets by damage class (all trials pooled)")
    print(render_signal_table(rows))
    print("paper quality means: undamaged 14.81 / truncated 8.76 / "
          "body damaged 13.62")

    by_group = {r.group: r for r in rows}
    undamaged = by_group["Undamaged"]
    truncated = by_group["Truncated"]
    damaged = by_group["Body damaged"]
    assert undamaged.quality.mean > 14.5
    assert truncated.quality.mean < 11.0  # sharply depressed
    assert 12.0 < damaged.quality.mean < 14.5  # mildly depressed
    # Low quality predicts truncation: the gap is wide.
    assert undamaged.quality.mean - truncated.quality.mean > 4.0
