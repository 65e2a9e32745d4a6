"""The benchmark regression gate.

The smoke benchmarks (``benchmarks/bench_internal_performance.py``)
merge their measurements into ``BENCH_internal.json`` — a snapshot of
*this* working tree's performance.  :func:`diff_stages` compares two
snapshots' ``*_wall_s`` timings and ``*_per_s`` throughputs per stage
with a tolerance band; :func:`main_diff` (``python -m repro bench diff
BASELINE CURRENT``) exits nonzero when any stage slowed beyond
tolerance — the CI regression gate against the committed
``benchmarks/baseline.json``.

Two key families are gated, with opposite regression directions:
``*_wall_s`` keys are timings (regression = ratio *above* ``1 +
tolerance``) and ``*_per_s`` keys are throughputs (regression = ratio
*below* ``1 - tolerance``).  Gating both catches the case a wall-clock
ratio alone hides: a stage whose workload column changed between
snapshots, making its wall time incomparable but its throughput still
meaningful.  Speedup keys stay excluded (derived, ungated), and payload
keys like ``packets`` describe the workload, not the performance.  A
stage or key present on one side only is reported but never fails the
gate — adding a benchmark must not break CI retroactively.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

PathLike = Union[str, Path]

#: CI's tolerance band: a stage may slow by this fraction before the
#: gate fails.  Wide enough for shared-runner noise on sub-100ms
#: stages, tight enough to catch a real (algorithmic) regression.
DEFAULT_TOLERANCE = 0.25


def load_snapshot(path: PathLike) -> dict:
    """Read one ``BENCH_internal.json``-shaped snapshot (schema 1)."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(
            f"{path}: bench snapshot must be a JSON object, "
            f"got {type(doc).__name__}"
        )
    if doc.get("schema") != 1:
        raise ValueError(
            f"{path}: bench schema {doc.get('schema')} (this reader "
            "supports 1)"
        )
    return doc


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TimingDelta:
    """One ``stage.key`` measurement compared across two snapshots.

    The field names say ``_s`` for history's sake, but the values are
    whatever the key measures: seconds for ``*_wall_s`` keys,
    per-second rates for ``*_per_s`` keys — :attr:`kind` tells the
    gate which direction counts as a regression.
    """

    stage: str
    key: str
    baseline_s: float
    current_s: float

    @property
    def kind(self) -> str:
        """``"throughput"`` for ``*_per_s`` keys, else ``"wall"``."""
        return "throughput" if self.key.endswith("_per_s") else "wall"

    @property
    def ratio(self) -> float:
        """current / baseline (1.0 = unchanged)."""
        if self.baseline_s <= 0:
            return 1.0
        return self.current_s / self.baseline_s

    def regressed(self, tolerance: float) -> bool:
        """Worse than tolerance allows, in this key's bad direction:
        slower for wall timings, lower for throughputs."""
        if self.kind == "throughput":
            return self.ratio < 1.0 - tolerance
        return self.ratio > 1.0 + tolerance

    def improved(self, tolerance: float) -> bool:
        """Better than tolerance noise, in this key's good direction."""
        if self.kind == "throughput":
            return self.ratio > 1.0 + tolerance
        return self.ratio < 1.0 - tolerance


def _gated_keys(stage_payload: dict) -> dict[str, float]:
    return {
        key: value
        for key, value in stage_payload.items()
        if (key.endswith("_wall_s") or key.endswith("_per_s"))
        and isinstance(value, (int, float))
    }


def diff_stages(
    baseline: dict, current: dict
) -> tuple[list[TimingDelta], list[str]]:
    """Compare two snapshots' stages on their ``*_wall_s`` timings and
    ``*_per_s`` throughputs.

    Returns ``(deltas, uncompared)``: one :class:`TimingDelta` per
    gated key present on both sides, plus human-readable notes for
    stages or keys present on only one side (reported, never gating).
    """
    baseline_stages = baseline.get("stages", {})
    current_stages = current.get("stages", {})
    deltas: list[TimingDelta] = []
    uncompared: list[str] = []
    if not isinstance(baseline_stages, dict):
        uncompared.append("baseline 'stages' is not an object; skipped")
        baseline_stages = {}
    if not isinstance(current_stages, dict):
        uncompared.append("current 'stages' is not an object; skipped")
        current_stages = {}
    for stage in sorted(set(baseline_stages) | set(current_stages)):
        if stage not in current_stages:
            uncompared.append(f"stage {stage!r}: baseline only (not run)")
            continue
        if stage not in baseline_stages:
            uncompared.append(f"stage {stage!r}: new (no baseline)")
            continue
        # A hand-edited or truncated snapshot may hold a non-object
        # payload; a malformed stage must warn, not crash the gate.
        malformed = [
            side
            for side, stages in (
                ("baseline", baseline_stages),
                ("current", current_stages),
            )
            if not isinstance(stages[stage], dict)
        ]
        if malformed:
            uncompared.append(
                f"stage {stage!r}: malformed payload "
                f"({' and '.join(malformed)}); skipped"
            )
            continue
        base_walls = _gated_keys(baseline_stages[stage])
        cur_walls = _gated_keys(current_stages[stage])
        for key in sorted(set(base_walls) | set(cur_walls)):
            if key not in cur_walls:
                uncompared.append(f"{stage}.{key}: baseline only")
            elif key not in base_walls:
                uncompared.append(f"{stage}.{key}: new (no baseline)")
            else:
                deltas.append(
                    TimingDelta(stage, key, base_walls[key], cur_walls[key])
                )
    return deltas, uncompared


def render_diff(
    deltas: list[TimingDelta],
    uncompared: list[str],
    tolerance: float,
) -> str:
    """Human-readable diff table, regressions flagged."""
    lines = [
        f"{'stage.timing':<44} {'baseline':>10} {'current':>10} "
        f"{'ratio':>7}"
    ]
    for delta in deltas:
        flag = ""
        if delta.regressed(tolerance):
            flag = f"  REGRESSION (> {tolerance:.0%} tolerance)"
        elif delta.improved(tolerance):
            flag = "  improved"
        if delta.kind == "throughput":
            base_txt = f"{delta.baseline_s:>8.0f}/s"
            cur_txt = f"{delta.current_s:>8.0f}/s"
        else:
            base_txt = f"{delta.baseline_s:>9.4f}s"
            cur_txt = f"{delta.current_s:>9.4f}s"
        lines.append(
            f"{delta.stage + '.' + delta.key:<44} "
            f"{base_txt} {cur_txt} "
            f"{delta.ratio:>6.2f}x{flag}"
        )
    for note in uncompared:
        lines.append(f"(uncompared) {note}")
    regressions = [d for d in deltas if d.regressed(tolerance)]
    lines.append(
        f"{len(deltas)} timings compared, {len(regressions)} regression"
        f"{'s' if len(regressions) != 1 else ''}"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main_diff(
    baseline: str,
    current: str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> int:
    """``python -m repro bench diff``: compare, exit 1 on regression."""
    deltas, uncompared = diff_stages(
        load_snapshot(baseline), load_snapshot(current)
    )
    print(render_diff(deltas, uncompared, tolerance))
    if any(delta.regressed(tolerance) for delta in deltas):
        return 1
    return 0
