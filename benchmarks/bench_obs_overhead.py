"""Disabled-instrumentation overhead budget for the hot paths.

The instrumentation bus promises near-zero cost when disabled (the
default): every hook is one ``STATE`` attribute load plus a branch.
These checks time the fast-trial path as shipped (hooks present,
observability off) against an *uninstrumented baseline* — the same code
with every obs hook monkeypatched out — and assert the disabled-mode
tax stays within the 5% budget documented in docs/OBSERVABILITY.md.

Methodology: paired, interleaved min-of-N timing.  The minimum over
many repetitions is the standard robust estimator for "how fast can
this code go" — it discards scheduler noise, GC pauses, and cache-cold
outliers, which at ~5% resolution would otherwise dominate.  Rounds are
interleaved (A,B,A,B,...) so drift in background load biases neither
side.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

import pytest

from repro import obs
from repro.analysis.matching import TraceMatcher
from repro.obs import runtime
from repro.trace import trial as trial_module
from repro.trace.trial import TrialConfig, run_fast_trial

# The acceptance budget: disabled-mode instrumentation may cost at most
# this fraction on top of the uninstrumented baseline, plus a small
# absolute allowance for timer granularity.
OVERHEAD_BUDGET = 0.05
ABSOLUTE_SLACK_S = 2e-3
ROUNDS = 7


def _fast_trial() -> None:
    run_fast_trial(
        TrialConfig(name="overhead", packets=2_000, mean_level=29.5, seed=11)
    )


@contextlib.contextmanager
def _uninstrumented(monkeypatch_cls=pytest.MonkeyPatch):
    """The fast-trial path with every obs hook bypassed.

    Replaces the per-record matcher hook with its implementation and the
    per-trial hooks (metrics and the ``trace.trial`` span) with no-ops,
    approximating a build of the library that never had
    instrumentation.
    """
    patch = monkeypatch_cls()
    try:
        patch.setattr(TraceMatcher, "match_bytes", TraceMatcher._match_impl)
        patch.setattr(trial_module, "_record_fast_trial_metrics",
                      lambda config, dispositions: None)
        patch.setattr(trial_module._obs, "trace_span",
                      lambda name, **attrs: contextlib.nullcontext())
        yield
    finally:
        patch.undo()


def _interleaved_minimums(rounds: int, first, second) -> tuple[float, float]:
    """Min-of-``rounds`` for two thunks with alternating execution."""
    best_first = float("inf")
    best_second = float("inf")
    for _ in range(rounds):
        start = perf_counter()
        first()
        elapsed = perf_counter() - start
        if elapsed < best_first:
            best_first = elapsed
        start = perf_counter()
        second()
        elapsed = perf_counter() - start
        if elapsed < best_second:
            best_second = elapsed
    return best_first, best_second


def _min_of(rounds: int, thunk) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = perf_counter()
        thunk()
        elapsed = perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


@pytest.mark.obs_overhead
def test_disabled_state_is_default():
    """The process-wide state must be off unless somebody configured it."""
    assert runtime.STATE.enabled is False
    assert runtime.STATE.spans is None
    assert runtime.STATE.metrics.enabled is False


@pytest.mark.obs_overhead
def test_disabled_telemetry_fast_trial_within_budget():
    """Shipped disabled mode vs the uninstrumented baseline: <= 5%."""
    obs.reset()
    _fast_trial()  # warm imports, allocators, and caches

    def baseline() -> None:
        with _uninstrumented():
            _fast_trial()

    baseline_s, disabled_s = _interleaved_minimums(
        ROUNDS, baseline, _fast_trial
    )
    assert disabled_s <= baseline_s * (1 + OVERHEAD_BUDGET) + ABSOLUTE_SLACK_S, (
        f"disabled-mode fast trial exceeds the {OVERHEAD_BUDGET:.0%} budget: "
        f"{disabled_s * 1e3:.2f}ms vs {baseline_s * 1e3:.2f}ms uninstrumented"
    )


@pytest.mark.obs_overhead
def test_enabled_overhead_is_bounded():
    """Enabled-mode accounting is bulk (per trial, not per packet) on
    the fast path, so even with metrics and spans on the tax stays
    within a factor of two of disabled mode."""
    obs.reset()
    _fast_trial()
    disabled_s = _min_of(5, _fast_trial)
    with obs.session():
        _fast_trial()
        enabled_s = _min_of(5, _fast_trial)
    assert enabled_s <= disabled_s * 2.0 + ABSOLUTE_SLACK_S, (
        f"enabled-mode fast trial too slow: {enabled_s * 1e3:.2f}ms vs "
        f"{disabled_s * 1e3:.2f}ms disabled"
    )
