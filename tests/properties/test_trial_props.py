"""Property-based tests on the trial runner's bookkeeping invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.classify import classify_trace
from repro.analysis.metrics import metrics_from_classified
from repro.phy.modem import ModemConfig
from repro.trace.trial import TrialConfig, run_fast_trial

levels = st.floats(min_value=3.0, max_value=32.0)
seeds = st.integers(0, 2**31)


class TestDispositionAccounting:
    @given(levels, seeds)
    @settings(max_examples=25, deadline=None)
    def test_every_packet_accounted_for(self, level, seed):
        output = run_fast_trial(
            TrialConfig(name="prop", packets=400, mean_level=level, seed=seed)
        )
        d = output.dispositions
        total = (
            d.delivered + d.missed + d.threshold_filtered + d.quality_filtered
        )
        assert total == 400
        assert d.delivered == output.trace.packets_received

    @given(levels, seeds)
    @settings(max_examples=25, deadline=None)
    def test_records_well_formed(self, level, seed):
        output = run_fast_trial(
            TrialConfig(name="prop", packets=300, mean_level=level, seed=seed)
        )
        trace = output.trace
        times = trace.times.tolist()
        assert times == sorted(times)
        assert ((0 <= trace.levels) & (trace.levels <= 63)).all()
        assert ((0 <= trace.silences) & (trace.silences <= 63)).all()
        assert ((0 <= trace.qualities) & (trace.qualities <= 15)).all()
        assert set(trace.antennas.tolist()) <= {0, 1}
        assert ((1 <= trace.lengths) & (trace.lengths <= 1072)).all()

    @given(levels, seeds)
    @settings(max_examples=15, deadline=None)
    def test_determinism(self, level, seed):
        config = TrialConfig(name="prop", packets=300, mean_level=level, seed=seed)
        a = run_fast_trial(config)
        b = run_fast_trial(config)
        assert a.dispositions == b.dispositions
        assert a.trace.lengths.tolist() == b.trace.lengths.tolist()
        assert a.trace.payload.tobytes() == b.trace.payload.tobytes()

    @given(levels, seeds)
    @settings(max_examples=15, deadline=None)
    def test_analysis_never_crashes_and_balances(self, level, seed):
        """Whatever the channel produced, the analysis yields a
        consistent Table-1 row."""
        output = run_fast_trial(
            TrialConfig(name="prop", packets=300, mean_level=level, seed=seed)
        )
        classified = classify_trace(output.trace)
        metrics = metrics_from_classified(classified)
        assert metrics.packets_received + metrics.outsiders_received == len(
            classified.packets
        )
        assert metrics.packets_received <= 300
        assert 0.0 <= metrics.packet_loss_fraction <= 1.0
        if metrics.worst_body_bits is not None:
            assert metrics.worst_body_bits <= metrics.body_bits_damaged

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_threshold_filters_are_clean(self, seed):
        """Whatever leaks past the receive threshold is an ordinary
        reception — the paper's 'cleanly filters' observation."""
        output = run_fast_trial(
            TrialConfig(
                name="prop",
                packets=400,
                mean_level=15.0,
                seed=seed,
                modem_config=ModemConfig(receive_threshold=15),
            )
        )
        assert (output.trace.levels >= 15).all()
