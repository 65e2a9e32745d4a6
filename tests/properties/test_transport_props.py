"""Property-based tests on the transport layer's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.link import LinkConfig
from repro.transport.snoop import run_snoop_transfer
from repro.transport.tcp import run_transfer

levels = st.floats(min_value=6.0, max_value=32.0)
seeds = st.integers(0, 2**31)


class TestTcpInvariants:
    @given(levels, seeds)
    @settings(max_examples=15, deadline=None)
    def test_progress_and_accounting(self, level, seed):
        sender, link, sim = run_transfer(
            LinkConfig(mean_level=level), total_segments=80, seed=seed,
            time_limit_s=60.0,
        )
        stats = sender.stats
        assert 0 <= sender.highest_acked <= 80
        assert stats.retransmissions <= stats.segments_sent
        assert stats.goodput_segments <= 80 + stats.timeouts  # spurious rtx margin
        assert sender.cwnd >= 1.0
        if sender.finished:
            assert sender.highest_acked == 80
            assert sender.finish_time <= sim.now

    @given(levels, seeds)
    @settings(max_examples=10, deadline=None)
    def test_arq_never_hurts(self, level, seed):
        plain, _, _ = run_transfer(
            LinkConfig(mean_level=level), total_segments=80, seed=seed,
            time_limit_s=60.0,
        )
        arq, _, _ = run_transfer(
            LinkConfig(mean_level=level, arq_retries=3), total_segments=80,
            seed=seed, time_limit_s=60.0,
        )
        # ARQ either finishes when plain did, or delivers at least as
        # much progress (modulo a small random wobble on clean links).
        if plain.finished and arq.finished:
            assert arq.finish_time <= plain.finish_time * 1.15
        else:
            assert arq.highest_acked >= plain.highest_acked - 5

    @given(levels, seeds)
    @settings(max_examples=8, deadline=None)
    def test_snoop_sender_state_consistent(self, level, seed):
        sender, network, link, sim = run_snoop_transfer(
            LinkConfig(mean_level=level), total_segments=60, seed=seed,
            time_limit_s=60.0,
        )
        # The agent's cache never holds acked segments.
        assert all(seq >= network._last_ack_seen for seq in network._cache)
        assert network.stats.local_retransmissions >= network.stats.timer_retransmissions
        assert sender.highest_acked <= 60
