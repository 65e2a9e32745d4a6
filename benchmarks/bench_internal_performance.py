"""Throughput micro-benchmarks of the library's hot paths.

Unlike the experiment benches (one round, experiment-scale), these are
true pytest-benchmark micro-benchmarks with multiple rounds: frame
construction, trace matching, the vectorized trial loop, and Viterbi
decoding — the four paths that dominate experiment wall-clock.

The ``bench_smoke``-marked tests additionally race the vectorized
paths against their scalar reference twins and append the measurements
to ``BENCH_internal.json`` at the repo root (per-stage wall-clock,
packets/sec, speedup vs scalar), so the perf trajectory is tracked
across PRs.  They are fast enough for CI and double as a regression
gate: the bulk paths must never fall behind their scalar references.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.classify import classify_trace
from repro.analysis.matching import TraceMatcher
from repro.environment.geometry import Point
from repro.fec.convolutional import ConvolutionalCode
from repro.fec.viterbi import viterbi_decode
from repro.framing.testpacket import TestPacketFactory, TestPacketSpec
from repro.interference.spreadspectrum import SpreadSpectrumPhonePair
from repro.trace.trial import TrialConfig, run_fast_trial
from tests.trace.per_packet_oracle import run_per_packet_trial

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_internal.json"


def _record_stage(stage: str, payload: dict) -> None:
    """Merge one stage's measurements into ``BENCH_internal.json``.

    Incremental merge (read-update-write) so any subset of the smoke
    tests keeps the other stages' latest numbers.
    """
    doc: dict = {"schema": 1, "stages": {}}
    if BENCH_JSON.exists():
        try:
            doc = json.loads(BENCH_JSON.read_text())
        except (json.JSONDecodeError, OSError):
            pass
    doc.setdefault("stages", {})[stage] = payload
    doc["updated"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    BENCH_JSON.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _best_of(func, rounds: int = 2) -> tuple[float, object]:
    best = float("inf")
    value = None
    for _ in range(rounds):
        start = time.perf_counter()
        value = func()
        best = min(best, time.perf_counter() - start)
    return best, value


@pytest.fixture(scope="module")
def factory():
    return TestPacketFactory(TestPacketSpec.default())


def test_perf_frame_build(benchmark, factory):
    """Incremental frame construction (target: a few µs per frame)."""
    counter = iter(range(10**9))

    def build():
        return factory.build(next(counter))

    frame = benchmark(build)
    assert len(frame) == 1072


def test_perf_matcher_fast_path(benchmark, factory):
    """Exact-match identification of a pristine frame."""
    matcher = TraceMatcher(TestPacketSpec.default(), packets_sent=10_000)
    frame = factory.build(1234)
    result = benchmark(matcher.match_bytes, frame)
    assert result.exact


def test_perf_matcher_voting_path(benchmark, factory):
    """Majority-vote recovery of a damaged frame."""
    from repro.framing.bits import flip_bits

    matcher = TraceMatcher(TestPacketSpec.default(), packets_sent=10_000)
    rng = np.random.default_rng(0)
    damaged = flip_bits(
        factory.build(1234),
        rng.choice(1072 * 8, size=100, replace=False),
    )
    result = benchmark(matcher.match_bytes, damaged)
    assert result.sequence == 1234


def test_perf_vectorized_trial(benchmark):
    """The fast trial loop (packets/second end to end)."""
    counter = iter(range(10**6))

    def trial():
        return run_fast_trial(
            TrialConfig(
                name="perf", packets=5_000, mean_level=29.5, seed=next(counter)
            )
        )

    output = benchmark.pedantic(trial, rounds=3, iterations=1)
    assert output.trace.packets_received > 4_900


def test_perf_viterbi_decode(benchmark):
    """K=7 Viterbi decoding of a 1024-bit block."""
    code = ConvolutionalCode()
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 1024).astype(np.uint8)
    coded = code.encode(bits)
    damaged = coded.copy()
    damaged[rng.choice(len(coded), size=30, replace=False)] ^= 1

    decoded = benchmark(viterbi_decode, code, damaged)
    assert np.array_equal(decoded, bits)


# ----------------------------------------------------------------------
# Scalar-vs-bulk stage races (bench_smoke: run on every CI push)
# ----------------------------------------------------------------------

SMOKE_PACKETS = 4_000


def _interference_source(family: str):
    if family == "spread_spectrum":
        # The worst interferer the paper found: an SS phone pair close
        # to the receiver.
        return SpreadSpectrumPhonePair(
            handset_position=Point(11.0, 6.0), base_position=Point(9.0, 4.0)
        )
    if family == "narrowband":
        from repro.interference.narrowband import NarrowbandPhonePair

        return NarrowbandPhonePair(Point(11.0, 6.0), Point(9.0, 4.0))
    if family == "competing":
        from repro.interference.wavelan import CompetingWaveLanTransmitter

        return CompetingWaveLanTransmitter(position=Point(12.0, 3.0))
    raise ValueError(family)


def _interference_config(family: str, packets: int = SMOKE_PACKETS) -> TrialConfig:
    return TrialConfig(
        name=f"bench-{family}",
        packets=packets,
        seed=999,
        tx_position=Point(0.0, 0.0),
        rx_position=Point(10.0, 5.0),
        interference=(_interference_source(family),),
    )


@pytest.mark.bench_smoke
@pytest.mark.parametrize(
    "family", ["spread_spectrum", "narrowband", "competing"]
)
def test_perf_interference_trial_vs_scalar(family):
    """The vectorized interference trial path against the per-packet
    reference loop (the oracle in ``tests/trace/per_packet_oracle.py``),
    on identical configurations, for each interferer family of Tables
    10-14.  The scalar twin shares the faster damage helpers, so the
    ratio understates the speedup over the pre-vectorization seed
    (measured 5-24x per family)."""
    run_fast_trial(_interference_config(family, packets=200))
    scalar_s, _ = _best_of(
        lambda: run_per_packet_trial(_interference_config(family))
    )
    bulk_s, output = _best_of(
        lambda: run_fast_trial(_interference_config(family))
    )
    speedup = scalar_s / bulk_s
    _record_stage(
        f"interference_trial_{family}",
        {
            "packets": SMOKE_PACKETS,
            "scalar_wall_s": round(scalar_s, 4),
            "bulk_wall_s": round(bulk_s, 4),
            "scalar_packets_per_s": round(SMOKE_PACKETS / scalar_s),
            "bulk_packets_per_s": round(SMOKE_PACKETS / bulk_s),
            "speedup_vs_scalar": round(speedup, 2),
        },
    )
    assert output.trace.packets_received > 0
    # CI smoke floor — local ratios run 8-45x depending on family (the
    # grouped-distinct damage sampler landed the slowest family >15x).
    assert speedup > 4.0


@pytest.mark.bench_smoke
def test_perf_trace_matching_vs_scalar():
    """Chunked bulk matching against the scalar matcher loop on a
    mostly-clean trace — the shape the report's long office trials
    have, where the bulk exact check (body unanimity, six header bytes
    and an affine FCS, no frame built) does the work."""
    output = run_fast_trial(
        TrialConfig(name="bench-match", packets=20_000, mean_level=10.0, seed=5)
    )
    trace = output.trace
    records = trace.packets_received

    def classify_scalar():
        matcher = TraceMatcher(trace.spec, trace.packets_sent)
        return [matcher.match_bytes(trace.data(index)) for index in range(records)]

    classify_trace(trace)  # warm
    scalar_s, scalar_matches = _best_of(classify_scalar)
    bulk_s, classified = _best_of(lambda: classify_trace(trace))
    speedup = scalar_s / bulk_s
    _record_stage(
        "trace_matching",
        {
            "records": records,
            "scalar_wall_s": round(scalar_s, 4),
            "bulk_wall_s": round(bulk_s, 4),
            "scalar_records_per_s": round(records / scalar_s),
            "bulk_records_per_s": round(records / bulk_s),
            "speedup_vs_scalar": round(speedup, 2),
        },
    )
    # Equivalence ride-along: same matches out of both paths, and the
    # bulk side also did full damage classification in that time.
    assert len(classified.packets) == len(scalar_matches) == records
    # CI smoke floor — locally ~4x: the bulk side reads every frame's
    # bytes (the scalar side builds no frames either).
    assert speedup > 2.0


@pytest.mark.bench_smoke
def test_perf_clean_trial_throughput():
    """The interference-free vectorized loop — the report's bulk of
    simulated packets; tracked as packets/sec only (its scalar twin
    was retired two PRs ago)."""

    def trial():
        return run_fast_trial(
            TrialConfig(name="bench-clean", packets=20_000, mean_level=29.5, seed=3)
        )

    trial()  # warm
    wall_s, output = _best_of(trial)
    _record_stage(
        "clean_trial",
        {
            "packets": 20_000,
            "bulk_wall_s": round(wall_s, 4),
            "bulk_packets_per_s": round(20_000 / wall_s),
        },
    )
    assert output.trace.packets_received > 19_000
    # CI smoke floor — locally ~1M packets/s with deferred payload
    # materialization; generous headroom for slow CI machines.
    assert 20_000 / wall_s > 250_000


@pytest.mark.bench_smoke
def test_perf_fec_decode_batch_vs_scalar():
    """Batched RCPC/Viterbi decode against the per-packet loop.

    One rate-1/2 codec, 96 damaged blocks of 512 info bits — the shape
    the FEC-evaluation experiment decodes per syndrome batch.  The
    batched path must return byte-identical bits (it runs the same
    add-compare-select in the same float order) while amortizing the
    Python-level trellis step loop across the whole batch.
    """
    from repro.fec.rcpc import RcpcCodec

    codec = RcpcCodec("1/2")
    rng = np.random.default_rng(21)
    batch, info_bits = 96, 512
    blocks = []
    weight_rows = []
    for _ in range(batch):
        bits = rng.integers(0, 2, info_bits).astype(np.uint8)
        transmitted = codec.encode(bits)
        damaged = transmitted.copy()
        damaged[rng.random(damaged.size) < 0.02] ^= 1
        blocks.append(damaged)
        weights = np.ones(damaged.size)
        weights[rng.random(damaged.size) < 0.05] = 0.3
        weight_rows.append(weights)
    received = np.stack(blocks)
    weights = np.stack(weight_rows)

    def decode_scalar():
        return np.stack(
            [codec.decode(received[i], weights[i]) for i in range(batch)]
        )

    decode_scalar()  # warm
    codec.decode_batch(received, weights)
    scalar_s, scalar_bits = _best_of(decode_scalar)
    bulk_s, batch_bits = _best_of(
        lambda: codec.decode_batch(received, weights)
    )
    speedup = scalar_s / bulk_s
    _record_stage(
        "fec_decode",
        {
            "blocks": batch,
            "info_bits": info_bits,
            "scalar_wall_s": round(scalar_s, 4),
            "bulk_wall_s": round(bulk_s, 4),
            "scalar_blocks_per_s": round(batch / scalar_s),
            "bulk_blocks_per_s": round(batch / bulk_s),
            "speedup_vs_scalar": round(speedup, 2),
        },
    )
    # Byte-identity, not statistical equivalence: same kernel, batched.
    assert np.array_equal(scalar_bits, batch_bits)
    # CI smoke floor — locally ~10x; the per-packet loop pays the
    # Python trellis step cost 48 times over.
    assert speedup > 5.0


@pytest.mark.bench_smoke
def test_perf_fec_replay_batched_vs_per_packet():
    """Throughput's FEC replay: per-packet loop against one batched decode.

    The population is the damaged packets of the goodput sweep's
    level-5 trial at the CLI's default seed and scale (1000 packets,
    ~280 damaged).  ``_fec_recovers`` replays them one decode per
    packet; :func:`repro.fec.replay.replay_damage` damages every row
    and decodes them in one ``decode_batch`` call, swept
    ``SWEEP_ROWS`` rows at a time.  Recovered counts must agree, and
    the sweep-row cap must keep one 330-row decode's traced
    allocations under 8 MiB: its survivor choices are one bit per
    state-step (about 1 MiB for a 128-row sweep of these blocks), and
    the peak reads about 5.3 MiB.
    """
    import tracemalloc

    from repro.analysis.classify import PacketClass
    from repro.experiments import throughput
    from repro.experiments.engine import trial_seed
    from repro.fec.interleave import BlockInterleaver
    from repro.fec.rcpc import RcpcCodec
    from repro.fec.replay import replay_damage

    level = 5.0
    seed = trial_seed(99, "throughput", f"level-{level:g}")
    codec = RcpcCodec(throughput.FEC_RATE)
    interleaver = BlockInterleaver(32, 64)
    info = (
        np.random.default_rng(seed)
        .integers(0, 2, throughput.FEC_INFO_BITS)
        .astype(np.uint8)
    )
    transmitted = codec.encode(info)
    trace = run_fast_trial(
        TrialConfig(
            name=f"tp-{level}",
            packets=throughput.PACKETS_PER_LEVEL,
            seed=seed,
            mean_level=level,
        )
    ).trace
    syndromes = [
        p.syndrome
        for p in classify_trace(trace).by_class(PacketClass.BODY_DAMAGED)
        if p.syndrome is not None
    ]
    positions = [
        throughput._coded_positions(s, len(transmitted)) for s in syndromes
    ]

    def per_packet():
        return sum(
            throughput._fec_recovers(
                s, codec, interleaver, info, transmitted
            )
            for s in syndromes
        )

    def batched():
        errors = replay_damage(
            codec, info, transmitted, positions, interleaver
        )
        return int((errors == 0).sum())

    batched()  # warm
    per_packet_s, per_packet_recovered = _best_of(per_packet, rounds=1)
    batched_s, batched_recovered = _best_of(batched)

    # One 330-row decode of this population's damaged rows (cycled).
    wire = interleaver.scramble(transmitted)
    rows = []
    for row_positions in positions:
        damaged = wire.copy()
        damaged[row_positions[row_positions < len(damaged)]] ^= 1
        rows.append(interleaver.unscramble(damaged))
    received = np.stack(rows)[np.arange(330) % len(rows)]
    tracemalloc.start()
    try:
        codec.decode_batch(received)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak_mib = peak_bytes / 2**20

    _record_stage(
        "fec_replay",
        {
            "rows": len(syndromes),
            "recovered": batched_recovered,
            "per_packet_wall_s": round(per_packet_s, 4),
            "batched_wall_s": round(batched_s, 4),
            "speedup_vs_per_packet": round(per_packet_s / batched_s, 2),
            "decode_330_rows_peak_mib": round(peak_mib, 2),
        },
    )
    assert batched_recovered == per_packet_recovered
    assert peak_mib <= 8.0
    # CI smoke floor — locally ~10x: the per-packet loop pays the
    # Python trellis step loop once per packet instead of per sweep.
    assert per_packet_s / batched_s > 3.0


@pytest.mark.bench_smoke
def test_perf_trace_persist_v1_vs_v2(tmp_path):
    """Trace save/load throughput: v1 JSON-lines against the v2
    columnar binary store, on the same 20k-record trace.

    The acceptance floor for the columnar store is a 10x records/s
    advantage on load — in practice the memory-mapped column reader
    runs orders of magnitude ahead of JSON parsing.  A ride-along
    equivalence check classifies the loaded columnar trace and
    requires verdict-identical output to classifying in memory.
    """
    from repro.trace.persist import load_trace, save_trace

    output = run_fast_trial(
        TrialConfig(name="bench-persist", packets=20_000, mean_level=10.0, seed=7)
    )
    trace = output.trace
    records = trace.packets_received
    v1_path = tmp_path / "bench.jsonl"
    v2_path = tmp_path / "bench.wlt2"

    v1_save_s, _ = _best_of(lambda: save_trace(trace, v1_path))
    v2_save_s, _ = _best_of(lambda: save_trace(trace, v2_path))
    v1_load_s, v1_trace = _best_of(lambda: load_trace(v1_path))
    v2_load_s, v2_trace = _best_of(lambda: load_trace(v2_path))
    load_speedup = v1_load_s / v2_load_s
    _record_stage(
        "trace_persist",
        {
            "records": records,
            "v1_bytes": v1_path.stat().st_size,
            "v2_bytes": v2_path.stat().st_size,
            "v1_save_wall_s": round(v1_save_s, 4),
            "v2_save_wall_s": round(v2_save_s, 4),
            "v1_load_wall_s": round(v1_load_s, 4),
            "v2_load_wall_s": round(v2_load_s, 4),
            "v1_load_records_per_s": round(records / v1_load_s),
            "v2_load_records_per_s": round(records / v2_load_s),
            "v2_load_speedup_vs_v1": round(load_speedup, 2),
        },
    )
    assert v1_trace.packets_received == v2_trace.packets_received == records
    # Acceptance floor: the columnar load must be >= 10x the JSONL load.
    assert load_speedup >= 10.0
    # Equivalence ride-along: classifying the memory-mapped columnar
    # trace yields exactly what classifying the in-memory trace does.
    mem = classify_trace(trace)
    col = classify_trace(v2_trace)
    assert [
        (p.packet_class, p.sequence, p.wrapper_damaged,
         p.body_bits_damaged, p.truncated_bytes_missing)
        for p in mem.packets
    ] == [
        (p.packet_class, p.sequence, p.wrapper_damaged,
         p.body_bits_damaged, p.truncated_bytes_missing)
        for p in col.packets
    ]


@pytest.mark.bench_smoke
def test_perf_engine_dispatch_overhead():
    """The unified experiment engine against a hand-rolled loop over
    the same trial runner with the same derived seeds.

    The engine's declarative layer (spec lookup, plan building, seed
    derivation, task wrapping, aggregation) must stay measurement
    noise, not a tax: the acceptance ceiling is 15% wall-clock
    overhead on a real experiment (Table 4 at scale 0.25, ~12k
    fast-path packets) — generous against the ±20-30% per-round
    scheduler jitter of a shared box, tight against any real
    per-trial dispatch cost.  The legs are interleaved (ABBA) and
    compared via the median per-round ratio so neither leg can ride a
    drift the other doesn't see.  An equivalence ride-along requires
    identical rows out of both paths.
    """
    from repro.experiments import engine as experiment_engine
    from repro.experiments import walls
    from repro.experiments.engine import PlanContext
    from repro.experiments.trials import TrialSpec, run_trial
    from repro.scenario.builtin import TABLE4_SCENARIOS

    scale, seed = 0.25, 64
    packets = max(500, int(walls.PAPER_PACKETS * scale))

    def direct():
        values = [
            run_trial(
                TrialSpec(
                    name, packets, scenario=scenario, reads=("metrics", "signal")
                ),
                experiment_engine.trial_seed(seed, "table4", name),
            )
            for name, scenario in TABLE4_SCENARIOS.items()
        ]
        return walls._aggregate(PlanContext(scale=scale, seed=seed), values)

    def engined():
        return walls.run(scale=scale, seed=seed)

    direct()  # warm both paths fully before measuring
    engined()
    # Interleave the legs in ABBA order and take the median of the
    # per-round engine/direct ratios: running all of one leg before
    # all of the other lets slow drift (allocator state, page cache,
    # CPU frequency) land entirely on whichever leg goes second — the
    # order bias that once recorded a nonsensical −20% "overhead"
    # (engine *faster* than direct).  Pairing within a round cancels
    # round-level drift, alternating which leg goes first cancels
    # within-round order effects, and the median shrugs off the
    # scheduler hiccups that best-of would hide and mean would absorb.
    direct_times: list[float] = []
    engine_times: list[float] = []
    direct_result = engine_result = None

    def timed(func, into):
        start = time.perf_counter()
        value = func()
        into.append(time.perf_counter() - start)
        return value

    for round_index in range(10):
        if round_index % 2 == 0:
            direct_result = timed(direct, direct_times)
            engine_result = timed(engined, engine_times)
        else:
            engine_result = timed(engined, engine_times)
            direct_result = timed(direct, direct_times)
    direct_s = statistics.median(direct_times)
    engine_s = statistics.median(engine_times)
    overhead = statistics.median(
        e / d for e, d in zip(engine_times, direct_times)
    ) - 1.0
    # The asserted ceiling uses each leg's best round instead: timing
    # noise on a time-sliced box is one-sided (the scheduler only ever
    # *adds* time), so floor-to-floor is the stable estimate of the
    # true dispatch cost (±2% across trials, vs ±10% for the medians).
    overhead_floor = min(engine_times) / min(direct_times) - 1.0
    _record_stage(
        "engine_overhead",
        {
            "packets": 4 * packets,
            "direct_wall_s": round(direct_s, 4),
            "engine_wall_s": round(engine_s, 4),
            "overhead_percent": round(100.0 * overhead, 2),
            "overhead_floor_percent": round(100.0 * overhead_floor, 2),
        },
    )
    # Equivalence ride-along: the engine is plumbing, not a model.
    assert engine_result.signal_rows == direct_result.signal_rows
    assert engine_result.metrics_rows == direct_result.metrics_rows
    # Acceptance ceiling: declarative dispatch must stay measurement
    # noise.  Per-round wall jitter on a time-sliced box is ±20-30%
    # and even the median keeps ±10% of it, so the gate runs on the
    # floor-to-floor ratio at 15% — far above the ~1% real cost, low
    # enough to catch an actual per-trial dispatch tax.
    assert overhead_floor < 0.15


@pytest.mark.bench_smoke
def test_perf_scenario_compile_overhead():
    """Compiling a scenario spec must stay noise next to running it.

    Every pool worker re-compiles its scenario from the registry
    in-process (models don't travel across the pool boundary), so the
    compiler sits on the per-trial hot path.  The acceptance ceiling is
    a single compile costing <5% of one experiment-scale trial (Table 4
    wall trial at scale 0.25, ~3k fast-path packets).  The recorded
    ``compile_wall_s`` is the total over a fixed 200 compiles —
    comparable in magnitude to the other stages, so the 25% ``bench
    diff`` tolerance gates real compiler regressions, not
    microsecond-scale jitter.
    """
    from repro.scenario.compiler import compile_scenario
    from repro.scenario.registry import REGISTRY

    spec = REGISTRY.get("paper/table4-wall1")
    compiled = compile_scenario(spec)  # warm imports and caches

    rounds = 200
    start = time.perf_counter()
    for _ in range(rounds):
        compiled = compile_scenario(spec)
    compile_total_s = time.perf_counter() - start
    compile_s = compile_total_s / rounds

    packets = max(500, int(12_720 * 0.25))
    config = compiled.trial_config(name="Wall 1", packets=packets, seed=64)
    trial_s, _ = _best_of(lambda: run_fast_trial(config), rounds=3)

    overhead = compile_s / trial_s
    _record_stage(
        "scenario_compile",
        {
            "compiles": rounds,
            "compile_wall_s": round(compile_total_s, 4),
            "compile_one_s": round(compile_s, 6),
            "trial_wall_s": round(trial_s, 4),
            "packets": packets,
            "overhead_percent": round(100.0 * overhead, 3),
        },
    )
    assert overhead < 0.05, (
        f"scenario compile costs {100 * overhead:.2f}% of a trial "
        f"({compile_s * 1e3:.2f} ms vs {trial_s * 1e3:.1f} ms)"
    )


@pytest.mark.bench_smoke
def test_perf_mac_contention(monkeypatch):
    """Both CSMA/CD variants of the X3 MAC ablation at scale 0.7, seed 83.

    A CSMA/CD station that senses carrier sleeps until a transmission
    leaves the air, instead of polling every ~20 µs through a 4.3 ms
    frame, so the discrete-event kernel fires a few thousand events
    where busy-polling fired 38,742 (32,170 wired + 6,572 blind).
    ``events`` is deterministic; ``cd_wall_s`` is the best of three
    runs of both variants.
    """
    from repro.experiments import mac_ablation
    from repro.simkit.simulator import Simulator

    fired = []
    run = Simulator.run

    def counted(self, max_events=None):
        fired.append(run(self, max_events))
        return fired[-1]

    monkeypatch.setattr(Simulator, "run", counted)

    def both_variants():
        fired.clear()
        for variant in ("csma_cd_wired", "csma_cd_blind"):
            mac_ablation._run_variant(variant, 0.7, 83)
        return sum(fired)

    wall_s, events = _best_of(both_variants, rounds=3)
    _record_stage(
        "mac_contention", {"events": events, "cd_wall_s": round(wall_s, 4)}
    )
    assert events < 5000, f"{events} DES events: CSMA/CD is polling again"


@pytest.mark.bench_smoke
def test_perf_obs_tax():
    """What an observability session costs the report's DES path.

    ``build_report`` always runs under a session, so its spans and
    counter increments are part of every report's wall.  The ``mac``
    experiment at its report scale and trial selection is the report's
    per-event path: its two MAC trials fire ~1.5k simulator events and
    make ~1.3k deliveries, each a few increments of counter handles that
    the simulator, channel, stations, MACs, modems and error models
    fetched once (about 100 registry lookups per run, against 8,326
    when each hook looked its counter up).  Legs alternate (ABBA, as in
    ``engine_overhead``) and ``tax_percent`` is the median per-round
    ratio.  Not in ``benchmarks/baseline.json``: reported, never gated.
    An equivalence ride-along requires equal results either way.
    """
    from repro import obs
    from repro.experiments import engine as experiment_engine

    experiment_engine.load_all()
    spec = experiment_engine.get("mac")
    scale = spec.report_scale(0.05)

    def plain():
        return experiment_engine.ENGINE.run(
            spec, scale=scale, seed=4, extras=dict(spec.report_extras)
        )

    def observed():
        with obs.session(telemetry_path=None):
            return plain()

    plain()  # warm both legs
    observed()
    times: dict = {plain: [], observed: []}
    results: dict = {}
    for round_index in range(10):
        order = (plain, observed) if round_index % 2 == 0 else (observed, plain)
        for leg in order:
            start = time.perf_counter()
            results[leg] = leg()
            times[leg].append(time.perf_counter() - start)
    tax = statistics.median(
        o / p for o, p in zip(times[observed], times[plain])
    ) - 1.0
    _record_stage(
        "obs_tax",
        {
            "experiment": "mac",
            "scale": scale,
            "plain_wall_s": round(statistics.median(times[plain]), 4),
            "observed_wall_s": round(statistics.median(times[observed]), 4),
            "tax_percent": round(100.0 * tax, 2),
        },
    )
    assert results[observed] == results[plain]


#: The set-up of each command path measured by ``startup``.
STARTUP_PATHS = {
    "report_setup": (
        "from repro.experiments import engine, report\n"
        "engine.load_all()\n"
    ),
    "serve_setup": (
        "from repro.__main__ import _build_parser\n"
        "_build_parser(['serve'])\n"
        "import repro.serve.server\n"
    ),
}

#: Times ``sys.argv[1]`` from a fresh interpreter's first line of code;
#: prints the wall and how many ``repro`` modules it loaded.
STARTUP_PROBE = """
import json, sys, time
start = time.perf_counter()
exec(sys.argv[1], {})
wall = time.perf_counter() - start
loaded = [n for n in sys.modules if n == "repro" or n.startswith("repro.")]
print(json.dumps([wall, len(loaded)]))
"""


@pytest.mark.bench_smoke
def test_perf_startup():
    """What a command costs before it runs, in fresh interpreters.

    ``report_setup`` is the report's set-up (the imports and the
    experiment registry); ``serve_setup`` is what ``python -m repro
    serve`` imports before it listens.  Each wall is the median of
    five alternating runs and includes compiling any module that has no
    cached bytecode; numpy's import, about 0.12-0.15 s, is the floor
    of both.  Not in ``benchmarks/baseline.json``: reported, never
    gated.
    """
    env = dict(os.environ, PYTHONPATH=str(BENCH_JSON.parent / "src"))
    walls: dict = {path: [] for path in STARTUP_PATHS}
    modules: dict = {}
    for _ in range(5):
        for path, code in STARTUP_PATHS.items():
            out = subprocess.run(
                [sys.executable, "-c", STARTUP_PROBE, code],
                capture_output=True, text=True, env=env, check=True,
            ).stdout
            wall, modules[path] = json.loads(out)
            walls[path].append(wall)
    _record_stage(
        "startup",
        {
            **{
                f"{path}_wall_s": round(statistics.median(times), 4)
                for path, times in walls.items()
            },
            **{f"{path}_modules": count for path, count in modules.items()},
        },
    )
    assert modules["serve_setup"] < modules["report_setup"]


@pytest.mark.bench_smoke
def test_source_size():
    """Physical lines and files of the package source (``src/**/*.py``).

    Recorded so that net deletion is tracked like any other stage.
    Neither key is a ``*_wall_s`` or ``*_per_s`` key, so ``bench diff``
    never gates them.
    """
    files = sorted((BENCH_JSON.parent / "src").rglob("*.py"))
    lines = sum(len(path.read_bytes().splitlines()) for path in files)
    _record_stage("source_size", {"src_lines": lines, "src_files": len(files)})
    assert files and lines > 0


@pytest.mark.bench_smoke
def test_bench_json_well_formed():
    """The emitted JSON is parseable and carries the required fields."""
    doc = json.loads(BENCH_JSON.read_text())
    assert doc["schema"] == 1
    stage = doc["stages"]["interference_trial_spread_spectrum"]
    for key in ("scalar_wall_s", "bulk_wall_s", "speedup_vs_scalar"):
        assert key in stage
