"""The calibrated per-packet impairment pipeline.

For each transmitted packet the model decides, in the order the paper's
methodology section walks through reception failures (Section 4):

1. **Missed entirely** — "certain errors might cause the modem unit to
   miss the beginning-of-frame marker, resulting in a slightly-damaged
   packet being totally lost", plus a small host-side loss floor that
   the paper observes even in near-perfect environments (Table 2:
   .01-.07 % with zero bit errors).
2. **Truncated** — clock recovery breaks mid-packet; driven by the
   latent stress variable of :mod:`repro.phy.quality` and by wideband
   interference.
3. **Bit-corrupted** — attenuation-driven corruption arrives in small
   bursts (the paper's Tx5 location: 25 damaged packets carrying 82 bit
   errors, worst packet 7 — a mean burst of ~3.3 bits); interference
   adds its own error processes.

Calibration targets are tabulated in DESIGN.md §3.  All probabilities
are functions of the *continuous* post-diversity signal level; interference
contributes through :class:`InterferenceSample` records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.obs import runtime as _obs
from repro.phy.quality import ClockStressModel, ClockStressParams

if TYPE_CHECKING:  # pragma: no cover - import cycle is typing-only
    from repro.interference.base import BulkInterference


@dataclass(frozen=True)
class InterferenceSample:
    """One interference source's contribution during one packet.

    Produced by :mod:`repro.interference` sources; consumed here and by
    the AGC model.  Power fields are in dBm at the receiver; ``None``
    means the source was quiet during that AGC sampling instant.
    """

    source_name: str
    signal_sample_dbm: Optional[float] = None
    silence_sample_dbm: Optional[float] = None
    jam_ber: float = 0.0
    miss_probability: float = 0.0
    truncate_probability: float = 0.0
    clock_stress: float = 0.0
    bursty: bool = False


@dataclass
class ErrorModelParams:
    """Calibrated constants of the impairment pipeline."""

    # Host/AGC residual loss on a perfect channel (Table 2).
    host_loss_probability: float = 3.0e-4
    # Beginning-of-frame miss: logistic in level.  Negligible above
    # level ~8, ~1.4% at 6.7 (the body trial "induced packet loss"),
    # 50% at 4.6 and rising steeply below (the Figure 2 "error region";
    # the paper's undamaged packets bottom out at level 5).
    bof_midpoint_level: float = 4.6
    bof_steepness: float = 2.0
    # Attenuation bit-corruption "hit" process: probability that a
    # packet takes a corruption burst, logistic in level.  At 9.5 →
    # ~1.6% (Table 5 Tx5: 25/1440), at 6.7 → ~16% (Table 8 body: 224/1442).
    hit_midpoint_level: float = 4.9
    hit_steepness: float = 0.9
    # Burst shape: 1 + Geometric(extra) bits, consecutive errors within
    # a bounded gap.  Mean burst ≈ 1 + p/(1-p) = 3.33 bits at p = 0.7.
    burst_continue_probability: float = 0.7
    burst_max_gap_bits: int = 16
    # Residual channel BER on strong links: over the ~1e10 office bits
    # of Table 2 the paper saw ~1 corrupted bit.
    residual_ber: float = 2.0e-10
    # Clock stress / truncation / quality calibration.
    stress: ClockStressParams = field(default_factory=ClockStressParams)


@dataclass
class PacketFate:
    """What the channel did to one packet.

    ``flipped_bits`` are MSB-first bit offsets into the full modem frame;
    flips beyond a truncation point are discarded (those bits never
    arrived).  ``stress``/``quality`` feed the modem status registers.
    """

    missed: bool
    truncated_at_byte: Optional[int]
    flipped_bits: np.ndarray
    stress: float
    quality: int

    @property
    def truncated(self) -> bool:
        return self.truncated_at_byte is not None

    @property
    def damaged(self) -> bool:
        return self.truncated or len(self.flipped_bits) > 0


def _logistic(x: float) -> float:
    # Guard the exp against overflow for extreme levels.
    if x > 60.0:
        return 1.0
    if x < -60.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(-x))


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sort-based ``np.unique`` for 1-D integer arrays.

    The damage paths dedup a few dozen bit offsets per packet, where
    ``np.unique``'s generic machinery costs more than the sort itself;
    the bulk damage merge dedups millions of keys, where numpy's
    hash-based unique kernel is several times slower than a plain sort
    plus run-length mask.
    """
    if values.size <= 1:
        return np.sort(values)
    ordered = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _fold_probabilities(
    base: np.ndarray, columns: Sequence[np.ndarray]
) -> np.ndarray:
    """``1 - ∏(1 - p_i)`` across per-packet probability columns.

    The independent-process fold the scalar path performs one packet at
    a time, computed as a log-space sum (``log1p``) so stacking many
    sources stays numerically stable; a column entry at exactly 1 gives
    ``-inf`` and correctly folds to probability 1.
    """
    if not columns:
        return base
    with np.errstate(divide="ignore"):
        log_keep = np.log1p(-base)
        for column in columns:
            log_keep = log_keep + np.log1p(-column)
    return 1.0 - np.exp(log_keep)


def _distinct_uniform_rounds(
    spans: np.ndarray,
    sizes: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Round-based exact distinct-subset sampler (small-domain helper).

    Returns flat ``(row_ids, values)`` arrays (order not meaningful).
    Equal in distribution to per-row
    ``rng.choice(span, size, replace=False)``: repeatedly drawing iid
    uniforms and keeping the first ``size`` distinct values is uniform
    over size-subsets by exchangeability.  Rows wanting more than half
    their span sample the *complement* subset instead, so every top-up
    round retires at least half of the remaining need in expectation
    and the loop converges geometrically.

    The membership bitmap makes each round O(draws), which is ideal for
    the small strides this is now used for (the excess-drop step of
    :func:`_distinct_uniform_bulk`); the oversampling sampler below is
    faster on the big flat jam-window workloads.
    """
    total_rows = spans.shape[0]
    if total_rows == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    spans_all = spans.astype(np.int64)
    sizes_all = np.minimum(sizes.astype(np.int64), spans_all)
    stride = int(spans_all.max())
    # Membership is a flat per-chunk bitmap (row-major, ``stride`` bits
    # per row); chunking bounds its footprint on huge damaged sets.
    chunk_rows = max(1, min(total_rows, 32_000_000 // stride))
    out_rows: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []
    for chunk_start in range(0, total_rows, chunk_rows):
        chunk = slice(chunk_start, min(chunk_start + chunk_rows, total_rows))
        spans_c = spans_all[chunk]
        sizes_c = sizes_all[chunk]
        m = spans_c.shape[0]
        dense = sizes_c * 2 > spans_c
        want = np.where(dense, spans_c - sizes_c, sizes_c)
        small_keys = m * stride < 2**31
        taken = np.zeros(m * stride, dtype=bool)
        need = want.copy()
        for _ in range(10_000):
            pending = np.nonzero(need > 0)[0]
            if pending.size == 0:
                break
            reps = need[pending]
            rows = np.repeat(pending, reps)
            bounds = np.repeat(spans_c[pending], reps)
            if rows.size >= 4096:
                # Scalar-bound draw + rejection against each row's
                # span: numpy's array-bound integers() runs per-element
                # and is several times slower, while rejecting the few
                # overshoots (spans cluster near the max) keeps exact
                # uniformity.  Small tails use the exact draw directly
                # so a narrow-span straggler can't spin the loop.
                draws = rng.integers(0, stride, size=rows.size)
                in_span = draws < bounds
                rows = rows[in_span]
                draws = draws[in_span]
            else:
                draws = rng.integers(0, bounds)
            keys = rows * stride + draws
            if small_keys:
                keys = keys.astype(np.int32)
            # In-round dedup + bitmap probe: the union of accepted
            # values is the same set the sequential first-distinct
            # process produces, so uniformity is preserved.
            keys = _sorted_unique(keys)
            keys = keys[~taken[keys]]
            taken[keys] = True
            rows_new = keys // stride
            need -= np.bincount(rows_new, minlength=m)
            if not dense.all():
                emit = ~dense[rows_new]
                kept = keys[emit]
                rows_kept = rows_new[emit]
                out_rows.append(rows_kept.astype(np.int64) + chunk_start)
                out_vals.append(
                    kept.astype(np.int64) - rows_kept.astype(np.int64) * stride
                )
        else:  # pragma: no cover - density ≤ 1/2 makes this unreachable
            raise RuntimeError("distinct-subset sampling failed to converge")
        dense_rows = np.nonzero(dense)[0]
        if dense_rows.size:
            # Dense rows selected their *exclusions*; emit the
            # complement of each row's bitmap slice.
            counts = spans_c[dense_rows]
            rep_rows = np.repeat(dense_rows, counts)
            starts = np.cumsum(counts) - counts
            vals = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
                starts, counts
            )
            keep = ~taken[rep_rows * stride + vals]
            out_rows.append(rep_rows[keep] + chunk_start)
            out_vals.append(vals[keep])
    if not out_rows:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(out_rows), np.concatenate(out_vals)


def _distinct_uniform_bulk(
    spans: np.ndarray,
    sizes: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``sizes[i]`` distinct uniform integers from ``[0, spans[i])``
    for every row at once.

    Returns flat ``(row_ids, values)`` arrays **grouped by ascending
    row, ascending within each row** — callers can treat the output as
    ready-made CSR content without re-sorting.

    Strategy (one sort instead of a bitmap round loop): oversample each
    row past its need (covering in-row collisions), sort + dedup all
    draws in one combined-key pass, then *uniformly drop* the per-row
    excess.  The distinct set of iid uniform draws is exchangeable, so
    dropping a uniformly-chosen excess subset leaves a uniform
    ``size``-subset; rows that come up short (a few per million) redraw
    wholesale, which preserves uniformity by independence of attempts.
    Rows wanting more than half their span sample the *complement*
    subset instead and emit the inverse at the end.

    Per-row bounded draws use 53-bit float scaling
    (``floor(random() * span)``), whose deviation from exact uniformity
    is at most ``span * 2**-53`` per value — orders of magnitude below
    anything the statistical equivalence suite (or the paper's
    statistics) could resolve, and several times faster than numpy's
    per-element bounded-integer path.
    """
    m = spans.shape[0]
    empty = np.empty(0, dtype=np.int64)
    if m == 0:
        return empty, empty
    spans_all = spans.astype(np.int64)
    sizes_all = np.minimum(sizes.astype(np.int64), spans_all)
    stride = int(spans_all.max())
    if stride <= 0:
        return empty, empty
    small_keys = m * stride < 2**31
    key_dtype = np.int32 if small_keys else np.int64
    key_stride = key_dtype(stride)
    dense = sizes_all * 2 > spans_all
    has_dense = bool(dense.any())
    # Dense rows select their *exclusions* (the complement subset).
    want = np.where(dense, spans_all - sizes_all, sizes_all)
    need = want.copy()
    streams: list[np.ndarray] = []  # sorted, disjoint key arrays
    excl_streams: list[np.ndarray] = []  # dense rows' exclusion keys
    for _ in range(10_000):
        pending = np.nonzero(need > 0)[0]
        if pending.size == 0:
            break
        need_p = need[pending]
        spans_p = spans_all[pending]
        # Oversample quota: expected collisions (birthday term) plus a
        # small safety margin sized so shortfalls are ~5-sigma events.
        n_draw = need_p + (need_p * need_p) // (2 * spans_p) + (need_p >> 5) + 6
        rows = np.repeat(pending.astype(key_dtype), n_draw)
        bounds = np.repeat(spans_p.astype(key_dtype), n_draw)
        draws = (rng.random(rows.size) * bounds).astype(key_dtype)
        # float rounding can land exactly on the bound; fold it back.
        over = draws >= bounds
        if over.any():
            draws[over] = bounds[over] - key_dtype(1)
        keys = rows * key_stride + draws
        keys = _sorted_unique(keys)
        if keys.size == 0:  # pragma: no cover - all draws rejected
            continue
        rows_new = keys // key_stride
        # Per-row distinct counts via run lengths (sorted => grouped).
        boundary = np.empty(rows_new.size, dtype=bool)
        boundary[0] = True
        np.not_equal(rows_new[1:], rows_new[:-1], out=boundary[1:])
        run_starts = np.flatnonzero(boundary)
        run_rows = rows_new[run_starts].astype(np.int64)
        run_counts = np.diff(np.append(run_starts, rows_new.size))
        ok_run = run_counts >= need[run_rows]
        if not ok_run.all():
            # Shortfall rows redraw from scratch next round; drop their
            # partial draws entirely (keeping them would bias the set).
            keys = keys[np.repeat(ok_run, run_counts)]
            run_rows = run_rows[ok_run]
            run_counts = run_counts[ok_run]
            if keys.size == 0:
                continue
        need_ok = need[run_rows]
        excess = run_counts - need_ok
        if int(excess.sum()) > 0:
            # Uniformly drop the excess: positions within each row's
            # run are labels of an exchangeable set, so a uniform
            # distinct position subset removes a uniform value subset.
            drop_rows, drop_pos = _distinct_uniform_rounds(
                run_counts, excess, rng
            )
            keep = np.ones(keys.size, dtype=bool)
            stream_offsets = np.cumsum(run_counts) - run_counts
            keep[stream_offsets[drop_rows] + drop_pos] = False
            keys = keys[keep]
        need[run_rows] = 0
        if has_dense:
            elem_dense = np.repeat(dense[run_rows], need_ok)
            excl_streams.append(keys[elem_dense])
            streams.append(keys[~elem_dense])
        else:
            streams.append(keys)
    else:  # pragma: no cover - margins make this unreachable
        raise RuntimeError("distinct-subset sampling failed to converge")
    if has_dense:
        dense_rows = np.nonzero(dense)[0]
        spans_d = spans_all[dense_rows]
        rep_rows = np.repeat(dense_rows, spans_d)
        starts = np.cumsum(spans_d) - spans_d
        vals = np.arange(int(spans_d.sum()), dtype=np.int64) - np.repeat(
            starts, spans_d
        )
        cand = (rep_rows * stride + vals).astype(key_dtype)
        if excl_streams:
            excl = (
                excl_streams[0]
                if len(excl_streams) == 1
                else np.sort(np.concatenate(excl_streams))
            )
            if excl.size:
                pos = np.searchsorted(excl, cand)
                hit = (pos < excl.size) & (
                    excl[np.minimum(pos, excl.size - 1)] == cand
                )
                cand = cand[~hit]
        streams.append(cand)
    if not streams:
        return empty, empty
    if len(streams) == 1:
        keys = streams[0]
    else:
        keys = np.sort(np.concatenate(streams))
    rows_out = (keys // key_stride).astype(np.int64)
    vals_out = keys.astype(np.int64) - rows_out * stride
    return rows_out, vals_out


def _record_fate_metrics(fate: PacketFate) -> None:
    """Mirror one sampled fate into the ``phy.*`` counters.

    The vectorized path accounts its bulk flags separately (see
    :meth:`WaveLanErrorModel.sample_bulk`), so this is only
    called on the per-packet paths.
    """
    state = _obs.STATE
    if not state.enabled:
        return
    metrics = state.metrics
    metrics.counter("phy.packets_sampled").inc()
    if fate.missed:
        metrics.counter("phy.missed").inc()
        return
    if fate.truncated:
        metrics.counter("phy.truncated").inc()
    flipped = len(fate.flipped_bits)
    if flipped:
        metrics.counter("phy.corrupted_packets").inc()
        metrics.counter("phy.bits_flipped").inc(flipped)


class WaveLanErrorModel:
    """Samples per-packet fates given channel state."""

    # In-window bit error density of a bursty jammer's contiguous
    # corruption window.
    JAM_DENSITY = 0.03

    def __init__(self, params: ErrorModelParams | None = None) -> None:
        self.params = params or ErrorModelParams()
        self.stress_model = ClockStressModel(self.params.stress)

    # ------------------------------------------------------------------
    # Component probabilities (deterministic functions of level)
    # ------------------------------------------------------------------
    def bof_miss_probability(self, level: float) -> float:
        """Chance the beginning-of-frame marker is missed at this level."""
        p = self.params
        return _logistic(p.bof_steepness * (p.bof_midpoint_level - level))

    def miss_probability(self, level: float) -> float:
        """Total attenuation+host miss probability at this level."""
        p_bof = self.bof_miss_probability(level)
        p_host = self.params.host_loss_probability
        return 1.0 - (1.0 - p_bof) * (1.0 - p_host)

    # The burst-hit and clock-slip processes are *events in time*: a
    # frame is exposed in proportion to its airtime.  Calibration is
    # anchored at the paper's 1072-byte test frame.
    REFERENCE_FRAME_BYTES = 1072

    def hit_probability(self, level: float, frame_bytes: int | None = None) -> float:
        """Chance of an attenuation-driven corruption burst.

        Scales with frame airtime; the calibrated value applies to the
        paper's 1072-byte test frame.
        """
        p = self.params
        base = _logistic(p.hit_steepness * (p.hit_midpoint_level - level))
        if frame_bytes is None:
            return base
        return min(1.0, base * frame_bytes / self.REFERENCE_FRAME_BYTES)

    # ------------------------------------------------------------------
    # Burst synthesis
    # ------------------------------------------------------------------
    def _burst_positions(
        self, frame_bits: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Bit offsets of one corruption burst, clustered in the frame."""
        p = self.params
        count = 1 + rng.geometric(1.0 - p.burst_continue_probability) - 1
        start = int(rng.integers(0, frame_bits))
        positions = [start]
        cursor = start
        for _ in range(count - 1):
            cursor += int(rng.integers(1, p.burst_max_gap_bits + 1))
            if cursor >= frame_bits:
                break
            positions.append(cursor)
        return np.array(sorted(set(positions)), dtype=np.int64)

    def _jam_positions(
        self,
        frame_bits: int,
        jam_ber: float,
        bursty: bool,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Bit errors injected by an interference source.

        ``bursty`` sources (spread-spectrum phone stompers) concentrate
        their errors in contiguous clumps; others scatter uniformly.
        """
        expected = jam_ber * frame_bits
        if expected <= 0.0:
            return np.empty(0, dtype=np.int64)
        total = int(rng.poisson(expected))
        return self._jam_positions_from_total(frame_bits, total, bursty, rng)

    def _jam_positions_from_total(
        self,
        frame_bits: int,
        total: int,
        bursty: bool,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Place ``total`` jam errors (the count having been drawn already).

        Split from :meth:`_jam_positions` so the bulk path can draw all
        packets' Poisson totals vectorized and only place positions for
        the damaged minority.
        """
        if total == 0:
            return np.empty(0, dtype=np.int64)
        if not bursty:
            return _sorted_unique(rng.integers(0, frame_bits, size=total))
        # Bursty: one contiguous jam window at a fixed in-window error
        # density, biased toward the frame interior — the receiver's
        # AGC and clock are freshly trained at the frame edges, so the
        # observed wrapper-damage rate is far below the body rate
        # (Table 11: 1 % wrapper vs 59 % body).
        window_bits = min(frame_bits, max(total, int(total / self.JAM_DENSITY)))
        lead_margin = int(frame_bits * 0.045)
        tail_margin = int(frame_bits * 0.005)
        if rng.random() < 0.03:
            # Occasionally the jam does catch the frame edges (the paper
            # saw ~1 % wrapper damage under the SS phone).
            lead_margin = 0
            tail_margin = 0
        latest_start = max(lead_margin + 1, frame_bits - tail_margin - window_bits)
        start = int(rng.integers(lead_margin, latest_start))
        span = max(1, min(window_bits, frame_bits - tail_margin - start))
        positions = start + rng.choice(span, size=min(total, span), replace=False)
        # choice(replace=False) already yields distinct offsets; sorting
        # is all that is left to normalize.
        return np.sort(positions.astype(np.int64))

    # ------------------------------------------------------------------
    # Main per-packet pipeline
    # ------------------------------------------------------------------
    def sample_packet(
        self,
        level: float,
        frame_bytes: int,
        rng: np.random.Generator,
        interference: Sequence[InterferenceSample] = (),
    ) -> PacketFate:
        """Decide one packet's fate on a channel at ``level``.

        ``level`` is the continuous post-diversity signal level; the
        caller derives the *register* readings separately via the AGC
        model (they fold in interference power).
        """
        frame_bits = frame_bytes * 8

        # 1. Miss?
        p_miss = self.miss_probability(level)
        for sample in interference:
            p_miss = 1.0 - (1.0 - p_miss) * (1.0 - sample.miss_probability)
        if rng.random() < p_miss:
            fate = PacketFate(
                missed=True,
                truncated_at_byte=None,
                flipped_bits=np.empty(0, dtype=np.int64),
                stress=0.0,
                quality=0,
            )
            _record_fate_metrics(fate)
            return fate

        # 2. Clock stress and truncation.
        interference_stress = sum(s.clock_stress for s in interference)
        stress = self.stress_model.sample_stress(level, interference_stress, rng)
        # A clock slip truncates the packet and jumps the stress above
        # the threshold; interference can also slip the clock directly
        # or push the stress over the threshold by itself.  Slip chance
        # scales with airtime (calibrated at the 1072-byte test frame).
        truncated = self.stress_model.causes_truncation(stress)
        if not truncated:
            p_slip = self.stress_model.truncation_probability(level) * (
                frame_bytes / self.REFERENCE_FRAME_BYTES
            )
            for sample in interference:
                p_slip = 1.0 - (1.0 - p_slip) * (1.0 - sample.truncate_probability)
            truncated = rng.random() < p_slip
            if truncated:
                stress = max(stress, self.stress_model.slip_stress(rng))
        truncated_at: Optional[int] = None
        if truncated:
            # Clock loss can strike anywhere after the first few bytes.
            truncated_at = int(rng.integers(8, frame_bytes))

        # 3. Bit corruption.
        flipped: list[np.ndarray] = []
        if rng.random() < self.hit_probability(level, frame_bytes):
            flipped.append(self._burst_positions(frame_bits, rng))
        if self.params.residual_ber > 0.0:
            # Binomial thinning of the residual channel BER.  (The old
            # ``rng.random() < residual_ber * frame_bits`` shortcut flips
            # at most one bit and breaks down once the expected count
            # approaches 1.)
            residual_bits = int(
                rng.binomial(frame_bits, min(1.0, self.params.residual_ber))
            )
            if residual_bits:
                flipped.append(
                    _sorted_unique(rng.integers(0, frame_bits, size=residual_bits))
                )
        for sample in interference:
            flipped.append(
                self._jam_positions(frame_bits, sample.jam_ber, sample.bursty, rng)
            )
        if flipped:
            all_flips = _sorted_unique(np.concatenate(flipped))
        else:
            all_flips = np.empty(0, dtype=np.int64)
        if truncated_at is not None:
            all_flips = all_flips[all_flips < truncated_at * 8]

        # 4. Quality register.
        quality = self.stress_model.quality_reading(
            stress, had_bit_errors=len(all_flips) > 0, rng=rng
        )

        fate = PacketFate(
            missed=False,
            truncated_at_byte=truncated_at,
            flipped_bits=all_flips,
            stress=stress,
            quality=quality,
        )
        _record_fate_metrics(fate)
        return fate

    # ------------------------------------------------------------------
    # Vectorized fast path (whole-trial fates)
    # ------------------------------------------------------------------
    def sample_bulk(
        self,
        levels: np.ndarray,
        frame_bytes: int,
        interference: Sequence["BulkInterference"],
        rng: np.random.Generator,
    ) -> dict[str, np.ndarray]:
        """Vectorized fates for a whole trial, interference included.

        ``interference`` is a sequence of per-source
        :class:`~repro.interference.base.BulkInterference` schedules
        (empty for a clean channel).  Source probability columns fold
        into the attenuation probabilities via vectorized log-space
        products — the same independent-process combination the scalar
        :meth:`sample_packet` performs one packet at a time.

        Returns arrays: ``missed`` (bool), ``stress`` (float),
        ``truncated`` (bool), ``hit`` (bool), ``residual_bits`` (int),
        ``jam_totals`` (one int array per source, Poisson error counts),
        and ``needs_detail`` (bool: packets that must be expanded via
        :meth:`detail_packet`).  For realistic channels the flagged set
        is a small minority, which is what makes half-million packet
        trials (Table 2) and the interference tables (10-14) tractable.
        """
        p = self.params
        n = len(levels)
        frame_bits = frame_bytes * 8

        # 1. Miss: host + beginning-of-frame, folded with each source's
        # per-packet stomp columns.
        p_bof = 1.0 / (1.0 + np.exp(
            np.clip(p.bof_steepness * (levels - p.bof_midpoint_level), -60, 60)
        ))
        p_miss = 1.0 - (1.0 - p_bof) * (1.0 - p.host_loss_probability)
        p_miss = _fold_probabilities(
            p_miss, [s.miss_probability for s in interference]
        )
        missed = rng.random(n) < p_miss

        # 2. Clock stress and truncation (slip chance scales with
        # airtime, calibrated at the 1072-byte test frame).
        interference_stress: np.ndarray | float = 0.0
        for schedule in interference:
            interference_stress = interference_stress + schedule.clock_stress
        stress = self.stress_model.sample_stress_bulk(
            levels, rng, interference_stress=interference_stress
        )
        p_slip = self.stress_model.truncation_probability_bulk(levels) * (
            frame_bytes / self.REFERENCE_FRAME_BYTES
        )
        p_slip = _fold_probabilities(
            p_slip, [s.truncate_probability for s in interference]
        )
        truncated = (
            (stress > p.stress.truncation_threshold) | (rng.random(n) < p_slip)
        ) & ~missed

        # 3. Corruption processes: attenuation burst hit, residual BER
        # (Binomial thinning), and per-source Poisson jam totals.
        p_hit = 1.0 / (1.0 + np.exp(
            np.clip(p.hit_steepness * (levels - p.hit_midpoint_level), -60, 60)
        ))
        p_hit = np.minimum(1.0, p_hit * (frame_bytes / self.REFERENCE_FRAME_BYTES))
        hit = (rng.random(n) < p_hit) & ~missed
        if p.residual_ber > 0.0:
            residual_bits = rng.binomial(frame_bits, min(1.0, p.residual_ber), size=n)
            residual_bits[missed] = 0
        else:
            residual_bits = np.zeros(n, dtype=np.int64)
        jam_totals: list[np.ndarray] = []
        for schedule in interference:
            totals = rng.poisson(schedule.jam_ber * frame_bits)
            totals[missed] = 0
            jam_totals.append(totals)

        needs_detail = truncated | hit | (residual_bits > 0)
        for totals in jam_totals:
            needs_detail = needs_detail | (totals > 0)
        needs_detail &= ~missed

        state = _obs.STATE
        if state.enabled:
            # Bulk accounting: one increment batch per trial, so the
            # vectorized hot path pays nothing per packet.
            metrics = state.metrics
            metrics.counter("phy.packets_sampled").inc(n)
            metrics.counter("phy.missed").inc(int(np.count_nonzero(missed)))
            metrics.counter("phy.truncated").inc(
                int(np.count_nonzero(truncated))
            )
            metrics.counter("phy.corruption_hits").inc(
                int(np.count_nonzero(hit))
                + int(np.count_nonzero(residual_bits > 0))
            )

        return {
            "missed": missed,
            "stress": stress,
            "truncated": truncated,
            "hit": hit,
            "residual_bits": residual_bits,
            "jam_totals": jam_totals,
            "needs_detail": needs_detail,
        }

    def detail_packet(
        self,
        stress: float,
        truncated: bool,
        hit: bool,
        residual_bits: int,
        frame_bytes: int,
        rng: np.random.Generator,
        jam: Sequence[tuple[int, bool]] = (),
    ) -> PacketFate:
        """Expand one bulk-flagged packet into a full :class:`PacketFate`.

        ``jam`` carries one ``(error_total, bursty)`` pair per
        interference source, with totals as drawn by
        :meth:`sample_bulk`; only position placement happens here.
        """
        frame_bits = frame_bytes * 8
        truncated_at = None
        if truncated:
            truncated_at = int(rng.integers(8, frame_bytes))
            if not self.stress_model.causes_truncation(stress):
                stress = max(stress, self.stress_model.slip_stress(rng))
        flipped: list[np.ndarray] = []
        if hit:
            flipped.append(self._burst_positions(frame_bits, rng))
        if residual_bits:
            flipped.append(
                _sorted_unique(rng.integers(0, frame_bits, size=int(residual_bits)))
            )
        for total, bursty in jam:
            if total:
                flipped.append(
                    self._jam_positions_from_total(
                        frame_bits, int(total), bursty, rng
                    )
                )
        # Each component is already sorted and duplicate-free; merging
        # is only needed when several processes fired on one packet.
        if not flipped:
            all_flips = np.empty(0, dtype=np.int64)
        elif len(flipped) == 1:
            all_flips = flipped[0]
        else:
            all_flips = _sorted_unique(np.concatenate(flipped))
        if truncated_at is not None:
            all_flips = all_flips[all_flips < truncated_at * 8]
        quality = self.stress_model.quality_reading(
            stress, had_bit_errors=len(all_flips) > 0, rng=rng
        )
        state = _obs.STATE
        if state.enabled and len(all_flips):
            # sample_bulk already counted this packet's sampling, miss
            # and truncation flags; only the materialized bit damage is
            # new information here.
            metrics = state.metrics
            metrics.counter("phy.corrupted_packets").inc()
            metrics.counter("phy.bits_flipped").inc(len(all_flips))
        return PacketFate(
            missed=False,
            truncated_at_byte=truncated_at,
            flipped_bits=all_flips,
            stress=stress,
            quality=quality,
        )

    # ------------------------------------------------------------------
    # Vectorized detail expansion (whole damaged minority at once)
    # ------------------------------------------------------------------
    def _jam_windows_bulk(
        self,
        frame_bits: int,
        totals: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bursty jam-window placement for many packets at once.

        The batched twin of the ``bursty`` arm of
        :meth:`_jam_positions_from_total`: same window sizing, edge
        margins (with the 3 % edge-catch exception), start distribution
        and in-window uniform distinct sampling — only the draw *count*
        per packet differs, which the scalar/bulk equivalence suite
        treats as free (all draws are independent).
        """
        m = totals.shape[0]
        window_bits = np.minimum(
            frame_bits,
            np.maximum(totals, (totals / self.JAM_DENSITY).astype(np.int64)),
        )
        lead = int(frame_bits * 0.045)
        tail = int(frame_bits * 0.005)
        edge = rng.random(m) < 0.03
        lead_arr = np.where(edge, 0, lead)
        tail_arr = np.where(edge, 0, tail)
        latest_start = np.maximum(
            lead_arr + 1, frame_bits - tail_arr - window_bits
        )
        start = rng.integers(lead_arr, latest_start)
        span = np.maximum(
            1, np.minimum(window_bits, frame_bits - tail_arr - start)
        )
        rows, offsets = _distinct_uniform_bulk(
            span, np.minimum(totals, span), rng
        )
        return rows, start[rows] + offsets

    def detail_bulk(
        self,
        stress: np.ndarray,
        truncated: np.ndarray,
        hit: np.ndarray,
        residual_bits: np.ndarray,
        frame_bytes: int,
        rng: np.random.Generator,
        jam: Sequence[tuple[np.ndarray, bool]] = (),
    ) -> dict[str, np.ndarray]:
        """Batched :meth:`detail_packet` over the damaged minority.

        Arguments are the flagged rows' columns from :meth:`sample_bulk`
        (``jam``: one ``(totals, bursty)`` pair per source, totals
        aligned with the rows).  Returns columns over the same rows:

        * ``truncated_at`` — int64 cut byte, ``-1`` where not truncated;
        * ``stress`` — updated stress (clock slips raise it);
        * ``quality`` — int16 quality register;
        * ``flip_positions`` / ``flip_offsets`` — all packets' sorted,
          deduplicated, truncation-cut bit offsets in one flat int64
          array with CSR row offsets (``k + 1`` entries).

        Statistically equivalent to looping :meth:`detail_packet` (the
        equivalence suite pins it against a per-packet reference trial);
        RNG draw order differs, so individual packets are not
        byte-comparable across the two paths.
        """
        k = stress.shape[0]
        frame_bits = frame_bytes * 8
        stress = np.asarray(stress, dtype=np.float64).copy()

        # Truncation points, plus the clock-slip stress jump for rows
        # whose stress did not already explain the truncation.
        truncated_at = np.full(k, -1, dtype=np.int64)
        t_rows = np.nonzero(truncated)[0]
        if t_rows.size:
            truncated_at[t_rows] = rng.integers(
                8, frame_bytes, size=t_rows.size
            )
            threshold = self.params.stress.truncation_threshold
            slip_rows = t_rows[stress[t_rows] <= threshold]
            if slip_rows.size:
                stress[slip_rows] = np.maximum(
                    stress[slip_rows],
                    self.stress_model.slip_stress_bulk(slip_rows.size, rng),
                )

        rows_parts: list[np.ndarray] = []
        pos_parts: list[np.ndarray] = []
        # Count of parts already grouped by row with distinct, sorted
        # in-row positions (only the bursty-jam sampler guarantees
        # this); a lone such part can skip the merge sort below.
        grouped_parts = 0

        # Attenuation bursts: geometric lengths, uniform starts, then a
        # gap matrix wide enough for the longest burst.  Masking the
        # positions that ran past the frame end is equivalent to the
        # scalar early break (the cursor is monotone).
        h_rows = np.nonzero(hit)[0]
        if h_rows.size:
            p = self.params
            counts = rng.geometric(
                1.0 - p.burst_continue_probability, size=h_rows.size
            )
            starts = rng.integers(0, frame_bits, size=h_rows.size)
            rows_parts.append(h_rows)
            pos_parts.append(starts)
            max_extra = int(counts.max()) - 1
            if max_extra > 0:
                gaps = rng.integers(
                    1,
                    p.burst_max_gap_bits + 1,
                    size=(h_rows.size, max_extra),
                )
                extra = starts[:, None] + np.cumsum(gaps, axis=1)
                valid = (
                    np.arange(max_extra)[None, :] < (counts - 1)[:, None]
                ) & (extra < frame_bits)
                rr, cc = np.nonzero(valid)
                rows_parts.append(h_rows[rr])
                pos_parts.append(extra[rr, cc])

        # Residual BER and non-bursty jam: flat uniform draws.
        r_rows = np.nonzero(residual_bits > 0)[0]
        if r_rows.size:
            reps = residual_bits[r_rows].astype(np.int64)
            rows_parts.append(np.repeat(r_rows, reps))
            pos_parts.append(
                rng.integers(0, frame_bits, size=int(reps.sum()))
            )
        for totals, bursty in jam:
            j_rows = np.nonzero(totals > 0)[0]
            if not j_rows.size:
                continue
            j_totals = totals[j_rows].astype(np.int64)
            if not bursty:
                rows_parts.append(np.repeat(j_rows, j_totals))
                pos_parts.append(
                    rng.integers(0, frame_bits, size=int(j_totals.sum()))
                )
            else:
                local, positions = self._jam_windows_bulk(
                    frame_bits, j_totals, rng
                )
                rows_parts.append(j_rows[local])
                pos_parts.append(positions)
                grouped_parts += 1

        # Merge all processes: one combined-key unique performs the
        # per-packet sort + dedup for every packet at once, then the
        # truncation cut drops flips past each packet's cut byte.  When
        # a single grouped-distinct source contributed (the dominant
        # jamming-interference case) the merge sort is a no-op and is
        # skipped outright.
        if len(rows_parts) == 1 and grouped_parts == 1:
            flat_rows = rows_parts[0]
            flat_pos = pos_parts[0]
            if t_rows.size:
                cut = truncated_at[flat_rows]
                keep = (cut < 0) | (flat_pos < cut * 8)
                flat_rows = flat_rows[keep]
                flat_pos = flat_pos[keep]
        elif rows_parts:
            keys = np.concatenate(rows_parts) * frame_bits + np.concatenate(
                pos_parts
            )
            if k * frame_bits < 2**31:
                keys = keys.astype(np.int32)
            keys = _sorted_unique(keys)
            flat_rows = (keys // frame_bits).astype(np.int64)
            flat_pos = keys.astype(np.int64) - flat_rows * frame_bits
            cut = truncated_at[flat_rows]
            keep = (cut < 0) | (flat_pos < cut * 8)
            flat_rows = flat_rows[keep]
            flat_pos = flat_pos[keep]
        else:
            flat_rows = np.empty(0, dtype=np.int64)
            flat_pos = np.empty(0, dtype=np.int64)
        flip_counts = np.bincount(flat_rows, minlength=k)
        flip_offsets = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(flip_counts, out=flip_offsets[1:])

        quality = self.stress_model.quality_reading_bulk(
            stress, flip_counts > 0, rng
        )

        state = _obs.STATE
        if state.enabled:
            corrupted = int(np.count_nonzero(flip_counts))
            if corrupted:
                metrics = state.metrics
                metrics.counter("phy.corrupted_packets").inc(corrupted)
                metrics.counter("phy.bits_flipped").inc(int(flat_pos.size))

        return {
            "truncated_at": truncated_at,
            "stress": stress,
            "quality": quality,
            "flip_positions": flat_pos,
            "flip_offsets": flip_offsets,
        }
