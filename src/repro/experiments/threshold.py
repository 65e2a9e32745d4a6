"""Figure 3 — effects of the receive threshold (Section 5.3), plus the
threshold-margin ablation (DESIGN.md X2).

One station (the "enemy") transmits continuously; the "victim" sweeps
its receive threshold through a window around the enemy's received
signal level.  Two curves:

* **% of enemy packets filtered out** — rises from ~0 % when the
  threshold sits at the received level to 100 % above it;
* **% of victim transmissions completed without collision** — the same
  sigmoid, because a masked carrier is invisible to the Ethernet chip.

Paper findings: the threshold is not perfect (per-packet level jitter
smears the transition over several units — "it is wise to allow a
margin of several units"), but it filters *cleanly*: no damaged or
truncated remnants leak through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.classify import PacketClass
from repro.environment.geometry import Point
from repro.environment.propagation import PropagationModel
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.experiments.trials import TrialSpec, trial_plan
from repro.link.channel import RadioChannel
from repro.link.station import LinkStation
from repro.mac.csma import CsmaCaMac
from repro.phy.modem import ModemConfig
from repro.simkit.simulator import Simulator
from repro.trace.trial import TrialConfig

# The enemy sits across the hall: received level ~15 at the victim.
ENEMY_LEVEL = 15.0
THRESHOLD_SWEEP = list(range(10, 22))

# Paper sample sizes: ">= 1,400 transmitted packets" per filtering
# point, ">= 10,000 transmission attempts" per collision point.
PACKETS_PER_POINT = 1_400
ATTEMPTS_PER_POINT = 10_000


@dataclass
class ThresholdPoint:
    """One x-position of the Figure-3 sweep."""

    threshold: int
    enemy_packets_sent: int
    enemy_packets_received: int
    damaged_leaked: int
    attempts: int
    collision_free: int

    @property
    def filtered_fraction(self) -> float:
        if self.enemy_packets_sent == 0:
            return 0.0
        return 1.0 - self.enemy_packets_received / self.enemy_packets_sent

    @property
    def collision_free_fraction(self) -> float:
        if self.attempts == 0:
            return 0.0
        return self.collision_free / self.attempts


@dataclass
class ThresholdResult:
    points: list[ThresholdPoint] = field(default_factory=list)
    observed_level_min: int = 0
    observed_level_max: int = 0

    def margin_for_full_filtering(self) -> int:
        """Units above the max observed level before filtering hits 100 %
        — the ablation's headline number ("a margin of several units")."""
        for point in self.points:
            if (
                point.threshold > self.observed_level_max
                and point.filtered_fraction >= 1.0
            ):
                return point.threshold - self.observed_level_max
        return max(
            (p.threshold for p in self.points), default=0
        ) - self.observed_level_max


def _collision_point(threshold: int, attempts: int, seed: int) -> tuple[int, int]:
    """Victim transmission attempts against a continuous enemy carrier.

    Event-driven: the enemy MAC (threshold 35, never defers) saturates
    the channel; the victim MAC counts busy-medium collisions.
    """
    sim = Simulator(seed=seed)
    propagation = PropagationModel.calibrated(level=ENEMY_LEVEL, at_distance_ft=30.0)
    channel = RadioChannel(sim, propagation)

    victim = LinkStation.tracing_station(
        1, Point(0.0, 0.0), ModemConfig(receive_threshold=threshold)
    )
    enemy = LinkStation.tracing_station(
        2, Point(30.0, 0.0), ModemConfig(receive_threshold=35)
    )
    # The victim transmits toward a third, silent station.
    sink = LinkStation.tracing_station(3, Point(3.0, 0.0))
    for station in (victim, enemy, sink):
        channel.add_station(station)

    enemy_mac = CsmaCaMac(sim, channel, 2, sim.rng.stream("mac.enemy"))
    victim_mac = CsmaCaMac(sim, channel, 1, sim.rng.stream("mac.victim"))

    payload = bytes(1072)

    def keep_enemy_busy() -> None:
        while enemy_mac.queue_length < 4:
            enemy_mac.enqueue(payload)
        sim.schedule(0.004, keep_enemy_busy)

    victim_sent = 0

    def feed_victim() -> None:
        nonlocal victim_sent
        if victim_mac.stats.attempts >= attempts:
            sim.stop()
            return
        if victim_mac.queue_length < 2:
            victim_mac.enqueue(payload)
            victim_sent += 1
        sim.schedule(0.0006, feed_victim)

    sim.schedule(0.0, keep_enemy_busy)
    sim.schedule(0.0, feed_victim)
    sim.run(max_events=attempts * 60)

    stats = victim_mac.stats
    return stats.attempts, stats.attempts - stats.collisions


def _aggregate(ctx: PlanContext, values: list) -> ThresholdResult:
    include_collisions = ctx.extra("include_collisions", True)
    if len(values) != len(THRESHOLD_SWEEP) * (2 if include_collisions else 1):
        # The sweep is folded by position, so it takes every plan.
        raise ValueError("figure3 cannot run a subset of its trials")
    packets = max(200, int(PACKETS_PER_POINT * ctx.scale))
    filter_values = values[: len(THRESHOLD_SWEEP)]
    collision_values = (
        values[len(THRESHOLD_SWEEP):]
        if include_collisions
        else [(0, 0)] * len(THRESHOLD_SWEEP)
    )
    result = ThresholdResult()
    observed_min, observed_max = 99, 0
    for threshold, filtering, collisions in zip(
        THRESHOLD_SWEEP, filter_values, collision_values
    ):
        received = filtering.signal.packets
        damaged = received - filtering.counts[PacketClass.UNDAMAGED]
        if received:
            observed_min = min(observed_min, filtering.signal.level.minimum)
            observed_max = max(observed_max, filtering.signal.level.maximum)
        total_attempts, collision_free = collisions
        result.points.append(
            ThresholdPoint(
                threshold=threshold,
                enemy_packets_sent=packets,
                enemy_packets_received=received,
                damaged_leaked=damaged,
                attempts=total_attempts,
                collision_free=collision_free,
            )
        )
    result.observed_level_min = observed_min if observed_min != 99 else 0
    result.observed_level_max = observed_max
    return result


def _render(result: ThresholdResult, scale: float) -> None:
    print("Figure 3: Effects of receive threshold "
          f"(enemy level ~{ENEMY_LEVEL:.0f}; observed "
          f"{result.observed_level_min}-{result.observed_level_max}; "
          f"scale={scale:g})")
    print(f"{'thresh':>7} | {'filtered%':>9} | {'collision-free%':>15} | "
          f"{'damaged leaked':>14}")
    for p in result.points:
        print(f"{p.threshold:7d} | {100 * p.filtered_fraction:9.1f} | "
              f"{100 * p.collision_free_fraction:15.1f} | "
              f"{p.damaged_leaked:14d}")
    print(f"\nMargin above max observed level for 100% filtering: "
          f"{result.margin_for_full_filtering()} units "
          "(paper: 'wise to allow a margin of several units')")
    total_leaked = sum(p.damaged_leaked for p in result.points)
    print(f"Damaged/truncated packets leaked through the filter: "
          f"{total_leaked} (paper: 0 — clean filtering)")


@experiment(
    name="figure3",
    artifact="Figure 3",
    description="Figure 3: receive threshold sweep",
    aggregate=_aggregate,
    render=_render,
    default_scale=0.15,
    default_seed=53,
    traceable=True,
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """Filtering plans for every threshold, then collision plans."""
    packets = max(200, int(PACKETS_PER_POINT * ctx.scale))
    attempts = max(500, int(ATTEMPTS_PER_POINT * ctx.scale))
    plans = [
        # Contention-free enemy→victim delivery; the config name
        # ("threshold-10") forks the RNG streams and names the file.
        trial_plan(f"filter-{threshold}", TrialSpec(
            config=TrialConfig(
                name=f"threshold-{threshold}",
                packets=packets,
                mean_level=ENEMY_LEVEL,
                modem_config=ModemConfig(receive_threshold=threshold),
            ),
            reads=("signal", "counts"),
        ))
        for threshold in THRESHOLD_SWEEP
    ]
    if ctx.extra("include_collisions", True):
        plans.extend(
            TrialPlan(
                f"collide-{threshold}",
                _collision_point,
                {"threshold": threshold, "attempts": attempts},
            )
            for threshold in THRESHOLD_SWEEP
        )
    return plans


def run(
    scale: float = 1.0,
    seed: int = 53,
    include_collisions: bool = True,
    jobs: int = 1,
) -> ThresholdResult:
    return ENGINE.run(
        "figure3", scale=scale, seed=seed, jobs=jobs,
        extras={"include_collisions": include_collisions},
    )
