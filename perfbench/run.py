"""The repository benchmark: ``report`` and ``ingest``.

    python3 perfbench/run.py --workload report|ingest --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing and runs the
package from ``src/``.  Each workload makes its inputs from ``--seed``,
checks the program's outputs, and prints as its last stdout line one
JSON document ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0`` — the end-to-end metrics ``setup_s``, ``wall_s``,
  ``records_per_s`` and ``peak_rss_mb``, measured with tracing off;
* ``--trace 1`` — the per-layer metrics from a run with the layer
  wrappers of :mod:`layertrace` on, next to an untraced run of the same
  length, whose difference is the tracing overhead.

The shared host this runs on moves between contended and uncontended
phases lasting seconds to minutes, so every timing is taken at the
host's calm-phase speed, sampled on the thread doing the work (see
hostspeed.py and README.md), and reported as a median; so is memory.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import argparse  # noqa: E402
import asyncio  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import select  # noqa: E402
import signal  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import repro  # noqa: E402,F401  (fails loudly when src/ is missing)
from hostspeed import calm_wall  # noqa: E402
from layertrace import (  # noqa: E402
    CLIENT_TARGETS,
    LAYERS,
    Tracer,
    summarize,
)
from workloads import (  # noqa: E402
    INGEST_CHUNK_RECORDS,
    INGEST_LEVEL,
    INGEST_PACKETS,
    INGEST_SESSIONS,
    REPORT_SEEDS,
    ROOT,
    SESSION_TIMEOUT_S,
    SRC,
    WORK,
)

HERE = Path(__file__).resolve().parent
#: Set-up is measured this many times per untraced run (median reported).
SETUP_SAMPLES = 5
#: Hard stop for everything one invocation starts.
DEADLINE_S = 170.0

REPORT_EXPERIMENTS = (
    "table2", "figure1", "table3", "table4", "table5", "table8", "table10",
    "table11", "table14", "fec", "mac", "hidden", "throughput",
)


class BenchError(RuntimeError):
    """A benchmark-side failure (hang, crash, leaked resource)."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class Child:
    """A child Python process whose first stdout line(s) signal readiness.

    stdout is unbuffered bytes, so reading the readiness line byte by
    byte never swallows output that ``communicate`` must see later.
    """

    def __init__(self, argv, deadline: float) -> None:
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, bufsize=0, cwd=ROOT
        )

    def remaining(self) -> float:
        return max(0.1, self.deadline - time.perf_counter())

    def wait_line(self, prefix: bytes) -> bytes:
        """Block until a stdout line starting with ``prefix``."""
        while True:
            ready, _, _ = select.select([self.proc.stdout], [], [], self.remaining())
            if not ready:
                raise BenchError(f"timed out waiting for {prefix!r}")
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError(f"exited before printing {prefix!r}")
            if line.startswith(prefix):
                return line.strip()

    def finish(self, terminate: bool = False) -> dict | None:
        """Reap the process; its final JSON line, if it printed one."""
        try:
            if terminate and self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            out, _ = self.proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("child process timed out") from None
        if self.proc.returncode != 0:
            raise BenchError(f"child exited with {self.proc.returncode}")
        lines = [line for line in out.decode().splitlines() if line.strip()]
        return json.loads(lines[-1]) if lines else None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _calm_setup(child: Child, ready: dict) -> float:
    """Set-up time: spawn until the child's first line of code, as
    measured, plus the rest at the host's calm-phase speed."""
    return ready["began"] - child.started + ready["calm_s"]


def _become_subreaper() -> None:
    """Adopt orphaned descendants, so :func:`reap_descendants` sees them.

    A child's own children (the shared-memory resource tracker) are
    reparented here instead of to init when the child dies first.
    """
    import ctypes

    pr_set_child_subreaper = 36
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):  # not Linux: no adoption, nothing to do
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(pr_set_child_subreaper, 1, 0, 0, 0)


def _live_children() -> list:
    """PIDs whose parent is this process, from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == me and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def reap_descendants(grace_s: float = 5.0) -> None:
    """Stop this process's resource tracker and wait for every child.

    Children still running after ``grace_s`` are killed, then reaped.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    end = time.perf_counter() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.perf_counter() > end:
            for pid in _live_children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


# ----------------------------------------------------------------------
# Determinism ledger
# ----------------------------------------------------------------------
def _code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_ledger(workload: str, seed: int, digest: str) -> str | None:
    """Compare against earlier runs of the same code and seed.

    Returns the disagreeing digest, or None.  The ledger lives in the
    checkout's ignored scratch directory and is keyed by a hash of the
    source tree, so a code change starts a fresh entry.
    """
    path = WORK / "digests.json"
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    key = f"{_code_hash()}:{workload}:{seed}"
    previous = ledger.setdefault(key, digest)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return previous if previous != digest else None


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict:
    """The traced run's per-layer figures, from one span summary.

    Seconds (``*_s``) are for the printed table; the JSON carries the
    counts and shares, which stay meaningful when a layer never runs.
    """
    wall = summary["wall_s"]
    counts = summary["counts"]
    groups = summary["groups"]
    out: dict = {}
    for layer in LAYERS:
        figures = summary["layers"][layer]
        out[f"{layer}.calls"] = figures["calls"]
        out[f"{layer}.busy_s"] = figures["busy_s"]
        out[f"{layer}.self_s"] = figures["self_s"]
        out[f"{layer}.share"] = _ratio(figures["self_s"], wall)
    get = counts.get
    out["fec.blocks"] = get("fec.blocks", 0)
    out["fec.blocks_per_call"] = _ratio(get("fec.blocks", 0), get("fec.decode_calls", 0))
    out["fec.recovered_share"] = _ratio(get("fec.recovered", 0), get("fec.replayed", 0))
    out["simkit.events"] = get("simkit.events", 0)
    out["mac.poll_share"] = _ratio(get("simkit.events.mac.poll", 0), get("simkit.events", 0))
    out["analysis.records"] = get("analysis.records", 0)
    out["analysis.slow_path_share"] = _ratio(
        get("analysis.slow_path", 0), get("analysis.records", 0)
    )
    for group in ("analysis.match", "analysis.syndrome", "trace.save",
                  "trace.load", "scenario.compile", "serve.classify",
                  "serve.client_send", "parallel.handoff"):
        out[f"{group}_s"] = groups.get(group, 0.0)
        out[f"{group}_share"] = _ratio(groups.get(group, 0.0), wall)
    out["trace.records_materialized"] = get("trace.records_materialized", 0)
    out["trace.bytes"] = get("trace.bytes", 0)
    out["phy.packets"] = get("phy.packets", 0)
    out["phy.damaged_share"] = _ratio(get("phy.damaged", 0), get("phy.packets", 0))
    out["interference.schedules"] = get("interference.schedules", 0)
    out["framing.frames"] = get("framing.frames", 0)
    out["scenario.compiles"] = get("scenario.compiles", 0)
    out["serve.chunks"] = get("serve.chunks", 0)
    out["serve.ring_overflows"] = get("serve.ring_overflows", 0)
    engine_self = summary["self_by_name"].get("experiments.engine", 0.0)
    out["experiments.engine_s"] = engine_self
    out["experiments.engine_share"] = _ratio(engine_self, wall)
    out["unattributed_share"] = 1.0 - _ratio(summary["attributed_s"], wall)
    return out


def crosscheck(label: str, wrapped: int, program: int, notes: list) -> None:
    """Flag a wrapper count that disagrees with the program's own."""
    status = "ok" if wrapped == program else "MISMATCH"
    notes.append(f"crosscheck {label}: wrappers {wrapped} program {program} {status}")


# ----------------------------------------------------------------------
# report: build_report in worker processes
# ----------------------------------------------------------------------
def run_report(args, deadline: float) -> dict:
    worker = str(HERE / "worker.py")
    modes = ["plain", "traced"] if args.trace else ["plain"]
    share = args.seconds / len(modes)
    outcomes = []
    setups = []
    for index, mode in enumerate(modes):
        argv = [worker, "--seed", str(args.seed), "--seconds", str(share)]
        trace_out = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        if mode == "traced":
            argv += ["--trace-out", str(trace_out)]
        child = Child(argv, deadline)
        try:
            ready = child.wait_line(b"ready")
            if mode == "plain":
                setups.append(_calm_setup(child, json.loads(ready[len(b"ready"):])))
            doc = child.finish()
        finally:
            child.kill()
        if doc is None:
            raise BenchError("worker printed no result")
        doc["mode"] = mode
        if mode == "traced":
            doc["traces"] = json.loads(trace_out.read_text())
        outcomes.append(doc)
    while not args.trace and len(setups) < SETUP_SAMPLES:
        child = Child([worker, "--seed", str(args.seed), "--seconds", "0",
                       "--setup-only"], deadline)
        try:
            ready = child.wait_line(b"ready")
            setups.append(_calm_setup(child, json.loads(ready[len(b"ready"):])))
            child.finish()
        finally:
            child.kill()

    result = {"attempted": 0, "failed": 0, "errors": [], "digests": {},
              "notes": [], "setups": setups}
    plain_walls, traced_walls, experiment_walls, rss = [], [], {}, []
    records, calm = {}, {}
    for doc in outcomes:
        if doc["mode"] == "plain":
            rss.append(doc["maxrss_kb"] / 1024.0)
        for rep in doc["repetitions"]:
            if "error" in rep:
                result["errors"].append(rep["error"])
                result["attempted"] += 1
                result["failed"] += 1
                continue
            result["attempted"] += rep["attempted"]
            result["failed"] += rep["failed"]
            result["digests"].setdefault(rep["seed"], set()).add(rep["digest"])
            records.setdefault(rep["seed"], set()).add(rep["records"])
            wall = rep["end"] - rep["start"]
            (plain_walls if doc["mode"] == "plain" else traced_walls).append(wall)
            if doc["mode"] == "plain":
                calm.setdefault(rep["seed"], []).append(rep["calm_s"])
                for name, seconds in rep.get("experiments", {}).items():
                    experiment_walls.setdefault(name, []).append(seconds)
    for seed, counts in records.items():
        if len(counts) > 1:
            result["errors"].append(f"seed {seed}: record counts differ: {counts}")
    reps = [rep for doc in outcomes for rep in doc["repetitions"] if "error" not in rep]
    if len(calm) < REPORT_SEEDS:  # some report seed has no untraced repetition
        return result
    # Each untraced repetition's wall at the host's calm-phase speed (see
    # hostspeed.py); the median per report seed, then the mean over seeds.
    wall = statistics.mean(statistics.median(walls) for walls in calm.values())
    for seed, walls in sorted(calm.items()):
        result["notes"].append(f"report seed {seed}: calm walls "
                               + " ".join(f"{value:.3f}" for value in walls))
    result["notes"].append(f"report: raw wall min {min(plain_walls):.3f} s")
    out_of_band = reps[0]["out_of_band"]
    lines = reps[0]["attempted"]
    result["notes"].append(
        f"report seed {reps[0]['seed']}: {reps[0]['in_band']}/{lines} headline lines in band; "
        f"failed_share (out-of-band lines / lines) "
        f"{len(out_of_band) / lines:.4f}"
        + "".join(f"\n  out of band: {line}" for line in out_of_band)
    )
    result["out_of_band_share"] = len(out_of_band) / lines
    result.update(
        wall_s=wall,
        records_per_s=statistics.mean(next(iter(c)) for c in records.values()) / wall,
        peak_rss_mb=rss,
        repetitions=len(plain_walls),
    )
    if args.trace and traced_walls:
        result["layers"] = report_layers(outcomes, experiment_walls, plain_walls,
                                         traced_walls, result)
    return result


def report_layers(outcomes, experiment_walls, plain_walls, traced_walls,
                  result) -> dict:
    """Per-layer figures from the fastest traced repetition.

    A first, cold repetition also pays one-off work such as scenario
    compiles.
    """
    traced = next(doc for doc in outcomes if doc["mode"] == "traced")
    reps = [rep for rep in traced["repetitions"] if "error" not in rep]
    best = min(range(len(reps)), key=lambda i: reps[i]["end"] - reps[i]["start"])
    rep = reps[best]
    summary = summarize([traced["traces"][best]], [(rep["start"], rep["end"])])
    layers = layer_metrics(summary)
    counters = rep["counters"]
    notes = result["notes"]
    crosscheck("simkit.events vs sim.events_fired", layers["simkit.events"],
               counters.get("sim.events_fired", 0), notes)
    crosscheck("phy.packets vs phy.packets_sampled", layers["phy.packets"],
               counters.get("phy.packets_sampled", 0), notes)
    fast = layers["analysis.records"] - summary["counts"].get("analysis.slow_path", 0)
    crosscheck("analysis fast-path records vs match.fast_path_hits", fast,
               counters.get("match.fast_path_hits", 0), notes)
    base = min(plain_walls)
    layers["obs.tracing_overhead_s"] = min(traced_walls) - base
    layers["obs.tracing_overhead"] = _ratio(min(traced_walls) - base, base)
    # The report footer gives each experiment's wall.
    experiments = {name: min(walls) for name, walls in experiment_walls.items()}
    total = sum(experiments.values())
    for name in REPORT_EXPERIMENTS:
        seconds = experiments.get(name, 0.0)
        layers[f"experiments.{name}_s"] = seconds
        layers[f"experiments.{name}_share"] = _ratio(seconds, total)
    layers["report.out_of_band_share"] = result.get("out_of_band_share", 0.0)
    layers["serve.max_queue_depth"] = 0
    return layers


# ----------------------------------------------------------------------
# ingest: a serve subprocess, one client process, two sessions
# ----------------------------------------------------------------------
def _leaked_rings(pid: int) -> list:
    """Unlink (and report) any ring segment a dead server left behind."""
    prefix = f"repro_ring_{pid}_"
    try:
        names = [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]
    except OSError:
        return []
    for name in names:
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass
    return names


def _serving(child: Child) -> tuple:
    """Wait until the server's event loop accepts and serves a connection.

    ``serving on`` is printed before the loop runs, and before the
    server's SIGTERM handler is installed.  A connection that the server
    itself closes proves both, so a SIGTERM sent afterwards drains it.
    """
    line = child.wait_line(b"serving on")
    host, _, port = line.split()[2].decode().rpartition(":")
    address = (host, int(port))
    with socket.create_connection(address, timeout=child.remaining()) as sock:
        sock.shutdown(socket.SHUT_WR)
        while sock.recv(4096):
            pass
    return address


async def _session(address, payloads, trace, session_id, reference):
    from repro.serve.loadgen import run_session

    try:
        report = await asyncio.wait_for(
            run_session(
                address,
                payloads,
                trace.spec,
                trace.packets_sent,
                session_id=session_id,
                name="perfbench",
                total_records=trace.packets_received,
                use_ring=True,
            ),
            timeout=SESSION_TIMEOUT_S,
        )
    except (asyncio.TimeoutError, OSError, EOFError, RuntimeError, ValueError) as exc:
        return {"error": f"{session_id}: {type(exc).__name__}: {exc}"}
    digest, counts = reference
    summary = report.summary
    problems = []
    if not report.ring_used:
        problems.append("never rode the shm ring")
    if summary.get("verdict_digest") != digest:
        problems.append("verdict digest differs from the batch reference")
    if summary.get("counts") != counts:
        problems.append("class counts differ from the batch reference")
    if report.records != trace.packets_received:
        problems.append(f"{report.records} records, expected {trace.packets_received}")
    doc = {"summary": summary, "records": report.records}
    if problems:
        doc["error"] = f"{session_id}: " + "; ".join(problems)
    return doc


async def _pass(address, payloads, trace, label, reference):
    start = time.perf_counter()
    sessions = await asyncio.gather(*(
        _session(address, payloads, trace, f"{label}-{index}", reference)
        for index in range(INGEST_SESSIONS)
    ))
    return {"start": start, "end": time.perf_counter(), "sessions": sessions}


async def _drive(address, payloads, trace, until, tag, reference):
    """One unmeasured warm pass, then measured passes until ``until``.

    The warm pass pages the server's fresh rings in and builds its
    template bank — server start-up cost, not steady-state ingest.
    At least one pass is measured.
    """
    warm = await _pass(address, payloads, trace, f"{tag}-warm", reference)
    passes = []
    while True:
        passes.append(await _pass(address, payloads, trace, f"{tag}-{len(passes)}",
                                  reference))
        last = passes[-1]["end"] - passes[-1]["start"]
        if time.perf_counter() + last > until:
            return warm, passes


def run_ingest(args, deadline: float) -> dict:
    from repro.analysis.classify import IncrementalClassifier, verdict_row_bytes
    from repro.serve.loadgen import chunk_payloads
    from repro.trace.persist import load_trace, save_trace
    from repro.trace.trial import TrialConfig, run_fast_trial

    output = run_fast_trial(TrialConfig(
        name="perfbench-ingest", packets=INGEST_PACKETS, mean_level=INGEST_LEVEL,
        seed=args.seed,
    ))
    path = WORK / f"ingest-seed{args.seed}.wlt2"
    try:
        save_trace(output.trace, path)
        trace = load_trace(path)
    finally:
        path.unlink(missing_ok=True)
    classifier = IncrementalClassifier(trace.spec, trace.packets_sent)
    classifier.feed(trace)
    reference = (
        hashlib.blake2b(verdict_row_bytes(classifier.verdict_columns()),
                        digest_size=8).hexdigest(),
        classifier.count_summary(),
    )
    payloads = chunk_payloads(trace, INGEST_CHUNK_RECORDS)

    modes = ["plain", "traced"] if args.trace else ["plain", "plain", "plain"]
    share = args.seconds / len(modes)
    result = {"attempted": 0, "failed": 0, "errors": [], "notes": [],
              "digests": {args.seed: {reference[0]}}, "setups": []}
    while not args.trace and len(result["setups"]) < SETUP_SAMPLES - len(modes):
        child = Child(["-u", str(HERE / "serve_child.py")], deadline)
        try:
            _serving(child)
            ready = time.perf_counter()
            exit_doc = child.finish(terminate=True)
            result["setups"].append(_calm_setup(child, {
                "began": exit_doc["began"],
                "calm_s": calm_wall(exit_doc["host_samples"], exit_doc["began"], ready),
            }))
        finally:
            child.kill()
            leaked = _leaked_rings(child.proc.pid)
        if leaked:
            result["errors"].append(f"server left shm segments behind: {leaked}")
    servers = []
    for index, mode in enumerate(modes):
        argv = ["-u", str(HERE / "serve_child.py")]
        trace_out = WORK / f"spans-ingest-seed{args.seed}-server.json"
        if mode == "traced":
            argv += ["--trace-out", str(trace_out)]
        child = Child(argv, deadline)
        client = None
        try:
            address = _serving(child)
            ready = time.perf_counter()
            if mode == "traced":
                client = Tracer()
                client.install(CLIENT_TARGETS)
            warm, passes = asyncio.run(_drive(
                address, payloads, trace, child.started + share,
                f"s{index}", reference))
            exit_doc = child.finish(terminate=True)
        finally:
            if client is not None:
                client.uninstall()
            child.kill()
            leaked = _leaked_rings(child.proc.pid)
        if leaked:
            result["errors"].append(f"server left shm segments behind: {leaked}")
        if exit_doc is None:
            raise BenchError("server printed no result")
        server = {"mode": mode, "warm": warm, "passes": passes,
                  "maxrss_mb": exit_doc["maxrss_kb"] / 1024.0,
                  "host_samples": exit_doc["host_samples"]}
        if mode == "traced":
            server["trace"] = json.loads(trace_out.read_text())
            server["client"] = client.export()
            (WORK / f"spans-ingest-seed{args.seed}-client.json").write_text(
                json.dumps(server["client"]))
        else:
            result["setups"].append(_calm_setup(child, {
                "began": exit_doc["began"],
                "calm_s": calm_wall(exit_doc["host_samples"], exit_doc["began"], ready),
            }))
        servers.append(server)

    plain_walls, traced_walls, calm = [], [], []
    for server in servers:
        for pass_doc in [server["warm"], *server["passes"]]:
            ok = True
            for session in pass_doc["sessions"]:
                result["attempted"] += 1
                if "error" in session:
                    result["failed"] += 1
                    result["errors"].append(session["error"])
                    ok = False
            if ok and pass_doc is not server["warm"]:
                wall = pass_doc["end"] - pass_doc["start"]
                (plain_walls if server["mode"] == "plain" else traced_walls).append(wall)
                if server["mode"] == "plain":
                    calm.append(calm_wall(server["host_samples"], pass_doc["start"],
                                          pass_doc["end"]))
    if not plain_walls:
        return result
    records = INGEST_SESSIONS * trace.packets_received
    # Each pass at the server host's calm-phase speed; the median of them.
    wall = statistics.median(calm)
    result["notes"].append(f"ingest: raw pass wall min {min(plain_walls):.4f} s, "
                           f"median {statistics.median(plain_walls):.4f} s")
    result.update(
        wall_s=wall,
        records_per_s=records / wall,
        peak_rss_mb=[s["maxrss_mb"] for s in servers if s["mode"] == "plain"],
        repetitions=len(plain_walls),
    )
    result["notes"].append(
        f"ingest: {trace.packets_received} records per session, "
        f"{len(payloads)} chunks, {INGEST_SESSIONS} sessions per pass"
    )
    if args.trace and traced_walls:
        result["layers"] = ingest_layers(servers, plain_walls, traced_walls, result)
    return result


def ingest_layers(servers, plain_walls, traced_walls, result) -> dict:
    server = next(s for s in servers if s["mode"] == "traced")
    sources = [server["trace"]["trace"], server["client"]]
    windows = [(p["start"], p["end"]) for p in server["passes"]]
    layers = layer_metrics(summarize(sources, windows))
    sessions = [s for p in server["passes"] for s in p["sessions"] if "summary" in s]
    layers["serve.max_queue_depth"] = max(
        (s["summary"].get("max_queue_depth", 0) for s in sessions), default=0
    )
    # Lifetime figures for comparing against the server's own counters.
    lifetime = summarize([server["trace"]["trace"]], [(float("-inf"), float("inf"))])
    counters = server["trace"]["counters"]
    every = [s for p in [server["warm"], *server["passes"]] for s in p["sessions"]
             if "summary" in s]
    notes = result["notes"]
    overflows = lifetime["counts"].get("serve.ring_overflows", 0)
    crosscheck("serve.ring_overflows vs obs serve.ring_overflows", overflows,
               counters.get("serve.ring_overflows", 0), notes)
    crosscheck("serve.ring_overflows vs SUMMARY ring_overflows", overflows,
               sum(s["summary"].get("ring_overflows", 0) for s in every), notes)
    crosscheck("serve.chunks vs SUMMARY chunks", lifetime["counts"].get("serve.chunks", 0),
               sum(s["summary"].get("chunks", 0) for s in every), notes)
    fast = lifetime["counts"].get("analysis.records", 0) - lifetime["counts"].get(
        "analysis.slow_path", 0)
    crosscheck("analysis fast-path records vs match.fast_path_hits", fast,
               counters.get("match.fast_path_hits", 0), notes)
    base = min(plain_walls)
    layers["obs.tracing_overhead_s"] = min(traced_walls) - base
    layers["obs.tracing_overhead"] = _ratio(min(traced_walls) - base, base)
    for name in REPORT_EXPERIMENTS:
        layers[f"experiments.{name}_s"] = 0.0
        layers[f"experiments.{name}_share"] = 0.0
    layers["report.out_of_band_share"] = 0.0
    return layers


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def predictions(workload: str, layers: dict) -> list:
    """The traced run's stated expectations, as printed checks."""
    checks = []
    if workload == "report":
        share = layers["fec.share"] + layers["simkit.share"]
        checks.append((f"fec.share + simkit.share = {share:.3f} > 0.5", share > 0.5))
    else:
        checks.append(("phy.calls == 0", layers["phy.calls"] == 0))
        checks.append(("fec.calls == 0", layers["fec.calls"] == 0))
    return checks


def main() -> int:
    contract = load_contract()
    why = {workload["name"]: workload["why"] for workload in contract["workloads"]}
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(why), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    WORK.mkdir(exist_ok=True)
    runner = run_ingest if args.workload == "ingest" else run_report
    _become_subreaper()
    try:
        result = runner(args, deadline)
    finally:
        reap_descendants()

    print(f"workload {args.workload} (seed {args.seed}): {why[args.workload]}")
    for note in result["notes"]:
        print(note)
    errors = list(result["errors"])
    for seed, found in sorted(result["digests"].items()):
        print(f"digest {args.workload} seed {seed} {' '.join(sorted(found))}")
        if len(found) > 1:
            errors.append(f"repetitions with seed {seed} disagree")
            continue
        earlier = check_ledger(args.workload, seed, next(iter(found)))
        if earlier is not None:
            errors.append(f"an earlier run of this code and seed {seed} gave digest {earlier}")
    if "wall_s" not in result:
        errors.append("no repetition completed")

    if args.trace:
        specs = contract["per_layer"]
        layers = result.get("layers")
        if layers is None:
            errors.append("no traced repetition completed")
            layers = {spec["name"]: 0 for spec in specs}
        else:
            for text, holds in predictions(args.workload, layers):
                print(f"prediction {'holds' if holds else 'FAILS'}: {text}")
            for key in sorted(layers):
                print(f"  {key:44s} {layers[key]:.6g}")
            layers["obs.crosscheck_mismatches"] = sum(
                "MISMATCH" in note for note in result["notes"])
        values = {spec["name"]: layers[spec["name"]] for spec in specs}
    else:
        specs = contract["end_to_end"]
        values = {
            "setup_s": statistics.median(result["setups"]),
            "wall_s": result.get("wall_s", 0.0),
            "records_per_s": result.get("records_per_s", 0.0),
            "peak_rss_mb": statistics.median(result.get("peak_rss_mb") or [0.0]),
        }
        print(f"{result.get('repetitions', 0)} timed repetitions, "
              f"{len(result['setups'])} set-ups")
        for spec in specs:
            print(f"{spec['name']} {values[spec['name']]:.6g} {spec['unit']}")
    for error in errors:
        print(f"error: {error}")
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }
    print(json.dumps({
        "correct": not errors,
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
