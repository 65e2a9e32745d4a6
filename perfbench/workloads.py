"""Workload definitions shared by the benchmark's processes.

Every workload derives its inputs from the ``--seed`` it is given; the
program under test receives only those generated inputs.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (ignored by git): traces, span dumps,
#: and the per-code-version determinism ledger.
WORK = ROOT / ".perfbench"

#: ``report``: the ROADMAP's target scale for ``report --scale``.
REPORT_SCALE = 0.05
#: ``report``: how many report seeds one run cycles through.  The FEC
#: replay work moves by about 7% from seed to seed; a run's wall is the
#: mean over its seeds, so the run-to-run spread keeps less of that.
REPORT_SEEDS = 4


def report_seeds(seed: int) -> list:
    """The ``build_report`` root seeds of one run with ``--seed seed``."""
    return [seed * REPORT_SEEDS + index for index in range(REPORT_SEEDS)]

#: ``ingest``: a clean office-grade trial replayed over two concurrent
#: sessions from one client process, in 4096-record chunks.
INGEST_PACKETS = 200_000
INGEST_LEVEL = 29.5
INGEST_SESSIONS = 2
INGEST_CHUNK_RECORDS = 4096
SESSION_TIMEOUT_S = 60.0
