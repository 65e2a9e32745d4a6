"""Experiment reproductions: one module per paper table/figure.

Every module exposes ``run(scale=..., seed=...) -> <Result dataclass>``
returning structured data; ``python -m repro NAME`` runs the experiment
at its registered default scale and prints the paper-style table.
``scale`` multiplies the paper's packet counts (1.0 = the paper's trial
lengths; tests use small scales, benchmarks moderate ones).  The
experiment ↔ module ↔ benchmark mapping lives in DESIGN.md §4 and
EXPERIMENTS.md.

Each module registers one :class:`repro.experiments.engine.ExperimentSpec`
at import time via the ``@experiment`` decorator; importing this package
populates the registry (``engine.load_all()`` does exactly that).  The
import order below fixes the canonical registry order: paper artifacts
first (tables, then figures interleaved as in the paper), then
extensions/ablations, then internal validation.
"""

# Registry population — each import registers the module's spec.
from repro.experiments import baseline  # table2
from repro.experiments import signal_vs_distance  # figure1
from repro.experiments import error_vs_level  # table3 / figure2
from repro.experiments import threshold  # figure3
from repro.experiments import walls  # table4
from repro.experiments import multiroom  # table5-7
from repro.experiments import body  # table8-9
from repro.experiments import phones_narrowband  # table10
from repro.experiments import phones_spread  # table11-13
from repro.experiments import competing  # table14
from repro.experiments import fec_eval  # X1
from repro.experiments import mac_ablation  # X3
from repro.experiments import burst_ablation  # X4
from repro.experiments import cdma_extension  # X5
from repro.experiments import hidden_terminal  # X6
from repro.experiments import throughput  # X7
from repro.experiments import diversity_ablation  # X8
from repro.experiments import tcp_over_wavelan  # X9
from repro.experiments import validation  # V1

__all__ = [
    "baseline",
    "signal_vs_distance",
    "error_vs_level",
    "threshold",
    "walls",
    "multiroom",
    "body",
    "phones_narrowband",
    "phones_spread",
    "competing",
    "fec_eval",
    "mac_ablation",
    "burst_ablation",
    "cdma_extension",
    "hidden_terminal",
    "throughput",
    "diversity_ablation",
    "tcp_over_wavelan",
    "validation",
]
