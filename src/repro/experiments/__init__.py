"""Experiment reproductions: one module per paper table/figure.

Every module exposes ``run(scale=..., seed=...) -> <Result dataclass>``
returning structured data; ``python -m repro NAME`` runs the experiment
at its registered default scale and prints the paper-style table.
``scale`` multiplies the paper's packet counts (1.0 = the paper's trial
lengths; tests use small scales, benchmarks moderate ones).  The
experiment ↔ module ↔ benchmark mapping lives in DESIGN.md §4 and
EXPERIMENTS.md.

Each module registers one :class:`repro.experiments.engine.ExperimentSpec`
at import time via the ``@experiment`` decorator.  Importing this
package imports none of them: :func:`repro.experiments.engine.load_all`
imports every module named in :data:`MODULES`, and the registry lists
the specs in that tuple's order, whichever module was imported first.
"""

#: The experiment modules in canonical registry order: paper artifacts
#: first (tables, then figures interleaved as in the paper), then
#: extensions/ablations, then internal validation.
MODULES = (
    "baseline",  # table2
    "signal_vs_distance",  # figure1
    "error_vs_level",  # table3 / figure2
    "threshold",  # figure3
    "walls",  # table4
    "multiroom",  # table5-7
    "body",  # table8-9
    "phones_narrowband",  # table10
    "phones_spread",  # table11-13
    "competing",  # table14
    "fec_eval",  # X1
    "mac_ablation",  # X3
    "burst_ablation",  # X4
    "cdma_extension",  # X5
    "hidden_terminal",  # X6
    "throughput",  # X7
    "diversity_ablation",  # X8
    "tcp_over_wavelan",  # X9
    "validation",  # V1
)
