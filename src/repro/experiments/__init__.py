"""Experiments: one module per paper figure, plus ablations.

Each experiment module exposes a ``run_*`` function that sweeps the
relevant parameter (consistency system, network size, threshold, ...),
returns structured rows, renders the same series the paper's figure
reports via :func:`repro.metrics.report.format_table`, and checks the
paper's claims against the rows in ``expectations``.

``repro reproduce [--full]`` runs every experiment as one section of
its digest (:mod:`repro.experiments.digest`); quick scale is the
default, and the quick/full size table lives in
:mod:`repro.experiments.common`.
"""

from repro.experiments.burst import BurstRow, run_burst_sweep
from repro.experiments.figure1 import Figure1Row, run_figure1
from repro.experiments.figure2 import Figure2Row, run_figure2
from repro.experiments.figure8 import Figure8Row, run_figure8

__all__ = [
    "BurstRow",
    "Figure1Row",
    "Figure2Row",
    "Figure8Row",
    "run_burst_sweep",
    "run_figure1",
    "run_figure2",
    "run_figure8",
]
