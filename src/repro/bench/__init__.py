"""Experiment harness: builders, the runner, and per-figure experiments.

Every table and figure of the paper's evaluation (§8) has a corresponding
function in :mod:`repro.bench.experiments`; the ``benchmarks/`` directory
wraps them in pytest-benchmark targets and ``EXPERIMENTS.md`` records the
paper-vs-measured comparison.
"""

from repro.bench.builders import SystemUnderTest, build_system, scaled_cpu_model
from repro.bench.report import format_table

__all__ = [
    "SystemUnderTest",
    "build_system",
    "scaled_cpu_model",
    "format_table",
]
