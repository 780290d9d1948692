"""Command-line front end: dataset ingestion, experiment execution, trace emission."""

from .datasets import (
    load_dataset,
    make_logistic_dataset,
    make_quadratic_matrix,
    normalize_binary_labels,
)
from .experiment import (
    ExperimentSpec,
    SolverSpec,
    TRACE_HEADER,
    certify_trace,
    run_experiment,
    write_trace_csv,
)
from .cli import cli_main, main

__all__ = [
    "load_dataset",
    "make_logistic_dataset",
    "make_quadratic_matrix",
    "normalize_binary_labels",
    "ExperimentSpec",
    "SolverSpec",
    "TRACE_HEADER",
    "certify_trace",
    "run_experiment",
    "write_trace_csv",
    "cli_main",
    "main",
]
