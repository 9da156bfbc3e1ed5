"""Time-varying infection fatality rate and case-to-death lag estimation.

Pipeline: ingest daily cases/deaths/tests, back-estimate daily infections
from test coverage (exponent calibrated against one antibody survey), then
jointly fit a discrete uniform lag law and a fatality rate per time window
by least squares against reported deaths, carrying residual deaths across
window boundaries.
"""

__version__ = "0.1.0"

from .domain import (
    AntibodyAnchor,
    DailySeries,
    Dataset,
    FitResult,
    error_metric,
)
from .fit import FitConfig, best_fit, closed_form_ifr
from .infection import CalibrationResult, anchor_sum, calibrate_m, estimate_infections
from .ingest import ColumnMapping, RepairPolicy, load_dataset, write_dataset_csv
from .intervals import IntervalConfig, IntervalReport, fit_intervals
from .lagmodel import LagDistribution, shift_expectation, shift_expectation_elongated
from .synth import Regime, Scenario, default_scenario, generate_deaths, generate_observables

__all__ = [
    "AntibodyAnchor",
    "CalibrationResult",
    "ColumnMapping",
    "DailySeries",
    "Dataset",
    "FitConfig",
    "FitResult",
    "IntervalConfig",
    "IntervalReport",
    "LagDistribution",
    "Regime",
    "RepairPolicy",
    "Scenario",
    "anchor_sum",
    "best_fit",
    "calibrate_m",
    "closed_form_ifr",
    "default_scenario",
    "error_metric",
    "estimate_infections",
    "fit_intervals",
    "generate_deaths",
    "generate_observables",
    "load_dataset",
    "shift_expectation",
    "shift_expectation_elongated",
    "write_dataset_csv",
]
