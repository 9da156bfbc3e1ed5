"""Time-varying infection fatality rate and case-to-death lag estimation.

Pipeline: ingest daily cases/deaths/tests, back-estimate daily infections
from test coverage (exponent calibrated against one antibody survey), then
jointly fit a discrete uniform lag law and a fatality rate per time window
by least squares against reported deaths, carrying residual deaths across
window boundaries.

Each public name is imported from the module that owns it the first time it
is used, so `import ifrlag` loads no submodule and no numpy.
"""
from importlib import import_module

__version__ = "0.1.0"

_OWNER = {name: module for module, names in {
    "domain": ("AntibodyAnchor", "DailySeries", "Dataset", "FitResult", "error_metric"),
    "fit": ("FitConfig", "best_fit", "closed_form_ifr"),
    "infection": ("CalibrationResult", "anchor_sum", "calibrate_m", "estimate_infections"),
    "ingest": ("ColumnMapping", "RepairPolicy", "load_dataset", "write_dataset_csv"),
    "intervals": ("IntervalConfig", "IntervalReport", "fit_intervals"),
    "lagmodel": ("LagDistribution", "shift_expectation", "shift_expectation_elongated"),
    "synth": ("Regime", "Scenario", "default_scenario", "generate_deaths",
              "generate_observables"),
}.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    # any other name raises AttributeError, so `from ifrlag import synth`
    # falls back to importing the submodule
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_OWNER[name]}", __name__), name)
