"""Exact solvers and structure analysis for diversity subset selection.

Given n candidate points with pairwise distances, pick m of them under one
of several dispersion objectives: largest distance sum, largest minimum
pairwise distance, largest minimum per-node contribution, smallest spread
between per-node contributions, or largest mean distance over a free-size
subset.  The package bundles reproducible instance generators, exact
reference solvers, MILP text export for external solvers, and reporting
helpers for comparing the models' optimal solutions.

``import divopt`` loads the solver core (instances, objectives, rng,
solvers).  The analysis, milp and plots submodules, and the names they
export here, load on first access.
"""

import importlib

from .instances import (Family, FormatError, GeneratorSpec, Instance,
                        SpectrumStats, euclidean_instance, generate,
                        parse_instance, spectrum_stats, truncate,
                        write_instance)
from .objectives import (ObjectiveKind, Sense, Solution, contribution_vector,
                         eval_maxmean, eval_maxmin, eval_maxminsum,
                         eval_maxsum, eval_mindiff, evaluate)
from .rng import CounterStream
from .solvers import (DEFAULT_OPTIMA_CAP, MAX_SUBINTERVAL_EXPONENT,
                      BiLevelResult, BudgetExceededError, OptimaEnumeration,
                      SearchStats, SolveResult, SolveStatus, SolverBudget,
                      ThresholdGraph, brute_force, build_threshold_graph,
                      default_subinterval_exponent, enumerate_maxmin_optima,
                      enumerate_optima, feasible_subset, max_packing,
                      solve_bilevel, solve_maxmin_improved,
                      solve_maxmin_original, solve_maxsum_bnb, solve_model)

__version__ = "0.1.0"

# name -> the submodule that defines it, for the submodules a solve never
# needs; __getattr__ (PEP 562) imports one the first time a name of it is
# looked up here
_LAZY = {name: module for module, names in {
    "analysis": ("BenchJob", "BenchRow", "CrossModelRow",
                 "DistanceHistogram", "GeometryStats", "HistogramMode",
                 "MultiplicitySummary", "PairedObjectives", "benchmark_csv",
                 "benchmark_summary", "compute_pairing", "cross_model_csv",
                 "cross_model_report", "deviation_pct", "geometry_csv",
                 "geometry_stats", "histogram", "histogram_csv",
                 "multiplicity_csv", "multiplicity_report", "pair_results",
                 "pearson", "relative_range"),
    "milp": ("ExternalCheck", "FormulationKind", "TighteningConstants",
             "compute_constants", "emit", "parse_solution_vector",
             "verify_external"),
    "plots": ("histogram_svg", "scatter_svg"),
}.items() for name in names}
_LAZY_MODULES = frozenset(_LAZY.values())


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        # importing a submodule binds it on the package, so this runs once
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_MODULES})


__all__ = [
    "BenchJob", "BenchRow", "BiLevelResult", "BudgetExceededError",
    "CounterStream", "CrossModelRow", "DEFAULT_OPTIMA_CAP",
    "DistanceHistogram", "ExternalCheck", "Family", "FormatError",
    "FormulationKind", "GeneratorSpec", "GeometryStats", "HistogramMode",
    "Instance", "MAX_SUBINTERVAL_EXPONENT", "MultiplicitySummary",
    "ObjectiveKind", "OptimaEnumeration", "PairedObjectives", "SearchStats",
    "Sense", "Solution", "SolveResult", "SolveStatus", "SolverBudget",
    "SpectrumStats", "ThresholdGraph", "TighteningConstants",
    "benchmark_csv", "benchmark_summary", "brute_force",
    "build_threshold_graph", "compute_constants", "compute_pairing",
    "contribution_vector", "cross_model_csv", "cross_model_report",
    "default_subinterval_exponent", "deviation_pct", "emit",
    "enumerate_maxmin_optima", "enumerate_optima", "euclidean_instance",
    "eval_maxmean", "eval_maxmin", "eval_maxminsum", "eval_maxsum",
    "eval_mindiff", "evaluate", "feasible_subset", "generate",
    "geometry_csv", "geometry_stats", "histogram", "histogram_csv",
    "histogram_svg", "max_packing", "multiplicity_csv",
    "multiplicity_report", "pair_results", "parse_instance",
    "parse_solution_vector",
    "pearson", "relative_range", "scatter_svg", "solve_bilevel",
    "solve_maxmin_improved", "solve_maxmin_original", "solve_maxsum_bnb",
    "solve_model", "spectrum_stats", "truncate", "verify_external",
    "write_instance",
]
