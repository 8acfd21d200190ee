"""Two-sided, operator-weighted frame inequalities on finite sample grids.

The package models discretized time-frequency systems (translations,
modulations, and coprime dilations of a window signal on a cyclic grid),
computes classical and operator-weighted frame bounds as generalized
eigenvalue problems, and verifies the criteria that connect synthesis-side
range conditions, hyponormality, and combined systems to those bounds.

``import framekit`` loads no submodule: each public name is imported from
its defining module on first use (PEP 562), so a CLI verb pays start-up only
for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name, listed once under the module that defines it.
_EXPORTS = {
    "errors": (
        "DimensionMismatch",
        "FramekitError",
        "NoConvergence",
        "NonCoprimeDilation",
        "NotAFrame",
        "NotHermitian",
        "NotHyponormal",
        "NotParseval",
        "NotSquare",
        "NotThetaFrame",
        "OffGridEndpoints",
        "OffGridFrequency",
        "OffGridShift",
        "PartitionNotDisjoint",
        "PartitionNotExhaustive",
        "SingularU",
        "Underflow",
        "Unresolved",
    ),
    "frame_core": (
        "FrameBounds",
        "FrameSystem",
        "analysis_matrix",
        "canonical_basis",
        "frame_operator",
        "optimal_bounds",
        "reconstruct",
        "synthesis_matrix",
        "system_from_json",
        "system_to_json",
    ),
    "numerics": (
        "DEFAULT_TOL",
        "Tolerance",
        "adjoint",
        "herm_eig",
        "hermitize",
        "is_psd",
        "numerical_rank",
        "op_norm",
        "operator_from_json",
        "operator_to_json",
        "pinv",
        "range_inclusion",
        "svd",
    ),
    "operator_theory": (
        "DouglasReport",
        "HyponormalityReport",
        "PencilBound",
        "RelativeHyponormalityReport",
        "djordjevic_hyponormal",
        "douglas_check",
        "hyponormality",
        "pencil_inf",
        "pencil_sup",
        "relative_hyponormality",
    ),
    "registry": ("ExampleOutcome", "case_code", "case_names", "run_case"),
    "signal_space": (
        "Grid",
        "Signal",
        "TruncatedSequenceSpace",
        "dilate",
        "indicator",
        "modulate",
        "mult_operator",
        "operator_of",
        "signal_from_json",
        "signal_to_json",
        "translate",
    ),
    "suites": ("SUITES", "SuiteResult", "run_suite"),
    "theta_frame": (
        "ConstructionReport",
        "KFrameReport",
        "PinvChainReport",
        "ThetaFrameReport",
        "ThetaTightReport",
        "TransformReport",
        "check_k_frame",
        "check_theta_frame",
        "pseudoinverse_bound_chain",
        "theta_tight_check",
        "theta_to_k_bounds",
        "tight_frame_from_hyponormal",
        "transform_frame_check",
    ),
    "wavepacket": (
        "FiniteSumReport",
        "FiniteSumSpec",
        "PartitionCombination",
        "PartitionDominationReport",
        "SynthesisCriterion",
        "WavePacketParams",
        "finite_sum_criterion_check",
        "finite_sum_system",
        "generate_system",
        "partition_combination",
        "partition_domination_check",
        "synthesis_criterion_check",
        "system_from_signals",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    """Import ``name`` from its defining module and keep it in the package namespace."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
