"""The package namespace, and the modules each CLI verb loads."""

import importlib
import json
import subprocess
import sys

import pytest

import framekit

# The public names, under the module that defines each.
_PUBLIC = {
    "errors": """DimensionMismatch FramekitError NoConvergence NonCoprimeDilation NotAFrame
        NotHermitian NotHyponormal NotParseval NotSquare NotThetaFrame OffGridEndpoints
        OffGridFrequency OffGridShift PartitionNotDisjoint PartitionNotExhaustive SingularU
        Underflow Unresolved""",
    "frame_core": """FrameBounds FrameSystem analysis_matrix canonical_basis frame_operator
        optimal_bounds reconstruct synthesis_matrix system_from_json system_to_json""",
    "numerics": """DEFAULT_TOL Tolerance adjoint herm_eig hermitize is_psd numerical_rank op_norm
        operator_from_json operator_to_json pinv range_inclusion svd""",
    "operator_theory": """DouglasReport HyponormalityReport PencilBound
        RelativeHyponormalityReport djordjevic_hyponormal douglas_check hyponormality pencil_inf
        pencil_sup relative_hyponormality""",
    "registry": "ExampleOutcome case_code case_names run_case",
    "signal_space": """Grid Signal TruncatedSequenceSpace dilate indicator modulate mult_operator
        operator_of signal_from_json signal_to_json translate""",
    "suites": "SUITES SuiteResult run_suite",
    "theta_frame": """ConstructionReport KFrameReport PinvChainReport ThetaFrameReport
        ThetaTightReport TransformReport check_k_frame check_theta_frame
        pseudoinverse_bound_chain theta_tight_check theta_to_k_bounds
        tight_frame_from_hyponormal transform_frame_check""",
    "wavepacket": """FiniteSumReport FiniteSumSpec PartitionCombination PartitionDominationReport
        SynthesisCriterion WavePacketParams finite_sum_criterion_check finite_sum_system
        generate_system partition_combination partition_domination_check
        synthesis_criterion_check system_from_signals""",
}
_HOMES = {name: module for module, names in _PUBLIC.items() for name in names.split()}


def test_all_lists_the_public_names_once():
    assert len(_HOMES) == len(framekit.__all__) == 95
    assert sorted(framekit.__all__) == sorted(_HOMES)


def test_every_public_name_is_the_object_its_module_defines():
    for name, module in _HOMES.items():
        defined = getattr(importlib.import_module(f"framekit.{module}"), name)
        assert framekit.__getattr__(name) is defined, name
        assert getattr(framekit, name) is defined, name


def test_dir_and_star_import_cover_every_public_name():
    assert set(_HOMES) <= set(dir(framekit))
    namespace = {}
    exec("from framekit import *", namespace)
    assert set(_HOMES) <= set(namespace)


def test_an_unknown_name_is_an_attribute_error():
    # The benchmark's tracer probes the package with getattr(..., None).
    assert getattr(framekit, "main", None) is None
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(framekit, "no_such_name")


def _loaded(*args):
    """The framekit modules a fresh interpreter imports to run ``python -X importtime *args``."""
    done = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = (line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:"))
    return {name for name in names if name.split(".")[0] == "framekit"}


_BASE = {"framekit", "framekit.errors", "framekit.numerics"}
# runpy runs framekit.__main__ without the import system, so it is not listed.
_CLI = _BASE | {"framekit.cli"}
_SYSTEM = {"n": 2, "vectors": [{"re": [1.0, 0.0]}, {"re": [0.0, 1.0]}]}
_WINDOW = {"grid": {"q": 1, "P": 2}, "kind": "modulate", "value": 1.0}
_PARAMS = {"grid": {"q": 2, "P": 2}, "psi": {"q": 2, "P": 2, "indicator": [0, 1]}, "b": 1.0, "k_range": [0, 1]}


def test_importing_the_package_loads_no_submodule():
    assert _loaded("-c", "import framekit") == {"framekit"}
    assert _loaded("-c", "import framekit.cli") == _CLI


@pytest.mark.parametrize(
    "verb, docs, loads",
    [
        ("check-frame", [_SYSTEM], {"framekit.frame_core"}),
        (
            "check-theta",
            [_SYSTEM, _WINDOW],
            {"framekit.frame_core", "framekit.operator_theory", "framekit.signal_space", "framekit.theta_frame"},
        ),
    ],
)
def test_a_check_loads_only_the_modules_it_runs(tmp_path, verb, docs, loads):
    paths = []
    for index, doc in enumerate(docs):
        paths.append(tmp_path / f"doc{index}.json")
        paths[-1].write_text(json.dumps(doc))
    assert _loaded("-m", "framekit", verb, *map(str, paths)) == _CLI | loads


def test_gen_loads_neither_the_registry_nor_the_suites(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(_PARAMS))
    loaded = _loaded("-m", "framekit", "gen", str(params))
    assert "framekit.wavepacket" in loaded
    assert not loaded & {"framekit.registry", "framekit.suites"}
