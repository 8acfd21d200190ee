"""CLI surface: one JSON report on stdout, exit codes 0/1/2, env seeding."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framekit import cli, frame_core, registry, suites, theta_frame, wavepacket
from framekit.cli import _digest, _json_chunks, main, to_jsonable
from framekit.frame_core import FrameSystem, system_to_json
from framekit.numerics import operator_from_json, operator_to_json
from framekit.operator_theory import hyponormality
from framekit.registry import ExampleOutcome
from framekit.theta_frame import check_k_frame, check_theta_frame
from framekit.wavepacket import generate_system


PARAMS_DOC = {
    "grid": {"q": 4, "P": 4},
    "psi": {"q": 4, "P": 4, "indicator": [0, 1]},
    "a_list": [1],
    "b": 1.0,
    "k_range": [0, 3],
    "c_list": [0.0, 1.0, 2.0, 3.0],
    "dedupe": True,
}

THETA_DOC = {"grid": {"q": 4, "P": 4}, "kind": "modulate", "value": 1.0}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# serialization helper


def test_to_jsonable_encodings():
    assert to_jsonable(float("inf")) == "inf"
    assert to_jsonable(float("-inf")) == "-inf"
    assert to_jsonable(float("nan")) == "nan"
    assert to_jsonable(1 + 2j) == {"re": 1.0, "im": 2.0}
    assert to_jsonable(np.float64(0.5)) == 0.5
    assert to_jsonable(np.bool_(True)) is True
    assert to_jsonable((1, "a", None)) == [1, "a", None]
    vec = to_jsonable(np.array([1.0 + 1j, 2.0]))
    assert vec == {"re": [1.0, 2.0], "im": [1.0, 0.0]}
    mat = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.complex128)
    assert np.allclose(operator_from_json(to_jsonable(mat)), mat)


# ---------------------------------------------------------------------------
# input digest


def _old_canonical(inputs) -> str:
    """The canonical text that inputs_digest hashed before float lists were hashed as bytes."""
    return json.dumps(to_jsonable(inputs), sort_keys=True, separators=(",", ":"))


def _system_doc(rng, n=3, count=4):
    return {
        "n": n,
        "vectors": [
            {"re": rng.normal(size=n).tolist(), "im": rng.normal(size=n).tolist()}
            for _ in range(count)
        ],
        "labels": [[0, k, 0] for k in range(count)],
    }


def test_digest_ignores_formatting_and_key_order(tmp_path, capsys):
    doc = _system_doc(np.random.default_rng(1))
    pretty = tmp_path / "pretty.json"
    pretty.write_text(json.dumps(doc, indent=2, sort_keys=True))
    shuffled = {
        "labels": doc["labels"],
        "vectors": [{"im": v["im"], "re": v["re"]} for v in doc["vectors"]],
        "n": doc["n"],
    }
    compact = tmp_path / "compact.json"
    compact.write_text(json.dumps(shuffled, separators=(",", ":")))
    assert compact.read_text().index('"im"') < compact.read_text().index('"re"')
    _, first = _run(capsys, ["check-frame", str(pretty)])
    _, second = _run(capsys, ["check-frame", str(compact)])
    assert first["inputs_digest"] == second["inputs_digest"]


def _bump_one_entry(doc):
    bumped = json.loads(json.dumps(doc))
    bumped["vectors"][1]["re"][2] = float(np.nextafter(bumped["vectors"][1]["re"][2], np.inf))
    return bumped


_TAG_OF_ONE = hashlib.sha256(np.array([1.0], dtype="<f8").tobytes()).hexdigest()
_DOC = _system_doc(np.random.default_rng(2))


@pytest.mark.parametrize(
    "first, second",
    [
        ({"system": _DOC}, {"system": _bump_one_entry(_DOC)}),
        ({"x": [[1.0, 2.0], [3.0]]}, {"x": [[1.0], [2.0, 3.0]]}),
        ({"x": [1.0, 2.0]}, {"x": [1, 2.0]}),
        ({"x": 1.0}, {"x": 1}),
        ({"x": [0.0]}, {"x": [-0.0]}),
        ({"x": [1.0]}, {"x": {"\0f8": _TAG_OF_ONE}}),
    ],
    ids=["one-ulp", "moved-float", "int-in-list", "int-scalar", "signed-zero", "spelled-tag"],
)
def test_digest_sees_every_value_change(first, second):
    assert _old_canonical(first) != _old_canonical(second)
    assert _digest(first) != _digest(second)


_LEAVES = st.sampled_from(
    [None, True, False, 0, 1, -1, 0.0, -0.0, 1.0, 0.5, 5e-324, "", "re", "\0f8", _TAG_OF_ONE]
) | st.floats(allow_nan=False, allow_infinity=False)
_KEYS = st.sampled_from(["re", "im", "n", "\0f8", "\0\0f8", ""])
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=10,
)


def _reversed_keys(doc):
    if isinstance(doc, dict):
        return {k: _reversed_keys(doc[k]) for k in reversed(list(doc))}
    if isinstance(doc, list):
        return [_reversed_keys(v) for v in doc]
    return doc


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS, _DOCUMENTS)
def test_digest_equality_is_canonical_json_equality(first, second):
    assert (_digest(first) == _digest(second)) == (_old_canonical(first) == _old_canonical(second))
    assert _digest(_reversed_keys(first)) == _digest(first)


def test_digest_values_are_pinned():
    # Float lists, a signed zero, a tiny float, ints, null and a
    # key that spells the float tag.
    inputs = {
        "system": {
            "n": 2,
            "vectors": [{"re": [1.0, -0.0], "im": [0.5, 2.0]}, {"re": [3.0, 1e-300]}],
            "labels": [[0, 1, 2], [1, 0, 0]],
        },
        "theta": {"grid": {"q": 2, "P": 1}, "kind": "modulate", "value": 1.0},
        "margin": None,
        "\0f8": ["tag", 1, 1.0, True],
    }
    assert _digest(inputs) == "effc2e583f33b3d3c5631a545b3cdc3be46db360d8e880554769f89d2f1a5c1d"


# ---------------------------------------------------------------------------
# the JSON writer

_WRITER_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e300, 3.0, float("nan"), float("inf"), float("-inf")]
)
_WRITER_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.text()
    | _WRITER_FLOATS
    | _WRITER_FLOATS.map(np.float64)
)
_WRITER_DOCUMENTS = st.recursive(
    _WRITER_SCALARS
    | st.lists(_WRITER_FLOATS, min_size=1)
    | st.lists(st.integers(min_value=-(10**40), max_value=10**40), min_size=1),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_WRITER_DOCUMENTS)
@example([1, 1.0, True])
@example({"\u00e9\"\x01\u2603": [[], {}, (), [0.5, float("nan")], [np.float64(0.5), 0.5]]})
@example([[1, True], [True, False], (10**40, -3), [2, 2.0]])
def test_writer_chunks_are_the_text_of_json_dumps(doc):
    assert "".join(_json_chunks(doc)) == json.dumps(doc, indent=2, sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(_WRITER_FLOATS, min_size=1, max_size=6), st.data())
@example([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, float("nan"), float("-inf")], None)
def test_a_gathered_leaf_is_the_text_of_the_floats_it_names(row, data):
    table = np.array([row, row[::-1]])
    if data is None:
        index = np.array([5, 0, 1, 1, 3, 2, 4])
    else:
        index = np.array(data.draw(st.lists(st.integers(0, len(row) - 1), min_size=1, max_size=8)))
    texts = cli._FloatTexts(table)
    doc = {"x": [cli._Gathered(texts, 1, index), {"y": cli._Gathered(texts, 0, index)}]}
    named = {"x": [table[1, index].tolist(), {"y": table[0, index].tolist()}]}
    assert "".join(_json_chunks(doc)) == json.dumps(named, indent=2, sort_keys=True)


def _gen_params(seed, q, P, periods=1, a_list=(1,), b=1.0, k_range=None, zeros=False):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(q * P) + 1j * rng.standard_normal(q * P)
    if zeros:  # signed zeros in both parts, where they meet nonzero parts too
        psi.real[::3], psi.imag[1::3], psi.real[2::4] = 0.0, -0.0, -0.0
    return {
        "grid": {"q": q, "P": P},
        "psi": {"q": q, "P": P, "re": psi.real.tolist(), "im": psi.imag.tolist()},
        "a_list": list(a_list),
        "b": b,
        "k_range": k_range or [0, P - 1],
        "c_list": [float(c) for c in range(periods * q)],
        "dedupe": True,
    }


_GEN_SHAPES = {
    "one-period": dict(seed=0, q=4, P=4),
    "tall": dict(seed=1, q=8, P=6),
    "two-periods": dict(seed=3, q=4, P=4, periods=2),
    "two-dilations": dict(seed=4, q=4, P=6, a_list=(1, 5)),
    "step-two": dict(seed=5, q=4, P=4, b=2.0),
    "partial-k": dict(seed=6, q=4, P=6, k_range=[2, 4]),
    "signed-zeros": dict(seed=7, q=4, P=4, zeros=True),
}


@pytest.mark.parametrize(
    "shape, to_file",
    [
        pytest.param("one-period", True, id="0-4-4"),
        pytest.param("tall", True, id="1-8-6"),
        *(pytest.param(shape, True, id=shape) for shape in list(_GEN_SHAPES)[2:]),
        *(pytest.param(shape, False, id="stdout-" + shape) for shape in ("two-periods", "signed-zeros")),
    ],
)
def test_gen_out_file_is_the_text_of_json_dump(tmp_path, capsys, shape, to_file):
    doc = _gen_params(**_GEN_SHAPES[shape])
    params = cli._params_from_json(doc)
    system = generate_system(params)
    if shape == "two-periods":
        assert 2 * len(system) == len(params.k_values()) * len(params.c_list)  # dedupe drops half
    if shape == "signed-zeros":
        parts = np.concatenate((system.vectors.real, system.vectors.imag)).ravel()
        assert (parts == 0.0).any() and np.signbit(parts[parts == 0.0]).any()
        assert not np.signbit(parts[parts == 0.0]).all()
    out_path = tmp_path / "system.json"
    argv = ["gen", _write(tmp_path, "params.json", doc)] + (["--out", str(out_path)] * to_file)
    code = main(argv)
    report_text = capsys.readouterr().out
    assert code == 0
    expected = io.StringIO()
    json.dump(system_to_json(system), expected, indent=2, sort_keys=True)
    if to_file:
        assert out_path.read_bytes() == expected.getvalue().encode("utf-8")
        # The report is the same text that print(json.dumps(...)) wrote.
        assert report_text == json.dumps(json.loads(report_text), indent=2, sort_keys=True) + "\n"
    else:
        report = json.loads(report_text)
        report["verdicts"]["system"] = system_to_json(system)
        assert report_text == json.dumps(report, indent=2, sort_keys=True) + "\n"


def _gen_peak_while_writing(tmp_path, capsys, monkeypatch, shape) -> tuple[int, int]:
    """(file size, peak traced memory while ``gen --out`` writes, over what its payload holds)."""
    params = _write(tmp_path, "params.json", _gen_params(**shape))
    out_path = tmp_path / "system.json"
    held = {}

    def payload_then_mark(params):
        payload = system_payload(params)
        tracemalloc.reset_peak()
        held["before_writing"] = tracemalloc.get_traced_memory()[0]
        return payload

    system_payload = cli._system_payload
    monkeypatch.setattr(cli, "_system_payload", payload_then_mark)
    tracemalloc.start()
    try:
        code = main(["gen", params, "--out", str(out_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    return out_path.stat().st_size, peak - held["before_writing"]


def test_gen_writes_its_file_as_a_stream(tmp_path, capsys, monkeypatch):
    # n = 192: the system alone is about 2 MB of JSON text.
    size, peak = _gen_peak_while_writing(tmp_path, capsys, monkeypatch, dict(seed=2, q=16, P=12))
    assert size > 2_000_000
    assert peak < size / 10


def test_gen_writes_a_two_dilation_file_as_a_stream(tmp_path, capsys, monkeypatch):
    # n = 96 with two dilations: about 1 MB of JSON text.
    shape = dict(seed=8, q=8, P=12, a_list=(1, 5))
    size, peak = _gen_peak_while_writing(tmp_path, capsys, monkeypatch, shape)
    assert size > 1_000_000
    assert peak < size / 10


def test_gen_writes_a_two_period_file_within_its_repr_table(tmp_path, capsys, monkeypatch):
    # n = 128 over two modulation periods: about 1 MB of JSON text.  Dedupe
    # keeps the first period, whose atoms read 16 rows of the window table, so
    # the writer holds those rows' texts (about a tenth of the file) on top of
    # the tenth the other stream cases are held to.
    shape = dict(seed=3, q=16, P=8, periods=2)
    windows, rows, index = wavepacket._gather_form(cli._params_from_json(_gen_params(**shape)))
    read = np.unique(rows[wavepacket._dedupe_counts(windows[rows[:, None], index]) > 0])
    table = sum(
        part.size * max(len(json.dumps(x)) for x in part.tolist())
        for row in read.tolist()
        for part in (windows[row].real, windows[row].imag)
    )
    size, peak = _gen_peak_while_writing(tmp_path, capsys, monkeypatch, shape)
    assert size > 900_000 and read.size == 16
    assert peak < table + size / 10


def test_reader_closing_mid_report_exits_two_without_a_traceback(tmp_path):
    # `framekit gen params.json | head -1` on an n = 128 system: the report
    # embeds the system, far more than a pipe buffer holds.
    params = _write(tmp_path, "params.json", _gen_params(3, 16, 8, periods=2))
    proc = subprocess.Popen(
        [sys.executable, "-m", "framekit", "gen", params],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        first_line = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first_line == b"{\n"
    assert proc.returncode == 2
    assert stderr == "error: stdout was closed before the report was written\n"


# ---------------------------------------------------------------------------
# generation and checks round trip


def test_gen_then_check_frame(tmp_path, capsys):
    params = _write(tmp_path, "params.json", PARAMS_DOC)
    out_path = str(tmp_path / "system.json")
    code, report = _run(capsys, ["gen", params, "--out", out_path])
    assert code == 0
    assert report["command"] == "gen"
    assert report["verdicts"]["vectors"] == 16
    assert len(report["inputs_digest"]) == 64
    assert isinstance(report["duration_ms"], int)

    code, report = _run(capsys, ["check-frame", out_path])
    assert code == 0
    v = report["verdicts"]
    assert v["is_frame"] and v["tight"]
    assert v["lower"] == pytest.approx(1.0)


def test_gen_without_out_embeds_the_system(tmp_path, capsys):
    params = _write(tmp_path, "params.json", PARAMS_DOC)
    code, report = _run(capsys, ["gen", params])
    assert code == 0
    assert report["verdicts"]["system"]["n"] == 16


def test_check_theta_report_shape(tmp_path, capsys):
    params = _write(tmp_path, "params.json", PARAMS_DOC)
    out_path = str(tmp_path / "system.json")
    _run(capsys, ["gen", params, "--out", out_path])
    theta = _write(tmp_path, "theta.json", THETA_DOC)
    code, report = _run(capsys, ["check-theta", out_path, theta])
    assert code == 0
    v = report["verdicts"]
    assert set(v) == {
        "alpha_opt",
        "beta_opt",
        "lower_ok",
        "upper_ok",
        "lower_degenerate",
        "witnesses",
    }
    assert set(v["witnesses"]) == {"lower", "upper", "kernel"}
    assert v["lower_ok"] and v["upper_ok"]
    assert v["alpha_opt"] == pytest.approx(1.0)
    assert v["witnesses"]["kernel"] is None
    assert len(v["witnesses"]["lower"]["re"]) == 16


def test_check_hypo_and_douglas(tmp_path, capsys):
    op = _write(
        tmp_path,
        "op.json",
        {"rows": 2, "cols": 2, "re": [0, 1, 0, 0], "im": [0, 0, 0, 0]},
    )
    code, report = _run(capsys, ["check-hypo", op])
    assert code == 0
    assert report["verdicts"]["global_verdict"] is False
    code, report = _run(capsys, ["douglas", op, op])
    assert code == 0
    assert report["verdicts"]["range_included"] is True
    assert report["verdicts"]["consistent"] is True


def test_check_comb_finite_sum(tmp_path, capsys):
    spec = _write(
        tmp_path,
        "comb.json",
        {
            "kind": "finite-sum",
            "params": PARAMS_DOC,
            "theta": THETA_DOC,
            "alphas": {"re": [1, 2, -1], "im": [0, 0, 0]},
        },
    )
    code, report = _run(capsys, ["check-comb", spec])
    assert code == 0
    v = report["verdicts"]
    assert v["exists"] and v["agrees"]
    assert v["mu_opts"][0] == pytest.approx(4.0, rel=1e-9)


@pytest.mark.parametrize("grid", [{"q": 2, "P": 8}, {"q": 4, "P": 2}])
def test_check_comb_refuses_windows_on_another_grid(tmp_path, capsys, grid):
    psi = {**grid, "indicator": [0, 1]}
    spec = _write(
        tmp_path,
        "comb.json",
        {
            "kind": "finite-sum",
            "params": PARAMS_DOC,
            "theta": THETA_DOC,
            "alphas": {"re": [1, 2], "im": [0, 0]},
            "psis": [psi, psi],
        },
    )
    code, report = _run(capsys, ["check-comb", spec])
    assert code == 2
    assert report["verdicts"]["error"] == "window signal lives on a different grid"


def test_pinv_verb(tmp_path, capsys, monkeypatch):
    params = _write(tmp_path, "params.json", PARAMS_DOC)
    out_path = str(tmp_path / "system.json")
    _run(capsys, ["gen", params, "--out", out_path])
    theta = _write(tmp_path, "theta.json", THETA_DOC)
    verdicts = []
    for seed in ("0", "7"):
        monkeypatch.setenv("FRAMEKIT_SEED", seed)
        code, report = _run(capsys, ["pinv", out_path, theta])
        assert code == 0
        assert report["verdicts"]["chain_ok"] is True
        verdicts.append(report["verdicts"])
    # The margins are exact minima over range(Theta), not sampled ones.
    assert verdicts[0] == verdicts[1]


# ---------------------------------------------------------------------------
# verification verbs and exit codes


def test_verify_example_passes(capsys):
    code, report = _run(capsys, ["verify-example", "shift-basis"])
    assert code == 0
    assert report["verdicts"]["passed"] is True
    assert report["verdicts"]["case_id"]


def test_verify_example_failure_exits_one(capsys, monkeypatch):
    failing = ExampleOutcome(case_id="x", title="t", passed=False, assertions=())
    monkeypatch.setattr(registry, "run_case", lambda case_id: failing)
    code, report = _run(capsys, ["verify-example", "x"])
    assert code == 1
    assert report["verdicts"]["passed"] is False


_TWO_GRID_PSIS = [{"q": 4, "P": 4, "indicator": [0, 1]}, {"q": 2, "P": 8, "indicator": [0, 1]}]


@pytest.mark.parametrize(
    "verb, doc, message",
    [
        ("check-comb", {"kind": "sum", "params": PARAMS_DOC, "theta": THETA_DOC}, "unknown combination kind 'sum'"),
        ("gen", {**PARAMS_DOC, "c_list": []}, "need at least one modulation frequency"),
        ("gen", {**PARAMS_DOC, "b": -1}, "translation step must be >= 0, got -1.0"),
        (
            "check-comb",
            {"kind": "finite-sum", "params": PARAMS_DOC, "theta": THETA_DOC, "alphas": {"re": []}},
            "need at least one weight",
        ),
        (
            "check-comb",
            {"kind": "finite-sum", "params": PARAMS_DOC, "theta": THETA_DOC, "alphas": {"re": [1.0, 2.0]}, "psis": _TWO_GRID_PSIS},
            "windows live on different grids",
        ),
    ],
    ids=["unknown-kind", "no-frequency", "negative-step", "no-weight", "two-grids"],
)
def test_a_refused_input_exits_two_with_its_message(tmp_path, capsys, verb, doc, message):
    code = main([verb, _write(tmp_path, "input.json", doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["verdicts"]["error"] == message
    assert captured.err == f"error: {message}\n"


def _failing_check(monkeypatch, module, name, **fields):
    """Patch ``module.name`` to return its real report with ``fields`` replaced."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: dataclasses.replace(real(*args, **kwargs), **fields))


def test_a_failed_verification_exits_one_with_its_line(tmp_path, capsys, monkeypatch):
    failure = suites.TrialFailure(index=0, seed=(3, 0), message="boom")
    monkeypatch.setattr(suites, "run_suite", lambda *args: suites.SuiteResult("gram-psd", 1, (failure,)))
    record = registry.AssertionRecord(label="energy", passed=False, observed=1.5, expected="<= 1")
    failing = ExampleOutcome(case_id="x", title="t", passed=False, assertions=(record,))
    monkeypatch.setattr(registry, "run_case", lambda case_id: failing)
    _failing_check(monkeypatch, theta_frame, "pseudoinverse_bound_chain", chain_ok=False)
    _failing_check(monkeypatch, wavepacket, "partition_domination_check", agrees=False)
    system = str(tmp_path / "system.json")
    assert main(["gen", _write(tmp_path, "params.json", PARAMS_DOC), "--out", system]) == 0
    theta = _write(tmp_path, "theta.json", THETA_DOC)
    partition = {"params": PARAMS_DOC, "theta": THETA_DOC, "cells": [[i] for i in range(16)]}
    capsys.readouterr()
    for argv, line in [
        (["prop-run", "gram-psd", "--trials", "1"], "trial 0 failed (seed (3, 0)): boom"),
        (["verify-example", "x"], "assertion failed: energy (observed 1.5; expected <= 1)"),
        (["pinv", system, theta], "bound chain failed; see report for margins"),
        (["check-comb", _write(tmp_path, "spec.json", partition)], "combination criterion disagreed with the frame verdict"),
    ]:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.err == line + "\n", argv[0]
        json.loads(captured.out)


def test_prop_run(capsys):
    code, report = _run(capsys, ["prop-run", "gram-psd", "--trials", "10", "--seed", "3"])
    assert code == 0
    assert report["verdicts"]["failures"] == []
    assert report["verdicts"]["trials"] == 10


def test_unknown_case_exits_two(capsys):
    code, report = _run(capsys, ["verify-example", "no-such-case"])
    assert code == 2
    assert "error" in report["verdicts"]


def test_missing_file_exits_two(capsys):
    code, report = _run(capsys, ["check-frame", "/nonexistent/system.json"])
    assert code == 2
    assert "error" in report["verdicts"]


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = _run(capsys, ["check-frame", str(bad)])
    assert code == 2


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        {"n": 2, "vectors": [1]},
        {"n": 2, "vectors": [[1, 2]]},
        {"n": 2, "vectors": 5},
        {"n": 2, "vectors": [{"re": [1, 0]}], "labels": 5},
    ],
)
def test_malformed_system_document_exits_two(tmp_path, capsys, doc):
    path = _write(tmp_path, "system.json", doc)
    code, report = _run(capsys, ["check-frame", path])
    assert code == 2
    assert "system JSON" in report["verdicts"]["error"]


_BASIS = {"n": 2, "vectors": [{"re": [1.0, 0.0]}, {"re": [0.0, 1.0]}]}
_NAN_SYSTEM = {"n": 2, "vectors": [{"re": [1.0, float("nan")], "im": [0.0, 0.0]}]}
_INF_OPERATOR = {"rows": 2, "cols": 2, "re": [0, float("inf"), 0, 0], "im": [0, 0, 0, 0]}
_NAN_WINDOW = {"rows": 2, "cols": 2, "re": [1.0, 0.0, 0.0, float("nan")], "im": [0.0] * 4}


@pytest.mark.parametrize(
    "verb, docs, message",
    [
        ("check-frame", [_NAN_SYSTEM], "system JSON vectors must be finite"),
        ("check-frame", [{"n": float("inf"), "vectors": []}], "infinity"),
        ("check-theta", [_BASIS, _NAN_WINDOW], "operator JSON entries must be finite"),
        ("check-hypo", [_INF_OPERATOR], "operator JSON entries must be finite"),
        (
            "gen",
            [{**PARAMS_DOC, "psi": {"q": 4, "P": 4, "re": [float("nan")] + [1.0] * 15}}],
            "signal JSON samples must be finite",
        ),
        (
            "check-comb",
            [
                {
                    "kind": "finite-sum",
                    "params": PARAMS_DOC,
                    "theta": THETA_DOC,
                    "alphas": {"re": [1.0, float("nan")], "im": [0.0, 0.0]},
                }
            ],
            "re/im lists must be finite",
        ),
    ],
    ids=["system", "system-size", "theta-window", "operator", "signal", "complex-list"],
)
def test_non_finite_input_exits_two(tmp_path, capsys, verb, docs, message):
    paths = [_write(tmp_path, f"doc{i}.json", doc) for i, doc in enumerate(docs)]
    code, report = _run(capsys, [verb, *paths])
    assert code == 2
    assert message in report["verdicts"]["error"]


@pytest.mark.parametrize("change", [{"a_list": [3.5]}, {"k_range": [0, 7.9]}])
def test_gen_rejects_non_integral_labels(tmp_path, capsys, change):
    code, report = _run(capsys, ["gen", _write(tmp_path, "params.json", {**PARAMS_DOC, **change})])
    assert code == 2
    assert "must be an integer" in report["verdicts"]["error"]


@pytest.mark.parametrize("verb", ["gen", "check-comb"])
def test_an_oversized_label_box_exits_two_before_allocating(tmp_path, capsys, verb):
    params = {**PARAMS_DOC, "k_range": [0, 10**12]}
    doc = params if verb == "gen" else {"params": params, "theta": THETA_DOC, "cells": [[0]]}
    path = _write(tmp_path, "doc.json", doc)
    tracemalloc.start()
    try:
        code = main([verb, path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and peak < 10_000_000
    assert captured.err.count("\n") == 1 and "exceeds" in captured.err
    assert "exceeds" in json.loads(captured.out)["verdicts"]["error"]


_WIDE_SYSTEM = {"n": 4097, "vectors": [{"re": [1.0] * 4097}]}
_WIDE_OPERATOR = {"rows": 4097, "cols": 4097, "re": [], "im": []}
_WIDE_PARTITION = {
    "params": {"grid": {"q": 4097, "P": 1}, "psi": {"q": 4097, "P": 1, "indicator": [0, 1]}, "b": 1.0, "k_range": [0, 0]},
    "theta": {"grid": {"q": 4097, "P": 1}, "kind": "modulate", "value": 1.0},
    "cells": [[0]],
}


@pytest.mark.parametrize(
    "verb, docs",
    [
        ("check-frame", [_WIDE_SYSTEM]),
        ("check-theta", [_WIDE_SYSTEM, THETA_DOC]),
        ("check-hypo", [_WIDE_OPERATOR]),
        ("douglas", [{"grid": {"q": 4097, "P": 1}, "kind": "modulate", "value": 1.0}, THETA_DOC]),
        ("douglas", [{"rows": 1, "cols": 1, "re": [1.0]}, {**_WIDE_OPERATOR, "rows": 1}]),
        ("check-comb", [_WIDE_PARTITION]),  # the partition's frame operator is dense
    ],
)
def test_an_oversized_dense_input_exits_two_naming_the_limit(tmp_path, capsys, verb, docs):
    paths = [_write(tmp_path, f"doc{i}.json", doc) for i, doc in enumerate(docs)]
    tracemalloc.start()
    try:
        code = main([verb, *paths])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and peak < 10_000_000
    assert captured.err.count("\n") == 1
    assert "4097 exceeds the dense limit" in captured.err and "MAX_ATOM_ENTRIES" in captured.err
    assert "(n <= 4096)" in json.loads(captured.out)["verdicts"]["error"]


def test_a_named_operator_above_the_dense_limit_is_checked_in_o_of_n(tmp_path, capsys):
    # Only a verb that densifies a named operator is bound by the dense limit.
    doc = {"grid": {"q": 128, "P": 64}, "kind": "dilate", "value": 3}
    tracemalloc.start()
    try:
        code, report = _run(capsys, ["check-hypo", _write(tmp_path, "dilate.json", doc)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 10_000_000
    verdicts = report["verdicts"]
    assert verdicts["global_verdict"] is True and verdicts["operator_norm"] == 1.0
    assert verdicts["commutator_min_eig"] == 0.0


@pytest.mark.parametrize("q, P", [(2**20, 2**20), (2**21 + 1, 1)])
def test_a_named_operator_beyond_an_eighth_of_max_atom_entries_points_exits_two_before_allocating(
    tmp_path, capsys, q, P
):
    doc = {"grid": {"q": q, "P": P}, "kind": "translate", "value": 1.0}
    tracemalloc.start()
    try:
        code, report = _run(capsys, ["check-hypo", _write(tmp_path, "huge.json", doc)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 10_000_000
    assert report["verdicts"]["error"] == f"named operator grid n {q * P} exceeds MAX_ATOM_ENTRIES / 8 = {2**21}"


_HUGE_SIGNALS = [
    {"q": 2**20, "P": 2**20, "indicator": [0, 1]},
    {"q": 2**24 + 1, "P": 1, "re": [1.0]},
]


@pytest.mark.parametrize("verb", ["gen", "check-comb"])
@pytest.mark.parametrize("psi", _HUGE_SIGNALS, ids=["indicator", "samples"])
def test_a_signal_beyond_max_atom_entries_points_exits_two_before_allocating(tmp_path, capsys, verb, psi):
    grid = {"q": psi["q"], "P": psi["P"]}
    if verb == "gen":
        doc = {**PARAMS_DOC, "grid": grid, "psi": psi}
    else:
        doc = {"kind": "finite-sum", "params": PARAMS_DOC, "theta": THETA_DOC, "alphas": {"re": [1.0]}, "psis": [psi]}
    tracemalloc.start()
    try:
        code = main([verb, _write(tmp_path, "doc.json", doc)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and peak < 10_000_000
    assert captured.err.count("\n") == 1
    n = psi["q"] * psi["P"]
    assert json.loads(captured.out)["verdicts"]["error"] == f"signal grid n {n} exceeds MAX_ATOM_ENTRIES = {2**24}"


def test_the_dense_limit_admits_n_4096():
    assert frame_core.system_from_json({**_WIDE_SYSTEM, "n": 4096, "vectors": [{"re": [1.0] * 4096}]}).n == 4096
    with pytest.raises(ValueError, match="need shape"):
        operator_from_json({**_WIDE_OPERATOR, "rows": 4096, "cols": 4096})


@pytest.mark.parametrize("verb", ["gen", "check-comb"])
@pytest.mark.parametrize("field", ["b", "psi", "k_range", "grid", "q", "P"])
def test_params_missing_a_field_exit_two_naming_it(tmp_path, capsys, verb, field):
    params = {k: v for k, v in PARAMS_DOC.items() if k != field}
    if field in ("q", "P"):
        params["grid"] = {k: v for k, v in PARAMS_DOC["grid"].items() if k != field}
    doc = params if verb == "gen" else {"params": params, "theta": THETA_DOC, "cells": [[0]]}
    code, report = _run(capsys, [verb, _write(tmp_path, "doc.json", doc)])
    assert code == 2
    assert report["verdicts"]["error"] == f"wave-packet params JSON missing field: {field!r}"


def test_douglas_on_huge_entries_gets_a_verdict(tmp_path, capsys):
    big = _write(tmp_path, "big.json", {"rows": 2, "cols": 2, "re": [1e200, 0, 0, 1e200]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["douglas", big, big])
    captured = capsys.readouterr()
    verdicts = json.loads(captured.out, parse_constant=_reject_constant)["verdicts"]
    assert code == 0 and captured.err == "" and caught == []
    assert verdicts["lambda_min"] == 1.0 and verdicts["consistent"] is True
    assert verdicts["range_included"] is True and verdicts["factor_residual"] == 0.0


def test_douglas_with_an_ill_conditioned_t2_is_consistent(tmp_path, capsys):
    # T2 = Q1 diag(logspace(0, -5.5, 8)) Q2* is invertible, so R(I) lies in R(T2)
    # with lambda_min = 1 / s_min(T2) = 10**5.5 and the factor T2^-1.
    rng = np.random.default_rng(4)
    q1, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    q2, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    t2 = q1 @ np.diag(np.logspace(0, -5.5, 8)) @ q2.conj().T
    t1_path = _write(tmp_path, "t1.json", operator_to_json(np.eye(8)))
    code, report = _run(capsys, ["douglas", t1_path, _write(tmp_path, "t2.json", operator_to_json(t2))])
    verdicts = report["verdicts"]
    assert code == 0 and verdicts["consistent"] is True and verdicts["range_included"] is True
    assert verdicts["lambda_min"] == pytest.approx(10**5.5, rel=1e-6)
    assert verdicts["factor"] is not None


@pytest.mark.parametrize(
    "kind, field", [("partition", "params"), ("partition", "theta"), ("partition", "cells"), ("finite-sum", "alphas")]
)
def test_check_comb_spec_missing_a_field_exits_two_naming_it(tmp_path, capsys, kind, field):
    spec = {"kind": kind, "params": PARAMS_DOC, "theta": THETA_DOC, "cells": [[0]], "alphas": {"re": [1.0]}}
    del spec[field]
    code, report = _run(capsys, ["check-comb", _write(tmp_path, "spec.json", spec)])
    assert code == 2
    assert report["verdicts"]["error"] == f"combination spec JSON missing field: {field!r}"


@pytest.mark.parametrize("psis", [5, None, "x", {}], ids=["int", "null", "text", "object"])
def test_check_comb_psis_that_are_not_a_list_exit_two_naming_it(tmp_path, capsys, psis):
    spec = {"kind": "finite-sum", "params": PARAMS_DOC, "theta": THETA_DOC, "alphas": {"re": [1.0]}, "psis": psis}
    code, report = _run(capsys, ["check-comb", _write(tmp_path, "spec.json", spec)])
    assert code == 2
    assert report["verdicts"]["error"].startswith("psis must be a list of window signals, got ")


def test_gen_accepts_integral_floats(tmp_path, capsys):
    exact = {**PARAMS_DOC, "a_list": [3], "k_range": [0, 7]}
    floats = {**PARAMS_DOC, "a_list": [3.0], "k_range": [0, 7.0]}
    code, first = _run(capsys, ["gen", _write(tmp_path, "exact.json", exact)])
    assert code == 0
    code, second = _run(capsys, ["gen", _write(tmp_path, "floats.json", floats)])
    assert code == 0
    assert second["verdicts"] == first["verdicts"]


_HUGE_BASIS = {"n": 2, "vectors": [{"re": [1e200, 0.0]}, {"re": [0.0, 1e200]}]}
_IDENTITY = {"rows": 2, "cols": 2, "re": [1.0, 0.0, 0.0, 1.0]}


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


@pytest.mark.parametrize("verb", ["check-frame", "check-theta", "check-k"])
def test_overflowing_frame_operator_exits_two_with_strict_json(tmp_path, capsys, verb):
    # Finite entries whose optimal constants (1e400) lie beyond the float
    # range: a refusal naming the overflow, not a NaN verdict or a warning.
    argv = [verb, _write(tmp_path, "system.json", _HUGE_BASIS)]
    if verb != "check-frame":
        argv.append(_write(tmp_path, "window.json", _IDENTITY))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=_reject_constant)
    assert code == 2
    assert "non-finite" in report["verdicts"]["error"]
    assert captured.err == f"error: {report['verdicts']['error']}\n"
    assert caught == []


_TINY_BASIS = system_to_json(FrameSystem(1e-200 * np.eye(3)))
_TINY_WINDOWS = {  # read as a Monomial, and dense
    "monomial": operator_to_json(1e-200 * np.eye(3)),
    "dense": operator_to_json(1e-200 * (2.0 * np.eye(3) + 0.5 * (np.ones((3, 3)) - np.eye(3)))),
}


@pytest.mark.parametrize("window", sorted(_TINY_WINDOWS))
@pytest.mark.parametrize("verb", ["check-theta", "check-k", "pinv"])
def test_a_window_whose_kept_squares_underflow_exits_two_without_a_warning(tmp_path, capsys, verb, window):
    argv = [verb, _write(tmp_path, "system.json", _TINY_BASIS), _write(tmp_path, "window.json", _TINY_WINDOWS[window])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=_reject_constant)
    assert code == 2 and caught == []
    assert "squares below the smallest normal float" in report["verdicts"]["error"]
    assert captured.err == f"error: {report['verdicts']['error']}\n"


@pytest.mark.parametrize(
    "verb, doc, message",
    [
        ("check-hypo", {"grid": {"q": 3, "P": 5}, "kind": "translate", "value": 1e308}, "shift 1e+308"),
        ("check-hypo", {"grid": {"q": 3, "P": 5}, "kind": "modulate", "value": 1e308}, "frequency 1e+308"),
        ("gen", {**PARAMS_DOC, "c_list": [1e308]}, "frequency 1e+308"),
    ],
)
def test_a_grid_parameter_whose_product_overflows_exits_two_without_a_warning(
    tmp_path, capsys, verb, doc, message
):
    # 3 * 1e308 is inf, which no rounding puts on the grid: refused by name, not shifted
    # by a garbage step or carried into a non-finite phase.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([verb, _write(tmp_path, "input.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and caught == []
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {message} is off-grid: ") and "= inf is not an integer" in captured.err


def test_check_hypo_names_the_commutator_eigenvalue_that_overflows(tmp_path, capsys):
    # A weighted shift with weight 1e308: its norm is representable, the
    # commutator eigenvalues +-1e616 are not.
    window = {"rows": 2, "cols": 2, "re": [0.0, 0.0, 1e308, 0.0]}
    code = main(["check-hypo", _write(tmp_path, "window.json", window)])
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=_reject_constant)
    assert code == 2
    assert report["verdicts"]["error"].startswith("commutator eigenvalue ")
    assert "non-finite" in captured.err


def _scaled_basis(exponent):
    return {"n": 2, "vectors": [{"re": [2.0**exponent, 0.0]}, {"re": [0.0, 2.0**exponent]}]}


def _scaled_identity(exponent):
    return {"rows": 2, "cols": 2, "re": [2.0**exponent, 0.0, 0.0, 2.0**exponent]}


@pytest.mark.parametrize(
    "verb, system, window, expected",
    [
        # 1e200 entries on both sides: S and the window products overflowed.
        ("check-theta", _HUGE_BASIS, {**_IDENTITY, "re": [1e200, 0.0, 0.0, 1e200]},
         {"alpha_opt": 1.0, "beta_opt": 1.0, "lower_ok": True, "upper_ok": True}),
        ("check-k", _scaled_basis(510), _scaled_identity(520),
         {"a_opt": 2.0**-20, "b_opt": 2.0**1020, "lower_ok": True}),
        ("check-theta", _scaled_basis(510), _scaled_identity(520),
         {"alpha_opt": 2.0**-20, "beta_opt": 2.0**-20, "lower_ok": True, "upper_ok": True}),
        ("check-frame", _scaled_basis(510), None,
         {"lower": 2.0**1020, "upper": 2.0**1020, "is_frame": True, "tight": True}),
    ],
)
def test_huge_entries_with_representable_constants_get_a_verdict(
    tmp_path, capsys, verb, system, window, expected
):
    argv = [verb, _write(tmp_path, "system.json", system)]
    if window is not None:
        argv.append(_write(tmp_path, "window.json", window))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    verdicts = json.loads(captured.out, parse_constant=_reject_constant)["verdicts"]
    assert code == 0
    assert captured.err == "" and caught == []
    assert {key: verdicts[key] for key in expected} == expected


@pytest.mark.parametrize(
    "window, norm",
    [
        ({"rows": 2, "cols": 2, "re": [1e200, 0.0, 0.0, 1e200]}, 1e200),
        # not monomial: the scaled commutator goes through the dense products
        ({"rows": 2, "cols": 2, "re": [1e200, 1e200, 1e200, 1e200]}, 2e200),
    ],
)
def test_check_hypo_on_huge_entries_gets_a_verdict(tmp_path, capsys, window, norm):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["check-hypo", _write(tmp_path, "window.json", window)])
    captured = capsys.readouterr()
    verdicts = json.loads(captured.out, parse_constant=_reject_constant)["verdicts"]
    assert code == 0
    assert captured.err == "" and caught == []
    assert verdicts["global_verdict"] is True
    assert verdicts["operator_norm"] == pytest.approx(norm, rel=1e-15)


_UNIT_VECTORS = [{"re": [1.0, 0.0]}, {"re": [0.0, 1.0]}]


@pytest.mark.parametrize(
    "verb, doc",
    [
        ("check-hypo", {"grid": {"q": 4.5, "P": 4}, "kind": "translate", "value": 1.0}),
        ("check-hypo", {"grid": {"q": None, "P": 4}, "kind": "translate", "value": 1.0}),
        ("check-hypo", {"rows": 2.5, "cols": 2, "re": [1.0, 0.0, 0.0, 1.0]}),
        ("check-frame", {"n": 2.7, "vectors": _UNIT_VECTORS}),
        ("check-frame", {"n": 2, "vectors": _UNIT_VECTORS, "labels": [[0, 0, 0], [0, 0.5, 0]]}),
        ("gen", {**PARAMS_DOC, "grid": {"q": 4, "P": 4.5}}),
        ("gen", {**PARAMS_DOC, "psi": {"q": "4", "P": 4, "indicator": [0, 1]}}),
        ("gen", {**PARAMS_DOC, "a_list": [None]}),
    ],
    ids=["grid-q", "grid-q-null", "rows", "system-n", "label", "params-P", "signal-q", "a-null"],
)
def test_non_integral_json_integers_exit_two(tmp_path, capsys, verb, doc):
    code, report = _run(capsys, [verb, _write(tmp_path, "doc.json", doc)])
    assert code == 2
    assert "must be an integer" in report["verdicts"]["error"]


def test_named_dilation_accepts_an_integral_float(tmp_path, capsys):
    exact = {"grid": {"q": 4, "P": 4}, "kind": "dilate", "value": 3}
    code, first = _run(capsys, ["check-hypo", _write(tmp_path, "exact.json", exact)])
    assert code == 0
    as_float = _write(tmp_path, "float.json", {**exact, "value": 3.0})
    code, second = _run(capsys, ["check-hypo", as_float])
    assert code == 0
    assert second["verdicts"] == first["verdicts"]


_PSI = PARAMS_DOC["psi"]


@pytest.mark.parametrize(
    "verb, doc",
    [
        ("gen", {**PARAMS_DOC, "b": None}),
        ("gen", {**PARAMS_DOC, "b": "1"}),
        ("gen", {**PARAMS_DOC, "c_list": [None]}),
        ("gen", {**PARAMS_DOC, "c_list": [True]}),
        ("gen", {**PARAMS_DOC, "psi": {**_PSI, "indicator": [None, 1]}}),
        ("gen", {**PARAMS_DOC, "psi": {**_PSI, "indicator": ["0", 1]}}),
        ("check-hypo", {**THETA_DOC, "value": None}),
        ("check-hypo", {**THETA_DOC, "value": [1]}),
        ("check-hypo", {**THETA_DOC, "kind": "translate", "value": float("inf")}),
    ],
    ids=["b-null", "b-text", "c-null", "c-bool", "ends-null", "ends-text", "value-null",
         "value-list", "value-inf"],
)
def test_non_real_json_numbers_exit_two(tmp_path, capsys, verb, doc):
    code, report = _run(capsys, [verb, _write(tmp_path, "doc.json", doc)])
    assert code == 2
    assert "real number" in report["verdicts"]["error"]


@pytest.mark.parametrize("dedupe", ["false", 0, None], ids=["text", "zero", "null"])
def test_non_bool_dedupe_exits_two(tmp_path, capsys, dedupe):
    doc = {**PARAMS_DOC, "dedupe": dedupe}
    code, report = _run(capsys, ["gen", _write(tmp_path, "doc.json", doc)])
    assert code == 2
    assert "dedupe must be true or false" in report["verdicts"]["error"]


@pytest.mark.parametrize(
    "verb, doc, named",
    [
        ("check-hypo", {"rows": -2, "cols": -2, "re": [1, 0, 0, 1]}, "operator rows must be nonnegative"),
        ("check-hypo", {"rows": 2, "cols": -2, "re": [1, 0, 0, 1]}, "operator cols must be nonnegative"),
        ("check-hypo", {"grid": {"q": 4, "P": 4}, "kind": "modulate"}, "missing field: 'value'"),
        ("check-frame", {"n": 2, "vectors": _UNIT_VECTORS[:1], "labels": [[0, 0]]}, "integer triple"),
        ("check-frame", {"n": 2, "vectors": _UNIT_VECTORS, "labels": [[0, 0, 0], [0, 1, 0, 0]]}, "integer triple"),
    ],
    ids=["rows-negative", "cols-negative", "value-missing", "label-pair", "label-quadruple"],
)
def test_malformed_documents_exit_two_naming_what_is_wrong(tmp_path, capsys, verb, doc, named):
    code, report = _run(capsys, [verb, _write(tmp_path, "doc.json", doc)])
    assert code == 2
    assert named in report["verdicts"]["error"]


def _scaled_window_params(scale):
    values = scale * ([1.0, 1j] @ np.random.default_rng(5).normal(size=(2, 16)))
    return {**PARAMS_DOC, "psi": {"q": 4, "P": 4, "re": values.real.tolist(), "im": values.imag.tolist()}}


@pytest.mark.parametrize("scale", [1.0, 1e-14, 1e-200, 1e200])
def test_gen_keeps_the_same_atoms_at_every_scale(tmp_path, capsys, scale):
    code, report = _run(capsys, ["gen", _write(tmp_path, "params.json", _scaled_window_params(scale))])
    assert code == 0
    assert report["verdicts"]["vectors"] == 16


@pytest.mark.parametrize("scale, degenerate", [(0.0, True), (1e-16, False)])
def test_only_an_all_zero_window_is_called_degenerate(tmp_path, capsys, scale, degenerate):
    samples = (scale * (1 + np.arange(16) % 3)).tolist()
    doc = {**PARAMS_DOC, "psi": {"q": 4, "P": 4, "re": samples}}
    code = main(["gen", _write(tmp_path, "params.json", doc)])
    captured = capsys.readouterr()
    assert code == 0
    assert ("degenerate window" in captured.err) is degenerate
    # Exactly zero atoms all fold into the first; the tiny window keeps all 16.
    assert json.loads(captured.out)["verdicts"]["vectors"] == (1 if degenerate else 16)


def _paths(doc, prefix=()):
    """Every path of keys and indices below ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


_SMALL_WINDOW = {**THETA_DOC, "grid": {"q": 1, "P": 2}}
# The documents each case reads, in argv order; unchanged, every case exits 0.
# A case is named by its verb, and a further case of a verb by "verb:what".
_FUZZ_DOCS = {
    "gen": [PARAMS_DOC],
    "check-frame": [{**_BASIS, "labels": [[0, 0, 0], [0, 1, 0]]}],
    "check-hypo": [THETA_DOC],
    "check-theta": [_BASIS, _IDENTITY],
    "check-k": [_BASIS, _SMALL_WINDOW],
    "douglas": [_IDENTITY, _SMALL_WINDOW],
    "pinv": [_BASIS, _IDENTITY],
    "check-comb": [
        {
            "params": PARAMS_DOC,
            "theta": THETA_DOC,
            "cells": [[i, i + 1] for i in range(0, 16, 2)],
            "coefficients": {"re": [1.0] * 16},
        }
    ],
    "check-comb:finite-sum": [
        {
            "kind": "finite-sum",
            "params": PARAMS_DOC,
            "theta": THETA_DOC,
            "alphas": {"re": [1.0, 2.0], "im": [0.0, 0.5]},
            "psis": [PARAMS_DOC["psi"], {"q": 4, "P": 4, "indicator": [1, 2]}],
        }
    ],
}
_FUZZ_PATHS = {case: list(_paths(docs)) for case, docs in _FUZZ_DOCS.items()}
_DELETE = object()
# Numbers stay small: grid sizes and label ranges multiply into array sizes.
_FUZZ_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.floats(-8.0, 8.0)
    | st.sampled_from([float("nan"), float("inf"), -float("inf")])
    | st.text(max_size=3)
)
_FUZZ_KEYS = st.sampled_from(
    sorted({p[-1] for ps in _FUZZ_PATHS.values() for p in ps if isinstance(p[-1], str)})
)
_FUZZ_VALUES = st.recursive(
    _FUZZ_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_FUZZ_KEYS, inner, max_size=3),
    max_leaves=8,
)


def _mutated(docs, mutations):
    docs = json.loads(json.dumps(docs))
    for path, value in mutations:
        parent = docs
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed this path
        if not isinstance(parent, (dict, list)):
            continue  # ... or put a string where it went
        if value is not _DELETE:
            parent[path[-1]] = value
        elif parent is docs:
            docs[path[0]] = {}  # the verb still gets a file for every argument
        else:
            del parent[path[-1]]
    return docs


@st.composite
def _fuzz_cases(draw):
    name = draw(st.sampled_from(sorted(_FUZZ_DOCS)))
    mutation = st.tuples(st.sampled_from(_FUZZ_PATHS[name]), _FUZZ_VALUES | st.just(_DELETE))
    return name, draw(st.lists(mutation, min_size=1, max_size=3))


def _run_documents(case, docs):
    verb = case.partition(":")[0]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for index, doc in enumerate(docs):
            paths.append(os.path.join(tmp, f"doc{index}.json"))
            with open(paths[-1], "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb, *paths])
    return code, json.loads(out.getvalue(), parse_constant=_reject_constant)


@pytest.mark.parametrize("case", sorted(_FUZZ_DOCS))
def test_fuzz_documents_pass_unchanged(case):
    assert _run_documents(case, _FUZZ_DOCS[case])[0] == 0


@settings(max_examples=300, deadline=None)
@given(_fuzz_cases())
@example(("gen", [((0, "b"), None)]))
@example(("gen", [((0, "c_list", 0), None)]))
@example(("gen", [((0, "psi", "indicator", 0), None)]))
@example(("check-hypo", [((0, "value"), None)]))
@example(("check-hypo", [((0, "value"), [1])]))
@example(("check-frame", [((0, "n"), 0), ((0, "vectors", 0, "re"), []), ((0, "vectors", 1, "re"), [])]))
@example(("check-comb", [((0, "params"), None)]))
@example(("check-comb", [((0, "cells"), None)]))
@example(("check-comb:finite-sum", [((0, "psis"), 5)]))
@example(("check-comb:finite-sum", [((0, "psis"), None)]))
def test_malformed_documents_keep_the_exit_code_contract(case):
    name, mutations = case
    code, report = _run_documents(name, _mutated(_FUZZ_DOCS[name], mutations))
    assert code in (0, 1, 2)
    assert report["command"] == name.partition(":")[0]


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_non_positive_trials_exit_two(capsys, trials):
    code, report = _run(capsys, ["prop-run", "gram-psd", "--trials", trials])
    assert code == 2
    assert "at least one trial" in report["verdicts"]["error"]


def test_env_seed_feeds_the_report(capsys, monkeypatch):
    monkeypatch.setenv("FRAMEKIT_SEED", "77")
    code, report = _run(capsys, ["prop-run", "gram-psd", "--trials", "3"])
    assert code == 0
    assert report["seed"] == 77


def test_bad_env_seed_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("FRAMEKIT_SEED", "not-a-number")
    code = main(["prop-run", "gram-psd", "--trials", "3"])
    capsys.readouterr()
    assert code == 2


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "framekit", "verify-example", "3.2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)  # stdout is exactly one JSON document
    assert report["verdicts"]["passed"] is True


def test_closed_stdout_exits_two_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "framekit", "verify-example", "3.2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr.strip().count("\n") == 0


_VERB_ARGV = [
    ["gen", "p.json"],
    ["check-frame", "s.json"],
    ["check-theta", "s.json", "t.json"],
    ["check-k", "s.json", "k.json"],
    ["check-hypo", "o.json"],
    ["douglas", "a.json", "b.json"],
    ["pinv", "s.json", "t.json"],
    ["check-comb", "spec.json"],
    ["verify-example", "3.2"],
    ["prop-run", "gram-psd"],
]


@pytest.mark.parametrize(
    "argv", [argv for argv in _VERB_ARGV if argv[0] != "gen"], ids=lambda argv: argv[0]
)
def test_out_is_refused_by_every_verb_but_gen(tmp_path, capsys, argv):
    out_path = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--out", str(out_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv", [argv for argv in _VERB_ARGV if argv[0] != "prop-run"], ids=lambda argv: argv[0]
)
def test_seed_is_refused_by_every_verb_but_prop_run(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--seed", "5"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def _verbs_of(parser):
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        [],
        ["no-such-verb"],
        ["gen"],
        ["check-theta", "s.json"],
        ["gen", "p.json", "--bogus"],
        *([verb, "--help"] for verb in cli._VERBS),
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_a_verb_call_parses_with_that_verb_alone_and_prints_what_all_ten_print(capsys, monkeypatch, argv):
    built = []

    def recorded(default_seed, verb=None):
        built.append(build(default_seed, verb))
        return built[-1]

    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", recorded)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    called = (exit_info.value.code, *capsys.readouterr())
    assert _verbs_of(built[0]) == ([argv[0]] if argv and argv[0] in cli._VERBS else list(cli._VERBS))
    full = build(0)
    assert len(_verbs_of(full)) == 10
    with pytest.raises(SystemExit) as exit_info:
        full.parse_args(argv)
    assert called == (exit_info.value.code, *capsys.readouterr())


# ---------------------------------------------------------------------------
# --margin on check-theta, check-k and check-hypo

_MARGIN_N = 6


def _margin_files(tmp_path):
    """The pairwise-sum system on C^6 and the two shifts, as CLI input files."""
    eye = np.eye(_MARGIN_N)
    vectors = np.array([eye[:, k] + eye[:, k + 1] for k in range(_MARGIN_N - 1)])
    back = np.eye(_MARGIN_N, k=1)
    system_doc = {"n": _MARGIN_N, "vectors": [{"re": v.tolist()} for v in vectors]}
    paths = [_write(tmp_path, "system.json", system_doc)]
    for name, shift in (("back", back), ("fwd", back.T)):
        paths.append(_write(tmp_path, f"{name}.json", operator_to_json(shift)))
    return FrameSystem(vectors), back, paths


@pytest.mark.parametrize("margin", [None, 0, 1, 2, _MARGIN_N - 1])
def test_margin_flag_gives_the_library_verdicts(tmp_path, capsys, margin):
    system, back, (system_path, back_path, fwd_path) = _margin_files(tmp_path)
    flag = [] if margin is None else ["--margin", str(margin)]

    code, report = _run(capsys, ["check-theta", system_path, back_path, *flag])
    rep = check_theta_frame(system, back, margin=margin)
    assert code == 0
    v = report["verdicts"]
    assert [v["alpha_opt"], v["beta_opt"]] == to_jsonable([rep.alpha_opt, rep.beta_opt])
    assert (v["lower_ok"], v["upper_ok"]) == (rep.lower_ok, rep.upper_ok)
    assert v["witnesses"] == to_jsonable(
        {"lower": rep.lower_witness, "upper": rep.upper_witness, "kernel": rep.kernel_obstruction}
    )

    code, report = _run(capsys, ["check-k", system_path, back_path, *flag])
    assert code == 0
    assert report["verdicts"] == to_jsonable(check_k_frame(system, back, margin=margin))

    code, report = _run(capsys, ["check-hypo", fwd_path, *flag])
    hypo = hyponormality(back.T, margin=margin)
    assert code == 0
    assert report["verdicts"] == to_jsonable(hypo)
    # null margin fields exactly when no margin is given; margin 0 still fills them
    assert (report["verdicts"]["margin_min_eig"] is None) == (margin is None)
    assert report["verdicts"]["margin_verdict"] is (None if margin is None else margin > 0)


@pytest.mark.parametrize("margin", [-1, _MARGIN_N])
@pytest.mark.parametrize("verb", ["check-theta", "check-k", "check-hypo"])
def test_margin_outside_the_dimension_exits_two(tmp_path, capsys, verb, margin):
    _, _, (system_path, back_path, _) = _margin_files(tmp_path)
    files = [back_path] if verb == "check-hypo" else [system_path, back_path]
    code = main([verb, *files, "--margin", str(margin)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["verdicts"] == {
        "error": f"margin must satisfy 0 <= margin < dimension, got {margin}"
    }
    assert captured.err == f"error: margin must satisfy 0 <= margin < dimension, got {margin}\n"


def test_margin_error_in_a_fresh_process_has_no_traceback(tmp_path):
    _, _, (system_path, back_path, _) = _margin_files(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "framekit", "check-theta", system_path, back_path, "--margin", "-1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: margin must satisfy 0 <= margin < dimension, got -1\n"
    assert json.loads(proc.stdout)["verdicts"]["error"].startswith("margin must satisfy")
