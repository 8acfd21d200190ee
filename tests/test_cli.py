"""CLI surface: one JSON report on stdout, exit codes 0/1/2, env seeding."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framekit.cli import _digest, main, to_jsonable
from framekit.numerics import operator_from_json
from framekit.registry import ExampleOutcome


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


def test_pinv_verb(tmp_path, capsys):
    params = _write(tmp_path, "params.json", PARAMS_DOC)
    out_path = str(tmp_path / "system.json")
    _run(capsys, ["gen", params, "--out", out_path])
    theta = _write(tmp_path, "theta.json", THETA_DOC)
    code, report = _run(capsys, ["pinv", out_path, theta, "--seed", "5"])
    assert code == 0
    assert report["verdicts"]["chain_ok"] is True
    assert report["seed"] == 5


# ---------------------------------------------------------------------------
# verification verbs and exit codes


def test_verify_example_passes(capsys):
    code, report = _run(capsys, ["verify-example", "shift-basis"])
    assert code == 0
    assert report["verdicts"]["passed"] is True
    assert report["verdicts"]["case_id"]


def test_verify_example_failure_exits_one(capsys, monkeypatch):
    import framekit.cli as cli_mod

    failing = ExampleOutcome(case_id="x", title="t", passed=False, assertions=())
    monkeypatch.setattr(cli_mod, "run_case", lambda case_id: failing)
    code, report = _run(capsys, ["verify-example", "x"])
    assert code == 1
    assert report["verdicts"]["passed"] is False


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
    # Finite entries whose frame operator overflows: a refusal, not a NaN verdict.
    argv = [verb, _write(tmp_path, "system.json", _HUGE_BASIS)]
    if verb != "check-frame":
        argv.append(_write(tmp_path, "window.json", _IDENTITY))
    code = main(argv)
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 2
    assert "non-finite" in report["verdicts"]["error"]


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


def _paths(doc, prefix=()):
    """Every path of keys and indices below ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


_SMALL_WINDOW = {**THETA_DOC, "grid": {"q": 1, "P": 2}}
# The documents each verb reads, in argv order; unchanged, every verb exits 0.
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
}
_FUZZ_PATHS = {verb: list(_paths(docs)) for verb, docs in _FUZZ_DOCS.items()}
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
    verb = draw(st.sampled_from(sorted(_FUZZ_DOCS)))
    mutation = st.tuples(st.sampled_from(_FUZZ_PATHS[verb]), _FUZZ_VALUES | st.just(_DELETE))
    return verb, draw(st.lists(mutation, min_size=1, max_size=3))


def _run_documents(verb, docs):
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


@pytest.mark.parametrize("verb", sorted(_FUZZ_DOCS))
def test_fuzz_documents_pass_unchanged(verb):
    assert _run_documents(verb, _FUZZ_DOCS[verb])[0] == 0


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
def test_malformed_documents_keep_the_exit_code_contract(case):
    verb, mutations = case
    code, report = _run_documents(verb, _mutated(_FUZZ_DOCS[verb], mutations))
    assert code in (0, 1, 2)
    assert report["command"] == verb


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


@pytest.mark.parametrize(
    "argv",
    [
        ["check-frame", "s.json"],
        ["check-theta", "s.json", "t.json"],
        ["check-k", "s.json", "k.json"],
        ["check-hypo", "o.json"],
        ["douglas", "a.json", "b.json"],
        ["pinv", "s.json", "t.json"],
        ["check-comb", "spec.json"],
        ["verify-example", "3.2"],
        ["prop-run", "gram-psd"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_is_refused_by_every_verb_but_gen(tmp_path, capsys, argv):
    out_path = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--out", str(out_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not out_path.exists()
