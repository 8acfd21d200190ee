"""CLI surface: one JSON report on stdout, exit codes 0/1/2, env seeding."""

import json
import subprocess
import sys

import numpy as np
import pytest

from framekit.cli import main, to_jsonable
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
    [[1, 2], {"n": 2, "vectors": [1]}, {"n": 2, "vectors": [[1, 2]]}, {"n": 2, "vectors": 5}],
)
def test_malformed_system_document_exits_two(tmp_path, capsys, doc):
    path = _write(tmp_path, "system.json", doc)
    code, report = _run(capsys, ["check-frame", path])
    assert code == 2
    assert "system JSON" in report["verdicts"]["error"]


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
