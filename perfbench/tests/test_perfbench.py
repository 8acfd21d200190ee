"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[2]
BENCH = REPO / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _repo_paths(monkeypatch):
    monkeypatch.setattr(run, "ROOT", str(REPO))
    monkeypatch.setattr(run, "SRC", str(REPO / "src"))


def _result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    out = tmp_path / "record.json"
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "5",
         "--trace", str(trace), "--tiny", "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = _result_line(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())
    record = json.loads(out.read_text())
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}[workload]
    assert record["environment"]["workload"]["why"] == why
    # A tiny run makes one pass of the job list as CLI jobs.
    assert len(record["samples"]["job_s"]) == (0 if trace else len(record["environment"]["workload"]["jobs"]))


def test_corrupted_report_is_counted_as_a_failure(tmp_path):
    jobs = WORKLOADS["theta-json"].build(np.random.default_rng(0), str(tmp_path), True)
    job = next(j for j in jobs if j.kind.startswith("theta-named"))
    good = run.run_cli_job(job.argv, run.job_env(1))
    assert run.check_results([job], [good], [None])[0] == []

    report = json.loads(good["stdout"])
    report["verdicts"]["alpha_opt"] *= 1.001
    corrupted = [
        dict(good, stdout=json.dumps(report)),
        dict(good, stdout=good["stdout"] + "\n{}"),
        dict(good, code=1),
        {"code": None, "stdout": "", "seconds": None, "error": "timed out"},
    ]
    failures, _, _ = run.check_results([job] * len(corrupted), corrupted, [None] * len(corrupted))
    assert len(failures) == len(corrupted)
    assert "alpha_opt" in failures[0] and "one JSON document" in failures[1] and "exit code" in failures[2]


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-suites", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 41)]) == (75.0, 30.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_cli_jobs_are_paced_over_the_run_and_never_dropped():
    done = {"cli": 3, "api": 10}
    assert run.next_phase(1.0, 10.0, done, 30, 5) == "cli"  # behind schedule
    assert run.next_phase(0.5, 10.0, done, 30, 5) == "api"  # ahead of schedule
    # Past --seconds, a slow run still issues every CLI job, then stops.
    assert run.next_phase(15.0, 10.0, done, 30, 5) == "cli"
    assert run.next_phase(15.0, 10.0, {"cli": 30, "api": 10}, 30, 5) is None
    # In-process jobs end on a whole pass, and at least one pass runs.
    assert run.next_phase(15.0, 10.0, {"cli": 30, "api": 12}, 30, 5) == "api"
    assert run.next_phase(15.0, 10.0, {"cli": 30, "api": 0}, 30, 5) == "api"
    assert run.next_phase(run.MAX_SECONDS, 10.0, done, 30, 5) is None
    # A traced run has no CLI jobs.
    assert run.next_phase(15.0, 10.0, {"cli": 0, "api": 12}, 0, 5) == "api"
    assert run.next_phase(15.0, 10.0, {"cli": 0, "api": 15}, 0, 5) is None


def test_tracer_patches_importers_and_restores_them():
    import framekit.theta_frame as theta_frame
    from framekit import operator_theory

    original = operator_theory.pencil_inf
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert theta_frame.pencil_inf is operator_theory.pencil_inf is not original
        theta_frame.pencil_inf(np.eye(3), np.eye(3))
    finally:
        tracer.uninstall()
    assert theta_frame.pencil_inf is original and operator_theory.pencil_inf is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "framekit.operator_theory.pencil_inf" and "eigh" in names


def test_compare_verdicts():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, list(parent), "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(parent, [v * 1.3 for v in parent], "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, [v * 1.3 for v in parent], "higher", 0.1)[0] == "improved"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(noisy, list(noisy), "lower", 0.1)[0] == "unresolved"


def _records(starts: dict) -> dict:
    return {seed: {"environment": {"started_unix_s": t}} for seed, t in starts.items()}


def test_compare_pairs_only_runs_of_the_same_seed_that_alternate_in_time():
    alternating = _records({0: 0.0, 1: 2.0}), _records({0: 1.0, 1: 3.0})
    assert compare.unpaired_reason(*alternating) is None
    swapped_order = _records({0: 1.0, 1: 2.0}), _records({0: 0.0, 1: 3.0})
    assert compare.unpaired_reason(*swapped_order) is None
    blocks = _records({0: 0.0, 1: 1.0}), _records({0: 2.0, 1: 3.0})
    assert "alternate" in compare.unpaired_reason(*blocks)
    other_seeds = _records({0: 0.0, 1: 2.0}), _records({0: 1.0, 2: 3.0})
    assert "different seeds" in compare.unpaired_reason(*other_seeds)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(spans.PER_LAYER_UNITS)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert os.path.isfile(REPO / SPEC["command"][1])
