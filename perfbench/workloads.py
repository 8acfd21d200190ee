"""Seeded job lists for the four benchmark workloads.

Every input file is generated here from the workload seed with numpy alone,
so the program under test only ever sees files on disk.  A workload is a list
of jobs (``Job``) and a number of full passes over it: every run issues
exactly that many CLI jobs, so the mix of job classes, the sample count and
the percentile ``job_s.tail`` reports are the same in every run and for every
seed.

Job classes inside a workload are kept in a narrow band of cost, and their
proportions are chosen so that neither the median nor the tail rank sits on
the boundary between two classes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import check

OUT = "{out}"  # argv placeholder, replaced by a fresh output path per execution


@dataclass
class Job:
    """One CLI invocation: ``python -m framekit *argv``; an ``OUT`` argument writes a file."""

    kind: str
    argv: list[str]
    inputs: list[str]
    checker: Callable[[int, str, str | None], str | None]


@dataclass
class Workload:
    """A seeded job list; each run issues ``passes`` full passes of it as CLI jobs.

    Why the workload was chosen is recorded once, in BENCHMARK.json.
    """

    name: str
    build: Callable[[np.random.Generator, str, bool], list[Job]]
    passes: int


# ---------------------------------------------------------------------------
# Shared builders.


def complex_gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_gaussian(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _complex_doc(values: np.ndarray) -> dict:
    values = np.asarray(values, dtype=np.complex128).reshape(-1)
    return {"re": values.real.tolist(), "im": values.imag.tolist()}


def _signal_doc(q: int, P: int, values: np.ndarray) -> dict:
    return {"q": q, "P": P, **_complex_doc(values)}


def _params_doc(q, P, psi, a_list, periods, dedupe) -> dict:
    """Wave-packet parameters: full cyclic k range, ``periods`` modulation periods."""
    return {
        "grid": {"q": q, "P": P},
        "psi": _signal_doc(q, P, psi),
        "a_list": list(a_list),
        "b": 1.0,
        "k_range": [0, P - 1],
        "c_list": [float(c) for c in range(periods * q)],
        "dedupe": dedupe,
    }


def _write(path: str, doc, indent=None) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=indent, sort_keys=indent is not None)
    return path


def _named_window(rng: np.random.Generator, q: int, P: int) -> dict:
    """A unitary grid operator described by name, as the CLI accepts it."""
    kind = ("translate", "modulate", "dilate")[int(rng.integers(0, 3))]
    if kind == "translate":
        value = float(rng.integers(1, P))
    elif kind == "modulate":
        value = float(rng.integers(1, q * P))
    else:
        n = q * P
        value = int(rng.choice([a for a in (3, 5, 7, 9, 11, 13) if math.gcd(a, n) == 1]))
    return {"kind": kind, "value": value, "grid": {"q": q, "P": P}}


def _raw_window(rng: np.random.Generator, n: int, deficient: bool) -> np.ndarray:
    if deficient:
        r = n // 2
        return complex_gaussian(rng, n, r) @ complex_gaussian(rng, r, n) / n
    v = random_unitary(rng, n)
    eigs = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    return (v * eigs) @ v.conj().T


def _operator_doc(m: np.ndarray) -> dict:
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), **_complex_doc(m)}


# ---------------------------------------------------------------------------
# wavepacket-gen


def _build_wavepacket_gen(rng, tmp, tiny):
    # (q, P, dilations, modulation periods).  The three n=128 jobs span two
    # modulation periods, so half their 256 atoms are duplicates; the n=96
    # (two dilations) and n=192 jobs span one period and keep every atom.
    # All five cost within 1.3x of each other, and the n=128 class holds three
    # of five jobs, so both the median and the tail rank fall inside it.
    shapes = [
        (16, 8, (1,), 2),
        (8, 12, (1, 5), 1),
        (16, 8, (1,), 2),
        (16, 12, (1,), 1),
        (16, 8, (1,), 2),
    ]
    if tiny:
        shapes = [(4, P // 4, a_list, periods) for _, P, a_list, periods in shapes]
    jobs = []
    for index, (q, P, a_list, periods) in enumerate(shapes):
        psi = complex_gaussian(rng, q * P)
        doc = _params_doc(q, P, psi, a_list, periods, dedupe=True)
        path = _write(os.path.join(tmp, f"gen-{index}.json"), doc)
        jobs.append(
            Job(
                kind=f"gen-n{q * P}-a{len(a_list)}-p{periods}",
                argv=["gen", path, "--out", OUT],
                inputs=[path],
                checker=check.GenCheck(psi, q, P, a_list, periods),
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# theta-json


def _build_theta_json(rng, tmp, tiny):
    # Named windows on n=192 systems and raw dense windows (which add an n x n
    # matrix to decode) on an n=144 system cost about the same; they are four
    # of five jobs, so both the median and the tail rank fall among them.  The
    # cheaper check-frame job is the fifth.
    plan = [
        (16, 12, ("frame", "named")),
        (16, 12, ("named",)),
        (16, 9, ("normal", "deficient")),
    ]
    if tiny:
        plan = [(4, 8, labels) for _, _, labels in plan]
    jobs = []
    for s, (q, P, labels) in enumerate(plan):
        n = q * P
        psi = complex_gaussian(rng, n)
        vectors, atom_labels = check.wavepacket_atoms(psi, q, P, (1,), 1.0, range(P), range(q))
        sys_doc = {
            "n": n,
            "vectors": [_complex_doc(v) for v in vectors],
            "labels": [list(lab) for lab in atom_labels],
        }
        # gen writes systems with indent=2 and sorted keys; match that.
        sys_path = _write(os.path.join(tmp, f"system-{s}-{n}.json"), sys_doc, indent=2)
        for label in labels:
            if label == "frame":
                jobs.append(
                    Job(f"frame-n{n}", ["check-frame", sys_path], [sys_path], check.FrameCheck(vectors))
                )
                continue
            if label == "named":
                doc = _named_window(rng, q, P)
                theta = check.named_operator(doc)
            else:
                theta = _raw_window(rng, n, deficient=label == "deficient")
                doc = _operator_doc(theta)
            th_path = _write(os.path.join(tmp, f"theta-{s}-{label}.json"), doc)
            jobs.append(
                Job(
                    f"theta-{label}-n{n}",
                    ["check-theta", sys_path, th_path],
                    [sys_path, th_path],
                    check.ThetaCheck(vectors, theta, label),
                )
            )
    return jobs


# ---------------------------------------------------------------------------
# comb-kernels


def _build_comb_kernels(rng, tmp, tiny):
    # (q, P, kind, dilations): three n=192 partitions between a cheaper n=160
    # partition and a dearer n=192 finite sum, so both the median and the
    # tail rank fall inside the n=192 partition class.
    plan = [
        (16, 12, "partition", (1, 5)),
        (16, 12, "finite-sum", (1,)),
        (16, 12, "partition", (1, 5)),
        (16, 10, "partition", (1, 3)),
        (16, 12, "partition", (1, 5)),
    ]
    if tiny:
        plan = [(4, P // 2, kind, a_list) for _, P, kind, a_list in plan]
    jobs = []
    for q, P, kind, a_list in plan:
        n = q * P
        psi = complex_gaussian(rng, n)
        theta_doc = _named_window(rng, q, P)
        params = _params_doc(q, P, psi, a_list, 1, dedupe=False)
        if kind == "partition":
            # Pair each atom of the first dilation with its partner of the second.
            cells = [[i, i + n] for i in range(n)]
            coeffs = rng.uniform(0.5, 1.5, 2 * n) * np.exp(2j * np.pi * rng.uniform(0, 1, 2 * n))
            spec = {"cells": cells, "coefficients": _complex_doc(coeffs)}
            checker = check.PartitionCheck(psi, q, P, a_list, cells, coeffs)
        else:
            psi2 = complex_gaussian(rng, n)
            alphas = rng.uniform(0.5, 1.5, 2) * np.exp(2j * np.pi * rng.uniform(0, 1, 2))
            spec = {"alphas": _complex_doc(alphas), "psis": [_signal_doc(q, P, psi), _signal_doc(q, P, psi2)]}
            checker = check.FiniteSumCheck((psi, psi2), alphas, q, P)
        spec.update(kind=kind, params=params, theta=theta_doc)
        path = _write(os.path.join(tmp, f"comb-{len(jobs)}-{kind}.json"), spec)
        jobs.append(Job(f"comb-{kind}-n{n}", ["check-comb", path], [path], checker))
    return jobs


# ---------------------------------------------------------------------------
# small-suites

# Trials per suite, scaled so each prop-run job computes for roughly as long
# as a verify-example job (about 10 ms on a 2-core x86-64 VM).
SUITE_TRIALS = {
    "douglas": 8,
    "djordjevic": 20,
    "theta-frame-selfcheck": 10,
    "pinv-identities": 24,
    "eig-reconstruct": 28,
    "gram-psd": 70,
    "pencil-rayleigh": 6,
    "synthesis-criterion": 2,
    "combination-domination": 4,
    "finite-sum": 3,
}
CASES = (
    "shift-basis",
    "pairwise-sum",
    "unit-window",
    "hyponormal-tight",
    "commuting-transform",
    "shifted-window",
    "modulation-sum",
)


def _build_small_suites(rng, tmp, tiny):
    jobs = []
    for suite, trials in SUITE_TRIALS.items():
        trials = 1 if tiny else trials
        seed = int(rng.integers(0, 2**31))
        jobs.append(
            Job(
                kind=f"prop-run-{suite}",
                argv=["prop-run", suite, "--trials", str(trials), "--seed", str(seed)],
                inputs=[],
                checker=check.SuiteCheck(suite, trials),
            )
        )
    for case in CASES:
        jobs.append(
            Job(kind=f"verify-{case}", argv=["verify-example", case], inputs=[], checker=check.CaseCheck(case))
        )
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wavepacket-gen", _build_wavepacket_gen, passes=6),
        Workload("theta-json", _build_theta_json, passes=6),
        Workload("comb-kernels", _build_comb_kernels, passes=6),
        Workload("small-suites", _build_small_suites, passes=3),
    )
}
