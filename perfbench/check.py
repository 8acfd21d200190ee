"""Independent output checks for benchmark jobs.

Every checker recomputes the expected verdicts with plain numpy, along a
different route from framekit's (singular values instead of eigh, Cholesky
or inverse similarity instead of whitening, a vectorised gather-and-phase
construction instead of the signal operators).  A checker is called as
``checker(exit_code, stdout, out_path)`` and returns ``None`` when the output
is correct, or a one-line reason when it is not.

Comparisons use tolerances: moving BLAS from one to two threads changes
verdicts in the 12th digit, so bit-exact comparisons would be flaky.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math

import numpy as np

# A verdict may differ from the recomputation by this share of its scale.
VERDICT_REL = 1e-8
# Relative distance below which two generated atoms count as duplicates.
DUPLICATE_REL = 1e-6
REPORT_KEYS = {"command", "inputs_digest", "verdicts", "seed", "duration_ms"}


def envelope(code: int, stdout: str, command: str):
    """Parse the single JSON report on stdout; return ``(report, error)``.

    Every benchmark input is valid, so every job must exit 0.
    """
    if code != 0:
        return None, f"exit code {code}, expected 0"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, f"stdout is not exactly one JSON document: {exc}"
    if not isinstance(report, dict) or set(report) != REPORT_KEYS:
        return None, "report does not have the expected top-level keys"
    if report["command"] != command:
        return None, f"report is for {report['command']!r}, expected {command!r}"
    digest = report["inputs_digest"]
    if not (isinstance(digest, str) and len(digest) == 64):
        return None, "inputs_digest is not a sha256 hex digest"
    return report, None


def _num(value) -> float:
    if value == "inf":
        return math.inf
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"not a number: {value!r}")


def _vec(doc) -> np.ndarray:
    return np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)


def _close(name: str, observed, expected: float, scale: float, rel: float = VERDICT_REL):
    try:
        got = _num(observed)
    except ValueError as exc:
        return f"{name}: {exc}"
    if math.isinf(expected) or math.isinf(got):
        return None if got == expected else f"{name} = {got!r}, expected {expected!r}"
    if abs(got - expected) > rel * max(abs(expected), scale):
        return f"{name} = {got!r}, expected {expected!r} (scale {scale:.3e})"
    return None


def _first(*errors):
    return next((e for e in errors if e), None)


# ---------------------------------------------------------------------------
# Independent constructions.


def wavepacket_atoms(psi, q, P, a_list, b, ks, cs):
    """All atoms ``dilate_a(translate_{bk}(modulate_c(psi)))`` in (j, k, m) order.

    Each atom is a gather plus a phase multiply: sample ``idx = (a*i - b*k*q)
    mod n`` of ``psi * exp(2 pi i c t)``, scaled into coordinates by 1/sqrt(q).
    """
    n = q * P
    i = np.arange(n)
    ks, cs = list(ks), list(cs)
    vectors, labels = [], []
    for j, a in enumerate(a_list):
        for k in ks:
            idx = (a * i - round(b * k * q)) % n
            for m, c in enumerate(cs):
                vectors.append(psi[idx] * np.exp(2j * np.pi * c * idx / q) / math.sqrt(q))
                labels.append((j, k, m))
    return np.array(vectors), labels


def frame_operator(vectors: np.ndarray) -> np.ndarray:
    return vectors.T @ vectors.conj()


def extreme_frame_bounds(vectors: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues of S = sum f_k f_k*, from the singular values of the rows."""
    s = np.linalg.svd(vectors, compute_uv=False)
    lower = float(s[-1]) ** 2 if vectors.shape[0] >= vectors.shape[1] else 0.0
    return lower, float(s[0]) ** 2


def _whitened_eigvals(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Eigenvalues of inv(L) x inv(L)* for the Cholesky factor L of positive definite ``y``."""
    ell = np.linalg.cholesky(y)
    z = np.linalg.solve(ell, np.linalg.solve(ell, x).conj().T).conj().T
    return np.linalg.eigvalsh((z + z.conj().T) / 2)


def min_pencil(x: np.ndarray, y: np.ndarray) -> float:
    """Greatest ``lam`` with ``lam * y <= x``, for positive definite ``y``."""
    return float(_whitened_eigvals(x, y)[0])


def max_pencil(x: np.ndarray, y: np.ndarray) -> float:
    """Least ``lam`` with ``x <= lam * y``, for positive definite ``y``."""
    return float(_whitened_eigvals(x, y)[-1])


def named_operator(doc: dict) -> np.ndarray:
    """Matrix of a named grid operator, built from its definition."""
    q, P = doc["grid"]["q"], doc["grid"]["P"]
    n = q * P
    i = np.arange(n)
    if doc["kind"] == "translate":
        src = (i - round(doc["value"] * q)) % n
    elif doc["kind"] == "dilate":
        src = (doc["value"] * i) % n
    else:
        return np.diag(np.exp(2j * np.pi * doc["value"] * i / q))
    m = np.zeros((n, n), dtype=np.complex128)
    m[i, src] = 1.0
    return m


def _rayleigh(x, y, w) -> float:
    return float(np.vdot(w, x @ w).real / np.vdot(w, y @ w).real)


# ---------------------------------------------------------------------------
# Checkers, one per job class.  References are computed on first use.


class GenCheck:
    """``gen --out``: vectors and labels against the gather-and-phase atoms."""

    def __init__(self, psi, q, P, a_list, periods):
        self.args = (psi, q, P, tuple(a_list), periods)
        self.ok_digest = None

    @functools.cached_property
    def expected(self):
        psi, q, P, a_list, periods = self.args
        vectors, labels = wavepacket_atoms(psi, q, P, a_list, 1.0, range(P), range(periods * q))
        norms = np.linalg.norm(vectors, axis=1)
        gram = vectors.conj() @ vectors.T
        dist2 = norms[:, None] ** 2 + norms[None, :] ** 2 - 2 * gram.real
        close = dist2 <= (DUPLICATE_REL * np.maximum(1.0, norms[None, :])) ** 2
        duplicate = np.tril(close, k=-1).any(axis=1)
        keep = ~duplicate
        return vectors[keep], [lab for lab, k in zip(labels, keep) if k]

    def __call__(self, code, stdout, out_path):
        report, err = envelope(code, stdout, "gen")
        if err:
            return err
        vectors, labels = self.expected
        v = report["verdicts"]
        if v.get("written") != out_path or v.get("vectors") != len(labels) or v.get("dimension") != vectors.shape[1]:
            return f"gen verdicts {v!r} do not match {len(labels)} vectors in C^{vectors.shape[1]}"
        with open(out_path, "rb") as handle:
            raw = handle.read()
        digest = hashlib.sha256(raw).hexdigest()
        if digest == self.ok_digest:
            return None
        doc = json.loads(raw)
        if doc.get("n") != vectors.shape[1]:
            return f"system n = {doc.get('n')!r}, expected {vectors.shape[1]}"
        if [tuple(lab) for lab in doc.get("labels", [])] != labels:
            return "system labels differ from the expected kept atoms"
        got = np.array([_vec(d) for d in doc["vectors"]])
        if got.shape != vectors.shape:
            return f"system has shape {got.shape}, expected {vectors.shape}"
        scale = max(1.0, float(np.max(np.abs(vectors))))
        dev = float(np.max(np.abs(got - vectors)))
        if dev > 1e-9 * scale:
            return f"system vectors deviate by {dev:.3e} from the reference atoms"
        self.ok_digest = digest
        return None


class FrameCheck:
    """``check-frame``: extreme eigenvalues of S from the singular values of the rows."""

    def __init__(self, vectors):
        self.vectors = vectors

    @functools.cached_property
    def bounds(self):
        return extreme_frame_bounds(self.vectors)

    def __call__(self, code, stdout, out_path):
        report, err = envelope(code, stdout, "check-frame")
        if err:
            return err
        lower, upper = self.bounds
        v = report["verdicts"]
        if v.get("is_frame") is not True or v.get("tight") is not False:
            return f"frame flags {v.get('is_frame')!r}/{v.get('tight')!r}, expected True/False"
        return _first(_close("lower", v.get("lower"), lower, upper), _close("upper", v.get("upper"), upper, upper))


class ThetaCheck:
    """``check-theta``: optimal window constants, witnesses and obstruction.

    * unitary (named) windows: alpha and beta are the extreme eigenvalues of S;
    * invertible windows: the extreme eigenvalues of inv(T) S inv(T)*;
    * rank-deficient windows: beta is infinite, certified by an obstruction w
      with ||T w|| ~ 0 and <S w, w> > 0; alpha = 1 / lambda_max(S^-1 T T*).
    """

    def __init__(self, vectors, theta, label):
        self.vectors = vectors
        self.theta = theta
        self.label = label

    @functools.cached_property
    def ref(self):
        s = frame_operator(self.vectors)
        theta = self.theta
        c = theta @ theta.conj().T
        d = theta.conj().T @ theta
        if self.label == "named":
            alpha, beta = extreme_frame_bounds(self.vectors)
        elif self.label == "normal":
            m = np.linalg.solve(theta, np.linalg.solve(theta, s).conj().T).conj().T
            vals = np.linalg.eigvalsh((m + m.conj().T) / 2)
            alpha, beta = float(vals[0]), float(vals[-1])
        else:
            alpha, beta = 1.0 / max_pencil(c, s), math.inf
        norms = float(np.linalg.norm(theta, 2)), float(np.linalg.norm(s, 2))
        return s, c, d, alpha, beta, norms

    def __call__(self, code, stdout, out_path):
        report, err = envelope(code, stdout, "check-theta")
        if err:
            return err
        s, c, d, alpha, beta, (theta_norm, s_norm) = self.ref
        v = report["verdicts"]
        scale = alpha if math.isinf(beta) else beta
        err = _first(
            _close("alpha_opt", v.get("alpha_opt"), alpha, scale),
            _close("beta_opt", v.get("beta_opt"), beta, scale),
        )
        if err:
            return err
        if v.get("lower_ok") is not True or v.get("upper_ok") is not math.isfinite(beta) or v.get("lower_degenerate"):
            return f"verdict flags {v.get('lower_ok')!r}/{v.get('upper_ok')!r}/{v.get('lower_degenerate')!r} are wrong"
        wit = v.get("witnesses", {})
        try:
            w_lo = _vec(wit["lower"])
            err = _close("lower witness quotient", _rayleigh(s, c, w_lo), alpha, scale, 1e-6)
            if err:
                return err
            if math.isfinite(beta):
                w_hi = _vec(wit["upper"])
                return _close("upper witness quotient", _rayleigh(s, d, w_hi), beta, scale, 1e-6)
            w = _vec(wit["kernel"])
        except (KeyError, TypeError) as exc:
            return f"missing witness: {exc}"
        w = w / np.linalg.norm(w)
        leak = float(np.linalg.norm(self.theta @ w))
        energy = float(np.vdot(w, s @ w).real)
        if leak > 1e-6 * theta_norm or energy <= 1e-9 * s_norm:
            return f"obstruction is not in ker(theta) with energy: |T w| = {leak:.3e}, <Sw,w> = {energy:.3e}"
        return None


def _check_unitary_report(name, rep, bounds):
    lower, upper = bounds
    return _first(
        _close(f"{name}.alpha_opt", rep.get("alpha_opt"), lower, upper),
        _close(f"{name}.beta_opt", rep.get("beta_opt"), upper, upper),
    )


class PartitionCheck:
    """``check-comb`` partition: domination constant and both frame reports."""

    def __init__(self, psi, q, P, a_list, cells, coeffs):
        self.args = (psi, q, P, a_list, cells, coeffs)

    @functools.cached_property
    def ref(self):
        psi, q, P, a_list, cells, coeffs = self.args
        base, _ = wavepacket_atoms(psi, q, P, a_list, 1.0, range(P), range(q))
        t = np.zeros((len(cells), base.shape[0]), dtype=np.complex128)
        for row, cell in enumerate(cells):
            t[row, cell] = coeffs[cell]
        phi = t @ base
        lam = min_pencil(frame_operator(phi), frame_operator(base))
        agg_norm = float(np.max(np.sqrt(np.sum(np.abs(t) ** 2, axis=1))))
        return extreme_frame_bounds(base), extreme_frame_bounds(phi), lam, agg_norm

    def __call__(self, code, stdout, out_path):
        report, err = envelope(code, stdout, "check-comb")
        if err:
            return err
        base_bounds, phi_bounds, lam, agg_norm = self.ref
        v = report["verdicts"]
        if v.get("agrees") is not True or v.get("dominates") is not (lam > 1e-9):
            return f"partition flags agrees={v.get('agrees')!r} dominates={v.get('dominates')!r}"
        return _first(
            _close("lambda_opt", v.get("lambda_opt"), lam, phi_bounds[1]),
            _close("aggregation_norm", v.get("aggregation_norm"), agg_norm, agg_norm),
            _check_unitary_report("phi_report", v.get("phi_report", {}), phi_bounds),
            _check_unitary_report("base_report", v.get("base_report", {}), base_bounds),
        )


class FiniteSumCheck:
    """``check-comb`` finite-sum: per-window domination constants and frame reports."""

    def __init__(self, psis, alphas, q, P):
        self.args = (psis, alphas, q, P)

    @functools.cached_property
    def ref(self):
        psis, alphas, q, P = self.args
        singles = [wavepacket_atoms(psi, q, P, (1,), 1.0, range(P), range(q))[0] for psi in psis]
        summed = sum(a * f for a, f in zip(alphas, singles))
        s_sum = frame_operator(summed)
        mus = [min_pencil(s_sum, frame_operator(f)) for f in singles]
        return [extreme_frame_bounds(f) for f in singles], extreme_frame_bounds(summed), mus

    def __call__(self, code, stdout, out_path):
        report, err = envelope(code, stdout, "check-comb")
        if err:
            return err
        single_bounds, sum_bounds, mus = self.ref
        v = report["verdicts"]
        if v.get("agrees") is not True or v.get("exists") is not True:
            return f"finite-sum flags agrees={v.get('agrees')!r} exists={v.get('exists')!r}"
        got = v.get("mu_opts", [])
        reps = v.get("single_reports", [])
        if len(got) != len(mus) or len(reps) != len(mus):
            return f"{len(got)} domination constants and {len(reps)} reports, expected {len(mus)}"
        return _first(
            *(_close(f"mu_opts[{i}]", g, mu, sum_bounds[1]) for i, (g, mu) in enumerate(zip(got, mus))),
            _check_unitary_report("sum_report", v.get("sum_report", {}), sum_bounds),
            *(
                _check_unitary_report(f"single_reports[{i}]", rep, bounds)
                for i, (rep, bounds) in enumerate(zip(reps, single_bounds))
            ),
        )


class SuiteCheck:
    """``prop-run``: the suite passed every requested trial."""

    def __init__(self, suite, trials):
        self.suite = suite
        self.trials = trials

    def __call__(self, code, stdout, out_path):
        report, err = envelope(code, stdout, "prop-run")
        if err:
            return err
        v = report["verdicts"]
        if v.get("name") != self.suite or v.get("trials") != self.trials or v.get("failures") != []:
            return f"suite {self.suite} did not pass {self.trials} trials: {v!r:.200}"
        return None


class CaseCheck:
    """``verify-example``: the pinned case passed every assertion."""

    def __init__(self, case):
        self.case = case

    def __call__(self, code, stdout, out_path):
        report, err = envelope(code, stdout, "verify-example")
        if err:
            return err
        v = report["verdicts"]
        records = v.get("assertions") or []
        if v.get("case_id") != self.case or v.get("passed") is not True or not all(r.get("passed") for r in records):
            return f"case {self.case} did not pass: {v!r:.200}"
        return None
