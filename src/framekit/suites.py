"""Seeded randomized invariant suites.

Each suite is a per-trial callable; the runner derives an independent
generator per trial from (seed, trial index), so a reported failure replays
exactly by rerunning the suite with the same seed.  Trial bodies raise
AssertionError with a quantitative message; anything else propagating is a
bug in the library, not a property violation, and is allowed to escape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frame_core import FrameSystem, frame_operator
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    herm_eig,
    hermitize,
    is_psd,
    op_norm,
    pinv,
)
from .operator_theory import (
    djordjevic_hyponormal,
    douglas_check,
    hyponormality,
    pencil_inf,
    pencil_sup,
)
from .signal_space import Grid, Signal, indicator, mult_operator
from .theta_frame import check_theta_frame
from .wavepacket import (
    FiniteSumSpec,
    PartitionCombination,
    WavePacketParams,
    finite_sum_criterion_check,
    generate_system,
    partition_domination_check,
    synthesis_criterion_check,
)

# ---------------------------------------------------------------------------
# Random object builders (shared with the test-suite).


def complex_gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_gaussian(rng, n, n))
    # Normalize the QR phase ambiguity so the distribution is Haar-like.
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_normal_operator(rng: np.random.Generator, n: int) -> np.ndarray:
    v = random_unitary(rng, n)
    eigs = rng.uniform(0.3, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    return v @ np.diag(eigs) @ v.conj().T


def random_parseval(rng: np.random.Generator, m: int, n: int) -> FrameSystem:
    if m < n:
        raise ValueError("a Parseval system spanning C^n needs at least n vectors")
    q, _ = np.linalg.qr(complex_gaussian(rng, m, n))
    return FrameSystem(np.conj(q))


def random_system(rng: np.random.Generator, m: int, n: int) -> FrameSystem:
    return FrameSystem(complex_gaussian(rng, m, n) / np.sqrt(n))


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    k = n if rank is None else rank
    a = complex_gaussian(rng, k, n)
    return hermitize(a.conj().T @ a)


def random_window(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    if kind == "unitary":
        return random_unitary(rng, n)
    if kind == "normal":
        return random_normal_operator(rng, n)
    if kind == "projection":
        r = int(rng.integers(1, n))
        v = random_unitary(rng, n)[:, :r]
        return v @ v.conj().T
    if kind == "diagonal":
        return np.diag(rng.uniform(0.3, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n)))
    if kind == "deficient":
        r = int(rng.integers(1, n))
        return complex_gaussian(rng, n, r) @ complex_gaussian(rng, r, n) / n
    raise ValueError(f"unknown window kind {kind!r}")


# ---------------------------------------------------------------------------
# Trial bodies.


def _trial_douglas(rng: np.random.Generator, tol: Tolerance) -> None:
    rows = int(rng.integers(3, 25))
    if rng.integers(0, 2) == 0:
        inner = int(rng.integers(2, rows + 1))
        cols = int(rng.integers(2, rows + 1))
        t2 = complex_gaussian(rng, rows, inner)
        t1 = t2 @ complex_gaussian(rng, inner, cols)
        rep = douglas_check(t1, t2, tol)
        assert rep.range_included, "constructed inclusion not detected by rank test"
        assert math.isfinite(rep.lambda_min), "constructed inclusion has no majorization constant"
        assert rep.factor is not None, "constructed inclusion yielded no factor"
        assert rep.factor_residual <= tol.verdict_rel * max(1.0, op_norm(t1)), (
            f"factor residual {rep.factor_residual:.3e} too large"
        )
        assert rep.consistent, "three equivalent conditions disagree on an inclusion instance"
    else:
        inner = int(rng.integers(1, rows))
        t2 = complex_gaussian(rng, rows, inner) @ complex_gaussian(rng, inner, rows)
        t1 = complex_gaussian(rng, rows, rows)
        rep = douglas_check(t1, t2, tol)
        assert not rep.range_included, "rank test missed a constructed exclusion"
        assert math.isinf(rep.lambda_min), "exclusion instance got a finite majorization constant"
        assert rep.factor is None, "exclusion instance produced an accepted factor"
        assert rep.consistent, "three equivalent conditions disagree on an exclusion instance"


def _trial_djordjevic(rng: np.random.Generator, tol: Tolerance) -> None:
    n = int(rng.integers(2, 13))
    if rng.integers(0, 3) == 0:
        a = random_normal_operator(rng, n)
    else:
        a = complex_gaussian(rng, n, n)
    verdict, min_eig = djordjevic_hyponormal(a, tol)
    direct = hyponormality(a, tol)
    assert verdict == direct.global_verdict, (
        f"pseudoinverse criterion {verdict} vs commutator verdict {direct.global_verdict} "
        f"(witness eigs {min_eig:.3e} / {direct.commutator_min_eig:.3e})"
    )
    floor = tol.psd_floor * max(1.0, op_norm(a) ** 2)
    if verdict:
        assert min_eig >= -10 * floor and direct.commutator_min_eig >= -floor, (
            f"positive verdict but negative witnesses {min_eig:.3e} / "
            f"{direct.commutator_min_eig:.3e}"
        )
    else:
        assert min_eig < 0 and direct.commutator_min_eig < 0, (
            f"negative verdict but nonnegative witnesses {min_eig:.3e} / "
            f"{direct.commutator_min_eig:.3e}"
        )


def _window_kind(rng: np.random.Generator) -> str:
    return ["unitary", "normal", "projection", "diagonal", "deficient"][
        int(rng.integers(0, 5))
    ]


def _trial_theta_selfcheck(rng: np.random.Generator, tol: Tolerance) -> None:
    n = int(rng.integers(4, 17))
    m = int(rng.integers(n // 2, 2 * n + 1))
    system = random_system(rng, max(m, 1), n)
    theta = random_window(rng, n, _window_kind(rng))
    rep = check_theta_frame(system, theta, tol)
    s = frame_operator(system)
    c = hermitize(theta @ theta.conj().T)
    d = hermitize(theta.conj().T @ theta)
    if rep.passes() and not rep.lower_degenerate:
        for _ in range(64):
            f = complex_gaussian(rng, n)
            quad = float(np.vdot(f, s @ f).real)
            lower = rep.alpha_opt * float(np.vdot(f, c @ f).real)
            upper = rep.beta_opt * float(np.vdot(f, d @ f).real)
            slack = tol.verdict_rel * max(1.0, quad, lower, upper)
            assert lower <= quad + slack, (
                f"lower sandwich violated: {lower:.6e} > {quad:.6e}"
            )
            assert quad <= upper + slack, (
                f"upper sandwich violated: {quad:.6e} > {upper:.6e}"
            )
    if rep.lower_witness is not None and math.isfinite(rep.alpha_opt):
        w = rep.lower_witness
        denom = float(np.vdot(w, c @ w).real)
        if denom > 1e-12:
            quotient = float(np.vdot(w, s @ w).real) / denom
            assert abs(quotient - rep.alpha_opt) <= 1e-6 * max(1.0, rep.alpha_opt), (
                f"lower witness quotient {quotient:.9e} misses alpha {rep.alpha_opt:.9e}"
            )
    if rep.upper_witness is not None and math.isfinite(rep.beta_opt):
        w = rep.upper_witness
        denom = float(np.vdot(w, d @ w).real)
        if denom > 1e-12:
            quotient = float(np.vdot(w, s @ w).real) / denom
            assert abs(quotient - rep.beta_opt) <= 1e-6 * max(1.0, rep.beta_opt), (
                f"upper witness quotient {quotient:.9e} misses beta {rep.beta_opt:.9e}"
            )
    if not rep.upper_ok:
        w = rep.kernel_obstruction
        assert w is not None, "infinite upper constant must come with an obstruction"
        window_energy = float(np.vdot(w, d @ w).real)
        assert window_energy <= 10 * tol.rank_rel * max(1.0, op_norm(d)), (
            f"obstruction not annihilated by the window (energy {window_energy:.3e})"
        )
        assert float(np.vdot(w, s @ w).real) > 0.5 * tol.psd_floor * max(1.0, op_norm(s)), (
            "obstruction carries no analysis energy"
        )


def _trial_pinv(rng: np.random.Generator, tol: Tolerance) -> None:
    r = int(rng.integers(1, 13))
    c = int(rng.integers(1, 13))
    if rng.integers(0, 2) == 0:
        k = int(rng.integers(1, min(r, c) + 1))
        a = complex_gaussian(rng, r, k) @ complex_gaussian(rng, k, c)
    else:
        a = complex_gaussian(rng, r, c)
    p = pinv(a, tol)
    scale = max(1.0, op_norm(a))
    assert op_norm(a @ p @ a - a) <= 1e-10 * scale, "A P A != A"
    assert op_norm(p @ a @ p - p) <= 1e-10 * max(1.0, op_norm(p)), "P A P != P"
    ap = a @ p
    pa = p @ a
    assert op_norm(ap - adjoint(ap)) <= 1e-10 * max(1.0, op_norm(ap)), "A P not Hermitian"
    assert op_norm(pa - adjoint(pa)) <= 1e-10 * max(1.0, op_norm(pa)), "P A not Hermitian"


def _trial_eig(rng: np.random.Generator, tol: Tolerance) -> None:
    n = int(rng.integers(1, 17))
    h = hermitize(complex_gaussian(rng, n, n))
    vals, vecs = herm_eig(h, tol)
    scale = max(1.0, op_norm(h))
    assert op_norm(h - vecs @ np.diag(vals) @ vecs.conj().T) <= 1e-10 * scale, (
        "eigendecomposition does not reconstruct the operator"
    )
    assert np.all(np.diff(vals) >= -1e-12 * scale), "eigenvalues not ascending"
    assert op_norm(vecs.conj().T @ vecs - np.eye(n)) <= 1e-10, "eigenvectors not orthonormal"


def _trial_gram(rng: np.random.Generator, tol: Tolerance) -> None:
    r = int(rng.integers(1, 13))
    c = int(rng.integers(1, 13))
    a = complex_gaussian(rng, r, c)
    verdict, min_eig = is_psd(hermitize(a.conj().T @ a), tol)
    assert verdict, f"Gram matrix flagged indefinite (min eig {min_eig:.3e})"


def _trial_pencil(rng: np.random.Generator, tol: Tolerance) -> None:
    n = int(rng.integers(2, 11))
    x = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
    y = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
    sup = pencil_sup(x, y, tol)
    inf = pencil_inf(x, y, tol)
    slack = tol.verdict_rel * max(1.0, op_norm(x), op_norm(y))
    for _ in range(128):
        f = complex_gaussian(rng, n)
        xq = float(np.vdot(f, x @ f).real)
        yq = float(np.vdot(f, y @ f).real)
        if math.isfinite(sup.value):
            assert xq <= sup.value * yq + slack, (
                f"sup constant {sup.value:.6e} violated: {xq:.6e} > {sup.value * yq:.6e}"
            )
        if not inf.degenerate:
            assert xq >= inf.value * yq - slack, (
                f"inf constant {inf.value:.6e} violated: {xq:.6e} < {inf.value * yq:.6e}"
            )
    # Witness quotients: on badly conditioned reference operators the witness
    # can sit mostly in near-kernel directions, so guard the denominator and
    # allow a slightly wider band than the frame-level sharpness tests use.
    if sup.witness is not None and math.isfinite(sup.value):
        w = sup.witness
        denom = float(np.vdot(w, y @ w).real)
        if denom > 1e-8:
            q = float(np.vdot(w, x @ w).real) / denom
            assert abs(q - sup.value) <= 1e-5 * max(1.0, sup.value), "sup witness misses optimum"
    if inf.witness is not None and not inf.degenerate:
        w = inf.witness
        denom = float(np.vdot(w, y @ w).real)
        if denom > 1e-8:
            q = float(np.vdot(w, x @ w).real) / denom
            assert abs(q - inf.value) <= 1e-5 * max(1.0, abs(inf.value)), (
                "inf witness misses optimum"
            )


_GRIDS = (Grid(4, 4), Grid(8, 4), Grid(4, 8), Grid(8, 8))


def _random_signal(rng: np.random.Generator, grid: Grid) -> Signal:
    return Signal(grid, complex_gaussian(rng, grid.n))


def _gabor_params(rng: np.random.Generator, grid: Grid, psi: Signal, full: bool) -> WavePacketParams:
    k_hi = grid.P - 1 if full else 0
    return WavePacketParams(
        grid=grid,
        psi=psi,
        a_list=(1,),
        b=1.0,
        k_range=(0, k_hi),
        c_list=tuple(float(c) for c in range(grid.q)),
        dedupe=False,
    )


def _trial_synthesis(rng: np.random.Generator, tol: Tolerance) -> None:
    grid = _GRIDS[int(rng.integers(0, len(_GRIDS)))]
    branch = int(rng.integers(0, 4))
    if branch == 0:
        # Full orbit, unitary window: both sides of the criterion hold.
        system = generate_system(_gabor_params(rng, grid, _random_signal(rng, grid), True))
        theta = random_unitary(rng, grid.n)
    elif branch == 1:
        # Full orbit, window supported on one cell: analysis energy escapes it.
        system = generate_system(_gabor_params(rng, grid, _random_signal(rng, grid), True))
        theta = mult_operator(indicator(grid, 0, 1))
    elif branch == 2:
        # Modulations only, unitary window: rank-deficient system fails below.
        system = generate_system(_gabor_params(rng, grid, _random_signal(rng, grid), False))
        theta = random_unitary(rng, grid.n)
    else:
        # Modulations of a one-cell window scored by that same cell.
        psi = indicator(grid, 0, 1)
        system = generate_system(_gabor_params(rng, grid, psi, False))
        theta = mult_operator(psi)
    check = synthesis_criterion_check(system, theta, tol)
    assert check.agrees, check.counterexample or "criterion disagrees with frame verdict"


def _trial_combination(rng: np.random.Generator, tol: Tolerance) -> None:
    grid = Grid(4, 4)
    base = generate_system(_gabor_params(rng, grid, _random_signal(rng, grid), True))
    theta = random_unitary(rng, grid.n)
    size = len(base)
    if rng.integers(0, 3) == 0:
        cells = tuple((i,) for i in range(size))
    else:
        order = rng.permutation(size)
        ncells = int(rng.integers(1, 6))
        splits = sorted(rng.choice(np.arange(1, size), size=ncells - 1, replace=False)) if ncells > 1 else []
        cells = tuple(
            tuple(int(i) for i in chunk) for chunk in np.split(order, splits)
        )
    coeffs = rng.uniform(0.5, 1.5, size) * np.exp(2j * np.pi * rng.uniform(0, 1, size))
    pc = PartitionCombination(cells=cells, coefficients=coeffs)
    rep = partition_domination_check(base, pc, theta, tol)
    assert rep.agrees, rep.counterexample or "domination constant disagrees with frame verdict"
    assert rep.upper_estimate_ok, (
        f"combined upper constant {rep.phi_report.beta_opt:.6e} exceeds "
        f"||T||^2 * beta = {rep.aggregation_norm ** 2 * rep.base_report.beta_opt:.6e}"
    )
    if rep.proof_bound_ok is not None:
        assert rep.proof_bound_ok, (
            f"optimal constant {rep.lambda_opt:.6e} fell below the constructive "
            f"choice {rep.proof_lambda:.6e}"
        )


def _trial_finite_sum(rng: np.random.Generator, tol: Tolerance) -> None:
    grid = Grid(4, 4)
    psi0 = _random_signal(rng, grid)
    params = _gabor_params(rng, grid, psi0, True)
    theta = random_unitary(rng, grid.n)
    if rng.integers(0, 4) == 0:
        spec = FiniteSumSpec(alphas=(1.0, -1.0), psis=(psi0, psi0))
    else:
        p = int(rng.integers(1, 4))
        alphas = tuple(
            complex(a)
            for a in rng.uniform(0.5, 1.5, p) * np.exp(2j * np.pi * rng.uniform(0, 1, p))
        )
        psis = tuple([psi0] + [_random_signal(rng, grid) for _ in range(p - 1)])
        spec = FiniteSumSpec(alphas=alphas, psis=psis)
    rep = finite_sum_criterion_check(spec, params, theta, tol)
    assert rep.agrees, rep.counterexample or "sum criterion disagrees with frame verdict"
    assert rep.upper_estimate_ok, (
        f"summed upper constant {rep.sum_report.beta_opt:.6e} exceeds the crude "
        f"estimate {rep.upper_estimate:.6e}"
    )


SUITES: dict[str, Callable[[np.random.Generator, Tolerance], None]] = {
    "douglas": _trial_douglas,
    "djordjevic": _trial_djordjevic,
    "theta-frame-selfcheck": _trial_theta_selfcheck,
    "pinv-identities": _trial_pinv,
    "eig-reconstruct": _trial_eig,
    "gram-psd": _trial_gram,
    "pencil-rayleigh": _trial_pencil,
    "synthesis-criterion": _trial_synthesis,
    "combination-domination": _trial_combination,
    "finite-sum": _trial_finite_sum,
}


@dataclass(frozen=True)
class TrialFailure:
    index: int
    seed: tuple[int, int]
    message: str


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    failures: tuple[TrialFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def run_suite(
    name: str, trials: int, seed: int, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    try:
        body = SUITES[name]
    except KeyError:
        known = ", ".join(sorted(SUITES))
        raise KeyError(f"unknown suite {name!r}; known: {known}") from None
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    failures: list[TrialFailure] = []
    for index in range(trials):
        rng = np.random.default_rng([seed, index])
        try:
            body(rng, tol)
        except AssertionError as exc:
            failures.append(TrialFailure(index=index, seed=(seed, index), message=str(exc)))
    return SuiteResult(name=name, trials=trials, failures=tuple(failures))


__all__ = [
    "complex_gaussian",
    "random_unitary",
    "random_normal_operator",
    "random_parseval",
    "random_system",
    "random_psd",
    "random_window",
    "SUITES",
    "TrialFailure",
    "SuiteResult",
    "run_suite",
]
