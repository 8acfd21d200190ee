"""Pinned desk-scale case models.

Each case builds a small, fully determined model (fixed grid sizes, fixed
seeds, hard-coded parameter lists), runs the relevant checks, and returns a
structured outcome whose assertion records double as machine-readable
documentation.  The registry accepts both a semantic name and an opaque
short code for every case, so reports stay stable even if names evolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frame_core import FrameSystem, canonical_basis, frame_operator, optimal_bounds
from .numerics import op_norm
from .signal_space import (
    Grid,
    TruncatedSequenceSpace,
    indicator,
    mult_operator,
    operator_of,
    shift_operators,
    summing_operator,
)
from .theta_frame import (
    check_k_frame,
    check_theta_frame,
    tight_frame_from_hyponormal,
    transform_frame_check,
)
from .wavepacket import (
    FiniteSumSpec,
    WavePacketParams,
    finite_sum_criterion_check,
    generate_system,
)


@dataclass(frozen=True)
class AssertionRecord:
    label: str
    passed: bool
    observed: float | str
    expected: str


@dataclass(frozen=True)
class ExampleOutcome:
    case_id: str
    title: str
    passed: bool
    assertions: tuple[AssertionRecord, ...]

    def first_failure(self) -> AssertionRecord | None:
        for record in self.assertions:
            if not record.passed:
                return record
        return None


def _outcome(case_id: str, title: str, records: list[AssertionRecord]) -> ExampleOutcome:
    return ExampleOutcome(
        case_id=case_id,
        title=title,
        passed=all(r.passed for r in records),
        assertions=tuple(records),
    )


def _close(observed: float, expected: float, atol: float) -> bool:
    return abs(observed - expected) <= atol


def _energy_against(system: FrameSystem, f: np.ndarray) -> float:
    coeffs = system.vectors.conj() @ f
    return float(np.sum(np.abs(coeffs) ** 2))


def _case_shift_basis() -> ExampleOutcome:
    """Canonical basis scored against a backward-shift window on C^32."""
    n = 32
    system = canonical_basis(n)
    back, _ = shift_operators(TruncatedSequenceSpace(n, 1))
    k_rep = check_k_frame(system, back, margin=1)
    theta_rep = check_theta_frame(system, back)
    records = [
        AssertionRecord(
            "margin-lower-constant-is-one",
            _close(k_rep.a_opt, 1.0, 1e-9),
            k_rep.a_opt,
            "a_opt == 1 within 1e-9 on the margin subspace",
        ),
        AssertionRecord(
            "margin-upper-constant-is-one",
            _close(k_rep.b_opt, 1.0, 1e-9),
            k_rep.b_opt,
            "b_opt == 1 within 1e-9 on the margin subspace",
        ),
        AssertionRecord(
            "window-upper-bound-fails",
            not theta_rep.upper_ok,
            str(theta_rep.upper_ok),
            "no finite upper window constant exists",
        ),
    ]
    w = theta_rep.kernel_obstruction
    if w is None:
        records.append(
            AssertionRecord("obstruction-reported", False, "None", "witness vector present")
        )
    else:
        overlap = float(abs(w[0]))
        killed = float(np.linalg.norm(back @ w))
        records.append(
            AssertionRecord(
                "obstruction-is-first-basis-vector",
                overlap >= 1.0 - 1e-9,
                overlap,
                "|<w, e_0>| == 1 within 1e-9",
            )
        )
        records.append(
            AssertionRecord(
                "window-annihilates-obstruction",
                killed <= 1e-9,
                killed,
                "||window @ w|| <= 1e-9",
            )
        )
    return _outcome("shift-basis", "backward-shift window separates the two frame notions", records)


def _case_pairwise_sum() -> ExampleOutcome:
    """Pairwise-sum system under the summing window on C^64: windowed yes, classical no."""
    n = 64
    space = TruncatedSequenceSpace(n, 1)
    eye = np.eye(n)
    vectors = np.array([eye[:, k] + eye[:, k + 1] for k in range(n - 1)])
    system = FrameSystem(vectors)
    theta = summing_operator(space)
    rep = check_theta_frame(system, theta, margin=space.margin)
    alpha_m = rep.alpha_opt
    gamma = min(alpha_m * (1.0 - 1e-6), 1.0 - 1e-6) if math.isfinite(alpha_m) else 1.0 - 1e-6
    classical = optimal_bounds(system)
    records = [
        AssertionRecord(
            "margin-lower-bound-holds",
            rep.lower_ok,
            alpha_m,
            "windowed lower inequality holds on the margin subspace",
        ),
        AssertionRecord(
            "margin-constant-in-unit-interval",
            0.0 < gamma < 1.0 and gamma <= alpha_m,
            gamma,
            "an admissible constant exists strictly inside (0, 1)",
        ),
        AssertionRecord(
            "classical-lower-bound-collapses",
            classical.lower < 0.01,
            classical.lower,
            "plain optimal lower bound < 0.01 at this size",
        ),
    ]
    return _outcome("pairwise-sum", "pairwise sums: window-framed but not classically framed", records)


def _case_unit_window() -> ExampleOutcome:
    """Unit indicator window against the four translated indicators on Grid(4, 4)."""
    grid = Grid(4, 4)
    psi = indicator(grid, 0, 1)
    params = WavePacketParams(
        grid=grid, psi=psi, a_list=(1,), b=1.0, k_range=(0, 3), c_list=(0.0,)
    )
    system = generate_system(params)
    theta = mult_operator(psi)
    rep = check_theta_frame(system, theta)
    records = [
        AssertionRecord(
            "upper-bound-unbounded",
            math.isinf(rep.beta_opt),
            rep.beta_opt,
            "beta_opt == inf",
        )
    ]
    w = rep.kernel_obstruction
    if w is None:
        records.append(
            AssertionRecord("obstruction-reported", False, "None", "witness vector present")
        )
    else:
        s = frame_operator(system)
        killed = float(np.linalg.norm(theta @ w))
        energy = float(np.vdot(w, s @ w).real)
        records.append(
            AssertionRecord(
                "window-annihilates-obstruction", killed <= 1e-9, killed, "||window @ w|| <= 1e-9"
            )
        )
        records.append(
            AssertionRecord(
                "obstruction-carries-analysis-energy",
                energy >= 1.0 - 1e-9,
                energy,
                "<Sw, w> == 1 within 1e-9",
            )
        )
    # Hand witness: indicator on [0,1) plus indicator on [2,3); analysis energy
    # splits as 1 + 1 while the window only sees the first unit of mass.
    h = indicator(grid, 0, 1).coordinates + indicator(grid, 2, 3).coordinates
    total = _energy_against(system, h)
    window_mass = float(np.linalg.norm(theta @ h) ** 2)
    records.append(
        AssertionRecord(
            "hand-witness-analysis-energy",
            _close(total, 2.0, 1e-10),
            total,
            "sum of squared coefficients == 2 within 1e-10",
        )
    )
    records.append(
        AssertionRecord(
            "hand-witness-window-energy",
            _close(window_mass, 1.0, 1e-10),
            window_mass,
            "||window @ h||^2 == 1 within 1e-10",
        )
    )
    return _outcome("unit-window", "indicator window misses off-support analysis energy", records)


def _case_hyponormal_tight() -> ExampleOutcome:
    """Normal window applied to a random Parseval system yields a unit-constant tight frame."""
    n, m = 8, 12
    rng = np.random.default_rng(83808)
    q, _ = np.linalg.qr(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    parseval = FrameSystem(np.conj(q))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    eigs = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    theta = v @ np.diag(eigs) @ v.conj().T
    image, rep = tight_frame_from_hyponormal(parseval, theta)
    worst_eq = 0.0
    worst_conv = -math.inf
    for _ in range(100):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = _energy_against(image, f)
        rhs = float(np.linalg.norm(theta.conj().T @ f) ** 2)
        worst_eq = max(worst_eq, abs(lhs - rhs) / max(1.0, rhs))
        worst_conv = max(
            worst_conv,
            float(np.linalg.norm(theta.conj().T @ f) - np.linalg.norm(theta @ f)),
        )
    records = [
        AssertionRecord(
            "image-frame-operator-matches-window-product",
            rep.operator_residual <= 1e-9,
            rep.operator_residual,
            "relative residual <= 1e-9",
        ),
        AssertionRecord(
            "image-is-tight-with-unit-constant",
            rep.tight.is_tight and _close(rep.tight.alpha0, 1.0, 1e-9),
            rep.tight.alpha0,
            "tight verdict true with alpha0 == 1 within 1e-9",
        ),
        AssertionRecord(
            "sampled-lower-equality",
            worst_eq <= 1e-9,
            worst_eq,
            "analysis energy equals ||window* f||^2 within 1e-9 relative",
        ),
        AssertionRecord(
            "sampled-adjoint-domination",
            worst_conv <= 1e-9,
            worst_conv,
            "||window* f|| <= ||window f|| on every sample",
        ),
    ]
    return _outcome("hyponormal-tight", "windowed image of a Parseval system is unit-tight", records)


def _case_commuting_transform() -> ExampleOutcome:
    """Unitary transform commuting with the window preserves both optimal constants."""
    n, m = 12, 18
    rng = np.random.default_rng(31012)
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    window_eigs = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    theta = v @ np.diag(window_eigs) @ v.conj().T
    u = v @ np.diag(np.exp(2j * np.pi * rng.uniform(0, 1, n))) @ v.conj().T
    system = FrameSystem(
        (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(n)
    )
    _, rep = transform_frame_check(system, theta, u)
    a_gap = abs(rep.image.alpha_opt - rep.base.alpha_opt) / max(1.0, rep.base.alpha_opt)
    b_gap = abs(rep.image.beta_opt - rep.base.beta_opt) / max(1.0, rep.base.beta_opt)
    records = [
        AssertionRecord(
            "transform-commutes-with-window-adjoint",
            rep.commutes,
            rep.commutator_norm,
            "commutator norm within tolerance",
        ),
        AssertionRecord(
            "lower-constant-chain",
            rep.lower_product_ok and rep.upper_product_ok,
            rep.image.alpha_opt,
            "A1/||U||^2 <= A2 <= A1 ||U^-1||^2 within slack",
        ),
        AssertionRecord(
            "upper-constant-chain",
            rep.upper_b_ok and rep.lower_b_ok,
            rep.image.beta_opt,
            "B2 <= B1 ||U||^2 and B1 <= lambda B2 ||window||^2 within slack",
        ),
        AssertionRecord(
            "unitary-preserves-lower-constant",
            a_gap <= 1e-8,
            a_gap,
            "A2 == A1 within 1e-8 relative (||U|| = ||U^-1|| = 1)",
        ),
        AssertionRecord(
            "unitary-preserves-upper-constant",
            b_gap <= 1e-8,
            b_gap,
            "B2 == B1 within 1e-8 relative",
        ),
    ]
    return _outcome(
        "commuting-transform", "commuting unitary transform preserves optimal constants", records
    )


def _case_shifted_window() -> ExampleOutcome:
    """Translating a modulation family off its window support destroys the lower bound."""
    grid = Grid(4, 4)
    psi = indicator(grid, 0, 1)
    params = WavePacketParams(
        grid=grid,
        psi=psi,
        a_list=(1,),
        b=0.0,
        k_range=(0, 3),
        c_list=(0.0, 1.0, 2.0, 3.0),
        dedupe=True,
    )
    system = generate_system(params)
    theta = mult_operator(psi)
    rng = np.random.default_rng(31206)
    worst = 0.0
    for _ in range(100):
        f = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        energy = _energy_against(system, f)
        through = float(np.linalg.norm(theta @ f) ** 2)
        through_adj = float(np.linalg.norm(theta.conj().T @ f) ** 2)
        scale = max(1.0, through)
        worst = max(worst, abs(energy - through) / scale, abs(energy - through_adj) / scale)
    u0 = operator_of(grid, "translate", 1.0)
    image, rep = transform_frame_check(system, theta, u0)
    shifted_window = mult_operator(indicator(grid, 1, 2))
    swap_identity = op_norm(u0 @ theta - shifted_window @ u0)
    f0 = psi.coordinates
    transformed_energy = _energy_against(image, f0)
    records = [
        AssertionRecord(
            "modulation-family-matches-window-energy",
            worst <= 1e-10,
            worst,
            "analysis energy == ||window f||^2 == ||window* f||^2 within 1e-10",
        ),
        AssertionRecord(
            "transform-does-not-commute",
            not rep.commutes,
            rep.commutator_norm,
            "commutator norm is macroscopic",
        ),
        AssertionRecord(
            "commutator-swap-identity",
            swap_identity <= 1e-12,
            swap_identity,
            "translate . window == shifted-window . translate exactly",
        ),
        AssertionRecord(
            "transformed-lower-witness-vanishes",
            transformed_energy <= 1e-12,
            transformed_energy,
            "analysis energy of the original window vector drops to 0",
        ),
        AssertionRecord(
            "transformed-lower-bound-fails",
            not rep.image.lower_ok,
            rep.image.alpha_opt,
            "translated family is no longer window-framed from below",
        ),
    ]
    return _outcome("shifted-window", "translation moves the family off the window support", records)


def _case_modulation_sum() -> ExampleOutcome:
    """Weighted sums of a full time-frequency family: constant |sum of weights|^2."""
    grid = Grid(4, 4)
    psi = indicator(grid, 0, 1)
    params = WavePacketParams(
        grid=grid,
        psi=psi,
        a_list=(1,),
        b=1.0,
        k_range=(0, 3),
        c_list=(0.0, 1.0, 2.0, 3.0),
        dedupe=True,
    )
    theta = operator_of(grid, "modulate", 1.0)
    weights = (1.0, 2.0, -1.0)
    spec = FiniteSumSpec(alphas=weights, psis=(psi, psi, psi))
    rep = finite_sum_criterion_check(spec, params, theta)
    expected_mu = abs(sum(weights)) ** 2
    mu_best = rep.mu_opts[rep.best_xi]
    zero_spec = FiniteSumSpec(alphas=(1.0, -1.0), psis=(psi, psi))
    zero_rep = finite_sum_criterion_check(zero_spec, params, theta)
    single_spec = FiniteSumSpec(alphas=(2.0,), psis=(psi,))
    single_rep = finite_sum_criterion_check(single_spec, params, theta)
    records = [
        AssertionRecord(
            "pinned-domination-constant",
            _close(mu_best, expected_mu, 1e-9),
            mu_best,
            f"mu == |1 + 2 - 1|^2 == {expected_mu:g} within 1e-9",
        ),
        AssertionRecord(
            "weighted-sum-inherits-frame",
            rep.exists and rep.sum_report.passes() and rep.agrees,
            str(rep.exists),
            "domination constant exists and the summed system passes",
        ),
        AssertionRecord(
            "upper-estimate-holds",
            rep.upper_estimate_ok,
            rep.upper_estimate,
            "beta of the sum <= p max|alpha|^2 sum of single betas",
        ),
        AssertionRecord(
            "zero-sum-collapses",
            (not zero_rep.exists) and (not zero_rep.sum_report.passes()) and zero_rep.agrees,
            zero_rep.mu_opts[zero_rep.best_xi],
            "cancelling weights give constant 0 and no frame",
        ),
        AssertionRecord(
            "single-window-scales",
            _close(single_rep.mu_opts[0], 4.0, 1e-9),
            single_rep.mu_opts[0],
            "p == 1 with weight 2 gives constant |2|^2 == 4",
        ),
    ]
    return _outcome("modulation-sum", "weighted sums scale by the squared weight total", records)


_CASES: dict[str, tuple[str, Callable[[], ExampleOutcome]]] = {
    "shift-basis": ("3.2", _case_shift_basis),
    "pairwise-sum": ("3.3", _case_pairwise_sum),
    "unit-window": ("3.5", _case_unit_window),
    "hyponormal-tight": ("3.8", _case_hyponormal_tight),
    "commuting-transform": ("3.10", _case_commuting_transform),
    "shifted-window": ("3.12", _case_shifted_window),
    "modulation-sum": ("4.3", _case_modulation_sum),
}

# Both the semantic name and the short code resolve to the same builder.
REGISTRY: dict[str, Callable[[], ExampleOutcome]] = {}
for _entry in _CASES.items():
    REGISTRY[_entry[0]] = _entry[1][1]
    REGISTRY[_entry[1][0]] = _entry[1][1]
del _entry


def case_names() -> tuple[str, ...]:
    """Semantic names in a stable order."""
    return tuple(_CASES)


def case_code(name: str) -> str:
    return _CASES[name][0]


def run_case(case_id: str) -> ExampleOutcome:
    try:
        builder = REGISTRY[case_id]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown case {case_id!r}; known: {known}") from None
    return builder()


__all__ = [
    "AssertionRecord",
    "ExampleOutcome",
    "REGISTRY",
    "case_names",
    "case_code",
    "run_case",
]
