"""Window-controlled frame inequalities.

A system ``{f_k}`` is a Theta-frame for a square window operator ``Theta``
when two constants ``0 < alpha0``, ``beta0 < inf`` satisfy

    alpha0 * ||Theta* f||^2  <=  sum_k |<f, f_k>|^2  <=  beta0 * ||Theta f||^2

for every vector f.  With S the frame operator, C = Theta Theta* and
D = Theta* Theta, the optimal constants are spectral-pencil extremes:
``alpha_opt = pencil_inf(S, C)`` and ``beta_opt = pencil_sup(S, D)``.  The
upper bound is infinite exactly when the system keeps energy on ker(Theta),
and the report then carries an obstruction vector f with Theta f ~ 0 but
sum |<f, f_k>|^2 > 0.

The K-frame variant keeps the windowed lower inequality but uses the plain
Euclidean upper bound.  A ``margin`` m drops the last m coordinates, where a
truncated one-sided shift breaks the full-space identities, from every
operator before the pencils run.

Vectors or windows with entries beyond 2**200 are scaled by powers of two
before S is formed and Theta split, and the constants are scaled back
exactly (``pencil(a X, b Y) = (a / b) pencil(X, Y)``); a constant beyond
the float range raises OverflowError.

C and D are never formed: ``_gram_splits`` splits both from Theta (from
``Theta[:n-m, :]`` and ``Theta[:, :n-m]`` under a margin), cutting on its
singular values, and a monomial window, such as any grid operation, in O(n).
When its phases also have unit modulus, C = D = I up to the rounding of
``|phase|^2``, and the constants are the extreme eigenvalues of S, read from
one ``_frame_spectrum``: the ``_lattice_spectrum`` of a stamped system with
no margin (S is never formed), else one decomposition of S.  Any other
window is split once per check, and each pencil decomposes S whitened by it.
Whitening magnifies the rounding of S by up to ``1 / s_k^2`` for the least
kept singular value s_k, so a lower verdict that this could flip raises
Unresolved instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotHyponormal,
    NotParseval,
    NotThetaFrame,
    SingularU,
    Unresolved,
)
from .frame_core import (
    FrameSystem,
    _DenseSpectrum,
    _frame_spectrum,
    _scaled_frame_operator,
    frame_operator,
    optimal_bounds,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    _gram_splits,
    _monomial,
    _monomial_splits,
    _pow2_restored,
    _pow2_scaled,
    _svd_splits,
    as_operator,
    compress,
    hermitian_eigh,
    hermitize,
    op_norm,
    rank_mask,
    restrict,
    svd,
)
from .operator_theory import (
    PencilBound,
    _normalize,
    _pencil_inf,
    _pencil_sup,
    hyponormality,
    pencil_inf,  # unused here, but perfbench's tracer patches and restores it in this module
)


def _checked_window(theta, n: int) -> np.ndarray:
    theta = as_operator(theta)
    if theta.shape != (n, n):
        raise DimensionMismatch(f"window operator is {theta.shape}, system lives in C^{n}")
    return theta


@dataclass(frozen=True)
class ThetaFrameReport:
    """Optimal window-frame constants plus certifying vectors.

    ``alpha_opt`` is the greatest admissible lower constant (inf when the
    window adjoint vanishes and the inequality is vacuous — see
    ``lower_degenerate``); ``beta_opt`` the least admissible upper constant,
    inf when none exists, in which case ``kernel_obstruction`` holds a unit
    vector annihilated by the window but not by the analysis map.
    """

    alpha_opt: float
    beta_opt: float
    lower_ok: bool
    upper_ok: bool
    lower_witness: np.ndarray | None
    upper_witness: np.ndarray | None
    kernel_obstruction: np.ndarray | None
    lower_degenerate: bool = False

    def passes(self) -> bool:
        return self.lower_ok and self.upper_ok


def check_theta_frame(
    system: FrameSystem, theta, tol: Tolerance = DEFAULT_TOL, margin: int | None = None
) -> ThetaFrameReport:
    """Optimal two-sided window-frame constants for the system.

    With a ``margin`` m, all operators are restricted to the first n - m
    coordinates first and the inequalities are scored there.
    """
    window = _window_splits(_checked_window(theta, system.n), tol, margin)
    return _system_report(system, window, tol, margin)


# Squared phases within this much of 1 make a monomial window unit-modulus:
# |phase|^2 = re^2 + im^2 of a computed exp(i t) errs by a few units in the
# last place, and C = D = I then holds up to that rounding.
_UNIT_SLACK = 4 * np.finfo(float).eps


def _window_splits(theta: np.ndarray, tol: Tolerance, margin: int | None, upper: bool = True):
    """``(e, (C split, D split))`` of ``theta * 2**-e`` (``_pow2_scaled``) restricted by
    ``margin``; D's is None unless ``upper``, and both are None for a unit monomial."""
    theta, exponent = _pow2_scaled(theta)
    form = _monomial(theta)
    rows = restrict(theta, margin).shape[0]
    if form is not None:
        if np.all(np.abs(form[1].real**2 + form[1].imag**2 - 1.0) <= _UNIT_SLACK):
            return exponent, None
        return exponent, _monomial_splits(form, len(theta), tol, True, upper, size=rows)
    if margin is None:
        return exponent, _svd_splits(theta, tol, True, upper)
    lower = _svd_splits(theta[:rows], tol, right=False)[0]
    return exponent, (lower, _svd_splits(theta[:, :rows], tol, left=False)[1] if upper else None)


def _system_report(system: FrameSystem, window, tol: Tolerance, margin: int | None) -> ThetaFrameReport:
    """:func:`check_theta_frame` of ``system`` given ``_window_splits``."""
    frame = _frame_spectrum(system, margin) if window[1] is None else _scaled_frame_operator(system)
    return _theta_frame_report(frame, window, tol, margin)


def _unit_pencils(spectrum) -> tuple[PencilBound, PencilBound]:
    """The pencils of S against C = D = I, the extreme eigenpairs of ``spectrum``: the lower
    value clamped at 0 and a dense spectrum's witnesses normalized, as the pencils do."""
    (low, low_witness), (high, high_witness) = (spectrum.extreme(i) for i in (0, -1))
    if isinstance(spectrum, _DenseSpectrum):
        low_witness, high_witness = _normalize(low_witness), _normalize(high_witness)
    return PencilBound(low if low > 0.0 else 0.0, low_witness), PencilBound(high, high_witness)


def _theta_frame_report(frame, window, tol: Tolerance, margin: int | None) -> ThetaFrameReport:
    """:func:`check_theta_frame` given ``_window_splits`` and, under a unit window,
    the ``_frame_spectrum``, else the ``_scaled_frame_operator``."""
    theta_exp, splits = window
    if splits is None:
        s, s_exp = None, frame.exponent
        lower, upper = _unit_pencils(frame)
    else:
        s, s_exp = frame
        s = restrict(s, margin)
        lower, upper = _pencil_inf(s, splits[0], tol), _pencil_sup(s, splits[1], tol)
    alpha, lower_ok = _lower_verdict(lower, 2 * (s_exp - theta_exp), tol, s, splits)
    beta = _pow2_restored(upper.value, 2 * (s_exp - theta_exp))
    return ThetaFrameReport(
        alpha_opt=alpha,
        beta_opt=beta,
        lower_ok=lower_ok,
        upper_ok=bool(math.isfinite(beta)),
        lower_witness=lower.witness,
        upper_witness=upper.witness,
        kernel_obstruction=upper.obstruction,
        lower_degenerate=lower.degenerate,
    )


def _lower_verdict(lower: PencilBound, exponent: int, tol: Tolerance, s=None, splits=None):
    """``(alpha, alpha > psd_floor)`` for the pencil ``lower`` scaled back by ``2**exponent``,
    guarded by :func:`_whitened_error` when ``splits`` whitened S (unit windows are not)."""
    alpha = _pow2_restored(lower.value, exponent)
    if lower.degenerate:
        return alpha, True
    error = 0.0 if splits is None else _pow2_restored(_whitened_error(s, splits[0][1]), exponent)
    return alpha, _above(alpha, tol.psd_floor, error, "lower constant")


def _whitened_error(s: np.ndarray, kept: np.ndarray) -> float:
    """Round-off bound ``n eps ||S||_F / s_k^2`` of an eigenvalue of ``s`` whitened by a window
    split whose ``kept`` squared singular values ascend from s_k^2: whitening scales the
    rounding of S by up to ``1 / s_k^2`` (Higham, *Accuracy and Stability*, section 3.5)."""
    return len(s) * np.finfo(float).eps * float(np.linalg.norm(s)) / kept[0]


def _above(value: float, threshold: float, error: float, what: str) -> bool:
    """``value > threshold``; Unresolved when ``value`` lies within ``error`` of it."""
    if abs(value - threshold) < error:
        raise Unresolved(f"{what} {value:.3e} is within its round-off bound {error:.3e} of {threshold:.3e}")
    return bool(value > threshold)


@dataclass(frozen=True)
class KFrameReport:
    """Windowed lower constant paired with the plain Euclidean upper bound."""

    a_opt: float
    b_opt: float
    lower_ok: bool
    degenerate: bool
    lower_witness: np.ndarray | None
    upper_witness: np.ndarray | None


def check_k_frame(
    system: FrameSystem, k, tol: Tolerance = DEFAULT_TOL, margin: int | None = None
) -> KFrameReport:
    """Greatest A with ``A ||K* f||^2 <= sum |<f, f_k>|^2``, and the plain upper bound.

    A ``margin`` restricts both operators as in :func:`check_theta_frame`.
    Both constants of a unit-modulus monomial K read one ``_frame_spectrum``.
    """
    k_exp, splits = _window_splits(_checked_window(k, system.n), tol, margin, upper=False)
    if splits is None:
        spectrum, s = _frame_spectrum(system, margin), None
        lower = _unit_pencils(spectrum)[0]
    else:
        frame = _scaled_frame_operator(system)
        s = restrict(frame[0], margin)
        lower = _pencil_inf(s, splits[0], tol)
        spectrum = _DenseSpectrum.of(frame, margin)
    high, upper_witness = spectrum.extreme(-1)
    a_opt, lower_ok = _lower_verdict(lower, 2 * (spectrum.exponent - k_exp), tol, s, splits)
    return KFrameReport(
        a_opt=a_opt,
        b_opt=_pow2_restored(high, 2 * spectrum.exponent),
        lower_ok=lower_ok,
        degenerate=lower.degenerate,
        lower_witness=lower.witness,
        upper_witness=upper_witness,
    )


def theta_to_k_bounds(report: ThetaFrameReport, theta) -> tuple[float, float]:
    """Convert verified window-frame constants into plain K-frame bounds.

    The lower constant transfers unchanged (K = Theta); the upper becomes
    ``beta_opt * ||Theta||^2`` since ``||Theta f|| <= ||Theta|| ||f||``.
    """
    if not report.passes():
        raise NotThetaFrame("conversion needs both window inequalities to hold")
    return report.alpha_opt, report.beta_opt * op_norm(as_operator(theta)) ** 2


@dataclass(frozen=True)
class ThetaTightReport:
    """Single-constant window-frame verdict.

    Tight means one constant serves both sides: the frame operator equals
    ``alpha0 * Theta Theta*`` on the range of that product (``lower_spread``
    measures the deviation), and ``S <= alpha0 * Theta* Theta`` globally
    (``upper_opt`` is the least upper constant found).
    """

    is_tight: bool
    alpha0: float
    lower_spread: float
    upper_opt: float
    degenerate: bool = False


def theta_tight_check(
    system: FrameSystem, theta, tol: Tolerance = DEFAULT_TOL
) -> ThetaTightReport:
    theta, theta_exp = _pow2_scaled(_checked_window(theta, system.n))
    s, s_exp = _scaled_frame_operator(system)
    (basis_r, vals_r, _), d_split = _gram_splits(theta, tol)
    upper = _pencil_sup(s, d_split, tol)
    exponent = 2 * (s_exp - theta_exp)
    upper_opt = _pow2_restored(upper.value, exponent)
    if basis_r.shape[1] == 0:
        return ThetaTightReport(
            is_tight=False,
            alpha0=0.0,
            lower_spread=math.inf,
            upper_opt=upper_opt,
            degenerate=True,
        )
    spectrum = hermitian_eigh(s, vectors=False, basis=basis_r / np.sqrt(vals_r))
    lo, hi = (_pow2_restored(float(spectrum[i]), exponent) for i in (0, -1))
    alpha0 = 0.5 * (lo + hi)
    spread = hi - lo
    # Each verdict reads values whitened by C or D, which share s_k; one that round-off
    # could flip raises Unresolved, and only when the verdicts before it hold.
    error = 2 * _pow2_restored(_whitened_error(s, vals_r), exponent)
    is_tight = (
        not _above(spread, tol.verdict_rel * max(1.0, hi), error, "lower spread")
        and not _above(upper_opt, alpha0 * (1.0 + tol.verdict_rel), error, "upper constant")
        and _above(alpha0, tol.psd_floor, error, "alpha0")
    )
    return ThetaTightReport(
        is_tight=is_tight,
        alpha0=float(alpha0),
        lower_spread=float(spread),
        upper_opt=upper_opt,
    )


@dataclass(frozen=True)
class ConstructionReport:
    """Verification record for the windowed image of a Parseval frame.

    ``operator_residual`` is the relative gap between the image system's
    frame operator and Theta Theta* — zero in exact arithmetic, which is what
    makes the image tight with constant one.
    """

    operator_residual: float
    commutator_min_eig: float
    hyponormal_globally: bool
    hyponormal_on_margin: bool | None
    tight: ThetaTightReport


def tight_frame_from_hyponormal(
    parseval: FrameSystem,
    theta,
    tol: Tolerance = DEFAULT_TOL,
    margin: int | None = None,
) -> tuple[FrameSystem, ConstructionReport]:
    """Apply a hyponormal window to a Parseval frame; the image is tight with constant 1.

    For a Parseval system the image's frame operator collapses to
    Theta Theta*, giving the lower equality outright; hyponormality supplies
    ``||Theta* f|| <= ||Theta f||``, which is exactly the upper inequality
    with the same constant.  A ``margin`` lets the window pass as hyponormal
    on the first n - margin coordinates (see :func:`hyponormality`).
    """
    theta = _checked_window(theta, parseval.n)
    bounds = optimal_bounds(parseval, tol)
    slack = tol.verdict_rel * max(1.0, bounds.upper)
    if abs(bounds.lower - 1.0) > slack or abs(bounds.upper - 1.0) > slack:
        raise NotParseval(
            f"optimal bounds ({bounds.lower:.3e}, {bounds.upper:.3e}) are not both 1"
        )
    hypo = hyponormality(theta, tol, margin=margin)
    if not (hypo.global_verdict or bool(hypo.margin_verdict)):
        raise NotHyponormal(
            f"window self-commutator has negative eigenvalue {hypo.commutator_min_eig:.3e}"
        )
    image = FrameSystem(parseval.vectors @ theta.T, labels=parseval.labels)
    c = hermitize(theta @ theta.conj().T)
    residual = op_norm(frame_operator(image) - c) / max(1.0, op_norm(c))
    report = ConstructionReport(
        operator_residual=float(residual),
        commutator_min_eig=hypo.commutator_min_eig,
        hyponormal_globally=hypo.global_verdict,
        hyponormal_on_margin=hypo.margin_verdict,
        tight=theta_tight_check(image, theta, tol),
    )
    return image, report


def _le_with_slack(lhs: float, rhs: float, rel: float) -> bool:
    """lhs <= rhs up to relative slack, with infinities handled conservatively."""
    if math.isinf(rhs):
        return True
    if math.isinf(lhs):
        return False
    return lhs <= rhs + rel * max(1.0, abs(rhs))


@dataclass(frozen=True)
class TransformReport:
    """Window-frame bounds of a system before and after an invertible map.

    The four booleans evaluate the commuting-transform bound chain
    ``A1 ||U||^-2 <= A2 <= A1 ||U^-1||^2`` and ``B2 <= B1 ||U||^2``,
    ``B1 <= lambda B2 ||Theta||^2`` (lambda from the relative-hyponormality
    constant of the window against U*).  They are recorded observations, not
    assertions: the A-chain is only guaranteed when U is unitary.
    """

    commutes: bool
    commutator_norm: float
    base: ThetaFrameReport
    image: ThetaFrameReport
    u_norm: float
    u_inv_norm: float
    lambda_rel: float
    lower_product_ok: bool
    upper_product_ok: bool
    upper_b_ok: bool
    lower_b_ok: bool


def transform_frame_check(
    system: FrameSystem, theta, u, tol: Tolerance = DEFAULT_TOL
) -> tuple[FrameSystem, TransformReport]:
    theta = _checked_window(theta, system.n)
    u = _checked_window(u, system.n)
    singulars = svd(u, vectors=False)
    if singulars.size == 0 or not rank_mask(singulars, tol).all():
        raise SingularU("transform operator is numerically singular")
    u_norm = float(singulars[0])
    u_inv_norm = 1.0 / float(singulars[-1])
    # Both reports, ||Theta|| and lambda (over D) read one split of the scaled window.
    exponent, splits = window = _window_splits(theta, tol, None)
    c_split, d_split = splits or _gram_splits(_pow2_scaled(theta)[0], tol)
    theta_norm = math.ldexp(math.sqrt(float(np.max(c_split[1], initial=0.0))), exponent)
    lambda_rel = math.ldexp(_pencil_sup(hermitize(u.conj().T @ u), d_split, tol).value, -2 * exponent)
    commutator_norm = op_norm(u @ theta.conj().T - theta.conj().T @ u)
    commutes = commutator_norm <= tol.verdict_rel * max(1.0, u_norm * theta_norm)
    image = FrameSystem(system.vectors @ u.T, labels=system.labels)
    base = _system_report(system, window, tol, None)
    transformed = _system_report(image, window, tol, None)
    a1, a2 = base.alpha_opt, transformed.alpha_opt
    b1, b2 = base.beta_opt, transformed.beta_opt
    theta_norm_sq = theta_norm**2
    if not math.isfinite(lambda_rel) or math.isinf(b2):
        # Either the relative-hyponormality premise fails or the right-hand
        # side is infinite; in both cases the chain places no constraint.
        lower_b_ok = True
    else:
        lower_b_ok = _le_with_slack(b1, lambda_rel * b2 * theta_norm_sq, tol.verdict_rel)
    report = TransformReport(
        commutes=bool(commutes),
        commutator_norm=float(commutator_norm),
        base=base,
        image=transformed,
        u_norm=u_norm,
        u_inv_norm=u_inv_norm,
        lambda_rel=lambda_rel,
        lower_product_ok=_le_with_slack(a1 / u_norm**2, a2, tol.verdict_rel),
        upper_product_ok=_le_with_slack(a2, a1 * u_inv_norm**2, tol.verdict_rel),
        upper_b_ok=_le_with_slack(b2, b1 * u_norm**2, tol.verdict_rel),
        lower_b_ok=lower_b_ok,
    )
    return image, report


@dataclass(frozen=True)
class PinvChainReport:
    """Quadratic-form bound chain on the range of the window.

    For a verified window frame and f in range(Theta):
    ``<Sf, f> >= alpha_opt ||pinv(Theta)||^-2 ||f||^2`` (the projector
    Theta pinv(Theta) fixes such f), ``<Sf, f> <= beta_opt ||Theta f||^2``,
    and S compressed to that range is invertible.  ``lower_margin_min`` and
    ``upper_margin_min`` are the exact least slacks of the two inequalities
    over unit f in range(Theta), read as least eigenvalues of compressions
    onto that range (Courant-Fischer); both are nonnegative up to tolerance.
    ``projector_residual`` is ``||Theta pinv(Theta) B - B||`` for an
    orthonormal basis B of the range.
    """

    projector_residual: float
    lower_margin_min: float
    upper_margin_min: float
    restricted_min_eig: float
    restricted_invertible: bool
    chain_ok: bool
    degenerate: bool = False


def pseudoinverse_bound_chain(
    system: FrameSystem, theta, tol: Tolerance = DEFAULT_TOL
) -> PinvChainReport:
    theta = _checked_window(theta, system.n)
    window = _window_splits(theta, tol, None)
    report = _system_report(system, window, tol, None)
    if not report.passes():
        raise NotThetaFrame("bound chain requires a verified window frame")
    # The margins are homogeneous in Theta: read the scaled split, constants scaled to match.
    theta, exponent = _pow2_scaled(theta)
    alpha, beta = (_pow2_restored(c, 2 * exponent) for c in (report.alpha_opt, report.beta_opt))
    (basis, kept, _), (right, right_kept, _) = window[1] or _gram_splits(theta, tol)
    if basis.shape[1] == 0:
        return PinvChainReport(
            projector_residual=0.0,
            lower_margin_min=0.0,
            upper_margin_min=0.0,
            restricted_min_eig=math.inf,
            restricted_invertible=True,
            chain_ok=True,
            degenerate=True,
        )
    # pinv(Theta) = V_k diag(1/s_k^2) V_k* Theta* from the D split, so Theta pinv(Theta) B
    # = W diag(1/s_k^2) W* B for W = Theta V_k; ||pinv(Theta)||^-2 is the least kept s_k^2.
    w = theta @ right
    projector_residual = op_norm((w / right_kept) @ (w.conj().T @ basis) - basis)
    s = frame_operator(system)
    rvals = hermitian_eigh(s, vectors=False, basis=basis)
    restricted_min, top = float(rvals[0]), max(1.0, float(rvals[-1]))
    restricted_ok = restricted_min > tol.psd_floor * top

    lower_min = restricted_min - (0.0 if math.isinf(alpha) else alpha) * float(kept[0])
    image = theta @ basis  # B* D B = (Theta B)* (Theta B)
    upper_min = float(hermitian_eigh(beta * (image.conj().T @ image) - compress(s, basis), vectors=False)[0])
    # Each slack scales with the operand its minimum is read from: B* S B for
    # the lower one, beta B* D B (norm beta s_1^2) for the upper one, whose
    # exact minimum is 0 since beta is optimal.
    upper_top = max(1.0, beta * float(kept[-1]))
    chain_ok = bool(
        projector_residual <= tol.verdict_rel
        and lower_min >= -tol.verdict_rel * top
        and upper_min >= -tol.verdict_rel * upper_top
        and restricted_ok
    )
    return PinvChainReport(
        projector_residual=projector_residual,
        lower_margin_min=lower_min,
        upper_margin_min=upper_min,
        restricted_min_eig=restricted_min,
        restricted_invertible=bool(restricted_ok),
        chain_ok=chain_ok,
    )


__all__ = [
    "ThetaFrameReport",
    "check_theta_frame",
    "KFrameReport",
    "check_k_frame",
    "theta_to_k_bounds",
    "ThetaTightReport",
    "theta_tight_check",
    "ConstructionReport",
    "tight_frame_from_hyponormal",
    "TransformReport",
    "transform_frame_check",
    "PinvChainReport",
    "pseudoinverse_bound_chain",
]
