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
before S, Theta Theta* and Theta* Theta are formed, and the constants are
scaled back exactly (``pencil(a X, b Y) = (a / b) pencil(X, Y)``); a constant
beyond the float range raises OverflowError.

A monomial window, such as any grid operation, has diagonal products Theta
Theta* and Theta* Theta, placed in O(n).  When its phases also have unit
modulus, C = D = I up to the rounding of ``|phase|^2``, and the constants
are the extreme eigenvalues of S, read from one ``_frame_spectrum``: the
``_lattice_spectrum`` of a stamped system with no margin (S is never
formed), else one decomposition of S.  Any other window's C and D are split
once per check, and each pencil decomposes S whitened by them.
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
    _pow2_restored,
    _pow2_scaled,
    _window_products,
    as_operator,
    hermitian_eigh,
    hermitize,
    op_norm,
    psd_split,
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
    pencil_inf,
    pencil_sup,
    relative_hyponormality,
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
    frame = _frame_spectrum(system, margin) if window[1] is None else _scaled_frame_operator(system)
    return _theta_frame_report(frame, window, tol, margin)


# Squared phases within this much of 1 make a monomial window unit-modulus:
# |phase|^2 = re^2 + im^2 of a computed exp(i t) errs by a few units in the
# last place, and C = D = I then holds up to that rounding.
_UNIT_SLACK = 4 * np.finfo(float).eps


def _scaled_window(theta: np.ndarray, margin: int | None):
    """``(e, (C, D))``: ``theta`` scaled by ``_pow2_scaled`` and its products restricted
    by ``margin``, with None for the products of a unit-modulus monomial ``theta``."""
    theta, exponent = _pow2_scaled(theta)
    c, d, weight = _window_products(theta)
    if weight is not None and np.all(np.abs(weight - 1.0) <= _UNIT_SLACK):
        return exponent, None
    return exponent, (restrict(c, margin), restrict(d, margin))


def _window_splits(theta: np.ndarray, tol: Tolerance, margin: int | None):
    """:func:`_scaled_window` with the ``psd_split`` of C and of D in place of the
    products: every report of one check shares them."""
    exponent, products = _scaled_window(theta, margin)
    return exponent, None if products is None else tuple(psd_split(x, tol) for x in products)


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
        s_exp = frame.exponent
        lower, upper = _unit_pencils(frame)
    else:
        s, s_exp = frame
        s = restrict(s, margin)
        lower, upper = _pencil_inf(s, splits[0], tol), _pencil_sup(s, splits[1], tol)
    alpha = _pow2_restored(lower.value, 2 * (s_exp - theta_exp))
    beta = _pow2_restored(upper.value, 2 * (s_exp - theta_exp))
    lower_ok = lower.degenerate or alpha > tol.psd_floor
    return ThetaFrameReport(
        alpha_opt=alpha,
        beta_opt=beta,
        lower_ok=bool(lower_ok),
        upper_ok=bool(math.isfinite(beta)),
        lower_witness=lower.witness,
        upper_witness=upper.witness,
        kernel_obstruction=upper.obstruction,
        lower_degenerate=lower.degenerate,
    )


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
    k_exp, products = _scaled_window(_checked_window(k, system.n), margin)
    if products is None:
        spectrum = _frame_spectrum(system, margin)
        lower = _unit_pencils(spectrum)[0]
    else:
        frame = _scaled_frame_operator(system)
        lower = pencil_inf(restrict(frame[0], margin), products[0], tol)
        spectrum = _DenseSpectrum.of(frame, margin)
    high, upper_witness = spectrum.extreme(-1)
    a_opt = _pow2_restored(lower.value, 2 * (spectrum.exponent - k_exp))
    return KFrameReport(
        a_opt=a_opt,
        b_opt=_pow2_restored(high, 2 * spectrum.exponent),
        lower_ok=bool(lower.degenerate or a_opt > tol.psd_floor),
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
    theta = _checked_window(theta, system.n)
    s = frame_operator(system)
    c, d, _ = _window_products(theta)

    basis_r, vals_r, _ = psd_split(c, tol)
    if basis_r.shape[1] == 0:
        return ThetaTightReport(
            is_tight=False,
            alpha0=0.0,
            lower_spread=math.inf,
            upper_opt=pencil_sup(s, d, tol).value,
            degenerate=True,
        )
    spectrum = hermitian_eigh(s, vectors=False, basis=basis_r / np.sqrt(vals_r))
    lo, hi = float(spectrum[0]), float(spectrum[-1])
    alpha0 = 0.5 * (lo + hi)
    spread = hi - lo
    equality_ok = spread <= tol.verdict_rel * max(1.0, hi)
    upper = pencil_sup(s, d, tol)
    upper_ok = upper.value <= alpha0 * (1.0 + tol.verdict_rel)
    is_tight = bool(equality_ok and upper_ok and alpha0 > tol.psd_floor)
    return ThetaTightReport(
        is_tight=is_tight,
        alpha0=float(alpha0),
        lower_spread=float(spread),
        upper_opt=upper.value,
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
    theta_norm = op_norm(theta)
    commutator_norm = op_norm(u @ theta.conj().T - theta.conj().T @ u)
    commutes = commutator_norm <= tol.verdict_rel * max(1.0, u_norm * theta_norm)
    image = FrameSystem(system.vectors @ u.T, labels=system.labels)
    base = check_theta_frame(system, theta, tol)
    transformed = check_theta_frame(image, theta, tol)
    rel = relative_hyponormality(theta, u.conj().T, tol)
    a1, a2 = base.alpha_opt, transformed.alpha_opt
    b1, b2 = base.beta_opt, transformed.beta_opt
    theta_norm_sq = theta_norm**2
    if not math.isfinite(rel.lambda_opt) or math.isinf(b2):
        # Either the relative-hyponormality premise fails or the right-hand
        # side is infinite; in both cases the chain places no constraint.
        lower_b_ok = True
    else:
        lower_b_ok = _le_with_slack(b1, rel.lambda_opt * b2 * theta_norm_sq, tol.verdict_rel)
    report = TransformReport(
        commutes=bool(commutes),
        commutator_norm=float(commutator_norm),
        base=base,
        image=transformed,
        u_norm=u_norm,
        u_inv_norm=u_inv_norm,
        lambda_rel=rel.lambda_opt,
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
    report = check_theta_frame(system, theta, tol)
    if not report.passes():
        raise NotThetaFrame("bound chain requires a verified window frame")
    left, singulars, right = svd(theta)
    keep = rank_mask(singulars, tol)
    basis = left[:, keep]
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
    # pinv(Theta) = V_k diag(1/s_k) U_k*, so Theta pinv(Theta) B = Theta V_k / s_k
    # and ||pinv(Theta)||^-2 is the least kept singular value squared.
    kept = singulars[keep]
    projector_residual = op_norm(theta @ (right[:, keep] / kept) - basis)
    s = frame_operator(system)
    rvals = hermitian_eigh(s, vectors=False, basis=basis)
    restricted_min, top = float(rvals[0]), max(1.0, float(rvals[-1]))
    restricted_ok = restricted_min > tol.psd_floor * top

    alpha, beta = report.alpha_opt, report.beta_opt
    lower_min = restricted_min - (0.0 if math.isinf(alpha) else alpha) * float(kept[-1]) ** 2
    d = _window_products(theta)[1]
    upper_min = float(hermitian_eigh(beta * d - s, vectors=False, basis=basis)[0])
    # Each slack scales with the operand its minimum is read from: B* S B for
    # the lower one, beta B* D B (norm beta s_1^2) for the upper one, whose
    # exact minimum is 0 since beta is optimal.
    upper_top = max(1.0, beta * float(kept[0]) ** 2)
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
