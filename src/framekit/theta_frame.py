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

C and D are never formed: each check holds one ``_Window``, which splits both
on first read (from ``Theta[:n-m, :]`` and ``Theta[:, :n-m]`` under a margin),
cutting on Theta's singular values: a monomial window, such as any grid
operation, in O(n), a dense one with no margin from one SVD.  When its phases
have unit modulus, C = D = I up to the rounding of ``|phase|^2``, and the
constants are the extreme eigenvalues of S, read from the spectrum of one
``frame_core._Frame``: the lattice of a stamped system with no margin (S is
never formed), else the eigenvalues of S and one certified solve per
extreme eigenvector, a tight frame's too.  Any other window whitens S in
each pencil; ``check_k_frame``'s plain upper bound still reads the spectrum.
``theta_tight_check`` follows the same rule, and ``tight_frame_from_hyponormal``
reads its window once: one ``_Window`` serves its hyponormality test, its tight
check and its residual.  Whitening magnifies the rounding of S by up to
``1 / s_k^2`` for the least kept singular value s_k, so a lower verdict that
this could flip raises Unresolved instead of guessing; a window whose kept
s_k^2 underflows the normal floats raises Underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NotHyponormal,
    NotParseval,
    NotThetaFrame,
    SingularU,
    Unresolved,
)
from .frame_core import FrameSystem, _Frame
from .numerics import (
    DEFAULT_TOL,
    Monomial,
    Tolerance,
    _columns,
    _gram_split,
    _pow2_restored,
    _pow2_scaled,
    _structure,
    _svd_split,
    _whitener,
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
    _hyponormality,
    _pencil_sup,
    pencil_inf,  # unused here, but perfbench's tracer patches and restores it in this module
)


# Squared phases within this much of 1 make a monomial window unit-modulus:
# |phase|^2 = re^2 + im^2 of a computed exp(i t) errs by a few units in the
# last place, and C = D = I then holds up to that rounding.
_UNIT_SLACK = 4 * np.finfo(float).eps


class _Window:
    """One window Theta on C^n: ``form``, Theta in the kernels' form (``numerics._structure``)
    checked to be n x n and scaled once to ``Theta * 2**-exponent``; ``unit`` for a Monomial
    with unit-modulus phases (C = D = I up to rounding); and, each made on first read,
    ``dense``, Theta unscaled as a matrix, and ``lower`` and ``upper``, the
    ``numerics._gram_split`` of C = Theta Theta* and of D = Theta* Theta restricted by
    ``margin``, from one SVD for a dense window with no margin."""

    def __init__(self, theta, n: int, tol: Tolerance, margin: int | None = None):
        self._theta = _structure(theta)
        self.form, self.exponent = _pow2_scaled(self._theta)
        if self.form.shape != (n, n):
            raise DimensionMismatch(f"window operator is {self.form.shape}, system lives in C^{n}")
        self.tol, self.size = tol, len(restrict(np.arange(n), margin))
        self.unit = isinstance(self.form, Monomial) and bool(
            np.all(np.abs(self.form.phase.real**2 + self.form.phase.imag**2 - 1.0) <= _UNIT_SLACK)
        )

    @cached_property
    def dense(self) -> np.ndarray:
        return as_operator(self._theta)

    @cached_property
    def lower(self):
        return self._split(right=False)

    @cached_property
    def upper(self):
        return self._split(right=True)

    @cached_property
    def _factors(self):
        return svd(self.form)

    def _split(self, right: bool):
        if isinstance(self.form, Monomial) or self.size < self.form.shape[0]:
            return _gram_split(self.form, self.tol, right, self.size)
        u, s, v = self._factors  # a dense window with no margin: both splits from one SVD
        return _svd_split(v if right else u, s, self.tol)


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
    window = _Window(theta, system.n, tol, margin)
    return _theta_frame_report(_Frame(system, margin), window, tol)


def _unit_pencils(frame: _Frame) -> tuple[PencilBound, PencilBound]:
    """The pencils of S against C = D = I, the extreme eigenpairs of ``frame``: the lower
    value clamped at 0 and dense witnesses normalized, as the pencils do."""
    (low, low_witness), (high, high_witness) = (frame.extreme(i) for i in (0, -1))
    if frame.lattice is None:
        low_witness, high_witness = _normalize(low_witness), _normalize(high_witness)
    return PencilBound(low if low > 0.0 else 0.0, low_witness), PencilBound(high, high_witness)


def _theta_frame_report(frame: _Frame, window: _Window, tol: Tolerance) -> ThetaFrameReport:
    """:func:`check_theta_frame` of the ``_Frame`` and ``_Window`` on one margin: a unit
    window reads the frame's spectrum, any other its operator."""
    upper = _upper(frame, window, tol)
    lower, alpha, lower_ok = _lower(frame, window, tol)
    beta = frame.restored(upper.value, window.exponent)
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


def _upper(frame: _Frame, window: _Window, tol: Tolerance, witness: bool = True) -> PencilBound:
    """The pencil of S against D on one margin: a unit window reads the frame's spectrum (its
    values alone without ``witness``), any other whitens S by D's split."""
    if not window.unit:
        return _pencil_sup(frame.operator, window.upper, tol, witness)
    return _unit_pencils(frame)[1] if witness else PencilBound(float(frame.values[-1]))


def _lower(frame: _Frame, window: _Window, tol: Tolerance):
    """``(pencil, alpha, alpha > psd_floor)`` of S against C on one margin: a unit window reads
    the frame's spectrum, any other whitens S by C's split, and then a verdict that round-off
    could flip (:func:`_whitened_error`) raises Unresolved."""
    if window.unit:
        lower, error = _unit_pencils(frame)[0], 0.0
    else:
        lower = _pencil_inf(frame.operator, window.lower, tol)
        error = 0.0 if lower.degenerate else _whitened_error(frame.operator, window.lower[1])
    alpha, error = (frame.restored(x, window.exponent) for x in (lower.value, error))
    return lower, alpha, lower.degenerate or _above(alpha, tol.psd_floor, error, "lower constant")


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
    The upper bound, and the lower constant of a unit-modulus monomial K,
    read the spectrum of one ``_Frame``.
    """
    window = _Window(k, system.n, tol, margin)
    frame = _Frame(system, margin)
    high, upper_witness = frame.extreme(-1)
    lower, a_opt, lower_ok = _lower(frame, window, tol)
    return KFrameReport(
        a_opt=a_opt,
        b_opt=frame.restored(high),
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
    return report.alpha_opt, report.beta_opt * op_norm(theta) ** 2


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
    """Whether one constant serves both window inequalities (see :class:`ThetaTightReport`).

    ``alpha0`` and ``lower_spread`` are the midpoint and the spread of the
    extreme eigenvalues of S whitened by C, and ``upper_opt`` is the least
    constant of ``S <= c * D``.  A unit-modulus window reads all three from
    the eigenvalues of one ``_Frame`` (a stamped system's lattice, without S
    or LAPACK); any other whitens S by the splits of one ``_Window``, and a
    verdict that round-off could flip raises Unresolved.  A window with no
    range is ``degenerate``, never tight.
    """
    return _tight_report(_Frame(system), _Window(theta, system.n, tol), tol)


def _tight_report(frame: _Frame, window: _Window, tol: Tolerance) -> ThetaTightReport:
    """:func:`theta_tight_check` of the ``_Frame`` and ``_Window``: the upper constant as
    :func:`_theta_frame_report` takes it, and the frame's values under a unit window."""
    upper_opt = frame.restored(_upper(frame, window, tol, witness=False).value, window.exponent)
    if window.unit:  # C = I: S's own eigenvalues, and nothing is whitened, so nothing is refused
        values, error = frame.values, 0.0
    else:
        basis_r, vals_r, _ = window.lower
        if vals_r.size == 0:
            return ThetaTightReport(
                is_tight=False,
                alpha0=0.0,
                lower_spread=math.inf,
                upper_opt=upper_opt,
                degenerate=True,
            )
        values = hermitian_eigh(frame.operator, (), _whitener(basis_r, vals_r))[0]
        # Each verdict reads values whitened by C or D, which share s_k; one that round-off
        # could flip raises Unresolved, and only when the verdicts before it hold.
        error = 2 * _whitened_error(frame.operator, vals_r)
    lo, hi, error = (frame.restored(float(x), window.exponent) for x in (values[0], values[-1], error))
    alpha0 = 0.5 * (lo + hi)
    spread = hi - lo
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
    window = _Window(theta, parseval.n, tol)
    basis = _Frame(parseval)
    lower, upper = (basis.restored(float(basis.values[i])) for i in (0, -1))
    slack = tol.verdict_rel * max(1.0, upper)
    if abs(lower - 1.0) > slack or abs(upper - 1.0) > slack:
        raise NotParseval(f"optimal bounds ({lower:.3e}, {upper:.3e}) are not both 1")
    # ||Theta Theta*|| = ||Theta||^2 of the scaled window, from the split the tight check reads.
    top = float(np.max(window.lower[1], initial=0.0))
    hypo = _hyponormality(window.form, window.exponent, tol, margin, math.sqrt(top))
    if not (hypo.global_verdict or bool(hypo.margin_verdict)):
        raise NotHyponormal(
            f"window self-commutator has negative eigenvalue {hypo.commutator_min_eig:.3e}"
        )
    theta = window.dense  # the image and Theta Theta* are dense products
    image = FrameSystem(parseval.vectors @ theta.T, labels=parseval.labels)
    frame, form = _Frame(image), as_operator(window.form) if window.exponent else theta
    # The image's one S, which the tight check reads too, and Theta Theta*, both of the scaled
    # window (exact power-of-two factors): the residual is their ratio.
    s = frame.operator * math.ldexp(1.0, 2 * (frame.exponent - window.exponent))
    residual = op_norm(s - hermitize(form @ form.conj().T)) / max(1.0, top)
    report = ConstructionReport(
        operator_residual=float(residual),
        commutator_min_eig=hypo.commutator_min_eig,
        hyponormal_globally=hypo.global_verdict,
        hyponormal_on_margin=hypo.margin_verdict,
        tight=_tight_report(frame, window, tol),
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
    """The image ``{U f_k}`` under an invertible U, and the bound chain of
    :class:`TransformReport` between the window-frame reports of the system and
    of its image.  Both reports and ``||Theta||`` read one ``_Window``; a
    numerically singular U raises SingularU."""
    window = _Window(theta, system.n, tol)
    theta, u = window.dense, as_operator(u)  # for dense products
    if u.shape != (system.n, system.n):
        raise DimensionMismatch(f"transform operator is {u.shape}, system lives in C^{system.n}")
    singulars = svd(u, vectors=False)
    if singulars.size == 0 or not rank_mask(singulars, tol).all():
        raise SingularU("transform operator is numerically singular")
    u_norm = float(singulars[0])
    u_inv_norm = 1.0 / float(singulars[-1])
    # Both reports, ||Theta|| and lambda (over D) read the one window.
    theta_norm = math.ldexp(math.sqrt(float(np.max(window.lower[1], initial=0.0))), window.exponent)
    lambda_rel = _pencil_sup(hermitize(u.conj().T @ u), window.upper, tol, witness=False).value
    lambda_rel = math.ldexp(lambda_rel, -2 * window.exponent)
    commutator_norm = op_norm(u @ theta.conj().T - theta.conj().T @ u)
    commutes = commutator_norm <= tol.verdict_rel * max(1.0, u_norm * theta_norm)
    image = FrameSystem(system.vectors @ u.T, labels=system.labels)
    base, transformed = (_theta_frame_report(_Frame(x), window, tol) for x in (system, image))
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
    """The quadratic-form bound chain of :class:`PinvChainReport` on range(Theta), from
    one ``_Frame`` and one ``_Window``; a system that fails either window inequality
    raises NotThetaFrame."""
    window = _Window(theta, system.n, tol)
    frame = _Frame(system)
    report = _theta_frame_report(frame, window, tol)
    if not report.passes():
        raise NotThetaFrame("bound chain requires a verified window frame")
    # The margins are homogeneous in S and Theta: read the scaled S and window, the
    # constants scaled to match, and restore each margin.
    theta = as_operator(window.form)  # the products below are dense
    shift = 2 * (window.exponent - frame.exponent)
    alpha, beta = (_pow2_restored(c, shift) for c in (report.alpha_opt, report.beta_opt))
    (basis, kept, _), (right, right_kept, _) = window.lower, window.upper
    if kept.size == 0:
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
    w, columns = theta @ _columns(right), _columns(basis)
    projector_residual = op_norm((w / right_kept) @ (w.conj().T @ columns) - columns)
    s = frame.operator
    rvals = hermitian_eigh(s, (), basis)[0]
    restricted_min, top = frame.restored(float(rvals[0])), max(1.0, frame.restored(float(rvals[-1])))
    restricted_ok = restricted_min > tol.psd_floor * top

    lower_min = frame.restored(float(rvals[0]) - (0.0 if math.isinf(alpha) else alpha) * float(kept[0]))
    image = theta @ columns  # B* D B = (Theta B)* (Theta B)
    upper_min = hermitian_eigh(beta * (image.conj().T @ image) - compress(s, basis), ())[0][0]
    upper_min = frame.restored(float(upper_min))
    # Each slack scales with the operand its minimum is read from: B* S B for
    # the lower one, beta B* D B (norm beta s_1^2) for the upper one, whose
    # exact minimum is 0 since beta is optimal.
    upper_top = max(1.0, frame.restored(beta * float(kept[-1])))
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
