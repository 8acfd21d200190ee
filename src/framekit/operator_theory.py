"""Operator inequalities: spectral pencils, hyponormality, range factorization.

The workhorse here is the whitened-pencil pair ``pencil_sup`` / ``pencil_inf``
for PSD operands X, Y:

* ``pencil_sup(X, Y)`` finds the least ``lam`` with ``X <= lam * Y`` in the
  quadratic-form order.  Y is eigen-decomposed, eigenvalues below the rank
  cutoff are discarded, and X is whitened on the kept range; if X carries
  energy on the discarded kernel the answer is infinity, certified by an
  obstruction vector.

* ``pencil_inf(X, Y)`` finds the greatest ``alpha`` with ``alpha * Y <= X``
  for *all* vectors.  On the kernel of Y the inequality is automatic, but
  mixed vectors couple through X's off-diagonal blocks, so the kept-range
  block of X is reduced by the generalized Schur complement against the
  kernel block before whitening.  The witness includes the minimizing kernel
  component, so its generalized Rayleigh quotient attains the optimum.

Everything downstream (window-frame bounds, relative hyponormality, the
factorization equivalences) is phrased through these two primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotSquare
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    _pow2_restored,
    _pow2_scaled,
    _gram_splits,
    _monomial,
    _reference_eigh,
    _svd_pinv,
    _svd_split,
    as_operator,
    compress,
    hermitian_eigh,
    hermitize,
    is_psd,
    op_norm,
    pinv,
    psd_split,
    range_inclusion,
    restrict,
    svd,
)


@dataclass(frozen=True)
class PencilBound:
    """Optimum of a two-operator inequality, with certifying vectors.

    ``witness`` attains the optimum as a generalized Rayleigh quotient;
    ``obstruction`` (sup case only) is a unit vector in ker(Y) carrying
    X-energy, certifying value = inf.  ``degenerate`` marks a rank-zero
    reference operator, where the inequality is vacuous.
    """

    value: float
    witness: np.ndarray | None = None
    obstruction: np.ndarray | None = None
    degenerate: bool = False


def _normalize(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    return v if norm == 0 else v / norm


def pencil_sup(x, y, tol: Tolerance = DEFAULT_TOL) -> PencilBound:
    """Least ``lam >= 0`` with ``x <= lam * y`` (PSD operands, quadratic-form order)."""
    x = as_operator(x)
    y = as_operator(y)
    if x.shape != y.shape or x.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"pencil operands must be square and equal: {x.shape} vs {y.shape}")
    return _pencil_sup(x, psd_split(y, tol), tol)


def _pencil_sup(x: np.ndarray, split, tol: Tolerance) -> PencilBound:
    """:func:`pencil_sup` given ``psd_split(y)``."""
    basis_r, vals_r, basis_k = split
    if basis_k.shape[1] > 0:
        kvals, kvecs = hermitian_eigh(x, basis=basis_k)
        norm = float(np.max(np.abs(hermitian_eigh(x, vectors=False))))
        if float(kvals[-1]) > tol.psd_floor * max(1.0, norm):
            obstruction = _normalize(basis_k @ kvecs[:, -1])
            return PencilBound(value=math.inf, obstruction=obstruction)
    if basis_r.shape[1] == 0:
        return PencilBound(value=0.0, degenerate=True)
    whitener = basis_r / np.sqrt(vals_r)
    cvals, cvecs = hermitian_eigh(x, basis=whitener)
    witness = _normalize(whitener @ cvecs[:, -1])
    return PencilBound(value=float(cvals[-1]), witness=witness)


def pencil_inf(x, y, tol: Tolerance = DEFAULT_TOL) -> PencilBound:
    """Greatest ``alpha >= 0`` with ``alpha * y <= x`` for all vectors (PSD operands).

    Equals the least eigenvalue of the whitened pencil on range(y) after the
    kernel coupling of x has been eliminated by a Schur complement, with a
    negative round-off value reported as 0.0.  For a rank-zero y the
    constraint is vacuous and the value is ``inf``.
    """
    x = as_operator(x)
    y = as_operator(y)
    if x.shape != y.shape or x.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"pencil operands must be square and equal: {x.shape} vs {y.shape}")
    return _pencil_inf(x, psd_split(y, tol), tol)


def _pencil_inf(x: np.ndarray, split, tol: Tolerance) -> PencilBound:
    """:func:`pencil_inf` given ``psd_split(y)``."""
    basis_r, vals_r, basis_k = split
    if basis_r.shape[1] == 0:
        return PencilBound(value=math.inf, degenerate=True)
    whitener = basis_r / np.sqrt(vals_r)
    if basis_k.shape[1] == 0:
        cvals, cvecs = hermitian_eigh(x, basis=whitener)
        witness = whitener @ cvecs[:, 0]
    else:
        cross = whitener.conj().T @ x @ basis_k
        kernel_pinv = pinv(compress(x, basis_k), tol)
        kernel_lift = -basis_k @ kernel_pinv @ cross.conj().T
        cvals, cvecs = hermitian_eigh(compress(x, whitener) - cross @ kernel_pinv @ cross.conj().T)
        witness = whitener @ cvecs[:, 0] + kernel_lift @ cvecs[:, 0]
    value = float(cvals[0])
    return PencilBound(value=value if value > 0.0 else 0.0, witness=_normalize(witness))


# ---------------------------------------------------------------------------
# Hyponormality.


@dataclass(frozen=True)
class HyponormalityReport:
    """Self-commutator positivity verdicts.

    ``commutator_min_eig`` is the least eigenvalue of T*T - TT*;
    ``global_verdict`` compares it against the positivity floor scaled by
    max(1, ||T||^2).  When a ``margin`` m is given, ``margin_verdict``
    reports positivity of the commutator restricted to the first n - m
    coordinates (and ``margin_min_eig`` its least eigenvalue); both are None
    when the margin is None.
    """

    commutator_min_eig: float
    global_verdict: bool
    margin_verdict: bool | None
    margin_min_eig: float | None
    operator_norm: float


def hyponormality(
    t, tol: Tolerance = DEFAULT_TOL, margin: int | None = None
) -> HyponormalityReport:
    """Is ``||T* f|| <= ||T f||`` for all f (equivalently T*T - TT* >= 0)?

    On C^n the self-commutator has zero trace, so the global verdict can only
    pass for (numerically) normal operators; genuinely one-sided behavior is
    captured by dropping the last ``margin`` coordinates of the commutator.
    A monomial T (every grid operation) has a diagonal commutator and needs
    no decomposition.  Entries beyond 2**200 are scaled by a power of two
    first and the reported values scaled back exactly; an eigenvalue beyond
    the float range raises OverflowError.
    """
    t = as_operator(t)
    if t.shape[0] != t.shape[1]:
        raise NotSquare(f"hyponormality needs a square operator, got {t.shape}")
    # T is scaled by 2**-e (e = 0 for ordinary entries) so the products stay
    # finite; eigenvalues scale back by 4**e, the norm by 2**e.
    t, exponent = _pow2_scaled(t)
    form = _monomial(t)
    if form is None:
        commutator = t.conj().T @ t - t @ t.conj().T
    else:  # diagonal: |phase[i]|^2 at index[i], less |phase[i]|^2 at i
        weight = form[1].real ** 2 + form[1].imag ** 2
        commutator = np.diag(-weight)
        commutator[form[0], form[0]] += weight
    vals = _reference_eigh(commutator, vectors=False)
    min_eig = float(vals[0]) if vals.size else 0.0
    norm = op_norm(t)
    floor = tol.psd_floor * max(math.ldexp(1.0, -2 * exponent), norm**2)
    margin_verdict = None
    margin_min = None
    if margin is not None:
        margin_min = float(_reference_eigh(restrict(commutator, margin), vectors=False)[0])
        margin_verdict = margin_min >= -floor
        margin_min = _pow2_restored(margin_min, 2 * exponent, "commutator eigenvalue")
    return HyponormalityReport(
        commutator_min_eig=_pow2_restored(min_eig, 2 * exponent, "commutator eigenvalue"),
        global_verdict=bool(min_eig >= -floor),
        margin_verdict=margin_verdict,
        margin_min_eig=margin_min,
        operator_norm=_pow2_restored(norm, exponent, "operator norm"),
    )


@dataclass(frozen=True)
class RelativeHyponormalityReport:
    """Outcome of the paired inequality ``lam * T1*T1 >= T2 T2*``.

    ``lambda_opt`` is the least admissible constant (inf when none exists).
    ``degenerate`` marks the T2 = 0 case, where lambda = 0 already works and
    the strict-positivity reading of the definition is moot.
    """

    holds: bool
    lambda_opt: float
    degenerate: bool
    witness: np.ndarray | None
    obstruction: np.ndarray | None


def relative_hyponormality(
    t1, t2, tol: Tolerance = DEFAULT_TOL
) -> RelativeHyponormalityReport:
    """Least ``lam`` with ``lam * T1*T1 >= T2 T2*``, or inf if no constant works."""
    t1 = as_operator(t1)
    t2 = as_operator(t2)
    if t1.shape[1] != t2.shape[0]:
        raise DimensionMismatch(
            f"T1*T1 is {t1.shape[1]}x{t1.shape[1]} but T2 T2* is {t2.shape[0]}x{t2.shape[0]}"
        )
    # T1 and T2 are each scaled by 2**-e (e = 0 for ordinary entries); lambda scales back.
    (t1, e1), (t2, e2) = _pow2_scaled(t1), _pow2_scaled(t2)
    bound = _pencil_sup(hermitize(t2 @ t2.conj().T), _gram_splits(t1, tol, left=False)[1], tol)
    lambda_opt = _pow2_restored(bound.value, 2 * (e2 - e1))
    holds = math.isfinite(lambda_opt)
    return RelativeHyponormalityReport(
        holds=holds,
        lambda_opt=lambda_opt,
        degenerate=holds and lambda_opt <= tol.psd_floor,
        witness=bound.witness,
        obstruction=bound.obstruction,
    )


# ---------------------------------------------------------------------------
# Range factorization (majorization / inclusion / factor equivalence).


@dataclass(frozen=True)
class DouglasReport:
    """Three-way equivalence record for R(T1) vs R(T2).

    ``range_included``: rank test on [T2 | T1].
    ``lambda_min``: least lam with T1 T1* <= lam^2 T2 T2* (inf when blocked).
    ``factor``: S with T2 S = T1 when the residual test accepts it, else None.
    ``consistent``: all three verdicts agree.
    """

    range_included: bool
    lambda_min: float
    factor: np.ndarray | None
    factor_residual: float
    consistent: bool


def douglas_check(t1, t2, tol: Tolerance = DEFAULT_TOL) -> DouglasReport:
    """Test R(T1) subset R(T2) three equivalent ways and cross-check the verdicts.

    Entries beyond 2**200 scale T1 and T2 by one common power of two first.
    The range test, ``lambda_min`` and the factor do not change under a
    common scale; the residual is scaled back exactly.
    """
    t1 = as_operator(t1)
    t2 = as_operator(t2)
    if t1.shape[0] != t2.shape[0]:
        raise DimensionMismatch(
            f"operators must share a codomain: {t1.shape[0]} vs {t2.shape[0]} rows"
        )
    both, exponent = _pow2_scaled(np.concatenate([t1, t2], axis=1))
    t1, t2 = np.split(both, [t1.shape[1]], axis=1)
    included = range_inclusion(t1, t2, tol)
    # One SVD of T2 (full on the left if T2 is tall) gives the split of T2 T2* and pinv(T2).
    factors = svd(t2, full=t2.shape[0] > t2.shape[1])
    majorize = _pencil_sup(hermitize(t1 @ t1.conj().T), _svd_split(factors[0], factors[1], tol), tol)
    lambda_min = math.sqrt(majorize.value) if math.isfinite(majorize.value) else math.inf
    candidate = _svd_pinv(*factors, tol) @ t1
    residual = op_norm(t2 @ candidate - t1)
    factor_ok = residual <= tol.verdict_rel * op_norm(t1)
    consistent = included == math.isfinite(lambda_min) == factor_ok
    return DouglasReport(
        range_included=bool(included),
        lambda_min=float(lambda_min),
        factor=candidate if factor_ok else None,
        factor_residual=_pow2_restored(float(residual), exponent, "factor residual"),
        consistent=bool(consistent),
    )


def djordjevic_hyponormal(a, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Hyponormality via the pseudoinverse inequality.

    Tests positivity of ``AA* - 2 AA* (AA* + A*A)^+ AA*`` and returns the
    verdict with the least eigenvalue as witness.  Agrees with the
    self-commutator verdict of :func:`hyponormality`.
    """
    a = as_operator(a)
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square operator, got {a.shape}")
    left = hermitize(a @ a.conj().T)
    total = hermitize(left + a.conj().T @ a)
    core = hermitize(left - 2.0 * left @ pinv(total, tol) @ left)
    return is_psd(core, tol)


__all__ = [
    "PencilBound",
    "pencil_sup",
    "pencil_inf",
    "HyponormalityReport",
    "hyponormality",
    "RelativeHyponormalityReport",
    "relative_hyponormality",
    "DouglasReport",
    "douglas_check",
    "djordjevic_hyponormal",
]
