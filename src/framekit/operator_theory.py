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
from functools import partial

import numpy as np

from .errors import DimensionMismatch, NotSquare
from .numerics import (
    DEFAULT_TOL,
    Monomial,
    Tolerance,
    _columns,
    _pow2_restored,
    _pow2_scaled,
    _gram_split,
    _diagonal_eigh,
    _structure,
    _svd_pinv,
    _svd_split,
    _whitener,
    as_operator,
    compress,
    hermitian_eigh,
    hermitize,
    is_psd,
    numerical_rank,
    op_norm,
    pinv,
    psd_split,
    rank_mask,
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


def _pencil_sup(x: np.ndarray, split, tol: Tolerance, witness: bool = True) -> PencilBound:
    """:func:`pencil_sup` given ``psd_split(y)``; without ``witness`` each compression of
    ``x`` goes to :func:`hermitian_eigh` with ``()``, for its values only.

    ``x`` is obstructed when its largest energy k on ker(y) exceeds ``psd_floor *
    max(1, ||x||)``.  Since ``||x|| <= ||x||_F``, k at most ``psd_floor`` is no
    obstruction and k above ``psd_floor * max(1, ||x||_F)`` is one; only between the
    two are the eigenvalues of ``x`` read, for ``||x||``."""
    basis_r, vals_r, basis_k = split
    top = (-1,) if witness else ()
    if vals_r.size < len(x):  # a kernel: the bases of a split span C^n
        kvals, kvec = hermitian_eigh(x, top, basis_k)
        energy, floor = float(kvals[-1]), tol.psd_floor
        with np.errstate(over="ignore"):  # an infinite ||x||_F decides nothing
            frobenius = float(np.linalg.norm(x))
        if energy > floor and (
            energy > floor * frobenius
            or energy > floor * float(np.max(np.abs(hermitian_eigh(x, ())[0])))
        ):
            obstruction = None if kvec is None else _normalize(_columns(basis_k) @ kvec[:, 0])
            return PencilBound(value=math.inf, obstruction=obstruction)
    if vals_r.size == 0:
        return PencilBound(value=0.0, degenerate=True)
    whitener = _whitener(basis_r, vals_r)
    cvals, cvec = hermitian_eigh(x, top, whitener)
    witness = None if cvec is None else _normalize(_columns(whitener) @ cvec[:, 0])
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


def _pencil_inf(x: np.ndarray, split, tol: Tolerance, witness: bool = True) -> PencilBound:
    """:func:`pencil_inf` given ``psd_split(y)``; without ``witness`` the reduced operand
    goes to :func:`hermitian_eigh` with ``()``, for its values only."""
    basis_r, vals_r, basis_k = split
    if vals_r.size == 0:
        return PencilBound(value=math.inf, degenerate=True)
    whitener = _whitener(basis_r, vals_r)
    if vals_r.size == len(x):  # no kernel: the bases of a split span C^n
        operand, basis, lift = x, whitener, whitener
    else:
        columns, kernel = _columns(whitener), _columns(basis_k)
        cross = columns.conj().T @ x @ kernel
        kernel_pinv = pinv(compress(x, basis_k), tol)
        lift = columns - kernel @ kernel_pinv @ cross.conj().T
        operand, basis = compress(x, whitener) - cross @ kernel_pinv @ cross.conj().T, None
    cvals, cvec = hermitian_eigh(operand, (0,) if witness else (), basis)
    value = float(cvals[0])
    witness = None if cvec is None else _normalize(_columns(lift) @ cvec[:, 0])
    return PencilBound(value=value if value > 0.0 else 0.0, witness=witness)


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
    A monomial T (every grid operation) has a diagonal commutator, placed as
    a 1-D diagonal and read by ``_diagonal_eigh``, and a norm of its largest
    ``|phase|``.  Entries beyond 2**200 are scaled by a power of two first and
    the reported values scaled back exactly; an eigenvalue beyond the float
    range raises OverflowError.
    """
    t = _structure(t)
    if t.shape[0] != t.shape[1]:
        raise NotSquare(f"hyponormality needs a square operator, got {t.shape}")
    return _hyponormality(*_pow2_scaled(t), tol, margin)


def _hyponormality(
    t, exponent: int, tol: Tolerance, margin: int | None = None, norm: float | None = None
) -> HyponormalityReport:
    """:func:`hyponormality` of the square ``t = T * 2**-exponent`` in the kernels' form
    (``numerics._structure``), with ``norm = ||t||`` where the caller holds it."""
    # T is scaled by 2**-e (e = 0 for ordinary entries) so the products stay
    # finite; eigenvalues scale back by 4**e, the norm by 2**e.
    with np.errstate(invalid="ignore", over="ignore"):  # the eigensolvers refuse the non-finite
        if isinstance(t, Monomial):  # diagonal: |phase[i]|^2 at index[i], less |phase[i]|^2 at i
            weight = t.phase.real**2 + t.phase.imag**2
            commutator = -weight
            commutator[t.index] += weight
            eigh = _diagonal_eigh
        else:
            commutator = t.conj().T @ t - t @ t.conj().T
            eigh = partial(hermitian_eigh, positions=())
    vals = eigh(commutator)[0]
    min_eig = float(vals[0]) if vals.size else 0.0
    norm = op_norm(t) if norm is None else norm
    floor = tol.psd_floor * max(math.ldexp(1.0, -2 * exponent), norm**2)
    margin_verdict = margin_min = None
    if margin is not None:
        margin_min = float(eigh(restrict(commutator, margin))[0][0])
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
    t1, exponent = _pow2_scaled(t1)
    return _relative_hyponormality(_gram_split(t1, tol, right=True), exponent, t2, tol)


def _relative_hyponormality(
    split, exponent: int, t2: np.ndarray, tol: Tolerance
) -> RelativeHyponormalityReport:
    """:func:`relative_hyponormality` given the split of T1*T1 for T1 scaled by ``2**-exponent``."""
    # T1 and T2 are each scaled by 2**-e (e = 0 for ordinary entries); lambda scales back.
    t2, e2 = _pow2_scaled(t2)
    bound = _pencil_sup(hermitize(t2 @ t2.conj().T), split, tol)
    lambda_opt = _pow2_restored(bound.value, 2 * (e2 - exponent))
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
    # One SVD of T2 (full on the left if T2 is tall) gives rank(T2) for the range test,
    # the split of T2 T2* and pinv(T2).
    factors = svd(t2, full=t2.shape[0] > t2.shape[1])
    rank = int(np.count_nonzero(rank_mask(factors[1], tol)))
    included = numerical_rank(np.concatenate([t2, t1], axis=1), tol) == rank
    split = _svd_split(factors[0], factors[1], tol)
    majorize = _pencil_sup(hermitize(t1 @ t1.conj().T), split, tol, witness=False)
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
