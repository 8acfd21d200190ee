"""Dense complex-matrix kernels shared by every higher layer.

Operators are plain numpy complex matrices acting on C^n with the standard
inner product.  Eigenvalue and singular-value work is delegated to LAPACK
through :mod:`numpy.linalg`; what this module adds is the explicit tolerance
discipline (Hermiticity verdicts, rank cutoffs, positivity floors) that
operator inequalities need once they meet floating point.

The spectral step every criterion shares lives here, once:

* ``hermitian_eigh`` is the one eigensolver: the only caller of
  ``np.linalg.eigh`` / ``eigvalsh`` in the package.  It hermitizes its operand
  once, refuses non-finite entries and maps LAPACK failures to
  ``NoConvergence``.  ``herm_eig`` adds a Hermiticity verdict in front of it,
  for operands that are not Hermitian by construction.
* ``svd`` is the one singular-value decomposition: the only caller of
  ``np.linalg.svd``, mapping LAPACK failures to ``NoConvergence``.
  ``op_norm`` reads its top singular value (``vectors=False``), so the
  spectral norm takes no other route to LAPACK.
* ``spectral_scope`` decorates the public checks.  While the outermost one
  runs, ``hermitian_eigh`` remembers each result under the shape, the
  ``vectors`` flag and the sha256 of the bytes of the operand it hands to
  LAPACK, so a check decomposes each operand once.  The memo lives in a
  ``ContextVar`` (threads never share it), nested checks share the outermost
  one, and it is emptied when that check returns or raises.  Remembered
  arrays are read-only, an eigenvalues-only result never serves a full
  decomposition nor the reverse, and a LAPACK failure is not remembered.
  Outside a check every call reaches LAPACK.
* ``rank_mask`` is the one rank cut; ``psd_split``, ``pinv`` and
  ``numerical_rank`` and every caller that truncates a spectrum use it.
* ``compress`` is the one compression ``basis* X basis`` onto orthonormal
  columns (whitened ranges and kernels), and ``restrict`` the one margin
  restriction: a window check with ``margin=m`` scores its operators on the
  first ``n - m`` coordinates, their leading ``(n - m)`` square block.
* ``_pow2_scaled`` scales an operand with entries beyond 2**200 by a power
  of two before a check forms its frame operator or window products, and
  ``_pow2_restored`` undoes it exactly on the constants, using
  ``pencil(a X, b Y) = (a / b) pencil(X, Y)``; a constant beyond the float
  range raises OverflowError.  Ordinary operands take exponent 0.
* ``as_integer`` and ``as_real`` check the integer and real-number fields read
  from JSON.
* ``complex_to_json`` is the one writer of the ``{"re": [...], "im": [...]}``
  form, and ``complex_from_json`` its one reader.

Conventions:

* ``herm_eig`` returns eigenvalues ascending, ``svd`` singular values
  descending.
* Rank cutoffs are relative to the operand's own largest eigenvalue or
  singular value.
* Positivity verdicts compare the smallest eigenvalue against
  ``-psd_floor * max(1, ||H||)`` so the zero operator and tiny operators are
  both handled sensibly.
"""

from __future__ import annotations

import functools
import hashlib
import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds for positivity, rank, and verdict decisions.

    psd_floor
        Eigenvalue slack for "is this operator >= 0", applied against
        ``max(1, norm)``.
    rank_rel
        Relative singular-value cutoff for numerical rank and pseudoinverse
        truncation.
    verdict_rel
        Relative tolerance for equality/inequality verdicts.
    """

    psd_floor: float = 1e-9
    rank_rel: float = 1e-10
    verdict_rel: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("psd_floor", "rank_rel", "verdict_rel"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


DEFAULT_TOL = Tolerance()


def as_operator(entries) -> np.ndarray:
    """Coerce input to a 2-D complex128 matrix."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def as_vector(entries) -> np.ndarray:
    """Coerce input to a 1-D complex128 vector."""
    v = np.asarray(entries, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got ndim={v.ndim}")
    return v


def as_integer(value, what: str) -> int:
    """``value`` as an int: integers and integral floats such as 3.0 pass.

    Every integer field read from JSON goes through here.  A non-integral
    number, a bool, None, a string or a list raises ValueError; NaN and
    infinities raise what ``int`` raises for them (ValueError, OverflowError).
    """
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    integral = int(value)
    if integral != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return integral


def as_real(value, what: str) -> float:
    """``value`` as a finite float: integers and floats pass.

    Every real-number field read from JSON goes through here.  A bool, None,
    a string, a list, an infinity or NaN raises ValueError; an integer beyond
    the float range raises the OverflowError of ``float``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    real = float(value)
    if not math.isfinite(real):
        raise ValueError(f"{what} must be a finite real number, got {value!r}")
    return real


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_operator(m).conj().T


def op_norm(m) -> float:
    """Spectral (operator 2-) norm, the top singular value; zero for empty matrices."""
    m = as_operator(m)
    if m.size == 0:
        return 0.0
    return float(svd(m, vectors=False)[0])


def hermitize(m) -> np.ndarray:
    """Nearest Hermitian part (H + H*)/2 for round-off cleanup."""
    m = as_operator(m)
    return (m + m.conj().T) / 2


def compress(x, basis) -> np.ndarray:
    """Hermitian part of ``basis* x basis``."""
    return hermitize(basis.conj().T @ x @ basis)


def restrict(x: np.ndarray, margin: int | None) -> np.ndarray:
    """Leading ``(n - margin)`` square block of the n x n ``x``; ``x`` itself for None.

    This drops the last ``margin`` coordinates, where a truncated one-sided
    shift breaks the identities of the full sequence space.  Raises
    ValueError unless ``margin`` is an int with ``0 <= margin < n``.
    """
    if margin is None:
        return x
    n = x.shape[0]
    if not (isinstance(margin, int) and 0 <= margin < n):
        raise ValueError(f"margin must satisfy 0 <= margin < dimension, got {margin!r}")
    return x[: n - margin, : n - margin]


# Operands with a real or imaginary part beyond this magnitude are scaled by a
# power of two before a check multiplies them, so that the squares it sums
# stay far inside the float range; every other operand keeps its exact bits.
_SCALE_ABOVE = 2.0**200


def _pow2_scaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """``(m * 2**-e, e)`` with ``e = 0`` unless a part of an entry exceeds ``_SCALE_ABOVE``.

    A scaled operand's largest real or imaginary part lands in [1, 2).  Only
    exponents change, so the scaling is exact and signed zeros stay.
    """
    parts = np.ascontiguousarray(m, dtype=np.complex128).view(np.float64)
    top = float(np.max(np.abs(parts), initial=0.0))
    if top <= _SCALE_ABOVE:
        return m, 0
    exponent = math.frexp(top)[1] - 1
    return np.ldexp(parts, -exponent).view(np.complex128), exponent


def _pow2_restored(value: float, exponent: int) -> float:
    """``value * 2**exponent`` exactly; OverflowError when that leaves the float range."""
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        raise OverflowError(
            f"optimal constant {value!r} * 2**{exponent} is non-finite in float64"
        ) from None


# Spectra of the running check, keyed by the exact operand handed to LAPACK;
# None outside a check.
_SPECTRA: ContextVar[dict | None] = ContextVar("framekit_spectra", default=None)


def spectral_scope(check):
    """Decorate a check so each operand it decomposes reaches LAPACK once.

    While the outermost decorated call runs, ``hermitian_eigh`` remembers its
    results; nested decorated calls share that memo, and it is emptied when
    the outermost call returns or raises.
    """

    @functools.wraps(check)
    def scoped(*args, **kwargs):
        if _SPECTRA.get() is not None:
            return check(*args, **kwargs)
        memo: dict = {}
        token = _SPECTRA.set(memo)
        try:
            return check(*args, **kwargs)
        finally:
            _SPECTRA.reset(token)
            memo.clear()

    return scoped


def _lapack_eigh(h: np.ndarray, vectors: bool):
    try:
        # Looked up on np.linalg at each call, so a wrapper installed there sees it.
        return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def hermitian_eigh(h, vectors: bool = True, basis=None):
    """Eigenvalues (ascending) and eigenvectors of the Hermitian part of ``h``.

    With a ``basis``, the operand is ``compress(h, basis)`` instead.  Either
    way it is hermitized exactly once, so callers pass raw products.  With
    ``vectors`` False only the eigenvalues are computed and returned.
    Raises NoConvergence for an operand with a non-finite entry and when the
    LAPACK iteration fails.

    Inside a :func:`spectral_scope` the result is remembered under the
    operand's shape, ``vectors`` and the sha256 of its bytes, and returned
    read-only; a repeated operand is then not decomposed again.
    """
    # Non-finite entries and overflowed products are refused below, silently.
    with np.errstate(invalid="ignore", over="ignore"):
        h = hermitize(h) if basis is None else compress(h, basis)
    if not np.isfinite(h).all():
        raise NoConvergence("eigenvalue problem has a non-finite entry")
    memo = _SPECTRA.get()
    if memo is None:
        return _lapack_eigh(h, vectors)
    key = (h.shape, vectors, hashlib.sha256(np.ascontiguousarray(h)).digest())
    if key not in memo:
        result = _lapack_eigh(h, vectors)
        for array in result if vectors else (result,):
            array.setflags(write=False)
        memo[key] = result
    return memo[key]


def herm_eig(h, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, real) and orthonormal eigenvectors of a Hermitian matrix.

    Raises NotHermitian when ``||H - H*|| > verdict_rel * ||H||``, and
    NoConvergence as :func:`hermitian_eigh` does.
    """
    h = as_operator(h)
    if h.shape[0] != h.shape[1]:
        raise NotHermitian(f"matrix of shape {h.shape} cannot be Hermitian")
    dev = op_norm(h - h.conj().T)
    scale = op_norm(h)
    if dev > tol.verdict_rel * scale:
        raise NotHermitian(
            f"asymmetry {dev:.3e} exceeds verdict_rel * ||H|| = {tol.verdict_rel * scale:.3e}"
        )
    return hermitian_eigh(h)


def rank_mask(values: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The rank cut: mask of the values above ``rank_rel`` times the largest one.

    Serves PSD eigenvalues and singular values alike; when the largest value
    is not positive, nothing is kept.
    """
    top = float(np.max(values)) if values.size else 0.0
    return values > tol.rank_rel * max(top, 0.0)


def psd_split(y, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a PSD matrix at the rank cut.

    Returns the kept eigenvectors, their eigenvalues (ascending) and the
    eigenvectors of the discarded kernel.
    """
    vals, vecs = hermitian_eigh(y)
    keep = rank_mask(vals, tol)
    return vecs[:, keep], vals[keep], vecs[:, ~keep]


def svd(m, vectors: bool = True):
    """Thin SVD ``(left, singulars, right)`` with ``M = left @ diag(s) @ adjoint(right)``.

    Singular values are nonnegative and descending.  With ``vectors`` False
    only they are computed and returned.  Raises NoConvergence when the LAPACK
    iteration fails.
    """
    m = as_operator(m)
    try:
        if not vectors:
            return np.linalg.svd(m, compute_uv=False)
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return u, s, vh.conj().T


def numerical_rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values kept by the rank cut."""
    return int(np.count_nonzero(rank_mask(svd(m, vectors=False), tol)))


def pinv(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via truncated SVD.

    Singular values the rank cut discards are dropped, so the zero matrix
    maps to the (transposed) zero matrix.
    """
    m = as_operator(m)
    u, s, v = svd(m)
    keep = rank_mask(s, tol)
    if not np.any(keep):
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    return (v[:, keep] / s[keep]) @ u[:, keep].conj().T


def is_psd(h, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Positive-semidefiniteness verdict with the smallest eigenvalue as witness.

    Verdict is ``min_eig >= -psd_floor * max(1, ||H||)``.
    """
    vals, _ = herm_eig(h, tol)
    if vals.size == 0:
        return True, 0.0
    min_eig = float(vals[0])
    scale = max(1.0, float(np.max(np.abs(vals))))
    return min_eig >= -tol.psd_floor * scale, min_eig


def range_inclusion(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the column space of ``a`` lies inside the column space of ``b``.

    Decided by comparing numerical ranks of ``[b | a]`` and ``b`` under the
    shared ``rank_rel`` cutoff.
    """
    a = as_operator(a)
    b = as_operator(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(
            f"row counts differ: {a.shape[0]} vs {b.shape[0]}"
        )
    stacked = np.concatenate([b, a], axis=1)
    return numerical_rank(stacked, tol) == numerical_rank(b, tol)


# ---------------------------------------------------------------------------
# JSON form: {"rows": r, "cols": c, "re": [...], "im": [...]} row-major.


def complex_from_json(obj, shape: tuple[int, ...] | None, what: str) -> np.ndarray:
    """Complex array of a ``{"re": [...], "im": [...]}`` object; ``im`` defaults to zeros.

    Both parts must be real arrays of ``shape`` (of any 1-D length when
    ``shape`` is None) with finite entries; anything else raises ValueError.
    Parts are copied exactly, signed zeros too, so this inverts ``complex_to_json``.
    """
    try:
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64) if "im" in obj else np.zeros_like(re)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {what}: {exc!r}") from exc
    expected = (re.size,) if shape is None else shape
    if re.shape != expected or im.shape != expected:
        raise ValueError(f"{what} need shape {expected}, got re {re.shape} and im {im.shape}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError(f"{what} must be finite")
    out = np.empty(expected, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def complex_to_json(a) -> dict:
    """``{"re": [...], "im": [...]}`` of an array's parts; the inverse of ``complex_from_json``."""
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def operator_to_json(m) -> dict:
    m = as_operator(m)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), **complex_to_json(m.reshape(-1))}


def operator_from_json(obj: dict) -> np.ndarray:
    try:
        rows = as_integer(obj["rows"], "operator rows")
        cols = as_integer(obj["cols"], "operator cols")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed operator JSON: {exc}") from exc
    return complex_from_json(obj, (rows * cols,), "operator JSON entries").reshape(rows, cols)
