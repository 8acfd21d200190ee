"""Dense complex-matrix kernels shared by every higher layer.

Operators are plain numpy complex matrices acting on C^n with the standard
inner product.  Eigenvalue and singular-value work is delegated to LAPACK
through :mod:`numpy.linalg`; what this module adds is the explicit tolerance
discipline (Hermiticity verdicts, rank cutoffs, positivity floors) that
operator inequalities need once they meet floating point.

The spectral step every criterion shares lives here, once:

* ``_monomial`` is the one structure test.  It returns the index-and-phase
  form ``(index, phase)`` of a monomial operand, at most one nonzero in each
  row and column, with ``m[i, index[i]] = phase[i]``, and None for any other
  operand.  It is exact, with no tolerance, and one ``count_nonzero``
  refuses an unstructured operand before any index array is made.  The grid
  operations that generate wave-packet systems are all monomial.  Four
  kernels use it:

  - ``_reference_eigh`` reads an exactly diagonal operand's spectrum off the
    diagonal (stable ascending order, coordinate vectors as eigenvectors),
    with no LAPACK call.  It serves the operands that are diagonal by
    construction for a monomial window, the reference operator ``psd_split``
    splits and the hyponormality commutator, and the frame operator a check
    decomposes once (it pays one ``count_nonzero``).  A whitened pencil goes
    to ``hermitian_eigh`` and pays no structure test;
  - ``compress`` onto a basis with one nonzero per column is a gather;
  - ``_window_products`` places ``T T*`` and ``T* T`` of a monomial T as
    diagonals of ``|phase|^2`` in O(n), from one structure test of T, and
    returns those weights; the window checks and ``hyponormality``
    (commutator ``T* T - T T*``) take their products from it;
  - ``op_norm`` of a monomial operand is its largest ``|phase|``.

* ``hermitian_eigh`` is the one eigensolver: the only caller of
  ``np.linalg.eigh`` / ``eigvalsh`` in the package.  It hermitizes its operand
  once, refuses non-finite entries and maps LAPACK failures to
  ``NoConvergence``, and keeps no state between calls.  ``herm_eig`` adds a
  Hermiticity verdict in front of it, for operands that are not Hermitian by
  construction.
* ``svd`` is the one singular-value decomposition: the only caller of
  ``np.linalg.svd``, mapping LAPACK failures to ``NoConvergence``.
  ``op_norm`` of any non-monomial operand reads its top singular value
  (``vectors=False``), so the spectral norm takes no other route to LAPACK.
* ``rank_mask`` is the one rank cut; ``psd_split``, ``pinv`` and
  ``numerical_rank`` and every caller that truncates a spectrum use it, and
  ``_split`` splits a spectrum already at hand as ``psd_split`` would.
* ``compress`` is the one compression ``basis* X basis`` onto orthonormal
  columns (whitened ranges and kernels), and ``restrict`` the one margin
  restriction: a window check with ``margin=m`` scores its operators on the
  first ``n - m`` coordinates, their leading ``(n - m)`` square block.
* ``_pow2_scaled`` scales an operand with entries beyond 2**200 by a power
  of two before a check forms its frame operator or window products (or
  ``hyponormality`` its commutator), and
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

import math
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


def _monomial(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Index-and-phase form ``(index, phase)`` of a monomial ``m``; None for any other ``m``.

    ``m`` is monomial here when it has no more rows than columns and each row
    and each column holds at most one nonzero.  Then ``m[i, index[i]] =
    phase[i]`` and every other entry is zero, so ``(m @ x)[i] = phase[i] *
    x[index[i]]``; ``index`` takes distinct columns, a zero row having phase 0
    and the least column no other row takes.  An exactly diagonal ``m`` has
    ``index = arange(rows)``.  The test is exact, with no tolerance, and one
    ``count_nonzero`` refuses an operand with more nonzeros than rows before
    any index array is made.
    """
    rows, cols = m.shape
    count = np.count_nonzero(m)
    if rows > cols or count > rows:
        return None
    diagonal = m.diagonal()
    if np.count_nonzero(diagonal) == count:
        return np.arange(rows), diagonal.astype(np.complex128)
    r, c = np.nonzero(m)  # row-major, so r ascends
    taken = np.zeros(cols, dtype=bool)
    taken[c] = True
    if np.count_nonzero(np.diff(r)) < count - 1 or np.count_nonzero(taken) < count:
        return None  # a row or a column holds two nonzeros
    phase = np.zeros(rows, dtype=np.complex128)
    phase[r] = m[r, c]
    if count == rows:
        return c, phase
    index = np.empty(rows, dtype=np.intp)
    zero_rows = phase == 0
    index[zero_rows] = np.flatnonzero(~taken)[: rows - count]
    index[r] = c
    return index, phase


def op_norm(m) -> float:
    """Spectral (operator 2-) norm; zero for empty matrices.

    A monomial operand's norm is its largest ``|phase|``, read off without
    LAPACK; any other operand's is its top singular value.
    """
    m = as_operator(m)
    if m.size == 0:
        return 0.0
    form = _monomial(m)
    if form is not None:
        norm = float(np.max(np.abs(form[1])))
        if math.isfinite(norm):  # else the SVD refuses the operand
            return norm
    return float(svd(m, vectors=False)[0])


def hermitize(m) -> np.ndarray:
    """Nearest Hermitian part (H + H*)/2 for round-off cleanup.

    Formed as ``H/2 + (H/2)*``, which cannot overflow for finite entries and
    has the bits of ``(H + H*)/2`` wherever halving is exact (all but
    subnormals).
    """
    half = as_operator(m) * 0.5
    return half + half.conj().T


def compress(x, basis) -> np.ndarray:
    """Hermitian part of ``basis* x basis``.

    When ``basis`` has at most one nonzero ``b_j`` per column, in distinct
    rows ``r_j`` (a whitener of a diagonal operand), this gathers
    ``conj(b_i) x[r_i, r_j] b_j`` in O(r^2) in place of two products.
    """
    form = _monomial(basis.T)
    if form is None:
        return hermitize(basis.conj().T @ x @ basis)
    rows, phase = form
    return hermitize(phase.conj()[:, None] * x[rows[:, None], rows] * phase)


def _window_products(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(t t*, t* t, weight)`` of a square ``t``, from one structure test.

    For a monomial ``t`` both products are diagonal and placed in O(n)
    without a product: ``weight = |phase|^2`` is the diagonal of ``t t*``,
    and ``t* t`` holds ``weight[i]`` at ``(index[i], index[i])``.  For any
    other ``t`` the weight is None.
    """
    form = _monomial(t)
    if form is None:
        return t @ t.conj().T, t.conj().T @ t, None
    index, phase = form
    weight = phase.real**2 + phase.imag**2
    left = np.zeros(t.shape, dtype=np.complex128)
    right = np.zeros(t.shape, dtype=np.complex128)
    np.fill_diagonal(left, weight)
    right[index, index] = weight
    return left, right, weight


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


def _pow2_restored(value: float, exponent: int, what: str = "optimal constant") -> float:
    """``value * 2**exponent`` exactly; OverflowError, naming ``what``, when that leaves the float range."""
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        raise OverflowError(f"{what} {value!r} * 2**{exponent} is non-finite in float64") from None


def hermitian_eigh(h, vectors: bool = True, basis=None):
    """Eigenvalues (ascending) and eigenvectors of the Hermitian part of ``h``.

    With a ``basis``, the operand is ``compress(h, basis)`` instead.  Either
    way it is hermitized exactly once, so callers pass raw products.  With
    ``vectors`` False only the eigenvalues are computed and returned.
    Raises NoConvergence for an operand with a non-finite entry and when the
    LAPACK iteration fails.
    """
    # Non-finite entries and overflowed products are refused below, silently.
    with np.errstate(invalid="ignore", over="ignore"):
        h = hermitize(h) if basis is None else compress(h, basis)
    if not np.isfinite(h).all():
        raise NoConvergence("eigenvalue problem has a non-finite entry")
    try:
        # Looked up on np.linalg at each call, so a wrapper installed there sees it.
        return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def _reference_eigh(h, vectors: bool = True):
    """:func:`hermitian_eigh`, read off the diagonal when ``h`` is exactly diagonal.

    For a pencil's reference operator and the hyponormality commutator,
    diagonal by construction when the window is monomial, and for a frame
    operator a check decomposes once to read several things from.  The
    eigenvalues are the diagonal's real parts, the Hermitian part's diagonal,
    in stable ascending order, and the eigenvectors the coordinate vectors in
    the same order; no LAPACK call.  A non-finite or
    non-diagonal operand goes to :func:`hermitian_eigh`, which refuses or
    decomposes it.
    """
    h = as_operator(h)
    n = h.shape[0]
    form = _monomial(h) if h.shape == (n, n) else None
    if form is None or not (form[0] == np.arange(n)).all() or not np.isfinite(form[1]).all():
        return hermitian_eigh(h, vectors)
    order = np.argsort(form[1].real, kind="stable")
    values = form[1].real[order]
    if not vectors:
        return values
    coordinates = np.zeros((n, n), dtype=np.complex128)
    coordinates[order, np.arange(n)] = 1.0
    return values, coordinates


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
    eigenvectors of the discarded kernel.  An exactly diagonal ``y``, such
    as a window product of a monomial window, is split without LAPACK.
    """
    return _split(*_reference_eigh(y), tol)


def _split(vals: np.ndarray, vecs: np.ndarray, tol: Tolerance):
    """:func:`psd_split` of the operand whose ascending eigenpairs are ``vals, vecs``."""
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
    for what, size in (("rows", rows), ("cols", cols)):
        if size < 0:
            raise ValueError(f"operator {what} must be nonnegative, got {size}")
    return complex_from_json(obj, (rows * cols,), "operator JSON entries").reshape(rows, cols)
