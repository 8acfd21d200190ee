"""Dense complex-matrix kernels shared by every higher layer.

Operators are plain numpy complex matrices acting on C^n with the standard
inner product.  Eigenvalue and singular-value work is delegated to LAPACK
through :mod:`numpy.linalg`; what this module adds is the explicit tolerance
discipline (Hermiticity verdicts, rank cutoffs, positivity floors) that
operator inequalities need once they meet floating point.

The spectral step every criterion shares lives here, once:

* ``Monomial`` is the one form of a grid operation, ``m[i, index[i]] =
  phase[i]``.  It travels from ``signal_space._index_phase`` into the kernels,
  which read it in O(n), and the split of a diagonal keeps its coordinate
  basis as one, which ``compress`` gathers.  A dense operand meets the one
  structure test, ``_monomial``, once, in ``_structure``, and ``as_operator``
  densifies a Monomial where a product with a dense operand needs it.
* ``hermitian_eigh`` is the one Hermitian eigensolver: it hermitizes (or
  compresses) its operand once and returns every eigenpair, the values
  alone, or the values and inverse-iteration eigenvectors at the positions
  asked for.  The residual is the one certificate of such an eigenvector,
  for a simple and a repeated eigenvalue alike; a full ``eigh`` runs only
  for an exactly singular shift or a failed residual.  ``_eigh``, the
  package's only caller of ``np.linalg.eigh`` / ``eigvalsh``, refuses
  non-finite entries and maps LAPACK failures to ``NoConvergence``.  ``herm_eig`` adds a Hermiticity
  verdict; an operand diagonal by construction goes to ``_diagonal_eigh``.
* ``svd`` is the one singular-value decomposition: the only caller of
  ``np.linalg.svd``.  Like ``_eigh`` it refuses non-finite entries, and it
  maps LAPACK failures to ``NoConvergence``.
  ``op_norm`` of any non-monomial operand reads its top singular value.
* ``rank_mask`` is the one rank cut, and ``_split`` the one split of a
  spectrum at it.  ``psd_split`` splits a PSD operand at its eigenvalues.
  ``_gram_split`` splits ``T T*`` or ``T* T`` of a factor T at hand (a
  window, an operator of a relative inequality), restricted by a margin,
  from T's index-and-phase form in O(n) or else one SVD of T, never forming
  it, and cuts on the singular values of T as ``pinv`` and
  ``numerical_rank`` do, not on their squares; a kept one whose square
  underflows the normal floats raises Underflow.
* ``compress`` is the one compression ``basis* X basis`` onto orthonormal
  columns (whitened ranges and kernels), and ``restrict`` the one margin
  restriction: a window check with ``margin=m`` scores its operators on the
  first ``n - m`` coordinates, their leading ``(n - m)`` square block.
* ``_pow2_scaled`` scales an operand with entries beyond 2**200 by a power
  of two before a check forms its frame operator or splits its window (or
  ``hyponormality`` forms its commutator), and
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
* Rank cutoffs are relative to the largest singular value of a factor, or
  the largest eigenvalue of a reference given as a PSD operand.
* Positivity verdicts compare the smallest eigenvalue against
  ``-psd_floor * max(1, ||H||)`` so the zero operator and tiny operators are
  both handled sensibly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, Underflow


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds for positivity, rank, and verdict decisions.

    psd_floor
        Eigenvalue slack for "is this operator >= 0", applied against
        ``max(1, norm)``.
    rank_rel
        Relative singular-value cutoff: the one rank cut, for numerical rank,
        pseudoinverse truncation and the splits of windows and other factors.
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

# The most complex entries an input may make framekit hold: a signal's samples,
# a label box's atoms times grid size, eight times the n of a named operator's
# form (check-hypo of a modulation peaks at 4.5 n-vectors), and n*n for a system
# or operator read from JSON and wherever a check forms an n x n operator (a
# frame operator, a densified Monomial).  A larger input is refused before
# anything is allocated.  It is 2**24 (256 MiB of entries, n <= 4096), over 200
# times the largest box the benchmark generates (384 atoms on 192 points).
MAX_ATOM_ENTRIES = 2**24


def _dense_size_checked(n: int, what: str) -> int:
    """``n``, or ValueError naming the limit when an n x n operand exceeds ``MAX_ATOM_ENTRIES``."""
    if n * n > MAX_ATOM_ENTRIES:
        raise ValueError(
            f"{what} {n} exceeds the dense limit: n x n must stay within "
            f"MAX_ATOM_ENTRIES = {MAX_ATOM_ENTRIES} entries (n <= {math.isqrt(MAX_ATOM_ENTRIES)})"
        )
    return n


@dataclass(frozen=True, eq=False)
class Monomial:
    """Form ``m[i, index[i]] = phase[i]``, every other entry 0, of a matrix with no more rows
    than its ``n`` columns and at most one nonzero in each row and column (``index`` takes
    distinct columns), as every grid operation is (``signal_space._index_phase``); a split
    basis of coordinate columns is kept as the Monomial of its transpose."""

    index: np.ndarray
    phase: np.ndarray
    n: int

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.index), self.n

    def dense(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=np.complex128)
        m[np.arange(len(self.index)), self.index] = self.phase
        return m


def as_operator(entries) -> np.ndarray:
    """Coerce input to a 2-D complex128 matrix; a Monomial is densified within the dense limit."""
    if isinstance(entries, Monomial):
        _dense_size_checked(entries.n, "grid operator n")
        return entries.dense()
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


def adjoint(m):
    """Conjugate transpose; a square Monomial's is one too."""
    if isinstance(m, Monomial) and len(m.index) == m.n:
        inverse = np.argsort(m.index)  # the row of m that holds each column's nonzero
        return Monomial(inverse, m.phase.conj()[inverse], m.n)
    return as_operator(m).conj().T


def _monomial(m: np.ndarray) -> Monomial | None:
    """The Monomial form of ``m``, or None when ``m`` is not one.

    The test is exact, with no tolerance, and one ``count_nonzero`` refuses an
    operand with more nonzeros than rows before any index array is made.  A zero
    row has phase 0 and the least column no other row takes; an exactly diagonal
    ``m`` has ``index = arange(rows)``.  Only :func:`_structure` calls it.
    """
    rows, cols = m.shape
    count = np.count_nonzero(m)
    if rows > cols or count > rows:
        return None
    diagonal = m.diagonal()
    if np.count_nonzero(diagonal) == count:
        return Monomial(np.arange(rows), diagonal.astype(np.complex128), cols)
    r, c = np.nonzero(m)  # row-major, so r ascends
    taken = np.zeros(cols, dtype=bool)
    taken[c] = True
    if np.count_nonzero(np.diff(r)) < count - 1 or np.count_nonzero(taken) < count:
        return None  # a row or a column holds two nonzeros
    phase = np.zeros(rows, dtype=np.complex128)
    phase[r] = m[r, c]
    if count == rows:
        return Monomial(c, phase, cols)
    index = np.empty(rows, dtype=np.intp)
    zero_rows = phase == 0
    index[zero_rows] = np.flatnonzero(~taken)[: rows - count]
    index[r] = c
    return Monomial(index, phase, cols)


def _structure(m):
    """``m`` as the kernels take it: a Monomial, found by the one structure test, or a matrix."""
    if isinstance(m, Monomial):
        return m
    m = as_operator(m)
    return _monomial(m) or m


def op_norm(m) -> float:
    """Spectral (operator 2-) norm; zero for empty matrices.

    A Monomial's norm is its largest ``|phase|``, read off without LAPACK; any
    other operand's is its top singular value.
    """
    m = _structure(m)
    if isinstance(m, Monomial):
        norm = float(np.max(np.abs(m.phase), initial=0.0))
        if math.isfinite(norm):
            return norm  # else the SVD refuses it
    return float(svd(m, vectors=False)[0]) if min(m.shape) else 0.0


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

    A Monomial ``basis``, the form a split keeps for coordinate columns ``b_j``
    at rows ``r_j``, is a gather of ``conj(b_i) x[r_i, r_j] b_j`` in O(r^2) in
    place of two products.
    """
    if not isinstance(basis, Monomial):
        return hermitize(basis.conj().T @ x @ basis)
    rows, phase = basis.index, basis.phase
    return hermitize(phase.conj()[:, None] * x[rows[:, None], rows] * phase)


def _columns(basis) -> np.ndarray:
    """The n x r matrix of a split basis, laid out as a dense split's for a Monomial one."""
    return np.ascontiguousarray(basis.dense().T) if isinstance(basis, Monomial) else basis


def _whitener(basis, vals: np.ndarray):
    """``basis / sqrt(vals)``, each column of a split basis by its root; a Monomial stays one."""
    if isinstance(basis, Monomial):
        return Monomial(basis.index, basis.phase / np.sqrt(vals), basis.n)
    return basis / np.sqrt(vals)


def restrict(x: np.ndarray, margin: int | None) -> np.ndarray:
    """Leading ``(n - margin)`` square block of the n x n ``x``, or leading ``n - margin``
    entries of a 1-D ``x``; ``x`` itself for None.

    This drops the last ``margin`` coordinates, where a truncated one-sided
    shift breaks the identities of the full sequence space.  Raises
    ValueError unless ``margin`` is an int with ``0 <= margin < n``.
    """
    if margin is None:
        return x
    n = x.shape[0]
    if not (isinstance(margin, int) and 0 <= margin < n):
        raise ValueError(f"margin must satisfy 0 <= margin < dimension, got {margin!r}")
    return x[(slice(n - margin),) * x.ndim]


# Operands with a real or imaginary part beyond this magnitude are scaled by a
# power of two before a check multiplies them, so that the squares it sums
# stay far inside the float range; every other operand keeps its exact bits.
_SCALE_ABOVE = 2.0**200


def _pow2_scaled(m):
    """``(m * 2**-e, e)`` with ``e = 0`` unless a part of an entry exceeds ``_SCALE_ABOVE``.

    A scaled operand's largest real or imaginary part lands in [1, 2).  Only
    exponents change, so the scaling is exact and signed zeros stay.  A Monomial
    scales its phases.
    """
    if isinstance(m, Monomial):
        phase, exponent = _pow2_scaled(m.phase)
        return Monomial(m.index, phase, m.n), exponent
    parts = np.ascontiguousarray(m, dtype=np.complex128).view(np.float64)
    top = max(float(np.max(parts, initial=0.0)), -float(np.min(parts, initial=0.0)))  # no |parts| copy
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


# A witness from one solve is kept when ||H w - lam w|| <= _WITNESS_C * n * eps * ||H||.
# The worst ratio measured was 7.0 on the eigenvalue problems of the benchmark's
# four workloads (n <= 192) and 18.7 on 800 extreme eigenpairs of random Hermitian
# operands with n < 200, graded spectra down to 1e-12 included.  On 400 clustered
# operands with n = 4-119 (each extreme repeated 2-4 times, c I up to rounding,
# neighbours 4e-16 apart, S of a scaled orthonormal system) it was 1.7, and none
# needed the full eigh.
_WITNESS_C = 32.0
# Fractional part of the golden ratio: the start vector is the chirp exp(2 pi i g j^2),
# which no Fourier mode or coordinate vector is close to orthogonal to.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def hermitian_eigh(h, positions=None, basis=None):
    """``(values, vectors)``: eigenvalues (ascending) and unit eigenvectors of the Hermitian
    part of ``h``, or of ``compress(h, basis)`` with a ``basis``; hermitized once, which
    keeps the bits of an exactly Hermitian ``h`` (all but subnormal entries).

    ``positions`` None gives every eigenpair from one ``eigh``; ``()`` the ``eigvalsh``
    values and None.  A tuple gives those values and, as ``n x len(positions)`` columns,
    the eigenvectors at those positions only, each one step of inverse iteration
    ``solve(h - lam I, b)`` from a fixed start b, certified by its residual ``||h w - lam
    w|| <= _WITNESS_C * n * eps * ||h||`` (Parlett, *The Symmetric Eigenvalue Problem*,
    sections 4-5).  The residual is the one certificate, for a simple and a repeated
    ``lam`` alike: a repeated one gives some unit vector of its eigenspace.  Only an
    exactly singular ``h - lam I`` (as for h = I) or a failed residual reads that
    eigenvector from one full ``eigh``.  Each has the canonical phase of
    :func:`_canonical_phase`, whatever the path and the other positions.  A non-finite
    entry or a LAPACK failure raises NoConvergence.
    """
    # Non-finite entries and overflowed products are refused by _eigh, silently.
    with np.errstate(invalid="ignore", over="ignore"):
        h = hermitize(h) if basis is None else compress(h, basis)
    if positions is None:
        return _eigh(h, vectors=True)
    values = _eigh(h, vectors=False)
    if not positions:
        return values, None
    n = values.size
    bound = _WITNESS_C * n * np.finfo(float).eps * float(np.max(np.abs(values), initial=0.0))
    start = np.exp(2j * np.pi * (np.arange(n) ** 2 * _GOLDEN % 1.0))
    columns, full = [], None
    for position in positions:
        witness = _inverse_iteration(h, values[position], start, bound)
        if witness is None:
            full = _eigh(h, vectors=True)[1] if full is None else full
            witness = full[:, position]
        columns.append(witness)
    return values, _canonical_phase(np.stack(columns, axis=1))


def _eigh(h: np.ndarray, vectors: bool):
    """``eigh`` (``eigvalsh`` without ``vectors``) of the exactly Hermitian ``h``: a
    non-finite entry or a LAPACK failure raises NoConvergence."""
    if not np.isfinite(h).all():
        raise NoConvergence("eigenvalue problem has a non-finite entry")
    try:
        # Looked up on np.linalg at each call, so a wrapper installed there sees it.
        return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def _diagonal_eigh(d: np.ndarray):
    """:func:`hermitian_eigh` of ``diag(d)`` from the 1-D ``d``, with no LAPACK call: the real
    parts of ``d`` in stable ascending order, and the coordinate vectors in that order, as
    the Monomial of their transpose."""
    if not np.isfinite(d).all():
        raise NoConvergence("eigenvalue problem has a non-finite entry")
    order = np.argsort(d.real, kind="stable")
    return d.real[order], Monomial(order, np.ones(d.size, dtype=np.complex128), d.size)


def _inverse_iteration(h: np.ndarray, lam: float, start: np.ndarray, bound: float):
    """Unit eigenvector of ``h`` for its eigenvalue ``lam`` from one solve, or None unless certified."""
    shifted = h.copy()
    shifted.flat[:: len(h) + 1] -= lam
    with np.errstate(all="ignore"):  # an overflowed solve fails the residual test below
        try:
            y = np.linalg.solve(shifted, start)
        except np.linalg.LinAlgError:
            return None  # h - lam I is exactly singular
        norm = np.linalg.norm(y)
        if not 0.0 < norm < math.inf:
            return None  # a zero or overflowed y, whose quotient would pass any residual test
        witness = y / norm
        residual = np.linalg.norm(h @ witness - lam * witness)
    return witness if residual <= bound else None


def _canonical_phase(vectors: np.ndarray) -> np.ndarray:
    """The columns of ``vectors``, each times the unit scalar that makes its largest-modulus
    entry (the first one on a tie) real and positive."""
    moduli = np.abs(vectors)
    rows, cols = np.argmax(moduli, axis=0), np.arange(vectors.shape[1])
    top = moduli[rows, cols]
    out = vectors * (top / vectors[rows, cols])
    out[rows, cols] = top
    return out


def herm_eig(h, tol: Tolerance = DEFAULT_TOL, vectors: bool = True):
    """Eigenvalues (ascending, real) and orthonormal eigenvectors of a Hermitian matrix;
    the eigenvalues alone without ``vectors``.

    Raises NotHermitian when ``||H - H*|| > verdict_rel * ||H||``, and
    NoConvergence as :func:`hermitian_eigh` does.
    """
    h = as_operator(h)
    if h.shape[0] != h.shape[1]:
        raise NotHermitian(f"matrix of shape {h.shape} cannot be Hermitian")
    # An exactly Hermitian h has deviation 0, which passes at any scale; a NaN never compares equal.
    if not np.array_equal(h, h.conj().T):
        with np.errstate(invalid="ignore"):  # inf - inf: the SVD refuses the NaN
            dev = op_norm(h - h.conj().T)
        scale = op_norm(h)
        if dev > tol.verdict_rel * scale:
            raise NotHermitian(
                f"asymmetry {dev:.3e} exceeds verdict_rel * ||H|| = {tol.verdict_rel * scale:.3e}"
            )
    return hermitian_eigh(h) if vectors else hermitian_eigh(h, ())[0]


def rank_mask(values: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The rank cut: mask of the values above ``rank_rel`` times the largest one.

    Serves PSD eigenvalues and singular values alike; when the largest value
    is not positive, nothing is kept.
    """
    top = float(np.max(values)) if values.size else 0.0
    return values > tol.rank_rel * max(top, 0.0)


def psd_split(y, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a PSD matrix at the rank cut.

    Returns the kept eigenvectors as columns, their eigenvalues (ascending) and
    the eigenvectors of the discarded kernel.  The cut falls on the eigenvalues
    of ``y``; an exactly diagonal ``y`` is split without LAPACK.
    """
    form = _structure(y)
    if isinstance(form, Monomial) and np.array_equal(form.index, np.arange(form.n)):
        kept, vals, kernel = _split(*_diagonal_eigh(form.phase), tol)
        return _columns(kept), vals, _columns(kernel)
    return _split(*hermitian_eigh(y), tol)


def _split(vals: np.ndarray, vecs, tol: Tolerance, cut: np.ndarray | None = None):
    """:func:`psd_split` given ascending eigenpairs, cut on ``cut`` (a factor's singular
    values, in the same order) when given, else on ``vals``; coordinate ``vecs`` from
    :func:`_diagonal_eigh` keep their Monomial form.  A kept singular value whose square
    ``vals`` underflows the normal floats raises Underflow: whitening would divide by it."""
    keep = rank_mask(vals if cut is None else cut, tol)
    if cut is not None and np.any(vals[keep] < np.finfo(float).tiny):
        least = float(np.min(cut[keep]))
        raise Underflow(f"kept singular value {least:.3e} squares below the smallest normal float")
    if isinstance(vecs, Monomial):
        kept, kernel = (Monomial(vecs.index[s], vecs.phase[s], vecs.n) for s in (keep, ~keep))
        return kept, vals[keep], kernel
    return vecs[:, keep], vals[keep], vecs[:, ~keep]


def _gram_split(t, tol: Tolerance = DEFAULT_TOL, right: bool = False, size: int | None = None):
    """:func:`psd_split` of ``t t*`` (``t* t`` when ``right``) restricted to its leading ``size``
    coordinates, cut on the singular values of ``t`` and never formed.  A monomial ``t`` (or
    ``t.T`` of a tall one, whose products are the conjugates of ``t``'s, swapped) is read in
    O(n): ``t t*`` holds ``|phase|^2`` on its diagonal and ``t* t`` holds ``|phase[i]|^2`` at
    ``index[i]``.  Any other ``t`` loses all but its leading ``size`` rows (columns when
    ``right``) and is split from one SVD, full on the side where it is thin."""
    rows, cols = t.shape
    form = _structure(t.T if rows > cols else t)
    if isinstance(form, Monomial):
        near = np.stack([form.phase.real**2 + form.phase.imag**2, np.abs(form.phase)])
        if right != (rows > cols):  # t* t, or t t* of a tall t: at index
            far = np.zeros((2, form.n))
            far[:, form.index] = near
            near = far
        w, s = near[:, :size]  # ascending as _diagonal_eigh sorts w
        return _split(*_diagonal_eigh(w), tol, s[np.argsort(w, kind="stable")])
    t = t[:, :size] if right else t[:size]  # still thin on the wanted side only if it was
    u, s, v = svd(t, full=cols > rows if right else rows > cols)
    return _svd_split(v if right else u, s, tol)


def _svd_split(vectors: np.ndarray, s: np.ndarray, tol: Tolerance):
    """Split of ``t t*`` (``t* t``) from the left (right) singular ``vectors`` of ``t`` and ``s``."""
    singular = np.zeros(vectors.shape[1])
    singular[: s.size] = s
    return _split(singular[::-1] ** 2, vectors[:, ::-1], tol, singular[::-1])


def svd(m, vectors: bool = True, full: bool = False):
    """SVD ``(left, singulars, right)`` with ``M = left[:, :k] @ diag(s) @ adjoint(right[:, :k])``.

    Singular values are nonnegative and descending, the vectors thin unless ``full``; with
    ``vectors`` False only the values are computed.  A non-finite entry or a LAPACK failure
    raises NoConvergence.
    """
    m = as_operator(m)
    if not np.isfinite(m).all():  # LAPACK would return NaN singular values without raising
        raise NoConvergence("singular value problem has a non-finite entry")
    try:
        if not vectors:
            return np.linalg.svd(m, compute_uv=False)
        u, s, vh = np.linalg.svd(m, full_matrices=full)
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
    return _svd_pinv(*svd(m), tol)


def _svd_pinv(u: np.ndarray, s: np.ndarray, v: np.ndarray, tol: Tolerance) -> np.ndarray:
    """:func:`pinv` from an SVD at hand, thin or full."""
    k, keep = s.size, rank_mask(s, tol)
    return (v[:, :k][:, keep] / s[keep]) @ u[:, :k][:, keep].conj().T


def is_psd(h, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Positive-semidefiniteness verdict with the smallest eigenvalue as witness.

    Verdict is ``min_eig >= -psd_floor * max(1, ||H||)``.
    """
    vals = herm_eig(h, tol, vectors=False)
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
        _dense_size_checked(size, f"operator {what}")
    return complex_from_json(obj, (rows * cols,), "operator JSON entries").reshape(rows, cols)
