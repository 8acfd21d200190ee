"""Dense complex-matrix kernels shared by every higher layer.

Operators are plain numpy complex matrices acting on C^n with the standard
inner product.  Eigenvalue and singular-value work is delegated to LAPACK
through :mod:`numpy.linalg`; what this module adds is the explicit tolerance
discipline (Hermiticity verdicts, rank cutoffs, positivity floors) that
operator inequalities need once they meet floating point.

Conventions:

* ``herm_eig`` returns eigenvalues ascending, ``svd`` singular values
  descending.
* Rank cutoffs are relative to the operand's own largest singular value.
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


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_operator(m).conj().T


def op_norm(m) -> float:
    """Spectral (operator 2-) norm; zero for empty matrices."""
    m = np.asarray(m, dtype=np.complex128)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def hermitize(m) -> np.ndarray:
    """Nearest Hermitian part (H + H*)/2 for round-off cleanup."""
    m = as_operator(m)
    return (m + m.conj().T) / 2


def require_square(m, what: str = "operator") -> np.ndarray:
    from .errors import NotSquare

    m = as_operator(m)
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"{what} must be square, got shape {m.shape}")
    return m


def herm_eig(h, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, real) and orthonormal eigenvectors of a Hermitian matrix.

    Raises NotHermitian when ``||H - H*|| > verdict_rel * ||H||`` and
    NoConvergence when the LAPACK iteration fails.
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
    try:
        vals, vecs = np.linalg.eigh(hermitize(h))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - exercised only on LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return vals, vecs


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``(left, singulars, right)`` with ``M = left @ diag(s) @ adjoint(right)``.

    Singular values are nonnegative and descending.
    """
    m = as_operator(m)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(str(exc)) from exc
    return u, s, vh.conj().T


def numerical_rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above ``rank_rel * sigma_max``."""
    _, s, _ = svd(m)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > tol.rank_rel * s[0]))


def pinv(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via truncated SVD.

    Singular values at or below ``rank_rel * sigma_max`` are discarded, so the
    zero matrix maps to the (transposed) zero matrix.
    """
    m = as_operator(m)
    u, s, v = svd(m)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    keep = s > tol.rank_rel * s[0]
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


def operator_to_json(m) -> dict:
    m = as_operator(m)
    flat = m.reshape(-1)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(x) for x in flat.real],
        "im": [float(x) for x in flat.imag],
    }


def operator_from_json(obj: dict) -> np.ndarray:
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=np.float64)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed operator JSON: {exc}") from exc
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise ValueError(
            f"operator JSON length mismatch: rows*cols={rows * cols}, "
            f"len(re)={re.size}, len(im)={im.size}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("operator JSON entries must be finite")
    return (re + 1j * im).reshape(rows, cols)
