"""Finite frame systems on C^n: analysis, synthesis, optimal bounds, reconstruction.

A :class:`FrameSystem` is an ordered family of vectors f_k in C^n (rows of one
matrix), optionally tagged with integer label triples.  The analysis matrix W
sends f to the coefficient sequence (<f, f_k>)_k; the frame operator
S = W* W = sum_k f_k f_k* is Hermitian positive semidefinite, and the optimal
classical frame bounds are its extreme eigenvalues.

Every check reads a system's S through one private ``_Frame``, which scales
the vectors by a power of two once and makes S, its eigenvalues and its
extreme eigenpairs on first read; each extreme eigenvector is certified by
its residual, a repeated extreme eigenvalue (a tight frame's) too.  A system
that ``wavepacket`` stamps as lattice-closed, read with no margin, has its
spectrum from an FFT of its vectors instead (``_Frame.lattice``), whatever
the window of the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotAFrame
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    _dense_size_checked,
    _pow2_restored,
    _pow2_scaled,
    as_integer,
    as_vector,
    complex_from_json,
    complex_to_json,
    hermitian_eigh,
    hermitize,
    restrict,
)


@dataclass(frozen=True)
class FrameSystem:
    """Ordered vector family; ``vectors[k]`` is the k-th frame vector.

    ``labels`` optionally carries one integer triple per vector (lexicographic
    for generated wave-packet systems) and is preserved through serialization;
    a label of any other length raises DimensionMismatch.
    ``_lattice`` is the q of a lattice-closed system as ``wavepacket`` stamps
    it, and None for every other system.
    """

    vectors: np.ndarray
    labels: tuple[tuple[int, int, int], ...] | None = None
    _lattice: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        v = np.array(self.vectors, dtype=np.complex128)
        if v.ndim != 2:
            raise DimensionMismatch(f"vectors must form a 2-D array, got ndim={v.ndim}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise DimensionMismatch(f"a frame system needs nonempty vectors, got shape {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        if self.labels is not None:
            labels = tuple(tuple(as_integer(x, "label") for x in lab) for lab in self.labels)
            if any(len(lab) != 3 for lab in labels):
                raise DimensionMismatch("every label must be an integer triple")
            if len(labels) != v.shape[0]:
                raise DimensionMismatch(
                    f"{len(labels)} labels for {v.shape[0]} vectors"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        """Ambient dimension."""
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    def vector(self, index: int) -> np.ndarray:
        return self.vectors[index]

    def label_index(self, label: tuple[int, int, int]) -> int:
        if self.labels is None:
            raise KeyError("system carries no labels")
        key = tuple(int(x) for x in label)
        try:
            return self.labels.index(key)
        except ValueError:
            raise KeyError(f"no vector labeled {key}") from None


def _stamp_lattice(system: FrameSystem, q: int) -> None:
    """Stamp ``system`` as lattice-closed with period q; only ``wavepacket`` calls this."""
    object.__setattr__(system, "_lattice", q)


def canonical_basis(n: int) -> FrameSystem:
    return FrameSystem(np.eye(n, dtype=np.complex128))


@dataclass(frozen=True)
class FrameBounds:
    """Optimal classical frame bounds with attaining unit vectors."""

    lower: float
    upper: float
    tight: bool
    lower_witness: np.ndarray
    upper_witness: np.ndarray


def analysis_matrix(system: FrameSystem) -> np.ndarray:
    """Matrix W with (W f)_k = <f, f_k>; row k is the adjoint of f_k."""
    return system.vectors.conj()


def synthesis_matrix(system: FrameSystem) -> np.ndarray:
    """Adjoint of the analysis matrix; maps coefficients to sum_k c_k f_k."""
    return system.vectors.T.copy()


def frame_operator(system: FrameSystem) -> np.ndarray:
    """S = W* W = sum_k f_k f_k*, Hermitian PSD; refused, naming the limit, beyond n = 4096."""
    _dense_size_checked(system.n, "frame operator n")
    w = analysis_matrix(system)
    return hermitize(w.conj().T @ w)


@dataclass(frozen=True, eq=False)
class _LatticeSpectrum:
    """Spectrum of a stamped system's frame operator.

    ``values[m, r]`` is the eigenvalue of the Fourier mode ``m`` on residue
    class ``r``, the unit vector with entries ``exp(2 pi i m s / P) / sqrt(P)``
    at ``r + q*s``.  ``order`` sorts the flattened ``values`` (index
    ``m*q + r``) by (value, r, m).
    """

    values: np.ndarray
    order: np.ndarray

    def extreme(self, position: int) -> tuple[float, np.ndarray]:
        """The ``position``-th eigenvalue in ``order`` (0 or -1), and its unit eigenvector."""
        periods, q = self.values.shape
        m, r = divmod(int(self.order[position]), q)
        vector = np.zeros(periods * q, dtype=np.complex128)
        vector[r::q] = np.exp(2j * np.pi * (m * np.arange(periods) % periods) / periods)
        return float(self.values[m, r]), vector / math.sqrt(periods)

    def in_modes(self, x: np.ndarray) -> np.ndarray:
        """``F* x F`` for the unitary F whose column ``m*q + r`` is mode (r, m)."""
        periods, q = self.values.shape
        blocks = x.reshape(periods, q, periods, q)
        return np.fft.fft(np.fft.ifft(blocks, axis=2), axis=0).reshape(x.shape)


class _Frame:
    """One system's frame operator S, restricted by ``margin``, and what is read from it.

    The vectors are scaled once by ``_pow2_scaled`` to ``vectors * 2**-exponent``,
    so every field is that of S scaled by ``4**-exponent``, and :meth:`restored`
    scales a constant back.  Each field is made on first read:

    * ``lattice``: the :class:`_LatticeSpectrum` of a stamped system with no
      margin, without S; None for any other;
    * ``operator``: S, built by :func:`frame_operator` and restricted;
    * ``values``: every eigenvalue, ascending: the lattice's, else those of
      ``operator`` alone;
    * :meth:`extreme`: the least or greatest eigenvalue and a unit
      eigenvector: the lattice's, else one ``hermitian_eigh(operator, (0, -1))``.

    So a stamped system with no margin is read through its lattice, whatever
    the window, and S is formed only where a dense step reads it.
    """

    def __init__(self, system: FrameSystem, margin: int | None = None):
        self.system, self.margin = system, margin
        self.vectors, self.exponent = _pow2_scaled(system.vectors)

    @cached_property
    def lattice(self) -> _LatticeSpectrum | None:
        """The first column of residue block r is ``S[r + q*s, r] = sum_k f_k[r + q*s] *
        conj(f_k[r])``, and a circulant's eigenvalues are the FFT of its first column;
        their real parts are those of the block's Hermitian part."""
        q = self.system._lattice
        if q is None or self.margin is not None:
            return None
        blocks = self.vectors.reshape(len(self.vectors), -1, q)  # [k, s, r]: entry r + q*s
        columns = np.einsum("ksr,kr->sr", blocks, blocks[:, 0, :].conj())
        values = np.fft.fft(columns, axis=0).real
        m, r = np.divmod(np.arange(values.size), q)
        return _LatticeSpectrum(values, np.lexsort((m, r, values.reshape(-1))))

    @cached_property
    def operator(self) -> np.ndarray:
        system = FrameSystem(self.vectors, self.system.labels) if self.exponent else self.system
        return restrict(frame_operator(system), self.margin)

    @cached_property
    def values(self) -> np.ndarray:
        lattice = self.lattice
        if lattice is None:
            return hermitian_eigh(self.operator, ())[0]
        return lattice.values.flat[lattice.order]

    @cached_property
    def _extremes(self) -> tuple[np.ndarray, np.ndarray]:
        return hermitian_eigh(self.operator, (0, -1))

    def extreme(self, position: int) -> tuple[float, np.ndarray]:
        """The ``position``-th eigenvalue (0 or -1) and a unit eigenvector of its own."""
        if self.lattice is not None:
            return self.lattice.extreme(position)
        values, witnesses = self._extremes
        return float(values[position]), witnesses[:, position].copy()

    def restored(self, value: float, exponent: int = 0) -> float:
        """``value``, read from these fields against an operand scaled by ``4**-exponent``,
        scaled back (``pencil(a X, b Y) = (a / b) pencil(X, Y)``); OverflowError beyond
        the float range."""
        return _pow2_restored(value, 2 * (self.exponent - exponent))


def optimal_bounds(system: FrameSystem, tol: Tolerance = DEFAULT_TOL) -> FrameBounds:
    """Extreme eigenvalues of the frame operator, with eigenvector witnesses.

    ``tight`` means the two coincide within ``verdict_rel`` relatively.  S is
    exactly Hermitian by construction, so no Hermiticity verdict runs.  Both
    are read from ``_Frame.extreme``: a stamped system's lattice, without S.
    Vectors with huge entries are scaled by a power of two first, and a bound
    beyond the float range raises OverflowError.
    """
    frame = _Frame(system)
    (low, lower_witness), (high, upper_witness) = (frame.extreme(i) for i in (0, -1))
    lower, upper = frame.restored(low), frame.restored(high)
    tight = (upper - lower) <= tol.verdict_rel * upper
    return FrameBounds(
        lower=lower,
        upper=upper,
        tight=bool(tight),
        lower_witness=lower_witness,
        upper_witness=upper_witness,
    )


def reconstruct(
    system: FrameSystem, f, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical dual-frame coefficients of ``f`` and the reassembled vector.

    Coefficients are ``<S^{-1} f, f_k>``; the reassembled vector is their
    synthesis and must reproduce ``f``.  Raises NotAFrame when the frame
    operator is singular at the working tolerance, judged on the extreme
    eigenvalues of the ``_Frame``: a stamped system's lattice, else the values
    alone of its S, which is then solved.
    """
    f = as_vector(f)
    if f.shape[0] != system.n:
        raise DimensionMismatch(f"vector of length {f.shape[0]} in dimension {system.n}")
    frame = _Frame(system)
    lower, upper = (frame.restored(frame.values[i]) for i in (0, -1))
    if lower <= tol.psd_floor * max(1.0, upper):
        raise NotAFrame(
            f"frame operator is singular: min eigenvalue {lower:.3e}"
        )
    dual_image = np.linalg.solve(frame.operator, f) * math.ldexp(1.0, -2 * frame.exponent)
    w = analysis_matrix(system)
    coefficients = w @ dual_image
    reassembled = w.conj().T @ coefficients
    return coefficients, reassembled


# ---------------------------------------------------------------------------
# JSON form: {"n": n, "vectors": [{"re": [...], "im": [...]}, ...],
#             "labels": [[j,k,m], ...]  (optional)}


def system_to_json(system: FrameSystem) -> dict:
    obj = {
        "n": system.n,
        "vectors": [complex_to_json(v) for v in system.vectors],
    }
    if system.labels is not None:
        obj["labels"] = [list(lab) for lab in system.labels]
    return obj


def system_from_json(obj: dict) -> FrameSystem:
    if not isinstance(obj, dict):
        raise ValueError(f"system JSON must be an object, got {type(obj).__name__}")
    try:
        n = _dense_size_checked(as_integer(obj["n"], "system JSON n"), "system JSON n")
        raw = obj["vectors"]
        parts = {
            "re": [entry["re"] for entry in raw],
            "im": [entry["im"] if "im" in entry else [0.0] * len(entry["re"]) for entry in raw],
        }
    except KeyError as exc:
        raise ValueError(f"system JSON missing field: {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed system JSON vectors: {exc!r}") from exc
    vectors = complex_from_json(parts, (len(raw), n), "system JSON vectors")
    try:
        return FrameSystem(vectors, obj.get("labels"))
    except TypeError as exc:
        raise ValueError(f"malformed system JSON labels: {exc!r}") from exc
