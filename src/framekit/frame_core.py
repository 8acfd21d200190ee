"""Finite frame systems on C^n: analysis, synthesis, optimal bounds, reconstruction.

A :class:`FrameSystem` is an ordered family of vectors f_k in C^n (rows of one
matrix), optionally tagged with integer label triples.  The analysis matrix W
sends f to the coefficient sequence (<f, f_k>)_k; the frame operator
S = W* W = sum_k f_k f_k* is Hermitian positive semidefinite, and the optimal
classical frame bounds are its extreme eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotAFrame
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    _pow2_restored,
    _pow2_scaled,
    as_integer,
    as_vector,
    complex_from_json,
    complex_to_json,
    hermitian_eigh,
    hermitize,
)


@dataclass(frozen=True)
class FrameSystem:
    """Ordered vector family; ``vectors[k]`` is the k-th frame vector.

    ``labels`` optionally carries one integer triple per vector (lexicographic
    for generated wave-packet systems) and is preserved through serialization.
    """

    vectors: np.ndarray
    labels: tuple[tuple[int, int, int], ...] | None = None

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
    """S = W* W = sum_k f_k f_k*, Hermitian PSD."""
    w = analysis_matrix(system)
    return hermitize(w.conj().T @ w)


def _scaled_frame_operator(system: FrameSystem) -> tuple[np.ndarray, int]:
    """``(S * 4**-e, e)``: the frame operator of the vectors scaled by ``_pow2_scaled``."""
    vectors, exponent = _pow2_scaled(system.vectors)
    if exponent:
        system = FrameSystem(vectors, system.labels)
    return frame_operator(system), exponent


def optimal_bounds(system: FrameSystem, tol: Tolerance = DEFAULT_TOL) -> FrameBounds:
    """Extreme eigenvalues of the frame operator, with eigenvector witnesses.

    ``tight`` means the two coincide within ``verdict_rel`` relatively.  S is
    exactly Hermitian by construction, so no Hermiticity verdict runs.
    Vectors with huge entries are scaled by a power of two first, and a bound
    beyond the float range raises OverflowError.
    """
    s, exponent = _scaled_frame_operator(system)
    vals, vecs = hermitian_eigh(s)
    lower = _pow2_restored(float(vals[0]), 2 * exponent)
    upper = _pow2_restored(float(vals[-1]), 2 * exponent)
    tight = (upper - lower) <= tol.verdict_rel * upper
    return FrameBounds(
        lower=lower,
        upper=upper,
        tight=bool(tight),
        lower_witness=vecs[:, 0].copy(),
        upper_witness=vecs[:, -1].copy(),
    )


def reconstruct(
    system: FrameSystem, f, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical dual-frame coefficients of ``f`` and the reassembled vector.

    Coefficients are ``<S^{-1} f, f_k>``; the reassembled vector is their
    synthesis and must reproduce ``f``.  Raises NotAFrame when the frame
    operator is singular at the working tolerance.
    """
    f = as_vector(f)
    if f.shape[0] != system.n:
        raise DimensionMismatch(f"vector of length {f.shape[0]} in dimension {system.n}")
    s = frame_operator(system)
    bounds = optimal_bounds(system, tol)
    if bounds.lower <= tol.psd_floor * max(1.0, bounds.upper):
        raise NotAFrame(
            f"frame operator is singular: min eigenvalue {bounds.lower:.3e}"
        )
    dual_image = np.linalg.solve(s, f)
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
        n = as_integer(obj["n"], "system JSON n")
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
