"""Cyclic sample-grid model of windowed square-integrable signals.

A ``Grid(q, P)`` carries ``n = q * P`` samples ``t_i = i / q`` covering ``P``
unit windows, with inner products weighted by ``1/q`` so a unit-window
indicator has norm one.  ``Signal.coordinates`` rescales sample values by
``1/sqrt(q)`` into plain C^n, where the standard inner product reproduces the
grid inner product; operator matrices act identically on values and
coordinates, so the two pictures mix freely.

Translation, modulation, and dilation are realized as exactly unitary index
maps.  Their parameters must be grid-aligned — that is what makes the group
commutation identities hold without discretization error, and misaligned
parameters raise instead of silently rounding.

``TruncatedSequenceSpace`` models the first ``n`` coordinates of a one-sided
sequence space.  Shift and pairwise-summing operators on it are honest on
vectors supported away from the truncation edge; the ``margin`` records how
many trailing coordinates assertions should avoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonCoprimeDilation,
    OffGridEndpoints,
    OffGridFrequency,
    OffGridShift,
)
from .numerics import as_integer, as_real, complex_from_json, complex_to_json

_ALIGN_ATOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform cyclic grid: ``q`` samples per unit window, ``P`` windows."""

    q: int
    P: int

    def __post_init__(self) -> None:
        for name in ("q", "P"):
            value = as_integer(getattr(self, name), name)
            if value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.q * self.P

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n) / self.q


@dataclass(frozen=True)
class Signal:
    """Complex sample values on a grid; immutable after construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.complex128)
        if v.ndim != 1 or v.shape[0] != self.grid.n:
            raise DimensionMismatch(
                f"signal needs {self.grid.n} samples, got shape {v.shape}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def coordinates(self) -> np.ndarray:
        """Embedding into C^n that turns grid inner products into standard ones."""
        return self.values / math.sqrt(self.grid.q)

    def inner(self, other: "Signal") -> complex:
        if other.grid != self.grid:
            raise DimensionMismatch("signals live on different grids")
        return complex(np.vdot(other.values, self.values) / self.grid.q)

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self).real, 0.0))


def _aligned_int(value: float, scale: int, err, what: str) -> int:
    scaled = as_real(value, what) * scale
    nearest = round(scaled)
    if abs(scaled - nearest) > _ALIGN_ATOL:
        raise err(f"{what} {value!r} is off-grid: {what}*{scale} = {scaled!r} is not an integer")
    return int(nearest)


def _index_phase(grid: Grid, kind: str, value) -> tuple[np.ndarray, np.ndarray | None]:
    """Gather index and phase of a named grid operation: ``g[i] = phase[i] * f[index[i]]``.

    The phase is None for the permutations 'translate' and 'dilate', which must
    multiply nothing: ``(1+0j) * z`` turns a -0.0 real part of ``z`` into 0.0.
    """
    n = grid.n
    if kind == "translate":
        steps = _aligned_int(value, grid.q, OffGridShift, "shift")
        return (np.arange(n) - steps % n) % n, None
    if kind == "modulate":
        _aligned_int(value, grid.P, OffGridFrequency, "frequency")
        return np.arange(n), np.exp(2j * np.pi * value * grid.times)
    if kind == "dilate":
        c = as_integer(value, "dilation factor")
        if math.gcd(c, n) != 1:
            raise NonCoprimeDilation(
                f"dilation factor {c} shares divisor {math.gcd(c, n)} with grid size {n}"
            )
        return (c % n * np.arange(n)) % n, None
    raise ValueError(f"unknown operator kind {kind!r}")


def _dense(index: np.ndarray, phase: np.ndarray | None) -> np.ndarray:
    """Matrix ``m`` with ``(m @ x)[i] = phase[i] * x[index[i]]`` (phase 1 when None)."""
    n = index.shape[0]
    m = np.zeros((n, n), dtype=np.complex128)
    m[np.arange(n), index] = 1.0 if phase is None else phase
    return m


def translate(f: Signal, a: float) -> Signal:
    """Cyclic time shift by ``a`` units; ``a*q`` must be an integer."""
    return Signal(f.grid, f.values[_index_phase(f.grid, "translate", a)[0]])


def modulate(f: Signal, b: float) -> Signal:
    """Multiply by ``exp(2*pi*i*b*t)``; ``b*P`` must be an integer for periodicity."""
    index, phase = _index_phase(f.grid, "modulate", b)
    return Signal(f.grid, phase * f.values[index])


def dilate(f: Signal, c: int) -> Signal:
    """Index dilation ``g[i] = f[(c*i) mod n]``; requires ``gcd(c, n) = 1``."""
    return Signal(f.grid, f.values[_index_phase(f.grid, "dilate", c)[0]])


def indicator(grid: Grid, s: float, t: float) -> Signal:
    """Indicator of ``[s, t)`` sampled on the grid; endpoints must be grid-aligned."""
    if not (s < t):
        raise OffGridEndpoints(f"need s < t, got s={s!r}, t={t!r}")
    if s < 0 or t > grid.P:
        raise OffGridEndpoints(
            f"[{s}, {t}) must sit inside one period [0, {grid.P})"
        )
    si = _aligned_int(s, grid.q, OffGridEndpoints, "endpoint")
    ti = _aligned_int(t, grid.q, OffGridEndpoints, "endpoint")
    values = np.zeros(grid.n, dtype=np.complex128)
    values[si:ti] = 1.0
    return Signal(grid, values)


def mult_operator(g: Signal) -> np.ndarray:
    """Matrix of pointwise multiplication by ``g``."""
    return _dense(np.arange(g.grid.n), g.values)


def operator_of(grid: Grid, kind: str, value) -> np.ndarray:
    """Matrix realization of a grid operation: 'translate', 'modulate', or 'dilate'.

    The matrices act on sample values and (identically) on coordinates, and
    each is exactly unitary.
    """
    return _dense(*_index_phase(grid, kind, value))


@dataclass(frozen=True)
class TruncatedSequenceSpace:
    """First ``dimension`` coordinates of a one-sided sequence space.

    ``margin`` is the boundary-exclusion width: operator identities that hold
    on the full sequence space are only asserted here for vectors supported on
    the first ``dimension - margin`` coordinates.
    """

    dimension: int
    margin: int

    def __post_init__(self) -> None:
        if not (isinstance(self.dimension, int) and self.dimension >= 1):
            raise ValueError(f"dimension must be a positive integer, got {self.dimension!r}")
        if not (isinstance(self.margin, int) and 0 <= self.margin < self.dimension):
            raise ValueError(
                f"margin must satisfy 0 <= margin < dimension, got {self.margin!r}"
            )


def shift_operators(space: TruncatedSequenceSpace) -> tuple[np.ndarray, np.ndarray]:
    """(backward, forward) shift matrices; forward is the adjoint of backward.

    backward: (x1, ..., xn) -> (x2, ..., xn, 0)
    forward:  (x1, ..., xn) -> (0, x1, ..., x_{n-1})
    """
    n = space.dimension
    backward = np.eye(n, k=1, dtype=np.complex128)
    return backward, backward.conj().T


def summing_operator(space: TruncatedSequenceSpace) -> np.ndarray:
    """Lower-bidiagonal pairwise-summing map (x1, x2, ...) -> (x1, x1+x2, x2+x3, ...)."""
    n = space.dimension
    return (np.eye(n, dtype=np.complex128) + np.eye(n, k=-1, dtype=np.complex128))


# ---------------------------------------------------------------------------
# JSON forms: {"q","P","re","im"} or {"q","P","indicator":[s,t]}.


def signal_to_json(f: Signal) -> dict:
    return {"q": f.grid.q, "P": f.grid.P, **complex_to_json(f.values)}


def signal_from_json(obj: dict) -> Signal:
    try:
        grid = Grid(obj["q"], obj["P"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"signal JSON missing grid field: {exc}") from exc
    if "indicator" in obj:
        ends = obj["indicator"]
        if not isinstance(ends, (list, tuple)) or len(ends) != 2:
            raise ValueError(f"signal JSON indicator must be a list [s, t], got {ends!r}")
        return indicator(grid, *(as_real(end, "indicator endpoint") for end in ends))
    return Signal(grid, complex_from_json(obj, (grid.n,), "signal JSON samples"))
