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
parameters raise instead of silently rounding; aligned ones are rounded from
their exact products, so a residue mod n is exact at any size.  A shift or
frequency whose product with q or P overflows the float range is refused as
off the grid too.

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
from .numerics import MAX_ATOM_ENTRIES, Monomial, as_integer, as_real, complex_from_json, complex_to_json

_ALIGN_ATOL = 1e-12
_OFF_GRID = {"shift": OffGridShift, "frequency": OffGridFrequency, "endpoint": OffGridEndpoints}


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


def _aligned(values: list[float], scale: int, what: str) -> list[int]:
    """The integers nearest ``values * scale`` by their exact products (ties to even), so a
    residue mod n is exact at any size; the ``_OFF_GRID`` error of ``what`` names the first
    value off by over ``_ALIGN_ATOL``, or whose product overflows the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.array(values, dtype=np.float64) * scale
        off = np.flatnonzero(~(np.abs(scaled - np.round(scaled)) <= _ALIGN_ATOL))
    if off.size:
        value, product = values[off[0]], float(scaled[off[0]])
        raise _OFF_GRID[what](f"{what} {value!r} is off-grid: {what}*{scale} = {product!r} is not an integer")
    ratios = [float(value).as_integer_ratio() for value in values]
    halves = [divmod(2 * num * scale + den, 2 * den) for num, den in ratios]  # floor(x + 1/2)
    return [whole - (rest == 0 and whole % 2) for whole, rest in halves]


def _index_phase(grid: Grid, kind: str, value) -> Monomial:
    """The Monomial of a named grid operation, ``g[i] = phase[i] * f[index[i]]``; the phase
    is all ones for the permutations 'translate' and 'dilate'."""
    index, phase = _index_phases(grid, kind, [value])
    return Monomial(index[0], phase[0], grid.n)


def _index_phases(grid: Grid, kind: str, values) -> tuple[np.ndarray, np.ndarray]:
    """``(index, phase)`` of :func:`_index_phase` for each of the ``values`` at once, row r
    that of ``values[r]``; every value is checked, and the first one off the grid named."""
    n = grid.n
    if kind == "translate":
        steps = _aligned([as_real(v, "shift") for v in values], grid.q, "shift")
        index = (np.arange(n) - np.array([s % n for s in steps], dtype=np.intp)[:, None]) % n
    elif kind == "modulate":
        freqs = [as_real(v, "frequency") for v in values]
        _aligned(freqs, grid.P, "frequency")
        phase = np.exp(2j * np.pi * np.array(freqs)[:, None] * grid.times)
        return np.broadcast_to(np.arange(n), phase.shape), phase
    elif kind == "dilate":
        factors = [as_integer(v, "dilation factor") for v in values]
        for c in factors:
            if math.gcd(c, n) != 1:
                raise NonCoprimeDilation(
                    f"dilation factor {c} shares divisor {math.gcd(c, n)} with grid size {n}"
                )
        index = np.array([c % n for c in factors])[:, None] * np.arange(n) % n
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    return index, np.ones(index.shape, dtype=np.complex128)


def translate(f: Signal, a: float) -> Signal:
    """Cyclic time shift by ``a`` units; ``a*q`` must be an integer."""
    return Signal(f.grid, f.values[_index_phase(f.grid, "translate", a).index])


def modulate(f: Signal, b: float) -> Signal:
    """Multiply by ``exp(2*pi*i*b*t)``; ``b*P`` must be an integer for periodicity."""
    form = _index_phase(f.grid, "modulate", b)
    return Signal(f.grid, form.phase * f.values[form.index])


def dilate(f: Signal, c: int) -> Signal:
    """Index dilation ``g[i] = f[(c*i) mod n]``; requires ``gcd(c, n) = 1``."""
    return Signal(f.grid, f.values[_index_phase(f.grid, "dilate", c).index])


def indicator(grid: Grid, s: float, t: float) -> Signal:
    """Indicator of ``[s, t)`` sampled on the grid; endpoints must be grid-aligned, and a
    grid of more than ``MAX_ATOM_ENTRIES`` points raises ValueError."""
    if not (s < t):
        raise OffGridEndpoints(f"need s < t, got s={s!r}, t={t!r}")
    if s < 0 or t > grid.P:
        raise OffGridEndpoints(
            f"[{s}, {t}) must sit inside one period [0, {grid.P})"
        )
    ends = [as_real(end, "endpoint") for end in (s, t)]
    si, ti = _aligned(ends, grid.q, "endpoint")
    values = np.zeros(_signal_size_checked(grid), dtype=np.complex128)
    values[si:ti] = 1.0
    return Signal(grid, values)


def _signal_size_checked(grid: Grid) -> int:
    """``grid.n``, or ValueError naming the limit when a signal of n samples exceeds
    ``MAX_ATOM_ENTRIES`` entries; called before the samples are allocated."""
    if grid.n > MAX_ATOM_ENTRIES:
        raise ValueError(f"signal grid n {grid.n} exceeds MAX_ATOM_ENTRIES = {MAX_ATOM_ENTRIES}")
    return grid.n


def mult_operator(g: Signal) -> np.ndarray:
    """Matrix of pointwise multiplication by ``g``."""
    return Monomial(np.arange(g.grid.n), g.values, g.grid.n).dense()


def operator_of(grid: Grid, kind: str, value) -> np.ndarray:
    """Matrix realization of a grid operation: 'translate', 'modulate', or 'dilate'.

    The matrices act on sample values and (identically) on coordinates, and
    each is exactly unitary.  The kernels take the operation's Monomial,
    ``_index_phase(grid, kind, value)``, as well, in O(n).
    """
    return _index_phase(grid, kind, value).dense()


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
    return Signal(grid, complex_from_json(obj, (_signal_size_checked(grid),), "signal JSON samples"))
