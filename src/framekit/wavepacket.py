"""Wave-packet systems on cyclic grids, and frame checks for their combinations.

A wave-packet system is the family ``dilate_a(translate_{b k}(modulate_c(psi)))``
over a finite set of labels (j, k, m): j indexes the dilation list, k is the
actual translation multiplier, m indexes the modulation list.  The composition
order (dilate outermost, modulation innermost) is fixed once here and used by
every generator.

Two ways of merging such a system into a smaller one are covered:

* partition combinations — one output vector per cell of a partition of the
  label set, each a coefficient-weighted sum of the cell's vectors;
* finite window sums — one vector per label, summing the atoms of several
  windows psi_1..psi_p with fixed scalar weights.

For each, the module scores whether the merged system inherits the
window-frame property, and quantifies the domination constant that controls
it (a spectral pencil of the two frame operators).  Both checks build what
they score as ``generate_system`` does: ``partition_domination_check(base,
combination, theta)`` combines ``base`` itself, and a finite sum gives each
window the box ``replace(params, psi=psi_s)``, with the labels and ``dedupe``,
and the sum is ``generate_system`` of the summed window sum_s alpha_s psi_s.
The synthesis criterion is ``check_theta_frame`` plus a range inclusion.

``generate_system`` stamps a system as lattice-closed (see ``frame_core``)
when its parameters say so: the translation steps ``round(b k q) mod n`` are
invariant under +q and the frequencies ``c P mod n`` under +P, each counted
with multiplicity, and dedupe dropped no atom.  A check with no margin then
reads a stamped system's spectrum from its ``frame_core._Frame`` lattice
instead of decomposing its frame operator, whatever the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import DimensionMismatch, PartitionNotDisjoint, PartitionNotExhaustive
from .frame_core import FrameSystem, _Frame, _stamp_lattice, analysis_matrix
from .numerics import (
    DEFAULT_TOL,
    MAX_ATOM_ENTRIES,
    Tolerance,
    _diagonal_eigh,
    _split,
    adjoint,
    as_integer,
    as_real,
    hermitian_eigh,
    range_inclusion,
    rank_mask,
)
from .operator_theory import _hyponormality, _pencil_inf
from .signal_space import Grid, Signal, _aligned, _index_phases
from .theta_frame import ThetaFrameReport, _theta_frame_report, _Window, check_theta_frame

_DEDUPE_ATOL = 1e-12


@dataclass(frozen=True)
class WavePacketParams:
    """Finite label ranges and the window defining a wave-packet system.

    ``a_list`` holds dilation factors (each must be coprime to the grid size,
    enforced when vectors are built), ``b`` the translation step, ``k_range``
    the inclusive multiplier interval, ``c_list`` the modulation frequencies.
    ``dedupe`` removes duplicate vectors after generation and collapses the
    translation multipliers to {0} when b = 0 (every k then yields the same
    vector).  A box of more than ``MAX_ATOM_ENTRIES`` atom entries raises
    ValueError.
    """

    grid: Grid
    psi: Signal
    a_list: tuple[int, ...]
    b: float
    k_range: tuple[int, int]
    c_list: tuple[float, ...]
    dedupe: bool = True

    def __post_init__(self):
        try:
            a_list = tuple(as_integer(a, "dilation factor") for a in self.a_list)
            c_list = tuple(as_real(c, "modulation frequency") for c in self.c_list)
            lo, hi = (as_integer(k, "translation multiplier") for k in self.k_range)
        except TypeError as exc:
            raise ValueError(f"a_list, k_range and c_list must be lists: {exc}") from exc
        object.__setattr__(self, "a_list", a_list)
        object.__setattr__(self, "b", as_real(self.b, "translation step"))
        object.__setattr__(self, "c_list", c_list)
        object.__setattr__(self, "k_range", (lo, hi))
        if not isinstance(self.dedupe, bool):
            raise ValueError(f"dedupe must be true or false, got {self.dedupe!r}")
        if self.psi.grid != self.grid:
            raise DimensionMismatch("window signal lives on a different grid")
        if not self.a_list:
            raise ValueError("need at least one dilation factor")
        if not self.c_list:
            raise ValueError("need at least one modulation frequency")
        if self.k_range[0] > self.k_range[1]:
            raise ValueError(f"empty translation range {self.k_range}")
        if self.b < 0.0:
            raise ValueError(f"translation step must be >= 0, got {self.b}")
        atoms = len(self.a_list) * self._k_count() * len(self.c_list)
        if atoms * self.grid.n > MAX_ATOM_ENTRIES:
            raise ValueError(
                f"label box of {atoms} atoms on {self.grid.n} points exceeds "
                f"{MAX_ATOM_ENTRIES} atom entries"
            )

    def _k_count(self) -> int:
        return 1 if self.b == 0.0 and self.dedupe else self.k_range[1] - self.k_range[0] + 1

    def k_values(self) -> tuple[int, ...]:
        return tuple(range(self.k_range[0], self.k_range[0] + self._k_count()))


def _labels(params: WavePacketParams) -> list[tuple[int, int, int]]:
    return list(product(range(len(params.a_list)), params.k_values(), range(len(params.c_list))))


def _gather_form(params: WavePacketParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(windows, rows, index)``: atom a, in ``_labels`` order, is ``windows[rows[a], index[a]]``.

    ``windows`` holds one modulated window ``phase_c * psi / sqrt(q)`` per
    frequency c, ``rows`` the frequency of each atom and ``index`` its
    translated and dilated coordinates.  Indices and phases come from one
    ``_index_phases`` call per kind, which checks every parameter, and the
    arithmetic is that of the grid operations in their order (phase, product,
    then the coordinate scaling), so every atom equals the composed grid
    operations bit for bit.
    """
    grid = params.grid
    phases = _index_phases(grid, "modulate", list(params.c_list))[1]
    shifts = _index_phases(grid, "translate", [params.b * k for k in params.k_values()])[0]
    dilations = _index_phases(grid, "dilate", list(params.a_list))[0]
    windows = phases * params.psi.values / math.sqrt(grid.q)
    index = shifts[np.arange(len(shifts))[:, None], dilations[:, None, :]]  # [j, k, i]
    rows = np.tile(np.arange(len(windows)), len(dilations) * len(shifts))
    return windows, rows, np.repeat(index.reshape(-1, grid.n), len(windows), axis=0)


def _atoms(params: WavePacketParams) -> np.ndarray:
    """Every atom ``dilate_a(translate_{bk}(modulate_c(psi)))``, one row per label."""
    windows, rows, index = _gather_form(params)
    return windows[rows[:, None], index]


def _dedupe_counts(vectors: np.ndarray) -> np.ndarray:
    """How many rows of ``vectors`` the greedy dedupe folds into each row.

    Row x is dropped (count 0) iff some earlier kept row v has
    ``||x - v|| <= _DEDUPE_ATOL * ||v||``, and the first such v counts it; a
    kept row counts itself too.  The test is relative (exactly zero rows fold
    into each other), and the rows are scaled first by the power of two that
    brings the largest entry into [1/2, 1), so no scale changes the result.

    The norm test only runs on candidate pairs: rows are projected onto one
    fixed real unit vector w of C^n = R^2n (any w keeps the result exact; it
    only sets how many pairs are tested), and since ``|<x - v, w>| <= ||x -
    v||``, every pair the test can accept has projections within
    ``_DEDUPE_ATOL * s`` of each other, where s is the largest row norm.  In
    floating point the projections err by at most ``(n + 1) * eps/2 * s``
    each and the norms by a relative ``n * eps``, so the window below, twice
    the first term plus ``8 n eps s``, holds every such pair with room to
    spare.  Non-finite rows make every earlier row a candidate.

    Each row's candidates are a run ``[lo, hi)`` of the rows in projection
    order, and its first candidate is the least row index in that run, found
    for every row at once by a sparse-table range minimum built one level at
    a time.  Every row with an earlier first candidate is tested against it
    in one batch: one difference and two norms per row, so each temporary
    is at most the size of ``vectors``.  Rows are then settled in order: a
    row whose first candidate is still kept and passes folds into it, which
    is the greedy rule, as that candidate is the first the greedy scan
    tries; any other row scans its later candidates one by one as before.
    The batched norms are ``sqrt(re @ re + im @ im)`` over the strided real
    and imaginary views, the same dot products ``np.linalg.norm`` takes of
    one row, so every test reads the same bits as the one-row test.
    """
    count, n = vectors.shape
    top = float(np.max(np.abs(vectors)))
    if 0.0 < top < math.inf:
        parts = np.ascontiguousarray(vectors, dtype=np.complex128).view(np.float64)
        vectors = np.ldexp(parts, -math.frexp(top)[1]).view(np.complex128)
    w = np.sin(np.arange(1.0, 2 * n + 1) ** 2).reshape(2, n)  # a chirp: no grid period
    w /= np.linalg.norm(w)
    proj = vectors.real @ w[0] + vectors.imag @ w[1]
    scale = float(np.max(np.linalg.norm(vectors, axis=1)))
    if math.isfinite(scale):
        window = (2.0 * _DEDUPE_ATOL + 8.0 * n * np.finfo(float).eps) * scale
    else:
        window, proj = math.inf, np.zeros(count)
    order = np.argsort(proj)
    lo = np.searchsorted(proj[order], proj - window, side="left")
    hi = np.searchsorted(proj[order], proj + window, side="right")
    first = _range_min(order, lo, hi)
    tested = np.flatnonzero(first < np.arange(count))
    first = first[tested]
    diff = vectors[first]
    bound = _DEDUPE_ATOL * _row_norms(diff)
    passed = _row_norms(np.subtract(vectors[tested], diff, out=diff)) <= bound
    counts = np.ones(count, dtype=int)
    for i, f, ok in zip(tested.tolist(), first.tolist(), passed.tolist()):
        if ok and counts[f]:
            counts[i] = 0
            counts[f] += 1
            continue
        candidates = order[lo[i] : hi[i]]
        vec = vectors[i]
        for j in np.sort(candidates[(candidates > f) & (candidates < i) & (counts[candidates] > 0)]):
            v = vectors[j]
            if np.linalg.norm(vec - v) <= _DEDUPE_ATOL * np.linalg.norm(v):
                counts[i] = 0
                counts[j] += 1
                break
    return counts


def _range_min(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``min(values[lo[i]:hi[i]])`` for every i (each run non-empty), by a sparse table.

    Level k holds the minima of the runs of length 2**k; a run of length
    ``L`` is covered by two runs of length ``2**floor(log2 L)``.  Only one
    level is held at a time.
    """
    level = np.frexp(hi - lo)[1] - 1  # floor(log2(hi - lo))
    result = np.empty_like(values, shape=lo.shape)
    table, width = values, 1
    for k in range(int(level.max()) + 1):
        at = np.flatnonzero(level == k)
        result[at] = np.minimum(table[lo[at]], table[hi[at] - width])
        table = np.minimum(table[:-width], table[width:])
        width *= 2
    return result


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row, bit for bit: the same strided dot products, batched."""
    re, im = rows.real, rows.imag
    return np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]).ravel()


def _lattice_closed(params: WavePacketParams) -> bool:
    """Whether the steps ``round(b k q) mod n`` repeat under +q and the frequencies
    ``round(c P) mod n`` under +P, each counted with multiplicity."""
    q, P, n = params.grid.q, params.grid.P, params.grid.n
    steps = _aligned([params.b * k for k in params.k_values()], q, "shift")
    freqs = _aligned(list(params.c_list), P, "frequency")
    steps, freqs = (np.bincount([x % n for x in xs], minlength=n) for xs in (steps, freqs))
    return np.array_equal(steps, np.roll(steps, q)) and np.array_equal(freqs, np.roll(freqs, P))


def _system(params: WavePacketParams, vectors: np.ndarray) -> tuple[FrameSystem, np.ndarray]:
    """Labelled system of the atoms in ``_labels`` order, deduplicated if asked,
    and how many atoms dedupe folded into each atom (0 for a dropped one).

    The system is stamped lattice-closed when dedupe kept every atom and
    ``_lattice_closed(params)``.
    """
    counts = _dedupe_counts(vectors) if params.dedupe else np.ones(len(vectors), dtype=int)
    keep = counts > 0
    labels = tuple(lab for lab, kept in zip(_labels(params), keep) if kept)
    system = FrameSystem(vectors[keep], labels=labels)
    if keep.all() and _lattice_closed(params):
        _stamp_lattice(system, params.grid.q)
    return system, counts


def generate_system(params: WavePacketParams) -> FrameSystem:
    """All wave-packet vectors of the given parameter box, labels retained."""
    return _system(params, _atoms(params))[0]


def system_from_signals(signals, labels=None) -> FrameSystem:
    """Bundle explicit signals (sharing one grid) into a frame system."""
    sigs = list(signals)
    if not sigs:
        raise ValueError("need at least one signal")
    if any(s.grid != sigs[0].grid for s in sigs):
        raise DimensionMismatch("signals live on different grids")
    return FrameSystem(np.array([s.coordinates for s in sigs]), labels=labels)


@dataclass(frozen=True)
class SynthesisCriterion:
    """Operator-theoretic test equivalent to the window-frame property.

    The synthesis map Xi sends coefficient sequences to vectors.  The system
    is a window frame exactly when (i) some multiple of Theta*Theta dominates
    Xi Xi* and (ii) range(Theta) sits inside range(Xi).  ``agrees`` records
    whether that equivalence matched the direct two-pencil verdict;
    ``counterexample`` describes any mismatch.
    """

    relatively_hyponormal: bool
    lambda_opt: float
    range_included: bool
    criterion: bool
    frame_report: ThetaFrameReport
    agrees: bool
    counterexample: str | None


def synthesis_criterion_check(
    system: FrameSystem, theta, tol: Tolerance = DEFAULT_TOL
) -> SynthesisCriterion:
    # Xi Xi* = S: relative hyponormality is the upper window inequality, with lambda = beta_opt.
    report = check_theta_frame(system, theta, tol)
    included = range_inclusion(theta, adjoint(analysis_matrix(system)), tol)
    criterion = report.upper_ok and included
    agrees = criterion == report.passes()
    counterexample = None
    if not agrees:
        counterexample = (
            f"criterion (hyponormal={report.upper_ok}, lambda={report.beta_opt:.6e}, "
            f"range_included={included}) disagrees with frame verdict "
            f"(lower_ok={report.lower_ok}, alpha={report.alpha_opt:.6e})"
        )
    return SynthesisCriterion(
        relatively_hyponormal=report.upper_ok,
        lambda_opt=report.beta_opt,
        range_included=bool(included),
        criterion=bool(criterion),
        frame_report=report,
        agrees=bool(agrees),
        counterexample=counterexample,
    )


@dataclass(frozen=True)
class PartitionCombination:
    """Partition of a system's vector indices plus per-vector coefficients."""

    cells: tuple[tuple[int, ...], ...]
    coefficients: np.ndarray

    def __post_init__(self):
        try:
            cells = tuple(tuple(as_integer(i, "cell index") for i in cell) for cell in self.cells)
        except TypeError as exc:
            raise ValueError(f"partition cells must be lists of indices: {exc}") from exc
        object.__setattr__(self, "cells", cells)
        coeffs = np.asarray(self.coefficients, dtype=np.complex128).reshape(-1)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    def validate(self, size: int) -> None:
        seen: set[int] = set()
        for cell in self.cells:
            for idx in cell:
                if idx in seen:
                    raise PartitionNotDisjoint(f"index {idx} appears in two cells")
                seen.add(idx)
        missing = set(range(size)) - seen
        extra = seen - set(range(size))
        if missing or extra:
            raise PartitionNotExhaustive(
                f"cells must cover exactly 0..{size - 1}; missing {sorted(missing)}, "
                f"extra {sorted(extra)}"
            )
        if self.coefficients.shape[0] != size:
            raise DimensionMismatch(
                f"{self.coefficients.shape[0]} coefficients for {size} vectors"
            )

    def aggregation_matrix(self, size: int) -> np.ndarray:
        """Matrix sending base analysis coefficients to combined ones (rows = cells)."""
        t = np.zeros((len(self.cells), size), dtype=np.complex128)
        for row, cell in enumerate(self.cells):
            for idx in cell:
                t[row, idx] = self.coefficients[idx]
        return t


def partition_combination(system: FrameSystem, pc: PartitionCombination) -> FrameSystem:
    """One vector per cell: the coefficient-weighted sum of that cell's vectors."""
    pc.validate(len(system))
    t = pc.aggregation_matrix(len(system))
    return FrameSystem(t @ system.vectors)


def _domination(combined: FrameSystem, bases, theta, tol: Tolerance, margin: int | None):
    """``pencil_inf`` of ``combined`` over each base, the frame reports of ``combined``
    and of each base, and whether theta* is hyponormal, all on one ``margin``.

    Each system is read through one ``_Frame``, so its frame operator, its
    eigenvalues and its extreme eigenpairs are each made at most once, and
    only where a step reads them.  The reports are those of
    ``check_theta_frame`` and share one ``_Window``, so C's and D's splits are
    each made at most once.  With no margin a stamped system is read through
    its lattice, whatever the window: the constant over a stamped base does
    not involve theta, and under a unit window the report reads that lattice
    too.
    """
    window = _Window(theta, combined.n, tol, margin)
    frame, *base_frames = (_Frame(system, margin) for system in (combined, *bases))
    constants = tuple(_least_ratio(frame, base, tol) for base in base_frames)
    combined_report, *base_reports = (_theta_frame_report(f, window, tol) for f in (frame, *base_frames))
    adjoint_hypo = _hyponormality(adjoint(window.form), window.exponent, tol).global_verdict
    return constants, combined_report, tuple(base_reports), adjoint_hypo


def _least_ratio(frame: _Frame, base: _Frame, tol: Tolerance) -> float:
    """Greatest lambda with ``lambda S_base <= S`` for the ``_Frame`` of the combined
    system and that of a base, on their one margin.

    Over a dense base the pencil is split by one full ``eigh`` of the base's
    frame operator.  Over a stamped base the pencil is diagonal in the base's
    Fourier modes: against a stamped system too it is the least ratio of their
    lattice eigenvalues on the modes the base keeps, and otherwise the
    ``pencil_inf`` of S in those modes against the diagonal of the base's
    eigenvalues.
    """
    lattice = base.lattice
    if lattice is None:
        split = _split(*hermitian_eigh(base.operator), tol)
        value = _pencil_inf(frame.operator, split, tol, witness=False).value
    elif frame.lattice is None:
        split = _split(*_diagonal_eigh(lattice.values.reshape(-1)), tol)
        value = _pencil_inf(lattice.in_modes(frame.operator), split, tol, witness=False).value
    else:
        keep = rank_mask(lattice.values, tol)
        least = float(np.min(frame.lattice.values[keep] / lattice.values[keep], initial=math.inf))
        value = least if least > 0.0 else 0.0
    return frame.restored(value, base.exponent)


@dataclass(frozen=True)
class PartitionDominationReport:
    """Does the combined system inherit the window-frame property?

    ``lambda_opt`` is the best constant with
    ``sum |<phi_c, f>|^2 >= lambda * sum |<f_i, f>|^2``; positivity of that
    constant is compared against the combined system's own frame verdict
    (``agrees``).  ``proof_lambda`` is the constructive choice alpha'/beta
    available whenever the window adjoint is hyponormal, and
    ``aggregation_norm`` feeds the upper estimate beta' <= ||T||^2 beta.  The
    rows of the aggregation matrix T have disjoint supports, so ||T|| is read
    from the cells as the largest Euclidean norm of one cell's coefficients.
    """

    lambda_opt: float
    dominates: bool
    phi_report: ThetaFrameReport
    base_report: ThetaFrameReport
    adjoint_hyponormal: bool
    agrees: bool
    proof_lambda: float | None
    proof_bound_ok: bool | None
    aggregation_norm: float
    upper_estimate_ok: bool
    counterexample: str | None


def partition_domination_check(
    base: FrameSystem,
    combination: PartitionCombination,
    theta,
    tol: Tolerance = DEFAULT_TOL,
    margin: int | None = None,
) -> PartitionDominationReport:
    """Score ``partition_combination(base, combination)`` against ``base``."""
    phi = partition_combination(base, combination)
    (lambda_opt,), phi_report, (base_report,), adjoint_hypo = _domination(
        phi, [base], theta, tol, margin
    )
    dominates = lambda_opt > tol.psd_floor
    agrees = dominates == phi_report.passes()

    proof_lambda = proof_ok = None
    if (
        adjoint_hypo
        and base_report.passes()
        and phi_report.passes()
        and math.isfinite(phi_report.alpha_opt)
        and base_report.beta_opt > 0
    ):
        proof_lambda = phi_report.alpha_opt / base_report.beta_opt
        proof_ok = lambda_opt >= proof_lambda * (1.0 - tol.verdict_rel)

    # The cells are disjoint, so T T* is diagonal: ||T|| is the largest
    # norm of one cell's coefficients (hypot scales, so it cannot overflow).
    coeffs = combination.coefficients
    agg_norm = max(math.hypot(*np.abs(coeffs[list(cell)])) for cell in combination.cells)
    upper_ok = not math.isfinite(base_report.beta_opt) or (
        phi_report.beta_opt <= agg_norm**2 * base_report.beta_opt * (1.0 + tol.verdict_rel)
    )

    counterexample = None
    if not agrees:
        counterexample = (
            f"domination constant {lambda_opt:.6e} (dominates={dominates}) vs "
            f"combined frame verdict lower_ok={phi_report.lower_ok}, "
            f"upper_ok={phi_report.upper_ok}"
        )
    return PartitionDominationReport(
        lambda_opt=lambda_opt,
        dominates=bool(dominates),
        phi_report=phi_report,
        base_report=base_report,
        adjoint_hyponormal=bool(adjoint_hypo),
        agrees=bool(agrees),
        proof_lambda=proof_lambda,
        proof_bound_ok=proof_ok,
        aggregation_norm=agg_norm,
        upper_estimate_ok=upper_ok,
        counterexample=counterexample,
    )


@dataclass(frozen=True)
class FiniteSumSpec:
    """Weights and windows for a per-label sum of several wave-packet systems."""

    alphas: tuple[complex, ...]
    psis: tuple[Signal, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "alphas", tuple(complex(a) for a in self.alphas)
        )
        object.__setattr__(self, "psis", tuple(self.psis))
        if not self.alphas:
            raise ValueError("need at least one weight")
        if any(a == 0 for a in self.alphas):
            raise ValueError("weights must be nonzero")
        if len(self.psis) != len(self.alphas):
            raise DimensionMismatch(
                f"{len(self.alphas)} weights but {len(self.psis)} windows"
            )
        grids = {s.grid for s in self.psis}
        if len(grids) > 1:
            raise DimensionMismatch("windows live on different grids")

    @property
    def p(self) -> int:
        return len(self.alphas)


def finite_sum_system(spec: FiniteSumSpec, params: WavePacketParams) -> FrameSystem:
    """Per-label sums sum_s alpha_s * atom(psi_s), labels from params' ranges: the system of
    the summed window, as every atom is linear in its window.  A window on another grid
    than ``params`` raises DimensionMismatch."""
    summed = sum(alpha * psi.values for alpha, psi in zip(spec.alphas, spec.psis))
    return generate_system(replace(params, psi=Signal(spec.psis[0].grid, summed)))


@dataclass(frozen=True)
class FiniteSumReport:
    """Window-frame inheritance for a weighted sum of wave-packet systems.

    ``mu_opts[s]`` is the best constant dominating the s-th single-window
    system, as ``generate_system`` makes it for ``psi_s``; the sum inherits
    the frame property exactly when some candidate constant is positive
    (``exists``), matched against the sum's own verdict.  The crude upper
    estimate ``p * max|alpha|^2 * sum_s m_s * beta_s`` is recorded alongside
    its verdict; ``m_s``, the most atoms dedupe folded into one vector of the
    s-th single, keeps it a bound where the sum keeps labels a single drops.
    """

    mu_opts: tuple[float, ...]
    best_xi: int
    exists: bool
    sum_report: ThetaFrameReport
    single_reports: tuple[ThetaFrameReport, ...]
    adjoint_hyponormal: bool
    agrees: bool
    upper_estimate: float
    upper_estimate_ok: bool
    counterexample: str | None


def finite_sum_criterion_check(
    spec: FiniteSumSpec,
    params: WavePacketParams,
    theta,
    tol: Tolerance = DEFAULT_TOL,
    margin: int | None = None,
) -> FiniteSumReport:
    """Score ``finite_sum_system(spec, params)`` against each single-window system."""
    boxes = [replace(params, psi=psi) for psi in spec.psis]
    singles, counts = zip(*(_system(box, _atoms(box)) for box in boxes))
    mu_opts, sum_report, single_reports, adjoint_hypo = _domination(
        finite_sum_system(spec, params), singles, theta, tol, margin
    )
    exists = any(mu > tol.psd_floor for mu in mu_opts)
    # Prefer the largest finite constant; vacuous (infinite) candidates only
    # win, the first of them, when nothing real is on offer.
    best_xi = int(np.argmax([(-math.inf if math.isinf(m) else m) for m in mu_opts]))
    agrees = exists == sum_report.passes()

    betas = [int(c.max()) * r.beta_opt for c, r in zip(counts, single_reports)]
    upper_estimate = spec.p * max(abs(a) ** 2 for a in spec.alphas) * sum(betas)
    upper_ok = math.isinf(upper_estimate) or (
        sum_report.beta_opt <= upper_estimate * (1.0 + tol.verdict_rel)
    )

    counterexample = None
    if not agrees:
        counterexample = (
            f"best domination constant {mu_opts[best_xi]:.6e} (exists={exists}) vs "
            f"summed-system verdict lower_ok={sum_report.lower_ok}, "
            f"upper_ok={sum_report.upper_ok}"
        )
    return FiniteSumReport(
        mu_opts=mu_opts,
        best_xi=best_xi,
        exists=bool(exists),
        sum_report=sum_report,
        single_reports=single_reports,
        adjoint_hyponormal=bool(adjoint_hypo),
        agrees=bool(agrees),
        upper_estimate=float(upper_estimate),
        upper_estimate_ok=bool(upper_ok),
        counterexample=counterexample,
    )


__all__ = [
    "WavePacketParams",
    "generate_system",
    "system_from_signals",
    "SynthesisCriterion",
    "synthesis_criterion_check",
    "PartitionCombination",
    "partition_combination",
    "PartitionDominationReport",
    "partition_domination_check",
    "FiniteSumSpec",
    "finite_sum_system",
    "FiniteSumReport",
    "finite_sum_criterion_check",
]
