"""Monomial windows and diagonal operands: the exact fast path against dense formulas.

Every grid operation (translate, modulate, dilate) is a monomial matrix, one
nonzero per row and column.  The kernels read such windows and exactly
diagonal operands off their index-and-phase form without a dense product,
an eigensolver or an SVD.  The references here are the dense products and
``np.linalg`` decompositions written out in the test.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from framekit import numerics
from framekit.errors import NoConvergence
from framekit.frame_core import FrameSystem
from framekit.numerics import DEFAULT_TOL, adjoint, compress, op_norm, psd_split
from framekit.operator_theory import hyponormality, pencil_inf, pencil_sup
from framekit.signal_space import Grid, _index_phase, indicator, operator_of
from framekit.theta_frame import check_k_frame, check_theta_frame
from framekit.wavepacket import WavePacketParams, generate_system


def _raw_window(rng, n):
    """A permutation with random phases of modulus 0.5 to 2: not unitary."""
    theta = np.zeros((n, n), dtype=np.complex128)
    theta[np.arange(n), rng.permutation(n)] = rng.uniform(0.5, 2.0, n) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, n)
    )
    return theta


def _window(rng, case):
    kind, q, P, value, _, _ = case
    if kind == "raw":
        return _raw_window(rng, q * P)
    return operator_of(Grid(q, P), kind, value)


# (kind, q, P, value, margin, vectors per dimension): fewer vectors than the
# dimension leave S singular, so the lower verdict fails there.
CASES = [
    ("translate", 4, 16, 1.25, None, 2.0),
    ("translate", 8, 32, 0.5, 2, 1.5),
    ("modulate", 4, 16, 3 / 16, 1, 2.0),
    ("modulate", 8, 24, 5 / 24, None, 1.5),
    ("modulate", 4, 12, 1.0, 3, 0.5),
    ("dilate", 4, 16, 3, None, 2.0),
    ("dilate", 8, 16, 5, 3, 1.5),
    ("raw", 4, 24, None, None, 2.0),
    ("raw", 8, 25, None, 2, 1.5),
    ("raw", 4, 8, None, 1, 0.5),
]
IDS = [f"{kind}-n{q * P}-margin{margin}-x{ratio}" for kind, q, P, _, margin, ratio in CASES]


def _restrict(x, margin):
    return x if margin is None else x[: x.shape[0] - margin, : x.shape[0] - margin]


def _pencil_eigenvalues(x, y):
    """Eigenvalues of the pencil ``x - lam y`` for a positive definite ``y``, by Cholesky."""
    inverse = np.linalg.inv(np.linalg.cholesky(y))
    return np.linalg.eigvalsh(inverse @ x @ inverse.conj().T)


def _rayleigh(w, x, y):
    return np.vdot(w, x @ w).real / np.vdot(w, y @ w).real


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_fast_path_matches_the_dense_formulas(case):
    kind, q, P, _, margin, ratio = case
    n = q * P
    rng = np.random.default_rng(n + (margin or 0))
    theta = _window(rng, case)
    count = int(ratio * n)
    system = FrameSystem(rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n)))
    v = system.vectors
    s = _restrict(v.T @ v.conj(), margin)
    c = _restrict(theta @ theta.conj().T, margin)
    d = _restrict(theta.conj().T @ theta, margin)
    alpha = max(float(_pencil_eigenvalues(s, c)[0]), 0.0)
    beta = float(_pencil_eigenvalues(s, d)[-1])
    top = float(np.linalg.eigvalsh(s)[-1])
    tol = DEFAULT_TOL

    rep = check_theta_frame(system, theta, margin=margin)
    assert abs(rep.alpha_opt - alpha) <= 1e-12 * beta
    assert abs(rep.beta_opt - beta) <= 1e-12 * beta
    assert (rep.lower_ok, rep.upper_ok) == (alpha > tol.psd_floor, True)
    assert rep.kernel_obstruction is None
    assert abs(_rayleigh(rep.lower_witness, s, c) - rep.alpha_opt) <= 1e-10 * beta
    assert abs(_rayleigh(rep.upper_witness, s, d) - rep.beta_opt) <= 1e-10 * beta

    k_rep = check_k_frame(system, theta, margin=margin)
    assert abs(k_rep.a_opt - alpha) <= 1e-12 * beta
    assert abs(k_rep.b_opt - top) <= 1e-12 * top
    assert k_rep.lower_ok == (alpha > tol.psd_floor)
    assert abs(_rayleigh(k_rep.lower_witness, s, c) - k_rep.a_opt) <= 1e-10 * beta
    assert abs(_rayleigh(k_rep.upper_witness, s, np.eye(len(s))) - k_rep.b_opt) <= 1e-10 * top

    commutator = theta.conj().T @ theta - theta @ theta.conj().T
    norm = float(np.linalg.norm(theta, 2))
    floor = tol.psd_floor * max(1.0, norm**2)
    least = float(np.linalg.eigvalsh(commutator)[0])
    hypo = hyponormality(theta, margin=margin)
    assert abs(hypo.commutator_min_eig - least) <= 1e-12 * norm**2
    assert hypo.global_verdict == (least >= -floor)
    assert abs(hypo.operator_norm - norm) <= 1e-12 * norm
    if margin is None:
        assert hypo.margin_verdict is None and hypo.margin_min_eig is None
    else:
        margin_least = float(np.linalg.eigvalsh(_restrict(commutator, margin))[0])
        assert abs(hypo.margin_min_eig - margin_least) <= 1e-12 * norm**2
        assert hypo.margin_verdict == (margin_least >= -floor)
    assert abs(op_norm(theta) - norm) <= 1e-12 * norm


def _bits(report):
    """Every field of a report, arrays as their bytes."""
    return [
        value.tobytes() if isinstance(value, np.ndarray) else value
        for value in dataclasses.astuple(report)
    ]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_a_window_given_as_its_form_reports_as_its_dense_matrix(case):
    kind, q, P, value, margin, ratio = case
    n = q * P
    rng = np.random.default_rng(n + (margin or 0))
    dense = _window(rng, case)
    form = numerics._monomial(dense) if kind == "raw" else _index_phase(Grid(q, P), kind, value)
    assert np.array_equal(form.dense(), dense)
    count = int(ratio * n)
    system = FrameSystem(rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n)))
    for check, args in ((check_theta_frame, (system,)), (check_k_frame, (system,)), (hyponormality, ())):
        assert _bits(check(*args, form, margin=margin)) == _bits(check(*args, dense, margin=margin))
    assert op_norm(form) == op_norm(dense)
    assert np.array_equal(adjoint(form).dense(), dense.conj().T)
    assert _bits(hyponormality(adjoint(form))) == _bits(hyponormality(dense.conj().T))


def test_a_named_window_check_on_a_stamped_box_allocates_no_n_by_n_operand():
    grid = Grid(32, 32)
    system = generate_system(
        WavePacketParams(grid, indicator(grid, 0, 1), (1,), 1.0, (0, 31), tuple(range(32)))
    )
    assert system._lattice == 32 and len(system) == grid.n == 1024
    tracemalloc.start()
    try:
        report = check_theta_frame(system, _index_phase(grid, "modulate", 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.n**2 * 16 / 8
    assert report.passes() and report.beta_opt == 1.0


def _refuse_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK reached")

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)


@pytest.mark.parametrize("kind, value", [("translate", 0.75), ("modulate", 0.25), ("dilate", 5)])
def test_a_monomial_windows_hyponormality_and_norm_make_no_lapack_call(monkeypatch, kind, value):
    theta = operator_of(Grid(4, 8), kind, value)
    raw = _raw_window(np.random.default_rng(5), 32)
    _refuse_lapack(monkeypatch)
    for window in (theta, raw, theta.conj().T):
        hypo = hyponormality(window, margin=2)
        assert hypo.operator_norm == op_norm(window) == np.max(np.abs(window))
    assert hyponormality(theta).global_verdict


def test_the_structure_test_reads_index_and_phase_or_refuses():
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 2], m[2, 0], m[3, 3] = 2.0, -1j, 0.5  # row 1 is zero
    form = numerics._monomial(m)
    assert form.index.tolist() == [2, 1, 0, 3] and form.phase.tolist() == [2.0, 0.0, -1j, 0.5]
    assert np.array_equal(form.dense(), m) and form.shape == (4, 4)
    # An exactly diagonal operand with zeros keeps the identity index.
    assert numerics._monomial(np.diag([0.0, 3.0, 0.0])).index.tolist() == [0, 1, 2]
    refused = [
        np.ones((3, 3)),
        np.array([[1.0, 1.0], [0.0, 0.0]]),  # two nonzeros in a row
        np.array([[1.0, 0.0], [1.0, 0.0]]),  # two in a column
        np.eye(3)[:, :2],  # more rows than columns
    ]
    for operand in refused:
        assert numerics._monomial(operand) is None
    # A non-finite phase is read as it is; op_norm hands it to the SVD, which refuses it.
    with pytest.raises(NoConvergence):
        op_norm(np.diag([np.nan, 1.0]))


def test_a_diagonal_reference_is_read_off_in_ascending_order(monkeypatch):
    d = np.array([3.0, -1.0, 0.0, 3.0, -0.0, -2.5, 0.0, -1.0])
    expected = np.linalg.eigvalsh(np.diag(d))
    _refuse_lapack(monkeypatch)
    vals, vecs = numerics._diagonal_eigh(d)
    assert vals.tobytes() == expected.tobytes()  # signed zeros included
    # Stable order: ties keep their coordinate order, and the vectors permute the identity,
    # kept as the Monomial of their transpose.
    assert vecs.index.tolist() == [5, 1, 7, 2, 4, 6, 0, 3] and np.array_equal(vecs.phase, np.ones(8))
    columns = numerics._columns(vecs)
    assert np.array_equal(columns @ np.diag(vals) @ columns.T, np.diag(d))
    # psd_split of an exactly diagonal operand reads it off the same way, with no LAPACK call,
    # and returns its bases as matrices of columns, as for any other operand.
    basis_r, vals_r, basis_k = psd_split(np.diag(d))
    assert type(basis_r) is type(basis_k) is np.ndarray and basis_k.shape == (8, 6)
    assert np.array_equal(vals_r, [3.0, 3.0]) and np.array_equal(np.hstack([basis_k, basis_r]), columns)
    # A non-finite diagonal is refused, as hermitian_eigh refuses it.
    for diagonal in ([np.inf, 1.0], [1.0, np.nan]):
        with pytest.raises(NoConvergence, match="^eigenvalue problem has a non-finite entry$"):
            numerics._diagonal_eigh(np.array(diagonal))
        with pytest.raises(NoConvergence, match="^eigenvalue problem has a non-finite entry$"):
            psd_split(np.diag(diagonal))


@pytest.mark.parametrize("margin", [None, 1])
@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_hyponormality_refuses_a_non_finite_monomial(monkeypatch, entry, margin):
    # The commutator's diagonal holds inf - inf = NaN; it is refused before any norm is read.
    _refuse_lapack(monkeypatch)
    with pytest.raises(NoConvergence, match="^eigenvalue problem has a non-finite entry$"):
        hyponormality(np.diag([entry, 1.0]), margin=margin)


def test_a_whitened_pencil_is_decomposed_even_when_diagonal(monkeypatch):
    # Only the reference is read off: psd_split(I) and the gather whitening
    # make no LAPACK call, the whitened operand diag(2, 5) is decomposed.
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    assert pencil_inf(np.diag([2.0, 5.0]), np.eye(2)).value == 2.0
    assert calls == [(2, 2)]


def test_compressing_onto_scaled_coordinate_columns_is_a_gather():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    basis = np.zeros((6, 3), dtype=np.complex128)
    basis[[4, 0, 2], [0, 1, 2]] = [0.5, 2j, -1.0]
    assert np.allclose(compress(x, basis), numerics.hermitize(basis.conj().T @ x @ basis), rtol=1e-15, atol=0)


def test_hermitize_does_not_overflow_for_finite_entries():
    assert pencil_sup(np.diag([1e308, 1.0]), np.eye(2)).value == 1e308
    assert np.array_equal(numerics.hermitize(np.array([[1e308, 1e308], [1e308, 1.0]])), [[1e308, 1e308], [1e308, 1.0]])
