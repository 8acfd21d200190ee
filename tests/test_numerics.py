"""Numerical kernel: eigensolvers, SVD-backed helpers, JSON round trips.

Frozen oracle values were computed by hand (2x2 closed forms) or by an
independent least-squares check, then pinned here.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framekit
from framekit import numerics
from framekit.cli import main, to_jsonable
from framekit.errors import NoConvergence, NotHermitian, NotThetaFrame, Unresolved
from framekit.frame_core import FrameSystem, _Frame, canonical_basis, frame_operator, system_to_json
from framekit.numerics import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    as_real,
    herm_eig,
    hermitian_eigh,
    hermitize,
    is_psd,
    numerical_rank,
    op_norm,
    operator_from_json,
    operator_to_json,
    pinv,
    psd_split,
    range_inclusion,
    svd,
)
from framekit.operator_theory import _pencil_inf, _pencil_sup, douglas_check, hyponormality, pencil_inf, pencil_sup
from framekit.signal_space import Grid, Signal, indicator, operator_of, signal_to_json
from framekit.theta_frame import (
    check_k_frame,
    check_theta_frame,
    pseudoinverse_bound_chain,
    theta_tight_check,
)
from framekit.wavepacket import (
    FiniteSumSpec,
    PartitionCombination,
    WavePacketParams,
    finite_sum_criterion_check,
    generate_system,
    partition_domination_check,
)


def test_tolerance_defaults_and_validation():
    assert DEFAULT_TOL.psd_floor == 1e-9
    assert DEFAULT_TOL.rank_rel == 1e-10
    assert DEFAULT_TOL.verdict_rel == 1e-8
    with pytest.raises(ValueError):
        Tolerance(psd_floor=-1.0)
    with pytest.raises(ValueError):
        Tolerance(rank_rel=float("nan"))


def test_adjoint_and_hermitize():
    m = np.array([[1.0 + 2j, 3.0], [0.0, -1j]])
    assert np.allclose(adjoint(m), m.conj().T)
    h = hermitize(m)
    assert np.allclose(h, h.conj().T)
    # hermitize is a projection: fixed on Hermitian input
    assert np.allclose(hermitize(h), h)


def test_op_norm_closed_form():
    # diag norms and the rank-1 all-ones matrix (norm = dimension)
    assert op_norm(np.diag([3.0, -7.0, 2.0])) == pytest.approx(7.0)
    assert op_norm(np.ones((4, 4))) == pytest.approx(4.0)
    assert op_norm(np.zeros((3, 2))) == 0.0


def test_herm_eig_two_by_two_oracle():
    # [[2,1],[1,2]] has eigenvalues 1 and 3 with eigenvectors (1,-1), (1,1)/sqrt2
    h = np.array([[2.0, 1.0], [1.0, 2.0]])
    vals, vecs = herm_eig(h)
    assert np.allclose(vals, [1.0, 3.0], atol=1e-12)
    assert np.allclose(h @ vecs, vecs @ np.diag(vals), atol=1e-12)
    # ascending order and orthonormal columns
    assert vals[0] <= vals[1]
    assert np.allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-12)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_reconstructs_random_hermitian():
    rng = np.random.default_rng(7021)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = hermitize(a @ a.conj().T + a + a.conj().T)
        vals, vecs = herm_eig(h)
        assert np.all(np.diff(vals) >= -1e-12)
        back = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.allclose(back, h, atol=1e-10 * max(1.0, op_norm(h)))


def test_svd_convention():
    m = np.array([[0.0, 2.0], [1.0, 0.0], [0.0, 0.0]])
    left, s, right = svd(m)
    assert np.allclose(s, [2.0, 1.0])  # descending
    back = left @ np.diag(s) @ adjoint(right)
    assert np.allclose(back, m, atol=1e-12)


def test_numerical_rank():
    v = np.array([1.0, 2.0, -1.0])
    assert numerical_rank(np.outer(v, v)) == 1
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.zeros((3, 3))) == 0
    # a perturbation below the relative cutoff does not raise the rank
    m = np.outer(v, v) + 1e-14 * np.eye(3)
    assert numerical_rank(m) == 1


def test_rank_tests_decompose_for_singular_values_only(monkeypatch):
    calls = []
    real = np.linalg.svd

    def recorded(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    rng = np.random.default_rng(5)
    for rank in range(5):
        b = rng.normal(size=(5, rank)) @ rng.normal(size=(rank, 7))
        a = b @ rng.normal(size=(7, 3))
        assert numerical_rank(b) == rank
        assert range_inclusion(a, b)
    assert numerical_rank(np.zeros((5, 0))) == 0
    assert calls and not any(calls)


def test_pinv_rank_one_oracle():
    # J = all-ones 2x2: J = u s v* with s = 2, so pinv(J) = J / 4
    j = np.ones((2, 2))
    assert np.allclose(pinv(j), j / 4.0, atol=1e-13)


def test_pinv_penrose_identities():
    rng = np.random.default_rng(3344)
    for _ in range(20):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        p = pinv(m)
        scale = max(1.0, op_norm(m))
        assert np.allclose(m @ p @ m, m, atol=1e-10 * scale)
        assert np.allclose(p @ m @ p, p, atol=1e-10 * max(1.0, op_norm(p)))
        assert np.allclose(adjoint(m @ p), m @ p, atol=1e-10)
        assert np.allclose(adjoint(p @ m), p @ m, atol=1e-10)


def test_pinv_is_an_involution_up_to_rank():
    rng = np.random.default_rng(91)
    m = rng.normal(size=(5, 3))
    assert np.allclose(pinv(pinv(m)), m, atol=1e-10)


def test_is_psd_verdicts():
    ok, mineig = is_psd(np.eye(3))
    assert ok and mineig == pytest.approx(1.0)
    ok, mineig = is_psd(np.diag([1.0, -1.0]))
    assert not ok and mineig == pytest.approx(-1.0)
    # tiny negative eigenvalue inside the floor still passes
    ok, _ = is_psd(np.diag([1.0, -1e-12]))
    assert ok


def test_range_inclusion_frozen_oracle():
    # range(e1 e1*) = span(e1) is NOT inside range([[1,1],[1,1]]) = span((1,1));
    # verified independently with a least-squares residual check.
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.ones((2, 2))
    assert range_inclusion(a, b) is False
    assert range_inclusion(b, b) is True
    # the zero operator's range sits inside anything; nothing nonzero fits in it
    z = np.zeros((2, 2))
    assert range_inclusion(z, a) is True
    assert range_inclusion(a, z) is False


def test_range_inclusion_random_factorizations():
    rng = np.random.default_rng(556)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s = rng.normal(size=(n, n))
        assert range_inclusion(b @ s, b) is True


def test_operator_json_round_trip():
    m = np.array([[1.0 + 2j, -3.0], [0.5j, 4.0]])
    doc = operator_to_json(m)
    assert doc["rows"] == 2 and doc["cols"] == 2
    assert np.allclose(operator_from_json(doc), m)


# Entries whose text a re/im encoder could get wrong: signed zeros, the
# smallest subnormal, a huge value and integral floats.
_AWKWARD = np.array(
    [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0, 0.1, 2.0**53], dtype=np.float64
)


@pytest.mark.parametrize("seed", range(6))
def test_every_re_im_encoder_keeps_the_old_bytes(seed):
    """Each encoder's text equals that of the encoder it replaced, entry for entry."""

    def dumps(doc):
        return json.dumps(doc, sort_keys=True)

    rng = np.random.default_rng(seed)
    m = np.empty((3, 4), dtype=np.complex128)
    m.real = rng.choice(_AWKWARD, size=m.shape)
    m.imag = rng.choice(_AWKWARD, size=m.shape)
    flat = m.reshape(-1)
    old_operator = {
        "rows": 3,
        "cols": 4,
        "re": [float(x) for x in flat.real],
        "im": [float(x) for x in flat.imag],
    }
    assert dumps(operator_to_json(m)) == dumps(old_operator)
    old_vector = {"re": flat.real.tolist(), "im": flat.imag.tolist()}
    assert dumps(to_jsonable(flat)) == dumps(old_vector)
    assert dumps(to_jsonable(flat.real)) == dumps(
        {"re": flat.real.tolist(), "im": [0.0] * flat.size}
    )
    for z in map(complex, flat):
        assert dumps(to_jsonable(z)) == dumps({"re": z.real, "im": z.imag})
    old_system = {
        "n": 4,
        "vectors": [
            {"re": re, "im": im} for re, im in zip(m.real.tolist(), m.imag.tolist())
        ],
        "labels": [[0, k, 0] for k in range(3)],
    }
    system = FrameSystem(m, labels=[(0, k, 0) for k in range(3)])
    assert dumps(system_to_json(system)) == dumps(old_system)
    signal = Signal(Grid(4, 3), flat)
    old_signal = {"q": 4, "P": 3, "re": flat.real.tolist(), "im": flat.imag.tolist()}
    assert dumps(signal_to_json(signal)) == dumps(old_signal)
    for a in (m, flat, m[:, 0]):
        back = numerics.complex_from_json(numerics.complex_to_json(a), a.shape, "entries")
        assert back.dtype == a.dtype and back.tobytes() == a.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_hermitize_output_has_real_diagonal(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = hermitize(a)
    assert np.allclose(h.imag.diagonal(), 0.0, atol=1e-14)
    assert np.allclose(h, adjoint(h))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31))
def test_op_norm_triangle_and_scaling(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    assert op_norm(a + b) <= op_norm(a) + op_norm(b) + 1e-12
    assert op_norm(2.5 * a) == pytest.approx(2.5 * op_norm(a))


def _raise_linalg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# Diagonal operands and monomial windows never reach LAPACK, so the failure
# tests use operands without that structure.
_UNSTRUCTURED = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [1.0, 1.0, 1.0]])


@pytest.mark.parametrize(
    "call",
    [
        lambda: pencil_sup(np.eye(3), np.ones((3, 3))),
        lambda: pencil_inf(np.eye(3), np.ones((3, 3))),
        lambda: hyponormality(_UNSTRUCTURED),
        lambda: theta_tight_check(canonical_basis(3), _UNSTRUCTURED),
        lambda: check_k_frame(canonical_basis(3), _UNSTRUCTURED),
    ],
    ids=["pencil_sup", "pencil_inf", "hyponormality", "theta_tight_check", "check_k_frame"],
)
def test_every_eigensolve_maps_lapack_failure_to_no_convergence(monkeypatch, call):
    monkeypatch.setattr(np.linalg, "eigh", _raise_linalg_error)
    monkeypatch.setattr(np.linalg, "eigvalsh", _raise_linalg_error)
    with pytest.raises(NoConvergence):
        call()


def test_non_finite_operand_raises_no_convergence():
    with pytest.raises(NoConvergence):
        pencil_sup(np.diag([np.inf, 1.0]), np.eye(2))
    with pytest.raises(NoConvergence):
        hyponormality(np.array([[np.nan, 0.0], [0.0, 1.0]]))


_INFINITE = np.array([[np.inf, 1.0], [1.0, 0.0]])


def test_hyponormality_of_an_infinite_product_operand_raises_no_convergence_not_a_warning():
    # T*T - TT* holds inf - inf; under the suite's error::RuntimeWarning filter a
    # warning while forming it would escape as RuntimeWarning.
    with pytest.raises(NoConvergence, match="^eigenvalue problem has a non-finite entry$"):
        hyponormality(_INFINITE)


@pytest.mark.parametrize("operand", [_INFINITE, np.array([[np.inf, 1.0], [2.0, 0.0]])], ids=["hermitian", "not"])
def test_herm_eig_of_an_infinite_operand_raises_no_convergence_not_a_warning(operand):
    with pytest.raises(NoConvergence):
        herm_eig(operand)


def test_herm_eig_reads_no_norm_of_an_exactly_hermitian_operand(monkeypatch):
    svds = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: svds.append(a.shape) or real(a, *args, **kwargs))
    rng = np.random.default_rng(21)
    h = hermitize(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    values = herm_eig(h, vectors=False)
    assert svds == []
    # A rounding of asymmetry takes the verdict, which reads both norms and passes.
    h[0, 1:3] *= 1.0 + 2.0**-52
    assert np.allclose(herm_eig(h, vectors=False), values, rtol=0.0, atol=1e-13)
    assert svds == [(5, 5), (5, 5)]
    with pytest.raises(NotHermitian):
        herm_eig(h + np.triu(np.ones((5, 5)), 1))


def test_rank_cut_is_shared_across_splits_pinv_and_the_bound_chain():
    # Eigenvalues straddle the cutoff rank_rel * top at 2x and 0.5x: every
    # truncating kernel must keep exactly the top three directions.
    r = DEFAULT_TOL.rank_rel
    rng = np.random.default_rng(12)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    y = (u * [1.0, 1.0, 2.0 * r, 0.5 * r]) @ u.conj().T
    kept, vals, kernel = psd_split(y)
    assert (kept.shape[1], vals.size, kernel.shape[1]) == (3, 3, 1)
    assert numerical_rank(y) == 3
    truncated = (u[:, :3] / [1.0, 1.0, 2.0 * r]) @ u[:, :3].conj().T
    assert op_norm(pinv(y) - truncated) <= 1e-4 * op_norm(truncated)
    # The window check and the bound chain cut the window's singular values
    # (here y's eigenvalues) as pinv does, not their squares: both keep the
    # third direction.  Its singular value 2e-10 puts the round-off bound of
    # the whitened pencil, n eps ||S||_F / s_3^2, near 3e4; a system with no
    # energy there has alpha = 0, which that bound cannot tell from the floor,
    # so the shared verdict is a refusal.
    assert [numerics._gram_split(y, right=right)[0].shape[1] for right in (False, True)] == [3, 3]
    for check in (check_theta_frame, pseudoinverse_bound_chain):
        with pytest.raises(Unresolved, match=r"round-off bound 3\.\d+e\+04"):
            check(FrameSystem(u[:, :2].T), y)
    # With the cut at 1e-3 the same layout resolves: energy on the dropped
    # fourth direction is a kernel obstruction, and a system on the top two
    # fails the lower inequality on the kept third, so no chain exists.
    tol = Tolerance(rank_rel=1e-3)
    y = (u * [1.0, 1.0, 2e-3, 5e-4]) @ u.conj().T
    report = check_theta_frame(FrameSystem(u[:, [0, 1, 3]].T), y, tol)
    assert report.beta_opt == np.inf and abs(np.vdot(u[:, 3], report.kernel_obstruction)) >= 1 - 1e-6
    system = FrameSystem(u[:, :2].T)
    report = check_theta_frame(system, y, tol)
    assert report.alpha_opt <= 1e-10 and not report.lower_ok and report.upper_ok
    with pytest.raises(NotThetaFrame):
        pseudoinverse_bound_chain(system, y, tol)
    # A system on the top three is a window frame: the chain restricts S to
    # those three directions, and its projector residual stays small only if
    # it drops the fourth.
    chain = pseudoinverse_bound_chain(FrameSystem(u[:, :3].T), y, tol)
    assert chain.projector_residual <= 1e-3
    assert abs(chain.restricted_min_eig - 1.0) <= 1e-8


def test_linalg_eigensolvers_are_called_only_in_numerics():
    package = Path(framekit.__file__).parent
    callers = sorted(
        path.name
        for path in package.glob("*.py")
        if re.search(r"linalg\.eig", path.read_text(encoding="utf-8"))
    )
    assert callers == ["numerics.py"]


def test_linalg_svd_is_called_only_in_numerics_and_no_norm_hides_one():
    package = Path(framekit.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    assert sorted(name for name, text in sources.items() if "linalg.svd" in text) == ["numerics.py"]
    # The matrix 2-norm is a full SVD; op_norm is the one route to it.
    hidden = re.compile(r"\bnorm\([^\n]*,\s*(ord\s*=\s*)?2\s*\)")
    assert [name for name, text in sources.items() if hidden.search(text)] == []


def test_op_norm_maps_lapack_failure_to_no_convergence(monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", _raise_linalg_error)
    with pytest.raises(NoConvergence):
        op_norm(_UNSTRUCTURED)


@pytest.mark.parametrize("shape", [(6, 6), (4, 9), (9, 4), (0, 0), (0, 3), (3, 0)])
def test_op_norm_is_bit_identical_to_the_matrix_two_norm(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(5):
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert op_norm(m) == float(np.linalg.norm(m, 2))
        if m.size:  # the values-only LAPACK routine may differ in the last bits
            assert np.allclose(svd(m, vectors=False), svd(m)[1], rtol=1e-13, atol=0)


@pytest.mark.parametrize("value, expected", [(3, 3.0), (-0.25, -0.25), (np.float64(2.5), 2.5)])
def test_as_real_accepts_finite_numbers(value, expected):
    assert as_real(value, "x") == expected
    assert type(as_real(value, "x")) is float


@pytest.mark.parametrize("value", [True, None, "1.0", [1.0], float("nan"), float("inf")])
def test_as_real_rejects_everything_else(value):
    with pytest.raises(ValueError, match="x must be a"):
        as_real(value, "x")


def test_as_real_overflows_like_float():
    with pytest.raises(OverflowError):
        as_real(10**400, "x")


# ---------------------------------------------------------------------------
# extreme eigenpairs: eigvalsh values, witnesses from one solve or a full eigh


def _assert_certified(h, values, witnesses, positions):
    """Values bit-equal to eigvalsh; each witness a unit vector in canonical phase whose
    residual is within the certification bound and whose Rayleigh quotient is its value."""
    eps = np.finfo(float).eps
    assert np.array_equal(values, np.linalg.eigvalsh(h))
    norm = float(np.max(np.abs(values)))
    bound = numerics._WITNESS_C * len(h) * eps * norm
    for column, position in enumerate(positions):
        w, lam = witnesses[:, column], values[position]
        assert abs(np.linalg.norm(w) - 1.0) <= 8 * eps
        assert np.linalg.norm(h @ w - lam * w) <= bound
        assert abs(np.vdot(w, h @ w).real - lam) <= 1e-12 * norm
        top = int(np.argmax(np.abs(w)))
        assert w[top].imag == 0.0 and w[top].real > 0.0


def _random_hermitian(rng, n, kind):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "gram":
        h = a @ a.conj().T
    elif kind == "indefinite":
        h = a + a.conj().T
    else:  # graded: eigenvalues from 1 down to 1e-12
        q, _ = np.linalg.qr(a)
        h = (q * np.logspace(0, -12, n)) @ q.conj().T
    return hermitize(h)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", ["gram", "indefinite", "graded"])
def test_extreme_eigh_agrees_with_dense_eigh(lapack_log, seed, kind):
    rng = np.random.default_rng(seed)
    h = _random_hermitian(rng, int(rng.integers(2, 48)), kind)
    values, witnesses = hermitian_eigh(h, (0, -1))
    # Simple extremes: one solve each, no full eigh; each witness is eigh's
    # eigenvector up to a unit scalar (the gaps here exceed 1e-6 * ||H||).
    assert _solvers(lapack_log) == ["eigvalsh", "solve", "solve"]
    _assert_certified(h, values, witnesses, (0, -1))
    _, vectors = np.linalg.eigh(h)
    for column, position in enumerate((0, -1)):
        assert abs(abs(np.vdot(vectors[:, position], witnesses[:, column])) - 1.0) <= 1e-9
    assert np.array_equal(hermitian_eigh(h, (-1,))[1][:, 0], witnesses[:, 1])


def test_extreme_eigh_falls_back_to_eigh_on_a_singular_shift_or_a_repeated_eigenvalue(lapack_log):
    # S = I: h - 1 I is exactly zero, so each solve raises and one full eigh serves both.
    identity = np.eye(4, dtype=np.complex128)
    values, witnesses = hermitian_eigh(identity, (0, -1))
    assert _solvers(lapack_log) == ["eigvalsh", "solve", "eigh", "solve"]
    assert np.array_equal(values, np.ones(4)) and np.array_equal(witnesses, identity[:, [0, -1]])
    # Eigenvalues exactly 1 and 3: h - 1 I is exactly singular and the solve raises.
    lapack_log.clear()
    h = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=np.complex128)
    values, witnesses = hermitian_eigh(h, (0, -1))
    assert values.tolist() == [1.0, 3.0]
    assert _solvers(lapack_log) == ["eigvalsh", "solve", "eigh", "solve"]  # h - 3 I is singular too
    _assert_certified(h, values, witnesses, (0, -1))
    assert np.allclose(witnesses, np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2), rtol=0, atol=1e-15)
    # The fallback applies the same phase: each witness is eigh's column in canonical phase.
    assert np.array_equal(witnesses, numerics._canonical_phase(np.linalg.eigh(h)[1]))
    # A repeated least eigenvalue is certified by its residual, as the simple top one is:
    # one solve each and no eigh, the witness a unit vector of the twofold eigenspace.
    lapack_log.clear()
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    h = hermitize((q * [1.0, 1.0, 2.0, 3.0, 4.0, 5.0]) @ q.conj().T)
    values, witnesses = hermitian_eigh(h, (-1, 0))
    assert _solvers(lapack_log) == ["eigvalsh", "solve", "solve"]
    _assert_certified(h, values, witnesses, (-1, 0))
    assert abs(np.linalg.norm(q[:, :2].conj().T @ witnesses[:, 1]) - 1.0) <= 1e-12


def _clustered_hermitian(rng, n, kind):
    """A Hermitian operand whose extreme eigenvalues are repeated or nearly so."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    if kind == "orthonormal":  # S of a scaled orthonormal system: c^2 I up to rounding
        return frame_operator(FrameSystem(rng.uniform(0.5, 4.0) * q))
    values = np.sort(rng.uniform(1.0, 2.0, size=n))
    if kind == "multiplicity":  # each extreme repeated 2 to 4 times
        values[: rng.integers(2, 5)] = 1.0
        values[-int(rng.integers(2, 5)) :] = 2.0
    elif kind == "scalar":  # c I up to rounding
        values[:] = rng.uniform(0.5, 4.0)
    else:  # each extreme with a neighbour 4e-16 apart
        values[[0, 1, -2, -1]] = 1.0, 1.0 + 4e-16, 2.0 - 4e-16, 2.0
    return hermitize((q * np.sort(values)) @ q.conj().T)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["multiplicity", "scalar", "neighbours", "orthonormal"])
def test_repeated_extreme_eigenvalues_are_certified_with_no_full_eigh(lapack_log, seed, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 120))
    h = _clustered_hermitian(rng, n, kind)
    values, witnesses = hermitian_eigh(h, (0, -1))
    # The residual certifies a witness of a repeated eigenvalue as it does a simple one.
    assert _solvers(lapack_log) == ["eigvalsh", "solve", "solve"]
    _assert_certified(h, values, witnesses, (0, -1))


def test_extreme_eigh_at_n_1_and_on_diagonal_operands(lapack_log):
    values, witnesses = hermitian_eigh(np.array([[2.5]], dtype=np.complex128), (0, -1))
    assert values.tolist() == [2.5] and witnesses.tolist() == [[1.0, 1.0]]
    assert _solvers(lapack_log) == ["eigvalsh", "solve", "eigh", "solve"]  # h - 2.5 I = 0, one eigh
    # The exactly diagonal frame operator of a canonical basis goes to LAPACK like any
    # other; S - I is exactly zero, so both witnesses come from the fallback eigh, which
    # gives coordinate vectors.
    for n in (1, 3, 32):
        lapack_log.clear()
        frame = _Frame(canonical_basis(n))
        (low, low_witness), (high, high_witness) = frame.extreme(0), frame.extreme(-1)
        assert _solvers(lapack_log) == ["eigvalsh", "solve", "eigh", "solve"]
        assert low == high == 1.0 and frame.values.tolist() == [1.0] * n
        assert np.array_equal(np.stack([low_witness, high_witness], axis=1), np.eye(n)[:, [0, n - 1]])


def test_values_only_make_one_eigvalsh_and_no_solve(lapack_log):
    h = _random_hermitian(np.random.default_rng(5), 9, "indefinite")
    values, vectors = hermitian_eigh(h, ())
    assert _solvers(lapack_log) == ["eigvalsh"] and vectors is None
    assert np.array_equal(values, np.linalg.eigvalsh(h))


def test_empty_operands_have_empty_spectra(tmp_path, capsys):
    empty = np.zeros((0, 0))
    assert is_psd(empty) == (True, 0.0)
    assert herm_eig(empty, vectors=False).shape == (0,)
    report = hyponormality(empty)
    assert (report.commutator_min_eig, report.operator_norm) == (0.0, 0.0)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(operator_to_json(empty)))
    assert main(["check-hypo", str(path)]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert (verdicts["commutator_min_eig"], verdicts["operator_norm"]) == (0.0, 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_the_extreme_path_takes_s_as_frame_operator_builds_it(lapack_log, seed):
    rng = np.random.default_rng(seed)
    system = FrameSystem(rng.normal(size=(20, 12)) + 1j * rng.normal(size=(20, 12)))
    s = frame_operator(system)
    # S is exactly Hermitian as built, and hermitize leaves its bits alone.
    assert hermitize(s).tobytes() == s.tobytes()
    frame = _Frame(system)
    (low, low_witness), (high, high_witness) = frame.extreme(0), frame.extreme(-1)
    assert lapack_log[0] == ("eigvalsh", hashlib.sha256(np.ascontiguousarray(s)).hexdigest())
    assert _solvers(lapack_log) == ["eigvalsh", "solve", "solve"]
    values = frame.values
    assert (low, high) == (values[0], values[-1])
    _assert_certified(s, values, np.stack([low_witness, high_witness], axis=1), (0, -1))
    # The extreme eigenpairs are made once: a second read makes no call and gives the
    # same pair, in an array of its own.
    lapack_log.clear()
    again, witness = frame.extreme(-1)
    assert lapack_log == [] and again == high
    assert np.array_equal(witness, high_witness) and witness is not high_witness


def _psd(rng, n, rank):
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    return hermitize(a @ a.conj().T)


@pytest.mark.parametrize("seed", range(8))
def test_the_kernel_branches_of_the_pencils_certify_their_witnesses(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))
    x, y = _psd(rng, n, n), _psd(rng, n, n - 2)
    split = psd_split(y)
    assert split[2].shape[1] == 2
    # pencil_inf reduces x by the Schur complement against y's kernel; the witness
    # attains the optimum as a generalized Rayleigh quotient.
    lower = _pencil_inf(x, split, DEFAULT_TOL)
    assert lower.value == _pencil_inf(x, split, DEFAULT_TOL, witness=False).value > 0.0
    w = lower.witness
    assert abs(np.vdot(w, x @ w).real - lower.value * np.vdot(w, y @ w).real) <= 1e-9 * op_norm(x)
    # pencil_sup: x with energy on ker(y) is obstructed, certified by the top
    # eigenvector of x compressed to that kernel.
    upper = _pencil_sup(x, split, DEFAULT_TOL)
    assert upper.value == np.inf and _pencil_sup(x, split, DEFAULT_TOL, witness=False).witness is None
    kernel = split[2]
    top = np.linalg.eigvalsh(numerics.compress(x, kernel))[-1]
    assert abs(np.linalg.norm(kernel.conj().T @ upper.obstruction) - 1.0) <= 1e-12
    assert abs(np.vdot(upper.obstruction, x @ upper.obstruction).real - top) <= 1e-10 * op_norm(x)
    # x vanishing on ker(y): the whitened top eigenpair attains the optimum.
    p = split[0] @ split[0].conj().T
    x = hermitize(p @ x @ p)
    upper = _pencil_sup(x, split, DEFAULT_TOL)
    assert upper.value == _pencil_sup(x, split, DEFAULT_TOL, witness=False).value < np.inf
    w = upper.witness
    assert abs(np.vdot(w, x @ w).real - upper.value * np.vdot(w, y @ w).real) <= 1e-9 * op_norm(x)


# ---------------------------------------------------------------------------
# decompositions a check makes


def test_hermitian_eigh_keeps_no_state(lapack_log):
    rng = np.random.default_rng(3)
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    first, second = hermitian_eigh(g), hermitian_eigh(g.copy())
    assert [solver for solver, _ in lapack_log] == ["eigh", "eigh"]
    for mine, again in zip(first, second):
        assert np.array_equal(mine, again) and mine is not again
        assert mine.flags.writeable and again.flags.writeable


def _partition_case():
    grid = Grid(4, 4)
    params = WavePacketParams(
        grid, indicator(grid, 0, 1), (1, 3), 0.5, (0, 7), (0.0, 1.0, 2.0, 3.0)
    )
    base = generate_system(params)
    cells = [tuple(range(i, min(i + 3, len(base)))) for i in range(0, len(base), 3)]
    pc = PartitionCombination(cells=cells, coefficients=np.ones(len(base)))
    return base, operator_of(grid, "modulate", 1.0), pc


def _unstamped(system):
    """The same vectors and labels without the lattice stamp: the dense path."""
    return FrameSystem(system.vectors, system.labels)


def _solvers(log):
    return [solver for solver, _ in log]


def test_partition_domination_check_decomposes_each_operand_once(lapack_log):
    base, theta, pc = _partition_case()
    log = lapack_log
    partition_domination_check(_unstamped(base), pc, theta)
    # S_base, S_phi whitened by S_base, and S_phi.  The window products of
    # the modulation are read off as diagonals, with no LAPACK call, and are
    # both I here, so each windowed pencil whitens S_phi or S_base by I, and
    # S_base is already known.  Both upper pencils have a full-rank
    # Theta* Theta, so neither decomposes S_base or S_phi for a positivity
    # floor it would never compare against.  Only S_base's eigenvectors are
    # read in full (they split the pencil over it); the constant over it reads
    # values alone, and each report the values of its S and one solve per
    # witness: S_base = 4 I up to rounding repeats its extreme eigenvalues,
    # and the residual certifies those witnesses too.  No operand goes to one
    # solver twice.
    assert _solvers(log) == ["eigh", "eigvalsh", "eigvalsh", "solve", "solve", "eigvalsh", "solve", "solve"]
    assert len(set(log)) == 8 and log[0][1] == log[5][1]


def test_partition_domination_check_on_a_stamped_base_decomposes_two_operands(lapack_log):
    base, theta, pc = _partition_case()
    assert base._lattice == 4 and len(base) == 64
    log = lapack_log
    partition_domination_check(base, pc, theta)
    # S_phi whitened by S_base, and S_phi.  S_base is split by its lattice
    # spectrum, which also gives the base report under the unit window.  The
    # constant reads values alone, and S_phi's report one solve per witness.
    assert _solvers(log) == ["eigvalsh", "eigvalsh", "solve", "solve"]
    assert len(set(log)) == 4


def test_check_theta_frame_with_a_unitary_window_decomposes_only_s(lapack_log):
    base, theta, _ = _partition_case()
    s = frame_operator(base)
    key = hashlib.sha256(np.ascontiguousarray(s)).hexdigest()
    check_theta_frame(_unstamped(base), theta)
    # S = 4 I up to round-off: its extreme eigenvalues are repeated, and after
    # the values each witness is one certified solve, with no full eigh.
    assert np.allclose(s, 4 * np.eye(16), rtol=0, atol=1e-13)
    assert lapack_log[0] == ("eigvalsh", key) and _solvers(lapack_log) == ["eigvalsh", "solve", "solve"]
    lapack_log.clear()
    rng = np.random.default_rng(5)
    system = FrameSystem(rng.normal(size=(24, 16)) + 1j * rng.normal(size=(24, 16)))
    check_theta_frame(system, theta)
    # Simple extreme eigenvalues: the values and one solve per witness.
    assert _solvers(lapack_log) == ["eigvalsh", "solve", "solve"]


@pytest.mark.parametrize("kind, value", [("modulate", 1.0), ("translate", 0.5), ("dilate", 3)])
def test_check_theta_frame_on_a_stamped_system_with_a_unit_window_decomposes_nothing(
    lapack_log, kind, value
):
    base, _, _ = _partition_case()
    log = lapack_log
    report = check_theta_frame(base, operator_of(Grid(4, 4), kind, value))
    assert log == []
    assert report.passes() and report.kernel_obstruction is None


@pytest.mark.parametrize("window", ["named", "singular"])
def test_check_theta_frame_matches_unscoped_pencils(window):
    base, theta, _ = _partition_case()
    base = _unstamped(base)
    if window == "singular":
        theta = theta @ np.diag([1.0] * 15 + [0.0])
    report = check_theta_frame(base, theta)
    s = frame_operator(base)
    lower = pencil_inf(s, theta @ theta.conj().T)
    upper = pencil_sup(s, theta.conj().T @ theta)
    assert (report.alpha_opt, report.beta_opt) == (lower.value, upper.value)
    for mine, direct in [
        (report.lower_witness, lower.witness),
        (report.upper_witness, upper.witness),
        (report.kernel_obstruction, upper.obstruction),
    ]:
        assert (mine is None and direct is None) or np.array_equal(mine, direct)


def test_k_frame_upper_witness_is_its_own_array():
    base, theta, _ = _partition_case()
    report = check_k_frame(base, theta)
    assert report.upper_witness.base is None and report.upper_witness.flags.writeable


_NAMED = [("modulate", 1.0), ("translate", 0.5), ("dilate", 3)]


@pytest.mark.parametrize("kind, value", _NAMED)
def test_check_k_frame_with_a_named_window_reads_one_spectrum(lapack_log, kind, value):
    base, _, _ = _partition_case()
    k = operator_of(Grid(4, 4), kind, value)
    stamped = check_k_frame(base, k)
    assert lapack_log == []
    dense = check_k_frame(_unstamped(base), k)
    # S: its values, then one certified solve per witness, although S = 4 I up to rounding
    # repeats its extreme eigenvalues; no full eigh.
    key = hashlib.sha256(np.ascontiguousarray(frame_operator(base))).hexdigest()
    assert lapack_log[0] == ("eigvalsh", key) and _solvers(lapack_log) == ["eigvalsh", "solve", "solve"]
    assert stamped.lower_ok and dense.lower_ok
    assert abs(stamped.a_opt - dense.a_opt) <= 1e-12 * dense.b_opt
    assert abs(stamped.b_opt - dense.b_opt) <= 1e-12 * dense.b_opt


@pytest.mark.parametrize("margin", [None, 3])
@pytest.mark.parametrize("kind, value", _NAMED)
def test_a_unit_window_report_is_the_extreme_eigenpairs_of_s(kind, value, margin):
    base, _, _ = _partition_case()
    base = _unstamped(base)
    report = check_theta_frame(base, operator_of(Grid(4, 4), kind, value), margin=margin)
    s = numerics.restrict(frame_operator(base), margin)
    vals = np.linalg.eigvalsh(s)
    assert report.alpha_opt == max(float(vals[0]), 0.0) and report.beta_opt == float(vals[-1])
    witnesses = np.stack([report.lower_witness, report.upper_witness], axis=1)
    _assert_certified(s, vals, witnesses, (0, -1))
    assert report.kernel_obstruction is None and not report.lower_degenerate


def test_a_finite_sum_check_splits_each_window_product_once(lapack_log, monkeypatch):
    svd_log = []
    real_svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        svd_log.append(hashlib.sha256(np.ascontiguousarray(a)).hexdigest())
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    rng = np.random.default_rng(9)
    grid = Grid(4, 4)
    psis = tuple(Signal(grid, rng.normal(size=16) + 1j * rng.normal(size=16)) for _ in range(2))
    params = WavePacketParams(grid, psis[0], (1,), 1.0, (0, 3), (0.0, 1.0, 2.0, 3.0), dedupe=False)
    theta, _ = np.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    report = finite_sum_criterion_check(FiniteSumSpec((1.0, 0.5j), psis), params, theta)
    assert report.sum_report.passes() and all(r.passes() for r in report.single_reports)
    # C and D both come from one SVD of theta; neither product is formed and decomposed.
    assert svd_log.count(hashlib.sha256(np.ascontiguousarray(theta)).hexdigest()) == 1
    products = [hermitize(theta @ theta.conj().T), hermitize(theta.conj().T @ theta)]
    for product in products:
        key = ("eigh", hashlib.sha256(np.ascontiguousarray(product)).hexdigest())
        assert key not in lapack_log
    # The sum and both singles are stamped, so each constant is a ratio of
    # lattice eigenvalues whatever the window: no single's full eigh and no
    # sum whitened by it.  Two pencils for each of the 1 + 2 reports (values
    # and one solve for the witness), and the self-commutator of theta*
    # (values alone).
    assert all(mu > 0.0 for mu in report.mu_opts)
    assert len(lapack_log) == len(set(lapack_log)) == 3 * 2 * 2 + 1
    assert _solvers(lapack_log) == ["eigvalsh", "solve"] * 6 + ["eigvalsh"]


def test_a_douglas_check_takes_the_rank_of_t2_from_its_svd(monkeypatch):
    svd_log = []
    real_svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        svd_log.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    rng = np.random.default_rng(4)
    t2 = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
    t1 = t2 @ (rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5)))
    report = douglas_check(t1, t2)
    assert report.range_included and report.consistent and report.factor is not None
    # The full SVD of T2 (its rank, the split of T2 T2* and pinv(T2)), rank
    # [T2 | T1], and the norms of the residual and of T1; no second SVD of T2.
    assert svd_log == [(12, 4), (12, 9), (12, 5), (12, 5)]
    assert not douglas_check(np.eye(12)[:, :5], t2).range_included


def test_value_only_pencils_make_no_solve_and_no_eigh(lapack_log):
    # theta_tight_check reads the value of its upper pencil, and douglas_check
    # that of its majorization pencil: each pencil is one eigvalsh, with no
    # witness solve and no fallback eigh, also on a tight frame (S = 4 I).
    base, _, _ = _partition_case()
    rng = np.random.default_rng(3)
    theta, _ = np.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    generic = FrameSystem(rng.normal(size=(24, 16)) + 1j * rng.normal(size=(24, 16)))
    for system in (_unstamped(base), generic):
        lapack_log.clear()
        theta_tight_check(system, theta)
        assert _solvers(lapack_log) == ["eigvalsh", "eigvalsh"]  # the upper pencil, the whitened S
    lapack_log.clear()
    t2 = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
    t1 = t2 @ (rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5)))
    assert douglas_check(t1, t2).range_included
    # T2 T2* has a kernel here: T1 T1* compressed onto it, then whitened.  T1 T1* carries
    # no energy there, at most psd_floor, so its own eigenvalues are not read for the floor.
    assert _solvers(lapack_log) == ["eigvalsh"] * 2


def test_only_operands_beyond_two_to_the_200_are_scaled():
    ordinary = np.array([[2.0**200, -(2.0**200)], [1j * 2.0**200, 0.5]])
    scaled, exponent = numerics._pow2_scaled(ordinary)
    assert scaled is ordinary and exponent == 0
    huge = ordinary.copy()
    huge[1, 1] = -0.0 - 1j * np.nextafter(2.0**200, np.inf)
    scaled, exponent = numerics._pow2_scaled(huge)
    assert exponent == 200
    assert np.array_equal(scaled.view(np.float64), np.ldexp(huge.view(np.float64), -200))
    assert np.signbit(scaled[1, 1].real)
    assert numerics._pow2_restored(3.0, -2) == 0.75
    with pytest.raises(OverflowError, match="non-finite in float64"):
        numerics._pow2_restored(1.5, 1024)
