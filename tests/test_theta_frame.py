"""Window-weighted frame bounds: two-sided checks, tightness, transforms.

Specialization sanity: with the identity window every report must collapse
to the classical optimal bounds.  The 2*identity tightness value 0.25 below
is a frozen hand computation (whitening divides the quadratic form by 4).
"""

import numpy as np
import pytest

from framekit.errors import (
    DimensionMismatch,
    NotHyponormal,
    NotParseval,
    NotThetaFrame,
    SingularU,
    Unresolved,
)
from framekit.frame_core import FrameSystem, canonical_basis, frame_operator, optimal_bounds
from framekit.numerics import DEFAULT_TOL, adjoint, op_norm
from framekit.operator_theory import pencil_inf
from framekit.signal_space import (
    Grid,
    TruncatedSequenceSpace,
    indicator,
    mult_operator,
    operator_of,
    shift_operators,
)
from framekit.theta_frame import (
    check_k_frame,
    check_theta_frame,
    pseudoinverse_bound_chain,
    theta_tight_check,
    theta_to_k_bounds,
    tight_frame_from_hyponormal,
    transform_frame_check,
)
from framekit.wavepacket import WavePacketParams, generate_system


def _random_system(rng, m, n):
    vectors = (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))) / np.sqrt(n)
    return FrameSystem(vectors)


def _random_parseval(rng, m, n):
    a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    q, _ = np.linalg.qr(a)
    return FrameSystem(q.conj())


# ---------------------------------------------------------------------------
# two-sided window check


def test_identity_window_specializes_to_classical_bounds():
    rng = np.random.default_rng(44001)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(n, 2 * n + 2))
        system = _random_system(rng, m, n)
        classical = optimal_bounds(system)
        rep = check_theta_frame(system, np.eye(n))
        assert rep.alpha_opt == pytest.approx(classical.lower, abs=1e-10, rel=1e-10)
        assert rep.beta_opt == pytest.approx(classical.upper, abs=1e-10, rel=1e-10)
        assert rep.upper_ok
        assert rep.lower_ok == (classical.lower > DEFAULT_TOL.psd_floor)


def test_upper_fails_when_window_kernel_sees_energy():
    # orthonormal basis with a window that kills e1: no finite upper constant
    system = canonical_basis(2)
    theta = np.diag([1.0, 0.0])
    rep = check_theta_frame(system, theta)
    assert not rep.upper_ok
    assert np.isinf(rep.beta_opt)
    assert rep.kernel_obstruction is not None
    w = rep.kernel_obstruction
    assert abs(np.vdot(w, theta.conj().T @ theta @ w)) <= 1e-12
    assert np.vdot(w, frame_operator(system) @ w).real > 0.5
    assert not rep.passes()


def test_random_instances_sandwich_random_vectors():
    rng = np.random.default_rng(52388)
    system = _random_system(rng, 12, 6)
    theta = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rep = check_theta_frame(system, theta)
    assert rep.passes()
    s = frame_operator(system)
    c = theta @ adjoint(theta)
    d = adjoint(theta) @ theta
    slack = 1e-8 * max(1.0, op_norm(s), op_norm(c), op_norm(d))
    for _ in range(1000):
        f = rng.normal(size=6) + 1j * rng.normal(size=6)
        quad = np.vdot(f, s @ f).real
        assert rep.alpha_opt * np.vdot(f, c @ f).real <= quad + slack
        assert quad <= rep.beta_opt * np.vdot(f, d @ f).real + slack


def test_bounds_are_sharp_at_the_witnesses():
    rng = np.random.default_rng(52389)
    system = _random_system(rng, 10, 5)
    theta = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    rep = check_theta_frame(system, theta)
    s = frame_operator(system)
    c = theta @ adjoint(theta)
    d = adjoint(theta) @ theta
    low = rep.lower_witness
    ratio = np.vdot(low, s @ low).real / np.vdot(low, c @ low).real
    assert ratio == pytest.approx(rep.alpha_opt, rel=1e-6)
    high = rep.upper_witness
    ratio = np.vdot(high, s @ high).real / np.vdot(high, d @ high).real
    assert ratio == pytest.approx(rep.beta_opt, rel=1e-6)


def test_subspace_compression_changes_the_verdict():
    # ker(fwd* fwd) is the last coordinate, which carries S-energy for S = I,
    # so the full-space upper check fails; excluding the margin restores it
    space = TruncatedSequenceSpace(8, 1)
    _, fwd = shift_operators(space)
    system = canonical_basis(8)
    full = check_theta_frame(system, fwd)
    assert not full.upper_ok
    assert np.isinf(full.beta_opt)
    margin = check_theta_frame(system, fwd, margin=space.margin)
    assert margin.upper_ok
    assert margin.beta_opt == pytest.approx(1.0, abs=1e-10)
    assert margin.alpha_opt == pytest.approx(1.0, abs=1e-10)


def test_window_shape_validation():
    with pytest.raises(DimensionMismatch):
        check_theta_frame(canonical_basis(3), np.eye(4))


# ---------------------------------------------------------------------------
# one-sided (lower) window check


def test_k_frame_zero_operator_is_vacuous():
    rng = np.random.default_rng(71)
    system = _random_system(rng, 6, 3)
    rep = check_k_frame(system, np.zeros((3, 3)))
    assert rep.degenerate
    assert np.isinf(rep.a_opt)
    assert rep.lower_ok


def test_k_frame_identity_matches_classical():
    rng = np.random.default_rng(72)
    system = _random_system(rng, 8, 4)
    classical = optimal_bounds(system)
    rep = check_k_frame(system, np.eye(4))
    assert rep.a_opt == pytest.approx(classical.lower, rel=1e-10)
    assert rep.b_opt == pytest.approx(classical.upper, rel=1e-10)


def test_every_frame_is_a_lower_windowed_frame():
    # classical lower bound A forces a_opt >= A / ||K||^2 for every K
    rng = np.random.default_rng(73)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        system = _random_system(rng, 2 * n, n)
        k = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        classical = optimal_bounds(system)
        rep = check_k_frame(system, k)
        floor = classical.lower / op_norm(k) ** 2
        assert rep.a_opt >= floor - 1e-9 * max(1.0, floor)


def test_theta_to_k_bounds_scales_the_upper_side():
    rng = np.random.default_rng(74)
    system = _random_system(rng, 8, 4)
    theta = 2.0 * np.eye(4)
    rep = check_theta_frame(system, theta)
    a, b = theta_to_k_bounds(rep, theta)
    assert a == pytest.approx(rep.alpha_opt)
    assert b == pytest.approx(rep.beta_opt * 4.0)
    failing = check_theta_frame(canonical_basis(2), np.diag([1.0, 0.0]))
    with pytest.raises(NotThetaFrame):
        theta_to_k_bounds(failing, np.diag([1.0, 0.0]))


# ---------------------------------------------------------------------------
# tightness


def test_tightness_with_identity_window_on_parseval():
    rng = np.random.default_rng(75)
    system = _random_parseval(rng, 9, 4)
    rep = theta_tight_check(system, np.eye(4))
    assert rep.is_tight
    assert rep.alpha0 == pytest.approx(1.0, abs=1e-10)


def test_tightness_scaled_identity_window():
    # S = I against C = D = 4I: the single constant is exactly 1/4
    rng = np.random.default_rng(76)
    system = _random_parseval(rng, 10, 5)
    rep = theta_tight_check(system, 2.0 * np.eye(5))
    assert rep.is_tight
    assert rep.alpha0 == pytest.approx(0.25, abs=1e-12)
    assert rep.lower_spread <= 1e-10


def test_tightness_rejects_spread_spectra():
    vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rep = theta_tight_check(FrameSystem(vectors), np.eye(2))
    assert not rep.is_tight
    assert rep.lower_spread == pytest.approx(1.0)


def test_tightness_zero_window_degenerates():
    rng = np.random.default_rng(77)
    system = _random_parseval(rng, 6, 3)
    rep = theta_tight_check(system, np.zeros((3, 3)))
    assert rep.degenerate
    assert not rep.is_tight


# ---------------------------------------------------------------------------
# tight construction from a hyponormal window


def test_construction_produces_window_tight_system():
    rng = np.random.default_rng(90901)
    parseval = _random_parseval(rng, 12, 6)
    # a normal window: unitary conjugate of a nonconstant diagonal
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    q, _ = np.linalg.qr(a)
    moduli = rng.uniform(0.5, 2.0, size=6)
    phases = np.exp(2j * np.pi * rng.uniform(size=6))
    theta = q @ np.diag(moduli * phases) @ q.conj().T
    image, report = tight_frame_from_hyponormal(parseval, theta)
    assert report.operator_residual <= 1e-9
    assert report.hyponormal_globally
    assert report.tight.is_tight
    assert report.tight.alpha0 == pytest.approx(1.0, abs=1e-9)
    # the image system is the window applied to each original vector
    assert np.allclose(image.vectors, parseval.vectors @ theta.T)
    # frame operator of the image equals Theta Theta* exactly
    assert np.allclose(
        frame_operator(image), theta @ adjoint(theta), atol=1e-10 * op_norm(theta) ** 2
    )


def test_construction_rejects_bad_inputs():
    rng = np.random.default_rng(90902)
    not_parseval = FrameSystem(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(NotParseval):
        tight_frame_from_hyponormal(not_parseval, np.eye(2))
    parseval = _random_parseval(rng, 10, 8)
    _, fwd = shift_operators(TruncatedSequenceSpace(8, 1))
    with pytest.raises(NotHyponormal):
        tight_frame_from_hyponormal(parseval, fwd)


def test_construction_accepts_margin_hyponormality():
    rng = np.random.default_rng(90903)
    space = TruncatedSequenceSpace(8, 1)
    _, fwd = shift_operators(space)
    parseval = _random_parseval(rng, 10, 8)
    image, report = tight_frame_from_hyponormal(parseval, fwd, margin=space.margin)
    assert not report.hyponormal_globally
    assert report.hyponormal_on_margin
    assert report.operator_residual <= 1e-9


# ---------------------------------------------------------------------------
# transformed systems


def test_transform_with_identity_changes_nothing():
    rng = np.random.default_rng(61)
    system = _random_system(rng, 8, 4)
    theta = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    image, rep = transform_frame_check(system, theta, np.eye(4))
    assert rep.commutes
    assert np.allclose(image.vectors, system.vectors)
    assert rep.image.alpha_opt == pytest.approx(rep.base.alpha_opt, rel=1e-10)
    assert rep.image.beta_opt == pytest.approx(rep.base.beta_opt, rel=1e-10)
    assert rep.lower_product_ok and rep.upper_product_ok
    assert rep.upper_b_ok and rep.lower_b_ok


def test_transform_commuting_unitary_preserves_bounds():
    rng = np.random.default_rng(62)
    for _ in range(5):
        n = 6
        system = _random_system(rng, 10, n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        v, _ = np.linalg.qr(a)
        theta = v @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ v.conj().T
        u = v @ np.diag(np.exp(2j * np.pi * rng.uniform(size=n))) @ v.conj().T
        image, rep = transform_frame_check(system, theta, u)
        assert rep.commutes
        assert rep.u_norm == pytest.approx(1.0, abs=1e-10)
        assert rep.u_inv_norm == pytest.approx(1.0, abs=1e-10)
        assert rep.lower_product_ok and rep.upper_product_ok
        assert rep.upper_b_ok and rep.lower_b_ok
        assert rep.image.alpha_opt == pytest.approx(rep.base.alpha_opt, rel=1e-8)
        assert rep.image.beta_opt == pytest.approx(rep.base.beta_opt, rel=1e-8)
        # image vectors really are U applied to each original vector
        assert np.allclose(image.vectors, system.vectors @ u.T)


def test_transform_rejects_singular_u():
    rng = np.random.default_rng(63)
    system = _random_system(rng, 6, 3)
    with pytest.raises(SingularU):
        transform_frame_check(system, np.eye(3), np.diag([1.0, 1.0, 0.0]))


def test_transform_detects_noncommuting_pair():
    grid = Grid(4, 4)
    theta = mult_operator(indicator(grid, 0.0, 1.0))
    from framekit.signal_space import operator_of

    u = operator_of(grid, "translate", 1.0)
    rng = np.random.default_rng(64)
    system = _random_system(rng, 20, grid.n)
    _, rep = transform_frame_check(system, theta, u)
    assert not rep.commutes
    assert rep.commutator_norm > 0.5


# ---------------------------------------------------------------------------
# pseudoinverse bound chain


def test_pinv_chain_identity_window():
    rng = np.random.default_rng(3131)
    system = _random_system(rng, 10, 5)
    rep = pseudoinverse_bound_chain(system, np.eye(5))
    assert rep.chain_ok
    assert rep.projector_residual <= 1e-12
    assert rep.restricted_invertible


def test_pinv_chain_projection_window():
    # window is a rank-2 projection; system lives entirely on its range
    vectors = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], dtype=np.complex128
    )
    system = FrameSystem(vectors)
    theta = np.diag([1.0, 1.0, 0.0])
    rep = pseudoinverse_bound_chain(system, theta)
    assert rep.chain_ok
    assert rep.restricted_invertible
    assert not rep.degenerate


def test_pinv_chain_rejects_non_theta_frames():
    system = canonical_basis(2)
    with pytest.raises(NotThetaFrame):
        pseudoinverse_bound_chain(system, np.diag([1.0, 0.0]))


def test_pinv_chain_zero_window_is_vacuous():
    system = FrameSystem(np.zeros((2, 3)))
    rep = pseudoinverse_bound_chain(system, np.zeros((3, 3)))
    assert rep.degenerate
    assert rep.chain_ok


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _chain_case(seed, rank):
    """A window ``B M B*`` of the given rank, with B orthonormal and M invertible, and a
    system on its range: ker(Theta) = ker(Theta*), so both constants are finite and positive."""
    rng = np.random.default_rng(seed)
    n = 6
    basis = _unitary(rng, n)[:, :rank]
    inner = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
    theta = basis @ inner @ basis.conj().T
    g = rng.normal(size=(2 * n, n)) + 1j * rng.normal(size=(2 * n, n))
    return FrameSystem(g @ theta.conj()), theta


@pytest.mark.parametrize("seed, rank", [(1, 6), (2, 6), (3, 4), (4, 2)])
def test_pinv_chain_margins_are_the_least_eigenvalues_of_the_compressions(seed, rank):
    system, theta = _chain_case(seed, rank)
    frame = check_theta_frame(system, theta)
    rep = pseudoinverse_bound_chain(system, theta)
    assert rep.chain_ok and not rep.degenerate
    u, sing, _ = np.linalg.svd(theta)
    keep = sing > DEFAULT_TOL.rank_rel * sing[0]
    assert np.count_nonzero(keep) == rank
    basis, s_k = u[:, keep], sing[keep][-1]
    s = frame_operator(system)
    d = theta.conj().T @ theta
    lower_op = basis.conj().T @ s @ basis
    upper_op = basis.conj().T @ (frame.beta_opt * d - s) @ basis
    lower = np.linalg.eigvalsh(lower_op)[0] - frame.alpha_opt * s_k**2
    upper = np.linalg.eigvalsh(upper_op)[0]
    lower_scale = max(1.0, np.linalg.norm(lower_op, 2))
    upper_scale = max(1.0, np.linalg.norm(upper_op, 2))
    assert abs(rep.lower_margin_min - lower) <= 1e-10 * lower_scale
    assert abs(rep.upper_margin_min - upper) <= 1e-10 * upper_scale
    # No unit vector of range(Theta) reads below either minimum.
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(rank, 200)) + 1j * rng.normal(size=(rank, 200))
    f = basis @ (coeffs / np.linalg.norm(coeffs, axis=0))
    quad = np.einsum("ij,ij->j", f.conj(), s @ f).real
    lower_forms = quad - frame.alpha_opt * s_k**2
    upper_forms = frame.beta_opt * np.einsum("ij,ij->j", f.conj(), d @ f).real - quad
    assert lower_forms.min() >= rep.lower_margin_min - 1e-10 * lower_scale
    assert upper_forms.min() >= rep.upper_margin_min - 1e-10 * upper_scale


def test_pinv_chain_passes_an_ill_conditioned_verified_frame():
    # Singular values down to 10**-4.5: the upper minimum is 0 up to round-off
    # of order eps * beta * ||D||, about 3e-7 below zero here, beyond a slack
    # taken relative to ||S|| (8e-8) but inside one relative to beta s_1^2.
    rng = np.random.default_rng([8, 45, 8])
    n = 8
    theta = _unitary(rng, n) @ np.diag(np.logspace(0, -4.5, n)) @ _unitary(rng, n).conj().T
    vectors = (rng.normal(size=(2 * n, n)) + 1j * rng.normal(size=(2 * n, n))) / np.sqrt(n)
    system = FrameSystem(vectors)
    assert check_theta_frame(system, theta).passes()
    rep = pseudoinverse_bound_chain(system, theta)
    assert rep.chain_ok
    assert rep.upper_margin_min < -DEFAULT_TOL.verdict_rel * op_norm(frame_operator(system))


@pytest.mark.parametrize("seed", range(10))
def test_an_invertible_ill_conditioned_window_is_not_refused(seed):
    # Condition number 10**5.5: the squared products span 11 decades, past a
    # rank cut of 1e-10 on their eigenvalues, but every singular value of the
    # window lies well above the cut, so C and D are invertible and 16 random
    # vectors in C^8 are a window frame with finite constants.
    rng = np.random.default_rng(seed)
    n = 8
    theta = _unitary(rng, n) @ np.diag(np.logspace(0, -5.5, n)) @ _unitary(rng, n).conj().T
    system = _random_system(rng, 2 * n, n)
    rep = check_theta_frame(system, theta)
    assert rep.passes() and rep.kernel_obstruction is None
    # Sandwich check on random vectors, relative to the largest side.
    s = frame_operator(system)
    for f in (rng.normal(size=(n, 8)) + 1j * rng.normal(size=(n, 8))).T:
        quad = np.vdot(f, s @ f).real
        lower = rep.alpha_opt * np.linalg.norm(theta.conj().T @ f) ** 2
        upper = rep.beta_opt * np.linalg.norm(theta @ f) ** 2
        assert lower <= quad * (1 + 1e-8) and quad <= upper * (1 + 1e-8)


@pytest.mark.parametrize("exponent", [4, 9])
@pytest.mark.parametrize("seed", range(5))
def test_an_ill_conditioned_window_never_passes_a_non_frame(exponent, seed):
    # S is singular along the window's least left singular vector u, where
    # Theta* still has energy, so alpha = 0.  Whitening by the kept singular
    # values magnifies the rounding of S by up to 1 / s_min**2 (1e8 and 1e18
    # here), and the computed alpha lands anywhere inside that bound, above
    # the floor for about half of such systems.  Both checks refuse it.
    rng = np.random.default_rng([16, seed])
    n = 8
    left = _unitary(rng, n)
    theta = left @ np.diag(np.logspace(0, -exponent, n)) @ _unitary(rng, n).conj().T
    vectors = (rng.normal(size=(2 * n, n)) + 1j * rng.normal(size=(2 * n, n))) / np.sqrt(n)
    u = left[:, -1]
    singular = FrameSystem(vectors - np.outer(vectors @ u.conj(), u))
    for check in (check_theta_frame, check_k_frame):
        with pytest.raises(Unresolved, match="round-off bound"):
            check(singular, theta)
    # The frame the vectors span is resolved at condition 1e4, where alpha is
    # far above its bound, and refused at 1e9, where the bound swamps it.
    if exponent == 4:
        assert check_theta_frame(FrameSystem(vectors), theta).passes()
    else:
        with pytest.raises(Unresolved):
            check_theta_frame(FrameSystem(vectors), theta)


@pytest.mark.parametrize("exponent", [2, 6])
@pytest.mark.parametrize("seed", range(3))
def test_an_ill_conditioned_tight_image_is_tight_or_refused(exponent, seed):
    # A Parseval basis under a normal window has S = Theta Theta*: tight with
    # alpha0 = 1.  Whitened by C, its spread is round-off of up to about
    # n eps ||S||_F / s_k^2, which passes the 1e-8 tightness slack once s_k^2
    # falls below about 1e-7; the check then refuses instead of answering no.
    rng = np.random.default_rng([7, seed])
    n = 8
    u = _unitary(rng, n)
    theta = u @ np.diag(np.logspace(0, -exponent, n)) @ u.conj().T
    image = FrameSystem(np.conj(_unitary(rng, n)) @ theta.T)
    if exponent == 2:
        tight = theta_tight_check(image, theta)
        assert tight.is_tight and tight.alpha0 == pytest.approx(1.0, rel=1e-9)
    else:
        with pytest.raises(Unresolved, match="lower spread"):
            theta_tight_check(image, theta)


def test_a_dense_window_beyond_the_float_square_is_scaled():
    # Theta = 1e160 Q and vectors 1e160 e_k: Theta* Theta and S would overflow,
    # but both are scaled by powers of two before they are split or formed,
    # so the tight constant 1 of S = Theta Theta* comes back exactly scaled.
    rng = np.random.default_rng(160)
    n = 6
    theta = 1e160 * _unitary(rng, n)
    system = FrameSystem(1e160 * np.eye(n))
    tight = theta_tight_check(system, theta)
    assert tight.is_tight and not tight.degenerate
    assert tight.alpha0 == pytest.approx(1.0, rel=1e-12) and tight.upper_opt == pytest.approx(1.0, rel=1e-12)
    rep = check_theta_frame(system, theta)
    assert rep.passes() and rep.alpha_opt == pytest.approx(1.0, rel=1e-12)
    assert rep.beta_opt == pytest.approx(1.0, rel=1e-12)


def test_bound_chain_makes_two_svds_and_tightness_none(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(16)
    theta = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    system = _random_system(rng, 32, 16)
    # One SVD of theta serves the check's splits and the chain; the other is
    # the norm of the projector residual.
    assert pseudoinverse_bound_chain(system, theta).chain_ok
    assert calls == [(16, 16), (16, 16)]
    # The tightness check splits C and D from one SVD and decomposes neither product.
    calls.clear()
    eigh_operands = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: eigh_operands.append(h) or real_eigh(h))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: eigh_operands.append(h) or real_eigh(h)[0])
    theta_tight_check(system, theta)
    assert calls == [(16, 16)]
    products = [theta @ theta.conj().T, theta.conj().T @ theta]
    assert not any(np.allclose(h, p) for h in eigh_operands for p in products)


# ---------------------------------------------------------------------------
# lower constants are never negative


def test_round_off_below_zero_reads_as_a_zero_lower_constant():
    # An exactly diagonal pencil: the reference I is split without LAPACK and
    # whitening by it is a gather, so no product reorders a sum and the
    # decomposed diag(-2**-60, 1) has this negative least eigenvalue for any
    # thread count.
    bound = pencil_inf(np.diag([-(2.0**-60), 1.0]), np.eye(2))
    assert str(bound.value) == "0.0"
    assert np.array_equal(bound.witness, [1.0, 0.0])

    # Here the least eigenvalue is round-off whose sign depends on the BLAS
    # thread count (0.0 with two threads, 5.7e-16 with one); the verdicts not.
    grid = Grid(4, 64)
    params = WavePacketParams(grid, indicator(grid, 0.0, 1.5), (1, 3), 1.0, (0, 63), (0.0, 1.0, 2.0, 3.0))
    rep = check_theta_frame(generate_system(params), operator_of(grid, "modulate", 1.0))
    assert 0.0 <= rep.alpha_opt <= 1e-12 * rep.beta_opt
    assert not rep.lower_ok and rep.upper_ok

    back, _ = shift_operators(TruncatedSequenceSpace(6, 1))
    system = FrameSystem(np.eye(6)[:-1] + np.eye(6)[1:])
    theta_rep = check_theta_frame(system, back)
    k_rep = check_k_frame(system, back)
    assert str(theta_rep.alpha_opt) == str(k_rep.a_opt) == "0.0"
    assert not theta_rep.lower_ok and not k_rep.lower_ok
    # the witness still attains the (zero) optimum
    w = k_rep.lower_witness
    s = frame_operator(system)
    assert abs(np.vdot(w, s @ w).real) <= 1e-12 * np.vdot(w, back @ back.conj().T @ w).real


def _unit_top(rng, *shape):
    """Complex Gaussian entries scaled so the largest real or imaginary part is in [1, 2)."""
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    top = np.max(np.abs(m.view(np.float64)))
    return np.ldexp(m.view(np.float64), -(np.frexp(top)[1] - 1)).view(np.complex128)


def _times_pow2(m, exponent):
    return np.ldexp(m.view(np.float64), exponent).view(np.complex128)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("s_exp, w_exp", [(300, 260), (500, 700), (0, 400), (400, 0)])
def test_power_of_two_scaled_inputs_give_exactly_scaled_constants(seed, s_exp, w_exp):
    # Entries beyond 2**200 are scaled back to a top part in [1, 2) before any
    # product forms, so these inputs reach LAPACK as the unscaled ones do.
    rng = np.random.default_rng(seed)
    vectors, window = _unit_top(rng, 7, 5), _unit_top(rng, 5, 5)
    small = FrameSystem(vectors)
    big = FrameSystem(_times_pow2(vectors, s_exp))
    big_window = _times_pow2(window, w_exp)
    shift = 2 * (s_exp - w_exp)

    theta, theta_big = check_theta_frame(small, window), check_theta_frame(big, big_window)
    assert theta_big.alpha_opt == np.ldexp(theta.alpha_opt, shift)
    assert theta_big.beta_opt == np.ldexp(theta.beta_opt, shift)
    assert np.array_equal(theta_big.lower_witness, theta.lower_witness)
    assert np.array_equal(theta_big.upper_witness, theta.upper_witness)

    k, k_big = check_k_frame(small, window), check_k_frame(big, big_window)
    assert k_big.a_opt == np.ldexp(k.a_opt, shift)
    assert k_big.b_opt == np.ldexp(k.b_opt, 2 * s_exp)
    assert np.array_equal(k_big.upper_witness, k.upper_witness)

    bounds, bounds_big = optimal_bounds(small), optimal_bounds(big)
    assert bounds_big.lower == np.ldexp(bounds.lower, 2 * s_exp)
    assert bounds_big.upper == np.ldexp(bounds.upper, 2 * s_exp)
    assert np.array_equal(bounds_big.lower_witness, bounds.lower_witness)
