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
)
from framekit.frame_core import FrameSystem, canonical_basis, frame_operator, optimal_bounds
from framekit.numerics import DEFAULT_TOL, adjoint, op_norm
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
    assert rep.theta_is_identity


def test_tightness_scaled_identity_window():
    # S = I against C = D = 4I: the single constant is exactly 1/4
    rng = np.random.default_rng(76)
    system = _random_parseval(rng, 10, 5)
    rep = theta_tight_check(system, 2.0 * np.eye(5))
    assert rep.is_tight
    assert rep.alpha0 == pytest.approx(0.25, abs=1e-12)
    assert not rep.theta_is_identity
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
    rep = pseudoinverse_bound_chain(system, np.eye(5), rng=np.random.default_rng(1))
    assert rep.chain_ok
    assert rep.projector_residual <= 1e-12
    assert rep.restricted_invertible
    assert rep.samples == 100


def test_pinv_chain_projection_window():
    # window is a rank-2 projection; system lives entirely on its range
    vectors = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], dtype=np.complex128
    )
    system = FrameSystem(vectors)
    theta = np.diag([1.0, 1.0, 0.0])
    rep = pseudoinverse_bound_chain(system, theta, rng=np.random.default_rng(2))
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


# ---------------------------------------------------------------------------
# lower constants are never negative


def test_round_off_below_zero_reads_as_a_zero_lower_constant():
    # In both cases round-off puts the least pencil eigenvalue just below zero.
    grid = Grid(4, 64)
    params = WavePacketParams(grid, indicator(grid, 0.0, 1.5), (1, 3), 1.0, (0, 63), (0.0, 1.0, 2.0, 3.0))
    rep = check_theta_frame(generate_system(params), operator_of(grid, "modulate", 1.0))
    assert str(rep.alpha_opt) == "0.0"
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
