"""Operator pencils, hyponormality checks, and the range-inclusion triad.

The adversarial pencil case below was found by hand: a compression-only
computation of the greatest ``a`` with ``a*Y <= X`` reports 1 when the true
answer is 0, because vectors mixing range and kernel of Y expose the missing
Schur term.  It stays here as a frozen regression oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit.errors import DimensionMismatch, NotSquare
from framekit.numerics import DEFAULT_TOL, adjoint, hermitize, op_norm
from framekit.operator_theory import (
    djordjevic_hyponormal,
    douglas_check,
    hyponormality,
    pencil_inf,
    pencil_sup,
    relative_hyponormality,
)
from framekit.signal_space import TruncatedSequenceSpace, shift_operators


# ---------------------------------------------------------------------------
# pencil_sup / pencil_inf


def test_pencil_sup_diagonal_oracles():
    assert pencil_sup(np.eye(2), np.eye(2)).value == pytest.approx(1.0)
    assert pencil_sup(2.0 * np.eye(2), np.eye(2)).value == pytest.approx(2.0)
    assert pencil_sup(np.diag([1.0, 3.0]), np.diag([1.0, 2.0])).value == pytest.approx(1.5)


def test_pencil_sup_kernel_obstruction():
    x = np.diag([1.0, 0.0])
    y = np.diag([0.0, 1.0])
    bound = pencil_sup(x, y)
    assert np.isinf(bound.value)
    assert bound.obstruction is not None
    w = bound.obstruction
    # the obstruction carries X-energy but no Y-energy
    assert np.vdot(w, x @ w).real > 0.5
    assert abs(np.vdot(w, y @ w)) < 1e-12


def test_pencil_sup_degenerate_cases():
    zero = np.zeros((2, 2))
    bound = pencil_sup(zero, zero)
    assert bound.value == 0.0
    assert bound.degenerate
    assert np.isinf(pencil_sup(np.eye(2), zero).value)


def test_pencil_inf_diagonal_oracles():
    assert pencil_inf(np.eye(2), np.eye(2)).value == pytest.approx(1.0)
    assert pencil_inf(np.diag([1.0, 3.0]), np.eye(2)).value == pytest.approx(1.0)
    # Y supported on a strict subspace: only that block matters
    assert pencil_inf(np.diag([2.0, 5.0]), np.diag([1.0, 0.0])).value == pytest.approx(2.0)


def test_pencil_inf_rank_zero_divisor_is_vacuous():
    bound = pencil_inf(np.eye(3), np.zeros((3, 3)))
    assert np.isinf(bound.value)
    assert bound.degenerate


def test_pencil_inf_needs_schur_correction():
    # X = 2 v v* with v = (1,1,0)/sqrt2, Y = e0 e0*.
    # On range(Y) alone the quotient is 1, but f = (1,-1,0) has Y-energy 1
    # and X-energy 0, so no positive multiple of Y sits below X.
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    x = 2.0 * np.outer(v, v)
    y = np.zeros((3, 3))
    y[0, 0] = 1.0
    bound = pencil_inf(x, y)
    assert bound.value == pytest.approx(0.0, abs=1e-10)


def test_pencil_inf_schur_correction_partial():
    # Same shape but X keeps some genuine floor above Y: X = v v* + e2 e2*
    # with v = (1,c,0); minimizing (|f0 + c f1|^2) / |f0|^2 over f1 gives 0
    # again, so any coupling to an unconstrained kernel direction kills the
    # bound unless X is block diagonal.
    x = np.diag([3.0, 0.0, 1.0])
    y = np.diag([1.0, 0.0, 0.0])
    # block-diagonal X: kernel coupling vanishes, so the answer is just 3
    assert pencil_inf(x, y).value == pytest.approx(3.0)


def test_pencil_witnesses_attain_their_quotients():
    rng = np.random.default_rng(26011)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, int(rng.integers(1, n + 1))))
        x = hermitize(a @ adjoint(a))
        y = hermitize(b @ adjoint(b)).astype(np.complex128)
        sup = pencil_sup(x, y)
        if np.isfinite(sup.value) and sup.witness is not None:
            num = np.vdot(sup.witness, x @ sup.witness).real
            den = np.vdot(sup.witness, y @ sup.witness).real
            if den > 1e-8:
                assert num / den == pytest.approx(sup.value, rel=1e-6)
        inf_bound = pencil_inf(x, y)
        if np.isfinite(inf_bound.value) and inf_bound.witness is not None:
            num = np.vdot(inf_bound.witness, x @ inf_bound.witness).real
            den = np.vdot(inf_bound.witness, y @ inf_bound.witness).real
            if den > 1e-8:
                assert num / den == pytest.approx(inf_bound.value, rel=1e-6, abs=1e-9)


def test_pencil_bounds_are_global_envelopes():
    rng = np.random.default_rng(515)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        x = hermitize(a @ a.T).astype(np.complex128)
        y = hermitize(b @ b.T).astype(np.complex128)
        sup = pencil_sup(x, y).value
        low = pencil_inf(x, y).value
        for _ in range(40):
            f = rng.normal(size=n) + 1j * rng.normal(size=n)
            xq = np.vdot(f, x @ f).real
            yq = np.vdot(f, y @ f).real
            slack = 1e-9 * max(1.0, op_norm(x), op_norm(y))
            if np.isfinite(sup):
                assert xq <= sup * yq + slack
            if np.isfinite(low):
                assert xq >= low * yq - slack


def test_pencil_shape_validation():
    with pytest.raises(DimensionMismatch):
        pencil_sup(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatch):
        pencil_inf(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# hyponormality


def test_truncated_forward_shift_margin_hyponormality():
    space = TruncatedSequenceSpace(8, 1)
    _, fwd = shift_operators(space)
    report = hyponormality(fwd, DEFAULT_TOL, margin=space.margin)
    # truncation injects a -1 eigenvalue at the boundary slot
    assert not report.global_verdict
    assert report.commutator_min_eig == pytest.approx(-1.0)
    # away from the margin the one-sided shift is genuinely hyponormal
    assert report.margin_verdict
    assert report.margin_min_eig >= -1e-12


def test_normal_operators_are_hyponormal():
    rng = np.random.default_rng(321)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(a)
        d = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
        t = q @ d @ q.conj().T
        report = hyponormality(t)
        assert report.global_verdict
        # finite dimension: hyponormal forces normal, so the commutator vanishes
        scale = max(1.0, report.operator_norm**2)
        assert abs(report.commutator_min_eig) <= 10 * n * DEFAULT_TOL.psd_floor * scale


def test_self_commutator_is_traceless():
    rng = np.random.default_rng(8419)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        comm = hermitize(adjoint(t) @ t - t @ adjoint(t))
        assert abs(np.trace(comm)) <= 1e-10 * max(1.0, op_norm(t) ** 2)


def test_hyponormality_validation():
    with pytest.raises(NotSquare):
        hyponormality(np.ones((2, 3)))
    for margin in (-1, 4):
        with pytest.raises(ValueError, match="0 <= margin < dimension"):
            hyponormality(np.eye(4), margin=margin)
    assert hyponormality(np.eye(4)).margin_verdict is None
    assert hyponormality(np.eye(4), margin=0).margin_verdict


# ---------------------------------------------------------------------------
# relative hyponormality


def test_relative_hyponormality_identity_pairs():
    rep = relative_hyponormality(np.eye(3), np.eye(3))
    assert rep.holds
    assert rep.lambda_opt == pytest.approx(1.0)

    rep = relative_hyponormality(np.eye(2), 2.0 * np.eye(2))
    assert rep.holds
    assert rep.lambda_opt == pytest.approx(4.0)

    # T1 = 0 has no columns to dominate anything: the bound fails
    rep = relative_hyponormality(np.zeros((2, 2)), np.eye(2))
    assert not rep.holds
    assert np.isinf(rep.lambda_opt)
    assert rep.obstruction is not None


def test_relative_hyponormality_degenerate_flag():
    rep = relative_hyponormality(np.eye(2), np.zeros((2, 2)))
    assert rep.holds
    assert rep.degenerate
    assert rep.lambda_opt == 0.0


def test_relative_hyponormality_scaling():
    rng = np.random.default_rng(77)
    t1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    t2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    base = relative_hyponormality(t1, t2)
    scaled = relative_hyponormality(t1, 3.0 * t2)
    if np.isfinite(base.lambda_opt):
        assert scaled.lambda_opt == pytest.approx(9.0 * base.lambda_opt, rel=1e-9)


def _ill_conditioned(seed, n=8):
    """Q1 diag(logspace(0, -5.5, n)) Q2*: invertible, condition number 10**5.5."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q1 @ np.diag(np.logspace(0, -5.5, n)) @ q2.conj().T


@pytest.mark.parametrize("seed", range(5))
def test_relative_hyponormality_of_an_ill_conditioned_t1_is_finite(seed):
    # lam T1*T1 >= I needs lam = 1 / s_min(T1)**2 = 1e11; the rank cut falls on
    # the singular values of T1, not on their squares, so no direction is lost.
    rep = relative_hyponormality(_ill_conditioned(seed), np.eye(8))
    assert rep.holds and rep.obstruction is None
    assert rep.lambda_opt == pytest.approx(1e11, rel=1e-6)


def test_relative_hyponormality_scales_a_dense_factor_beyond_the_float_square():
    # T1 = 1e160 Q: T1*T1 and the squares of its singular values overflow, so
    # T1 and T2 are scaled by powers of two first; lam = (1e161 / 1e160)**2.
    rng = np.random.default_rng(160)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    rep = relative_hyponormality(1e160 * q, 1e161 * np.eye(6))
    assert rep.holds and rep.obstruction is None and not rep.degenerate
    assert rep.lambda_opt == pytest.approx(100.0, rel=1e-12)


def test_a_wide_t1_still_finds_its_kernel_obstruction():
    # T1*T1 of a 3 x 8 T1 has a 5-dimensional kernel, which the split must
    # complete with the full right singular vectors.
    rng = np.random.default_rng(31)
    t1 = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    rep = relative_hyponormality(t1, np.eye(8))
    assert not rep.holds and np.isinf(rep.lambda_opt)
    assert np.linalg.norm(t1 @ rep.obstruction) <= 1e-10 * np.linalg.norm(rep.obstruction)


def test_relative_hyponormality_shape_check():
    with pytest.raises(DimensionMismatch):
        relative_hyponormality(np.ones((2, 3)), np.ones((2, 2)))


# ---------------------------------------------------------------------------
# Douglas range-inclusion triad


def test_douglas_diagonal_oracle():
    t1 = np.diag([1.0, 0.0])
    t2 = np.diag([2.0, 0.0])
    rep = douglas_check(t1, t2)
    assert rep.range_included
    assert rep.lambda_min == pytest.approx(0.5)
    assert rep.factor is not None
    assert np.allclose(rep.factor, np.diag([0.5, 0.0]), atol=1e-12)
    assert rep.factor_residual <= 1e-12
    assert rep.consistent


def test_douglas_exclusion_oracle():
    t1 = np.eye(2)
    t2 = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = douglas_check(t1, t2)
    assert not rep.range_included
    assert np.isinf(rep.lambda_min)
    assert rep.factor is None
    assert rep.factor_residual > 0.1
    assert rep.consistent


def test_douglas_random_factorizations():
    rng = np.random.default_rng(90210)
    for _ in range(20):
        rows = int(rng.integers(2, 8))
        mid = int(rng.integers(1, rows + 1))
        t2 = rng.normal(size=(rows, mid)) + 1j * rng.normal(size=(rows, mid))
        s0 = rng.normal(size=(mid, rows)) + 1j * rng.normal(size=(mid, rows))
        t1 = t2 @ s0
        rep = douglas_check(t1, t2)
        assert rep.range_included
        assert np.isfinite(rep.lambda_min)
        assert rep.factor is not None
        assert op_norm(t2 @ rep.factor - t1) <= 1e-8 * max(1.0, op_norm(t1))
        assert rep.consistent


def test_douglas_shape_check():
    with pytest.raises(DimensionMismatch):
        douglas_check(np.ones((2, 2)), np.ones((3, 3)))


# ---------------------------------------------------------------------------
# pseudoinverse-based hyponormality criterion


def test_djordjevic_on_unitary_and_zero():
    verdict, witness = djordjevic_hyponormal(np.eye(4))
    assert verdict
    assert abs(witness) <= 1e-10
    verdict, _ = djordjevic_hyponormal(np.zeros((3, 3)))
    assert verdict


def test_djordjevic_rejects_jordan_block():
    jordan = np.zeros((2, 2))
    jordan[0, 1] = 1.0
    verdict, witness = djordjevic_hyponormal(jordan)
    assert not verdict
    assert witness < 0


def test_djordjevic_matches_commutator_verdict():
    rng = np.random.default_rng(60200)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        direct = hyponormality(t).global_verdict
        via_pinv, _ = djordjevic_hyponormal(t)
        assert direct == via_pinv


def test_djordjevic_requires_square():
    with pytest.raises(NotSquare):
        djordjevic_hyponormal(np.ones((2, 3)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_pencil_sup_scaling_property(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    x = hermitize(a @ a.T).astype(np.complex128)
    y = np.eye(n, dtype=np.complex128)
    base = pencil_sup(x, y).value
    scaled = pencil_sup(2.5 * x, y).value
    assert scaled == pytest.approx(2.5 * base, rel=1e-10)
