"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Every criterion times itself and enforces its runtime budget.  The pinned
constants (bounds equal to 1, the 1 + B = 2 energy value, mu = 4, the 0.25
tightness constant's absence here, etc.) come from hand or closed-form
computations recorded alongside the worked-example models.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from framekit.frame_core import FrameSystem, canonical_basis, optimal_bounds
from framekit.numerics import adjoint, op_norm
from framekit.operator_theory import djordjevic_hyponormal, douglas_check, hyponormality
from framekit.signal_space import (
    Grid,
    TruncatedSequenceSpace,
    indicator,
    mult_operator,
    operator_of,
    shift_operators,
    summing_operator,
)
from framekit.suites import run_suite
from framekit.theta_frame import (
    check_k_frame,
    check_theta_frame,
    tight_frame_from_hyponormal,
    transform_frame_check,
)
from framekit.wavepacket import (
    FiniteSumSpec,
    WavePacketParams,
    finite_sum_criterion_check,
    generate_system,
)


@contextmanager
def _criterion(number: int, budget_s: float, detail: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"ACCEPTANCE {number}: FAIL - {detail} ({elapsed:.2f} s)")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: PASS - {detail} ({elapsed:.2f} s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s} s ({elapsed:.2f} s)"


def _analysis_energy(system, f):
    return float(np.sum(np.abs(system.vectors.conj() @ f) ** 2))


def test_acceptance_01_shift_basis_margin_bounds():
    with _criterion(1, 1.0, "one-sided shift on C^32: margin bounds 1, upper check fails"):
        n = 32
        space = TruncatedSequenceSpace(n, 1)
        back, _ = shift_operators(space)
        system = canonical_basis(n)

        krep = check_k_frame(system, back, margin=space.margin)
        assert krep.a_opt == pytest.approx(1.0, abs=1e-9)
        assert krep.b_opt == pytest.approx(1.0, abs=1e-9)
        assert krep.lower_ok

        trep = check_theta_frame(system, back)
        assert not trep.passes()
        assert not trep.upper_ok
        w = trep.kernel_obstruction
        assert w is not None
        # the obstruction is the first coordinate vector, annihilated by the shift
        assert abs(w[0]) >= 1.0 - 1e-9
        assert np.linalg.norm(back @ w) <= 1e-9


def test_acceptance_02_unit_window_energy_split():
    with _criterion(2, 1.0, "translated indicators on Grid(4,4): beta infinite, energies 2 and 1"):
        grid = Grid(4, 4)
        psi = indicator(grid, 0.0, 1.0)
        params = WavePacketParams(
            grid=grid, psi=psi, a_list=(1,), b=1.0, k_range=(0, 3), c_list=(0.0,)
        )
        system = generate_system(params)
        theta = mult_operator(psi)
        rep = check_theta_frame(system, theta)
        assert np.isinf(rep.beta_opt)
        assert rep.kernel_obstruction is not None

        # witness h = indicator of [0,1) union [2,3); pinned stand-in B = 1
        h = (indicator(grid, 0.0, 1.0).coordinates + indicator(grid, 2.0, 3.0).coordinates)
        b_pinned = 1.0
        energy = _analysis_energy(system, h)
        assert energy == pytest.approx(1.0 + b_pinned, abs=1e-10)
        through = float(np.linalg.norm(theta @ h) ** 2)
        assert through == pytest.approx(1.0, abs=1e-10)


def test_acceptance_03_pairwise_sums_margin_lower_bound():
    with _criterion(3, 1.0, "pairwise sums on C^64: windowed lower bound holds, classical fails"):
        n = 64
        space = TruncatedSequenceSpace(n, 1)
        eye = np.eye(n)
        vectors = np.array([eye[:, k] + eye[:, k + 1] for k in range(n - 1)])
        system = FrameSystem(vectors)
        theta = summing_operator(space)
        rep = check_theta_frame(system, theta, margin=space.margin)
        assert rep.lower_ok
        gamma = min(rep.alpha_opt * (1.0 - 1e-6), 1.0 - 1e-6)
        assert 0.0 < gamma < 1.0
        assert gamma <= rep.alpha_opt
        classical = optimal_bounds(system)
        assert classical.lower < 0.01


def test_acceptance_04_range_inclusion_triad():
    with _criterion(4, 10.0, "range-inclusion triad on 200 + 200 seeded instances"):
        rng = np.random.default_rng(24001)
        for _ in range(200):  # constructed inclusion
            rows = int(rng.integers(3, 25))
            mid = int(rng.integers(1, rows + 1))
            cols = int(rng.integers(2, rows + 1))
            t2 = rng.normal(size=(rows, mid)) + 1j * rng.normal(size=(rows, mid))
            s0 = rng.normal(size=(mid, cols)) + 1j * rng.normal(size=(mid, cols))
            t1 = t2 @ s0
            rep = douglas_check(t1, t2)
            assert rep.range_included and np.isfinite(rep.lambda_min)
            assert rep.factor is not None and rep.consistent
            assert op_norm(t2 @ rep.factor - t1) <= 1e-8 * op_norm(t1)
        for _ in range(200):  # constructed exclusion
            rows = int(rng.integers(3, 25))
            inner = int(rng.integers(1, rows))  # strictly rank deficient
            t2 = (rng.normal(size=(rows, inner)) + 1j * rng.normal(size=(rows, inner))) @ (
                rng.normal(size=(inner, rows)) + 1j * rng.normal(size=(inner, rows))
            )
            t1 = rng.normal(size=(rows, rows)) + 1j * rng.normal(size=(rows, rows))
            rep = douglas_check(t1, t2)
            assert not rep.range_included and np.isinf(rep.lambda_min)
            assert rep.factor is None and rep.consistent


def test_acceptance_05_pseudoinverse_hyponormality_criterion():
    with _criterion(5, 10.0, "pseudoinverse criterion vs direct commutator on 550 matrices"):
        rng = np.random.default_rng(24002)
        checked = 0
        for trial in range(550):
            n = int(rng.integers(2, 13))
            if trial >= 500:  # constructed normal matrices
                a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                q, _ = np.linalg.qr(a)
                d = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
                t = q @ d @ q.conj().T
            else:
                t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            direct = hyponormality(t)
            via_pinv, dj_witness = djordjevic_hyponormal(t)
            assert direct.global_verdict == via_pinv
            floor = 1e-9 * max(1.0, direct.operator_norm**2)
            if via_pinv:
                # both witnesses sit at or above zero within the floor
                assert dj_witness >= -10 * n * floor
                assert direct.commutator_min_eig >= -floor
            else:
                assert dj_witness < 0
                assert direct.commutator_min_eig < 0
            checked += 1
        assert checked == 550


def test_acceptance_06_window_image_tight_systems():
    with _criterion(6, 30.0, "normal-window images of Parseval frames are 1-tight"):
        rng = np.random.default_rng(24003)
        for _ in range(50):
            n = int(rng.integers(2, 33))
            m = int(rng.integers(n, 2 * n + 1))
            a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            q, _ = np.linalg.qr(a)
            parseval = FrameSystem(q.conj())
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            v, _ = np.linalg.qr(b)
            eigs = rng.uniform(0.5, 2.0, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
            theta = v @ np.diag(eigs) @ v.conj().T

            image, report = tight_frame_from_hyponormal(parseval, theta)
            assert report.tight.is_tight
            assert report.tight.alpha0 == pytest.approx(1.0, abs=1e-9)

            for _ in range(100):
                f = rng.normal(size=n) + 1j * rng.normal(size=n)
                lhs = _analysis_energy(image, f)
                rhs = float(np.linalg.norm(adjoint(theta) @ f) ** 2)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)
                # converse inequality satisfied by every hyponormal window
                assert np.linalg.norm(adjoint(theta) @ f) <= np.linalg.norm(
                    theta @ f
                ) * (1.0 + 1e-9)


def test_acceptance_07_commuting_transforms_and_shift_example():
    with _criterion(7, 10.0, "unitary commuting transforms keep bounds; translation example breaks"):
        rng = np.random.default_rng(24004)
        for _ in range(50):
            n = 8
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            v, _ = np.linalg.qr(a)
            theta = v @ np.diag(
                rng.uniform(0.5, 2.0, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
            ) @ v.conj().T
            u = v @ np.diag(np.exp(2j * np.pi * rng.uniform(size=n))) @ v.conj().T
            system = FrameSystem(
                (rng.normal(size=(2 * n, n)) + 1j * rng.normal(size=(2 * n, n))) / np.sqrt(n)
            )
            _, rep = transform_frame_check(system, theta, u)
            assert rep.commutes
            a1, a2 = rep.base.alpha_opt, rep.image.alpha_opt
            b1, b2 = rep.base.beta_opt, rep.image.beta_opt
            slack = 1e-8 * max(1.0, a1)
            assert a1 / rep.u_norm**2 <= a2 + slack
            assert a2 <= a1 * rep.u_inv_norm**2 + slack
            assert b2 <= b1 * rep.u_norm**2 + 1e-8 * max(1.0, b1)
            assert rep.lower_product_ok and rep.upper_product_ok and rep.upper_b_ok

        # translated modulation family: commutator nonzero, lower witness dies
        grid = Grid(4, 4)
        psi = indicator(grid, 0.0, 1.0)
        params = WavePacketParams(
            grid=grid, psi=psi, a_list=(1,), b=0.0, k_range=(0, 3),
            c_list=(0.0, 1.0, 2.0, 3.0), dedupe=True,
        )
        system = generate_system(params)
        theta = mult_operator(psi)
        u0 = operator_of(grid, "translate", 1.0)
        image, rep = transform_frame_check(system, theta, u0)
        assert not rep.commutes
        assert rep.commutator_norm > 0.5
        # the swap identity that witnesses the noncommutation is exact
        shifted_window = mult_operator(indicator(grid, 1.0, 2.0))
        assert op_norm(u0 @ theta - shifted_window @ u0) <= 1e-12
        transformed_energy = _analysis_energy(image, psi.coordinates)
        assert transformed_energy <= 1e-12
        assert not rep.image.lower_ok


def test_acceptance_08_synthesis_criterion_biconditional():
    with _criterion(8, 60.0, "synthesis criterion matches the frame verdict on 100 instances"):
        result = run_suite("synthesis-criterion", 100, seed=3508)
        assert result.trials == 100
        assert result.passed, result.failures[:3]


def test_acceptance_09_combined_systems_and_pinned_sum():
    with _criterion(9, 30.0, "combined-system criteria agree; pinned sum constant is 4"):
        comb = run_suite("combination-domination", 50, seed=24009)
        assert comb.passed, comb.failures[:3]
        sums = run_suite("finite-sum", 50, seed=24010)
        assert sums.passed, sums.failures[:3]

        grid = Grid(4, 4)
        psi = indicator(grid, 0.0, 1.0)
        params = WavePacketParams(
            grid=grid, psi=psi, a_list=(1,), b=1.0, k_range=(0, 3),
            c_list=(0.0, 1.0, 2.0, 3.0), dedupe=True,
        )
        theta = operator_of(grid, "modulate", 1.0)
        spec = FiniteSumSpec(alphas=(1.0, 2.0, -1.0), psis=(psi, psi, psi))
        rep = finite_sum_criterion_check(spec, params, theta)
        assert rep.exists and rep.agrees
        for mu in rep.mu_opts:
            assert mu == pytest.approx(4.0, abs=1e-9)

        zero_sum = FiniteSumSpec(alphas=(1.0, -1.0), psis=(psi, psi))
        rep0 = finite_sum_criterion_check(zero_sum, params, theta)
        assert not rep0.exists
        assert not rep0.sum_report.passes()
        assert rep0.agrees


def test_acceptance_10_numerics_floor():
    with _criterion(10, 10.0, "pseudoinverse, eigensolver, and Gram positivity on 500 each"):
        for name in ("pinv-identities", "eig-reconstruct", "gram-psd"):
            result = run_suite(name, 500, seed=24010)
            assert result.trials == 500
            assert result.passed, (name, result.failures[:3])
