"""A margin restricts every window check exactly like the compression onto the
first n - m coordinate vectors.

Each check that takes ``margin=m`` is compared, bit for bit, against a
reference that compresses its operators with ``compress(x, E)`` for
``E = np.eye(n, n - m)``, over seeded random systems, windows and margins.
A window enters through its compressed factors: C = Theta Theta* restricted
is the Gram product of ``E* Theta`` and D = Theta* Theta restricted that of
``Theta E``, each split from the factor as the checks split it.
"""

from dataclasses import replace

import numpy as np
import pytest

from framekit.errors import NotHyponormal
from framekit.frame_core import FrameSystem, frame_operator
from framekit.numerics import DEFAULT_TOL, _gram_split, compress, hermitian_eigh
from framekit.operator_theory import _pencil_inf, _pencil_sup, hyponormality, pencil_inf
from framekit.signal_space import Grid, Signal
from framekit.theta_frame import check_k_frame, check_theta_frame, tight_frame_from_hyponormal
from framekit.wavepacket import (
    FiniteSumSpec,
    PartitionCombination,
    WavePacketParams,
    finite_sum_criterion_check,
    finite_sum_system,
    generate_system,
    partition_combination,
    partition_domination_check,
)

SEEDS = range(40)


def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _window(rng, n):
    kind = ("dense", "shift", "forward", "summing")[int(rng.integers(0, 4))]
    if kind == "dense":
        return _gaussian(rng, n, n)
    if kind == "summing":
        return np.eye(n, dtype=complex) + np.eye(n, k=-1)
    shift = np.eye(n, k=1, dtype=complex)
    return shift if kind == "shift" else shift.T


def _case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    system = FrameSystem(_gaussian(rng, int(rng.integers(1, 2 * n)), n))
    return rng, system, _window(rng, n), int(rng.integers(0, n))


def _compressed(x, margin):
    return compress(x, np.eye(x.shape[0], x.shape[0] - margin))


def _same(mine, reference):
    return (mine is None and reference is None) or np.array_equal(mine, reference)


def _reference_theta(system, theta, margin):
    s = _compressed(frame_operator(system), margin)
    e = np.eye(system.n, system.n - margin)
    c_split = _gram_split(e.conj().T @ theta)
    d_split = _gram_split(theta @ e, right=True)
    return _pencil_inf(s, c_split, DEFAULT_TOL), _pencil_sup(s, d_split, DEFAULT_TOL)


def _assert_theta_report(report, system, theta, margin):
    lower, upper = _reference_theta(system, theta, margin)
    assert (report.alpha_opt, report.beta_opt) == (lower.value, upper.value)
    assert _same(report.lower_witness, lower.witness)
    assert _same(report.upper_witness, upper.witness)
    assert _same(report.kernel_obstruction, upper.obstruction)


@pytest.mark.parametrize("seed", SEEDS)
def test_check_theta_frame_margin_is_the_compression(seed):
    _, system, theta, margin = _case(seed)
    _assert_theta_report(check_theta_frame(system, theta, margin=margin), system, theta, margin)


@pytest.mark.parametrize("seed", SEEDS)
def test_check_k_frame_margin_is_the_compression(seed):
    _, system, k, margin = _case(seed)
    report = check_k_frame(system, k, margin=margin)
    lower, _ = _reference_theta(system, k, margin)
    vals, vecs = hermitian_eigh(_compressed(frame_operator(system), margin), (-1,))
    assert (report.a_opt, report.b_opt) == (lower.value, float(vals[-1]))
    assert _same(report.lower_witness, lower.witness)
    assert np.array_equal(report.upper_witness, vecs[:, 0])


@pytest.mark.parametrize("seed", SEEDS)
def test_hyponormality_margin_is_the_compression(seed):
    _, _, theta, margin = _case(seed)
    report = hyponormality(theta, margin=margin)
    commutator = theta.conj().T @ theta - theta @ theta.conj().T
    reference = float(hermitian_eigh(_compressed(commutator, margin), ())[0][0])
    assert report.margin_min_eig == reference
    floor = 1e-9 * max(1.0, report.operator_norm**2)
    assert report.margin_verdict is (reference >= -floor)


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_tight_construction_margin_is_the_compression(seed):
    rng, system, theta, margin = _case(seed)
    q, _ = np.linalg.qr(_gaussian(rng, system.n + 2, system.n))
    parseval = FrameSystem(q.conj())
    hypo = hyponormality(theta)
    commutator = theta.conj().T @ theta - theta @ theta.conj().T
    on_margin = float(hermitian_eigh(_compressed(commutator, margin), ())[0][0])
    on_margin_ok = on_margin >= -1e-9 * max(1.0, hypo.operator_norm**2)
    if not (hypo.global_verdict or on_margin_ok):
        with pytest.raises(NotHyponormal):
            tight_frame_from_hyponormal(parseval, theta, margin=margin)
        return
    _, report = tight_frame_from_hyponormal(parseval, theta, margin=margin)
    assert report.hyponormal_on_margin is on_margin_ok


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_partition_domination_margin_is_the_compression(seed):
    rng, base, theta, margin = _case(seed)
    cells = [tuple(range(i, min(i + 2, len(base)))) for i in range(0, len(base), 2)]
    pc = PartitionCombination(cells=cells, coefficients=_gaussian(rng, len(base)))
    phi = partition_combination(base, pc)
    report = partition_domination_check(base, pc, theta, margin=margin)
    reference = pencil_inf(
        _compressed(frame_operator(phi), margin), _compressed(frame_operator(base), margin)
    )
    assert report.lambda_opt == reference.value
    _assert_theta_report(report.phi_report, phi, theta, margin)
    _assert_theta_report(report.base_report, base, theta, margin)


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_finite_sum_margin_is_the_compression(seed):
    rng = np.random.default_rng(seed)
    grid = Grid(2, 4)
    psis = tuple(Signal(grid, _gaussian(rng, grid.n)) for _ in range(2))
    params = WavePacketParams(grid, psis[0], (1,), 1.0, (0, 3), (0.0, 1.0), dedupe=False)
    spec = FiniteSumSpec(alphas=tuple(_gaussian(rng, 2)), psis=psis)
    theta, margin = _window(rng, grid.n), int(rng.integers(0, grid.n))
    report = finite_sum_criterion_check(spec, params, theta, margin=margin)
    summed = finite_sum_system(spec, params)
    _assert_theta_report(report.sum_report, summed, theta, margin)
    s_sum = _compressed(frame_operator(summed), margin)
    for psi, mu, single in zip(psis, report.mu_opts, report.single_reports, strict=True):
        system = generate_system(replace(params, psi=psi))
        assert mu == pencil_inf(s_sum, _compressed(frame_operator(system), margin)).value
        _assert_theta_report(single, system, theta, margin)
