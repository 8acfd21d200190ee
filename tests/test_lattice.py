"""Lattice-closed wave-packet systems: the spectrum path against the dense reference.

``generate_system`` stamps a system whose labels cover whole translation and
modulation periods, and its checks then read the FFT spectrum of the frame
operator.  ``FrameSystem(s.vectors, s.labels)`` is the same system without the
stamp, which takes the dense path these tests hold the stamped one to.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from framekit.errors import NotAFrame, Unresolved
from framekit.frame_core import (
    FrameSystem,
    _Frame,
    frame_operator,
    optimal_bounds,
    reconstruct,
    system_from_json,
    system_to_json,
)
from framekit.numerics import DEFAULT_TOL
from framekit.signal_space import Grid, Signal, indicator, operator_of
from framekit.theta_frame import (
    ThetaFrameReport,
    check_k_frame,
    check_theta_frame,
    theta_tight_check,
    transform_frame_check,
)
from framekit.wavepacket import (
    FiniteSumSpec,
    PartitionCombination,
    WavePacketParams,
    _domination,
    finite_sum_criterion_check,
    finite_sum_system,
    generate_system,
    partition_combination,
    partition_domination_check,
)

REL = 1e-12


def _unstamped(system):
    return FrameSystem(system.vectors, system.labels)


def _gaussian(rng, grid):
    return Signal(grid, rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n))


def _box(grid, psi, a_list, b, k0, c0, periods, dedupe):
    """Labels over one full k period from k0 and ``periods`` c periods from c0."""
    k_period = 2 * grid.P if b == 0.5 else grid.P
    c_list = tuple(c0 + c for c in range(periods * grid.q))
    return WavePacketParams(grid, psi, a_list, b, (k0, k0 + k_period - 1), c_list, dedupe=dedupe)


# (q, P, a_list, b, k0, c0, periods, dedupe): several (q, P), 1 to 3
# dilations, b of 1/2 or 1, or 2 on an odd P, one or two c periods, dedupe off
# or on (random windows: nothing is dropped).
CLOSED_BOXES = [
    (4, 4, (1,), 1.0, 0, 0.0, 1, False),
    (4, 6, (1, 5), 0.5, 0, 0.5, 1, False),
    (8, 4, (1, 3, 5), 1.0, 2, 0.0, 2, False),
    (2, 9, (1, 5), 2.0, 0, 0.0, 1, True),
    (4, 5, (1, 3), 2.0, -2, 0.4, 2, False),
    (8, 8, (1, 3), 0.5, 0, 0.0, 1, True),
    (4, 16, (1, 3, 7), 1.0, -3, 0.25, 1, True),
    (16, 12, (1, 5), 1.0, 0, 0.0, 1, False),
    (16, 16, (1,), 1.0, 0, 0.0, 1, False),
]


def _unit_window(rng, grid):
    kind = ("translate", "modulate", "dilate")[int(rng.integers(0, 3))]
    if kind == "translate":
        value = int(rng.integers(1, grid.n)) / grid.q
    elif kind == "modulate":
        value = int(rng.integers(1, grid.n)) / grid.P
    else:
        value = int(rng.choice([a for a in (3, 5, 7, 9, 11) if math.gcd(a, grid.n) == 1]))
    return operator_of(grid, kind, value)


def _quotient(s, y, w):
    return float(np.vdot(w, s @ w).real / np.vdot(w, y @ w).real)


def _assert_report_close(fast, dense, s, theta):
    top = dense.beta_opt
    assert abs(fast.alpha_opt - dense.alpha_opt) <= REL * top
    assert abs(fast.beta_opt - dense.beta_opt) <= REL * top
    assert (fast.lower_ok, fast.upper_ok, fast.lower_degenerate) == (
        dense.lower_ok,
        dense.upper_ok,
        dense.lower_degenerate,
    )
    assert fast.kernel_obstruction is None and dense.kernel_obstruction is None
    c, d = theta @ theta.conj().T, theta.conj().T @ theta
    witnesses = [(fast.lower_witness, c, fast.alpha_opt), (fast.upper_witness, d, fast.beta_opt)]
    for witness, y, value in witnesses:
        assert abs(np.linalg.norm(witness) - 1.0) <= REL
        assert abs(_quotient(s, y, witness) - value) <= REL * max(value, REL * top)


@pytest.mark.parametrize("case", range(len(CLOSED_BOXES)))
def test_stamped_spectrum_and_frame_reports_match_the_dense_path(case):
    q, P, a_list, b, k0, c0, periods, dedupe = CLOSED_BOXES[case]
    rng = np.random.default_rng(100 + case)
    grid = Grid(q, P)
    system = generate_system(_box(grid, _gaussian(rng, grid), a_list, b, k0, c0, periods, dedupe))
    dense = _unstamped(system)
    assert system._lattice == q and len(system) == len(a_list) * P * q * periods * (2 if b == 0.5 else 1)
    assert dense._lattice is None and _Frame(dense).lattice is None
    s = frame_operator(dense)
    eigenvalues = np.linalg.eigvalsh(s)
    assert _Frame(system, margin=0).lattice is None  # a margin reads S
    spectrum = _Frame(system).lattice
    lattice = np.sort(spectrum.values.reshape(-1))
    assert np.max(np.abs(lattice - eigenvalues)) <= REL * eigenvalues[-1]

    fast, reference = optimal_bounds(system), optimal_bounds(dense)
    assert abs(fast.lower - reference.lower) <= REL * reference.upper
    assert abs(fast.upper - reference.upper) <= REL * reference.upper
    assert fast.tight == reference.tight
    for witness, value in [(fast.lower_witness, fast.lower), (fast.upper_witness, fast.upper)]:
        assert abs(np.linalg.norm(witness) - 1.0) <= REL
        assert abs(np.vdot(witness, s @ witness).real - value) <= REL * value

    for _ in range(2):
        theta = _unit_window(rng, grid)
        _assert_report_close(check_theta_frame(system, theta), check_theta_frame(dense, theta), s, theta)

    # reconstruct judges singularity on the lattice and solves the same S
    f = _gaussian(rng, grid).values
    for mine, reference in zip(reconstruct(system, f), reconstruct(dense, f), strict=True):
        assert np.array_equal(mine, reference)


def _partition(rng, size):
    order = rng.permutation(size)
    cells = [tuple(int(i) for i in order[j : j + 2]) for j in range(0, size, 2)]
    coeffs = rng.uniform(0.5, 1.5, size) * np.exp(2j * np.pi * rng.uniform(0, 1, size))
    return PartitionCombination(cells=cells, coefficients=coeffs)


def _same_report(one, other):
    return all(np.array_equal(getattr(one, f.name), getattr(other, f.name)) for f in fields(ThetaFrameReport))


def _same_verdicts(fast, dense, names):
    return {name: getattr(fast, name) for name in names} == {name: getattr(dense, name) for name in names}


@pytest.mark.parametrize("case", range(len(CLOSED_BOXES)))
def test_combination_checks_on_stamped_systems_match_the_dense_path(case):
    q, P, a_list, b, k0, c0, periods, dedupe = CLOSED_BOXES[case]
    rng = np.random.default_rng(200 + case)
    grid = Grid(q, P)
    params = _box(grid, _gaussian(rng, grid), a_list, b, k0, c0, periods, dedupe)
    theta = _unit_window(rng, grid)

    base = generate_system(params)
    pc = _partition(rng, len(base))
    fast = partition_domination_check(base, pc, theta)
    dense = partition_domination_check(_unstamped(base), pc, theta)
    assert abs(fast.lambda_opt - dense.lambda_opt) <= REL * dense.phi_report.beta_opt
    assert _same_verdicts(
        fast, dense, ["dominates", "adjoint_hyponormal", "agrees", "proof_bound_ok", "upper_estimate_ok"]
    )
    s = frame_operator(base)
    _assert_report_close(fast.base_report, dense.base_report, s, theta)
    assert _same_report(fast.phi_report, dense.phi_report)  # phi is derived: never stamped

    spec = FiniteSumSpec(alphas=(1.0, 0.5 - 0.25j), psis=(params.psi, _gaussian(rng, grid)))
    summed = finite_sum_system(spec, params)
    singles = [generate_system(replace(params, psi=psi)) for psi in spec.psis]
    assert summed._lattice == q and all(single._lattice == q for single in singles)
    fast = _domination(summed, singles, theta, DEFAULT_TOL, None)
    dense = _domination(_unstamped(summed), [_unstamped(x) for x in singles], theta, DEFAULT_TOL, None)
    for mu_fast, mu_dense in zip(fast[0], dense[0], strict=True):
        assert abs(mu_fast - mu_dense) <= REL * dense[1].beta_opt
    assert fast[3] == dense[3]
    _assert_report_close(fast[1], dense[1], frame_operator(summed), theta)
    for system, mine, reference in zip(singles, fast[2], dense[2], strict=True):
        _assert_report_close(mine, reference, frame_operator(system), theta)
    report = finite_sum_criterion_check(spec, params, theta)
    assert report.mu_opts == fast[0] and _same_report(report.sum_report, fast[1])
    exists = any(mu > DEFAULT_TOL.psd_floor for mu in dense[0])
    assert report.exists == exists and report.agrees == (exists == dense[1].passes())


def test_a_stamped_combination_over_an_unstamped_base_matches_the_dense_path():
    rng = np.random.default_rng(5)
    grid = Grid(4, 6)
    params = _box(grid, _gaussian(rng, grid), (1, 5), 1.0, 0, 0.0, 1, False)
    summed = generate_system(params)
    single = generate_system(replace(params, psi=_gaussian(rng, grid)))
    theta = operator_of(grid, "modulate", 1.0)
    fast = _domination(summed, [_unstamped(single), single], theta, DEFAULT_TOL, None)
    dense = _domination(_unstamped(summed), [_unstamped(single)] * 2, theta, DEFAULT_TOL, None)
    assert abs(fast[0][0] - dense[0][0]) <= REL * dense[1].beta_opt
    assert abs(fast[0][1] - dense[0][1]) <= REL * dense[1].beta_opt


# ---------------------------------------------------------------------------
# the boxes and checks that keep the dense path


@pytest.mark.parametrize(
    "grid, b, k_range, c_list, dedupe",
    [
        # S commutes with T_2q but not with T_q
        (Grid(4, 4), 2.0, (0, 3), (0, 1, 2, 3), False),
        (Grid(4, 4), 1.0, (0, 2), (0, 1, 2, 3), False),  # part of the k period
        (Grid(4, 4), 1.0, (0, 3), (0, 1, 2), False),  # part of the c period
        (Grid(4, 3), 1.0, (0, 2), tuple(range(8)), True),  # dedupe drops the second c period
    ],
    ids=["b2-even-P", "partial-k", "partial-c", "dedupe-drops"],
)
def test_boxes_that_are_not_lattice_closed_stay_unstamped(grid, b, k_range, c_list, dedupe):
    psi = _gaussian(np.random.default_rng(9), grid)
    a_list = (1, 3) if grid.n % 3 else (1,)
    params = WavePacketParams(grid, psi, a_list, b, k_range, c_list, dedupe=dedupe)
    system = generate_system(params)
    assert system._lattice is None
    if b == 2.0:
        s = frame_operator(system)
        shift = np.roll(np.eye(grid.n), grid.q, axis=0)
        double = shift @ shift
        assert np.max(np.abs(shift @ s - s @ shift)) > 1e-3 * np.max(np.abs(s))
        assert np.max(np.abs(double @ s - s @ double)) <= 1e-12 * np.max(np.abs(s))


def _stamped_case():
    grid = Grid(4, 6)
    rng = np.random.default_rng(13)
    params = _box(grid, _gaussian(rng, grid), (1, 5), 1.0, 0, 0.0, 1, False)
    system = generate_system(params)
    assert system._lattice == 4
    return grid, rng, system


def _window_that_is_not_unit(rng, grid, kind):
    theta = operator_of(grid, "modulate", 1.0)
    if kind == "scaled-modulate":
        return 2.0 * theta
    if kind == "weighted-shift":
        return operator_of(grid, "translate", 1.0 / grid.q) * rng.uniform(0.5, 1.5, grid.n)[:, None]
    # 0.1 on n = 24; as 1/sqrt(n) beyond, so the condition number stays near 10 at any n
    scale = 0.1 * math.sqrt(24 / grid.n)
    return theta + scale * (rng.normal(size=theta.shape) + 1j * rng.normal(size=theta.shape))


@pytest.mark.parametrize(
    "window, margin",
    [("modulate", 2), ("scaled-modulate", None), ("weighted-shift", None), ("dense", None)],
)
def test_a_margin_keeps_s_and_any_window_reads_the_lattice(window, margin):
    grid, rng, system = _stamped_case()
    theta = _window_that_is_not_unit(rng, grid, window) if margin is None else operator_of(grid, "modulate", 1.0)
    dense = _unstamped(system)
    # The pencils of a window that is not unit read S itself, on either path.
    assert _same_report(
        check_theta_frame(system, theta, margin=margin), check_theta_frame(dense, theta, margin=margin)
    )
    pc = _partition(rng, len(system))
    fast = partition_domination_check(system, pc, theta, margin=margin)
    reference = partition_domination_check(dense, pc, theta, margin=margin)
    if margin is None:  # lambda S_base <= S does not involve theta: the base's lattice
        assert abs(fast.lambda_opt - reference.lambda_opt) <= REL * reference.phi_report.beta_opt
    else:
        assert fast.lambda_opt == reference.lambda_opt
    assert _same_report(fast.base_report, reference.base_report)


@pytest.mark.parametrize("window", ["scaled-modulate", "weighted-shift", "dense"])
@pytest.mark.parametrize("case", range(len(CLOSED_BOXES)))
def test_checks_over_a_window_that_is_not_unit_match_the_dense_path(case, window):
    q, P, a_list, b, k0, c0, periods, dedupe = CLOSED_BOXES[case]
    rng = np.random.default_rng(700 + case)
    grid = Grid(q, P)
    params = _box(grid, _gaussian(rng, grid), a_list, b, k0, c0, periods, dedupe)
    theta = _window_that_is_not_unit(rng, grid, window)
    base = generate_system(params)
    s = frame_operator(base)

    # check_k_frame's plain upper bound is the lattice's top eigenvalue
    fast, dense = check_k_frame(base, theta), check_k_frame(_unstamped(base), theta)
    assert (fast.a_opt, fast.lower_ok, fast.degenerate) == (dense.a_opt, dense.lower_ok, dense.degenerate)
    assert np.array_equal(fast.lower_witness, dense.lower_witness)
    assert abs(fast.b_opt - dense.b_opt) <= REL * dense.b_opt
    assert abs(np.linalg.norm(fast.upper_witness) - 1.0) <= REL
    assert abs(np.vdot(fast.upper_witness, s @ fast.upper_witness).real - fast.b_opt) <= REL * fast.b_opt

    pc = _partition(rng, len(base))
    try:
        dense = partition_domination_check(_unstamped(base), pc, theta)
    except Unresolved:  # phi's lower verdict, which reads S_phi on both paths alike
        with pytest.raises(Unresolved):
            partition_domination_check(base, pc, theta)
    else:
        fast = partition_domination_check(base, pc, theta)
        assert abs(fast.lambda_opt - dense.lambda_opt) <= REL * dense.phi_report.beta_opt
        assert _same_verdicts(
            fast, dense, ["dominates", "adjoint_hyponormal", "agrees", "proof_bound_ok", "upper_estimate_ok"]
        )
        assert _same_report(fast.base_report, dense.base_report)
        assert _same_report(fast.phi_report, dense.phi_report)

    spec = FiniteSumSpec(alphas=(1.0, 0.5 - 0.25j), psis=(params.psi, _gaussian(rng, grid)))
    summed = finite_sum_system(spec, params)
    singles = [generate_system(replace(params, psi=psi)) for psi in spec.psis]
    report = finite_sum_criterion_check(spec, params, theta)
    dense = _domination(_unstamped(summed), [_unstamped(x) for x in singles], theta, DEFAULT_TOL, None)
    for mu_fast, mu_dense in zip(report.mu_opts, dense[0], strict=True):
        assert abs(mu_fast - mu_dense) <= REL * dense[1].beta_opt
    assert _same_report(report.sum_report, dense[1])
    assert all(_same_report(mine, other) for mine, other in zip(report.single_reports, dense[2], strict=True))
    exists = any(mu > DEFAULT_TOL.psd_floor for mu in dense[0])
    assert report.exists == exists and report.agrees == (exists == dense[1].passes())


def _assert_tight_close(fast, dense):
    assert (fast.is_tight, fast.degenerate) == (dense.is_tight, dense.degenerate)
    for name in ("alpha0", "lower_spread", "upper_opt"):
        assert abs(getattr(fast, name) - getattr(dense, name)) <= REL * dense.upper_opt


@pytest.mark.parametrize("case", range(len(CLOSED_BOXES)))
def test_tightness_on_stamped_systems_matches_the_dense_path(case):
    q, P, a_list, b, k0, c0, periods, dedupe = CLOSED_BOXES[case]
    rng = np.random.default_rng(800 + case)
    grid = Grid(q, P)
    # The indicator of one unit cell tiles the grid evenly under every box here: S = c I.
    tight = []
    for psi in (_gaussian(rng, grid), indicator(grid, 0.0, 1.0)):
        system = generate_system(_box(grid, psi, a_list, b, k0, c0, periods, dedupe))
        assert system._lattice == q
        kinds = ("scaled-modulate", "weighted-shift", "dense")
        for theta in [_unit_window(rng, grid)] + [_window_that_is_not_unit(rng, grid, kind) for kind in kinds]:
            try:
                dense = theta_tight_check(_unstamped(system), theta)
            except Unresolved:  # whitened values, which read S on both paths alike
                with pytest.raises(Unresolved):
                    theta_tight_check(system, theta)
                continue
            fast = theta_tight_check(system, theta)
            _assert_tight_close(fast, dense)
            tight.append(fast.is_tight)
    assert any(tight) and not all(tight)


def test_only_generation_stamps_a_system():
    grid, rng, system = _stamped_case()
    theta = operator_of(grid, "modulate", 1.0)
    assert partition_combination(system, _partition(rng, len(system)))._lattice is None
    assert transform_frame_check(system, theta, operator_of(grid, "translate", 1.0))[0]._lattice is None
    assert system_from_json(system_to_json(system))._lattice is None
    assert replace(system)._lattice is None
    with pytest.raises(TypeError):
        FrameSystem(system.vectors, system.labels, 4)


# ---------------------------------------------------------------------------
# invariances, on both paths


def _closed(grid, psi, dedupe=False, periods=1):
    return generate_system(_box(grid, psi, (1, 5), 1.0, 0, 0.0, periods, dedupe))


def _constants(system, theta):
    bounds, report = optimal_bounds(system), check_theta_frame(system, theta)
    return np.array([bounds.lower, bounds.upper, report.alpha_opt, report.beta_opt])


@pytest.mark.parametrize("seed", range(3))
def test_power_of_two_scaling_scales_the_stamped_constants_exactly(seed):
    rng = np.random.default_rng(300 + seed)
    grid = Grid(4, 6)
    psi = _gaussian(rng, grid)
    theta = _unit_window(rng, grid)
    base = _closed(grid, psi)
    pc = _partition(rng, len(base))
    constants = _constants(base, theta)
    lam = partition_domination_check(base, pc, theta).lambda_opt
    for exponent in (-7, 3, 400):
        parts = np.ldexp(psi.values.view(np.float64), exponent).view(np.complex128)
        scaled = _closed(grid, Signal(grid, parts))
        assert scaled._lattice == 4
        assert np.array_equal(_constants(scaled, theta), np.ldexp(constants, 2 * exponent))
        assert partition_domination_check(scaled, pc, theta).lambda_opt == lam
    general = _closed(grid, Signal(grid, 3.7 * psi.values))
    np.testing.assert_allclose(_constants(general, theta), 3.7**2 * constants, rtol=REL)


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("seed", range(3))
def test_unitary_conjugation_leaves_the_stamped_path_and_keeps_the_constants(seed):
    rng = np.random.default_rng(400 + seed)
    grid = Grid(4, 6)
    system = _closed(grid, _gaussian(rng, grid))
    theta = _unit_window(rng, grid)
    u = _random_unitary(rng, grid.n)
    image = FrameSystem(system.vectors @ u.T, system.labels)
    constants = _constants(system, theta)
    moved = _constants(image, u @ theta @ u.conj().T)
    assert image._lattice is None
    assert np.max(np.abs(moved - constants)) <= REL * constants[1]


@pytest.mark.parametrize("seed", range(3))
def test_permuting_rows_and_labels_changes_no_constant(seed):
    rng = np.random.default_rng(500 + seed)
    grid = Grid(4, 6)
    system = _closed(grid, _gaussian(rng, grid))
    theta = _unit_window(rng, grid)
    order = rng.permutation(len(system))
    permuted = FrameSystem(system.vectors[order], [system.labels[i] for i in order])
    constants = _constants(_unstamped(system), theta)
    assert np.max(np.abs(_constants(permuted, theta) - constants)) <= REL * constants[1]
    assert np.max(np.abs(_constants(system, theta) - constants)) <= REL * constants[1]


@pytest.mark.parametrize("seed", range(3))
def test_listing_every_vector_twice_doubles_the_constants(seed):
    rng = np.random.default_rng(600 + seed)
    grid = Grid(4, 6)
    psi = _gaussian(rng, grid)
    theta = _unit_window(rng, grid)
    system = _closed(grid, psi)
    twice = _closed(grid, psi, periods=2)  # every atom twice: stamped
    assert twice._lattice == 4 and len(twice) == 2 * len(system)
    doubled = 2.0 * _constants(system, theta)
    np.testing.assert_allclose(_constants(twice, theta), doubled, rtol=REL)
    stacked = FrameSystem(np.vstack([system.vectors, system.vectors]))
    np.testing.assert_allclose(_constants(stacked, theta), doubled, rtol=REL)


# ---------------------------------------------------------------------------
# canonical witnesses


def test_degenerate_eigenvalues_get_the_canonical_witness():
    grid = Grid(4, 64)
    c_list = (0.0, 1.0, 2.0, 3.0)
    params = WavePacketParams(grid, indicator(grid, 0.0, 1.5), (1, 3), 1.0, (0, 63), c_list)
    system = generate_system(params)
    spectrum = _Frame(system).lattice
    values = spectrum.values.reshape(-1)
    # the double eigenvalue 9.57e-2: modes 29 and 35 of residue 0, whose
    # computed values differ in the last places, so their order is theirs
    second, third = spectrum.order[1:3]
    assert sorted(divmod(int(i), 4) for i in (second, third)) == [(29, 0), (35, 0)]
    assert values[second] == pytest.approx(9.57e-2, rel=1e-3)
    assert abs(values[third] - values[second]) <= 1e-14
    theta = operator_of(grid, "modulate", 1.0)
    first, again = (check_theta_frame(generate_system(params), theta) for _ in range(2))
    assert np.array_equal(first.lower_witness, again.lower_witness)
    assert np.array_equal(first.upper_witness, again.upper_witness)

    # indicator(0, 2): the least eigenvalue 0 is exact on every residue class,
    # and the tie goes to the least (r, m)
    wide = generate_system(replace(params, psi=indicator(grid, 0.0, 2.0)))
    spectrum = _Frame(wide).lattice
    least = spectrum.values.reshape(-1)[spectrum.order[0]]
    ties = [divmod(int(i), 4)[::-1] for i in np.flatnonzero(spectrum.values.reshape(-1) == least)]
    assert len(ties) > 1
    r, m = min(ties)
    expected = np.zeros(grid.n, dtype=np.complex128)
    expected[r::4] = np.exp(2j * np.pi * (m * np.arange(64) % 64) / 64) / 8.0
    assert np.array_equal(optimal_bounds(wide).lower_witness, expected)
    with pytest.raises(NotAFrame):  # the lattice's least eigenvalue is an exact 0
        reconstruct(wide, expected)
    assert np.array_equal(check_theta_frame(wide, np.eye(grid.n)).lower_witness, expected)
