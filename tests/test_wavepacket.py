"""Wave-packet systems on cyclic grids and the combined-system criteria.

The Grid(4,4) orbit of the unit indicator under all sixteen shift/modulation
pairs is an orthonormal basis; its frame operator is the identity.  Restricted
to modulations only, the frame operator collapses to the coordinate projection
onto the window's support.  Both facts are used as exact oracles below.
"""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from framekit.errors import (
    DimensionMismatch,
    NonCoprimeDilation,
    OffGridFrequency,
    OffGridShift,
    PartitionNotDisjoint,
    PartitionNotExhaustive,
)
from framekit.frame_core import (
    FrameSystem,
    analysis_matrix,
    canonical_basis,
    frame_operator,
    optimal_bounds,
    synthesis_matrix,
)
from framekit.numerics import op_norm
from framekit.operator_theory import relative_hyponormality
from framekit.signal_space import (
    Grid,
    Signal,
    dilate,
    indicator,
    modulate,
    mult_operator,
    operator_of,
    translate,
)
from framekit.suites import _gabor_params, random_unitary
from framekit.theta_frame import ThetaFrameReport, check_theta_frame
from framekit.wavepacket import (
    FiniteSumSpec,
    PartitionCombination,
    MAX_ATOM_ENTRIES,
    WavePacketParams,
    _DEDUPE_ATOL,
    _atoms,
    _dedupe_counts,
    finite_sum_criterion_check,
    finite_sum_system,
    generate_system,
    partition_combination,
    partition_domination_check,
    synthesis_criterion_check,
    system_from_signals,
)

GRID = Grid(4, 4)


def _full_gabor_params(dedupe=True):
    return WavePacketParams(
        grid=GRID,
        psi=indicator(GRID, 0.0, 1.0),
        a_list=(1,),
        b=1.0,
        k_range=(0, 3),
        c_list=(0.0, 1.0, 2.0, 3.0),
        dedupe=dedupe,
    )


def _modulation_params():
    return WavePacketParams(
        grid=GRID,
        psi=indicator(GRID, 0.0, 1.0),
        a_list=(1,),
        b=0.0,
        k_range=(0, 3),
        c_list=(0.0, 1.0, 2.0, 3.0),
        dedupe=True,
    )


# ---------------------------------------------------------------------------
# system generation


def test_full_orbit_is_an_orthonormal_basis():
    system = generate_system(_full_gabor_params())
    assert len(system) == 16
    assert np.allclose(frame_operator(system), np.eye(16), atol=1e-12)
    bounds = optimal_bounds(system)
    assert bounds.tight
    assert bounds.lower == pytest.approx(1.0)


def test_atoms_inherit_the_window_norm():
    system = generate_system(_full_gabor_params())
    for i in range(len(system)):
        assert np.linalg.norm(system.vector(i)) == pytest.approx(1.0, abs=1e-12)


def test_labels_are_lexicographic():
    system = generate_system(_full_gabor_params())
    labels = list(system.labels)
    assert labels == sorted(labels)
    assert labels[0] == (0, 0, 0)
    assert labels[-1] == (0, 3, 3)
    assert system.label_index((0, 2, 1)) == 9


def test_modulation_only_orbit_projects_onto_the_support():
    system = generate_system(_modulation_params())
    # zero shift step + dedupe: the shift range collapses to a single value
    assert len(system) == 4
    expected = np.zeros((16, 16))
    expected[:4, :4] = np.eye(4)
    assert np.allclose(frame_operator(system), expected, atol=1e-12)


def test_dedupe_flag_keeps_duplicates_when_off():
    params = WavePacketParams(
        grid=GRID,
        psi=indicator(GRID, 0.0, 1.0),
        a_list=(1,),
        b=0.0,
        k_range=(0, 3),
        c_list=(0.0, 1.0, 2.0, 3.0),
        dedupe=False,
    )
    system = generate_system(params)
    assert len(system) == 16  # every k repeats the same four modulations
    assert np.allclose(frame_operator(system), 4.0 * frame_operator(generate_system(_modulation_params())))


def test_duplicate_window_parameters_collapse():
    params = WavePacketParams(
        grid=GRID,
        psi=indicator(GRID, 0.0, 1.0),
        a_list=(1, 1),
        b=1.0,
        k_range=(0, 0),
        c_list=(0.0,),
        dedupe=True,
    )
    assert len(generate_system(params)) == 1


def test_params_validation():
    with pytest.raises(DimensionMismatch):
        WavePacketParams(
            grid=GRID,
            psi=indicator(Grid(8, 4), 0.0, 1.0),
            a_list=(1,),
            b=1.0,
            k_range=(0, 1),
            c_list=(0.0,),
        )
    with pytest.raises(ValueError):
        WavePacketParams(
            grid=GRID,
            psi=indicator(GRID, 0.0, 1.0),
            a_list=(),
            b=1.0,
            k_range=(0, 1),
            c_list=(0.0,),
        )
    with pytest.raises(ValueError):
        WavePacketParams(
            grid=GRID,
            psi=indicator(GRID, 0.0, 1.0),
            a_list=(1,),
            b=1.0,
            k_range=(3, 0),
            c_list=(0.0,),
        )


def test_params_refuse_a_label_box_beyond_the_atom_limit():
    box = dict(grid=GRID, psi=indicator(GRID, 0.0, 1.0), a_list=(1, 3), c_list=(0.0, 1.0))
    with pytest.raises(ValueError, match="exceeds"):
        WavePacketParams(**box, b=1.0, k_range=(0, 10**12))
    limit = MAX_ATOM_ENTRIES // (2 * 2 * GRID.n)
    assert WavePacketParams(**box, b=1.0, k_range=(1, limit)).k_values()[-1] == limit
    with pytest.raises(ValueError, match="exceeds"):
        WavePacketParams(**box, b=1.0, k_range=(0, limit))
    # b = 0 with dedupe collapses the multipliers to k = 0 before counting
    assert WavePacketParams(**box, b=0.0, k_range=(0, 10**12)).k_values() == (0,)


@pytest.mark.parametrize(
    "change", [{"a_list": (3.5,)}, {"k_range": (0, 7.9)}, {"k_range": (0.5, 3)}]
)
def test_params_reject_non_integral_labels(change):
    box = dict(
        grid=GRID, psi=indicator(GRID, 0.0, 1.0), a_list=(3,), b=1.0, k_range=(0, 7), c_list=(0.0,)
    )
    box.update(change)
    with pytest.raises(ValueError, match="must be an integer"):
        WavePacketParams(**box)


def test_integral_float_labels_give_the_integer_system():
    box = dict(grid=GRID, psi=indicator(GRID, 0.0, 1.0), b=1.0, c_list=(0.0, 1.0))
    exact = generate_system(WavePacketParams(**box, a_list=(3,), k_range=(0, 7)))
    floats = generate_system(WavePacketParams(**box, a_list=(3.0,), k_range=(0.0, 7.0)))
    assert np.array_equal(floats.vectors, exact.vectors)
    assert floats.labels == exact.labels


def test_synthesis_returns_the_atoms():
    system = generate_system(_full_gabor_params())
    w_star = synthesis_matrix(system)
    for k in (0, 5, 11):
        e = np.zeros(16)
        e[k] = 1.0
        assert np.allclose(w_star @ e, system.vector(k))


def test_analysis_coefficients_are_inner_products():
    rng = np.random.default_rng(17)
    system = generate_system(_full_gabor_params())
    f = rng.normal(size=16) + 1j * rng.normal(size=16)
    coeffs = analysis_matrix(system) @ f
    for i in (0, 7, 15):
        assert coeffs[i] == pytest.approx(np.vdot(system.vector(i), f), rel=1e-12)


def _greedy_counts(vectors):
    """The greedy dedupe as a plain loop: the reference ``_dedupe_counts`` must match.

    A dropped row counts 0 and adds one to the first kept row it is near.
    """
    counts = []
    for vec in vectors:
        near = [
            i
            for i, v in enumerate(vectors[: len(counts)])
            if counts[i] and np.linalg.norm(vec - v) <= _DEDUPE_ATOL * np.linalg.norm(v)
        ]
        if near:
            counts[near[0]] += 1
        counts.append(0 if near else 1)
    return np.array(counts)


def _greedy_keep(vectors):
    return _greedy_counts(vectors) > 0


@pytest.mark.parametrize(
    "q, P, a_list, c_list",
    [
        (4, 4, (1,), (0.0, 0.25, 1.5, -0.75)),
        (2, 6, (1, 5), (0.5, -1.0 / 3.0, 2.0)),
        (6, 5, (7, 11), (0.2, 3.4, -1.0)),
    ],
)
@pytest.mark.parametrize("b", [0.0, 0.5, 1.0, 1e300])
def test_atoms_are_the_composed_grid_operations(q, P, a_list, c_list, b):
    grid = Grid(q, P)
    rng = np.random.default_rng(q * P)
    psi = Signal(grid, rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n))
    params = WavePacketParams(
        grid=grid, psi=psi, a_list=a_list, b=b, k_range=(-2, 3), c_list=c_list, dedupe=False
    )
    system = generate_system(params)
    labels = [
        (j, k, m) for j in range(len(a_list)) for k in range(-2, 4) for m in range(len(c_list))
    ]
    assert list(system.labels) == labels
    expected = np.array(
        [
            dilate(translate(modulate(psi, c_list[m]), b * k), a_list[j]).coordinates
            for j, k, m in labels
        ]
    )
    assert np.array_equal(system.vectors, expected)


def _near(rng, v, factor):
    d = rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape)
    return v + factor * _DEDUPE_ATOL * np.linalg.norm(v) * d / np.linalg.norm(d)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
def test_dedupe_matches_the_greedy_loop(scale):
    rng = np.random.default_rng(31)
    u, v = scale * (rng.normal(size=(2, 12)) + 1j * rng.normal(size=(2, 12)))
    rows = [u, v, u.copy(), _near(rng, u, 0.5), _near(rng, v, 2.0), v.copy(), _near(rng, u, 2.0)]
    expected = [True, True, False, False, True, False, True]
    vectors = np.array(rows)
    assert list(_greedy_keep(vectors)) == expected
    assert np.array_equal(_dedupe_counts(vectors), _greedy_counts(vectors))


@pytest.mark.parametrize("scale", [1e-14, 3.0**-400, 1e-300, 7e250])
def test_dedupe_is_scale_invariant(scale):
    rng = np.random.default_rng(31)
    u, v = rng.normal(size=(2, 12)) + 1j * rng.normal(size=(2, 12))
    rows = np.array([u, v, u.copy(), _near(rng, u, 0.5), _near(rng, v, 2.0), v.copy(), _near(rng, u, 2.0)])
    assert np.array_equal(_dedupe_counts(scale * rows), _dedupe_counts(rows))
    assert _dedupe_counts(rows).tolist() == [3, 2, 0, 0, 1, 0, 1]


def test_exactly_zero_rows_fold_into_each_other_and_nothing_else():
    tiny = np.full(3, 1e-300 + 0j)
    zero = np.zeros(3, dtype=complex)
    assert _dedupe_counts(np.array([zero, tiny, zero, 2 * tiny, zero])).tolist() == [3, 1, 0, 1, 0]


def test_dedupe_chain_follows_the_greedy_order():
    # x ~ y and y ~ z within the tolerance, x and z apart: which of the three
    # survive depends only on the order they arrive in
    rng = np.random.default_rng(8)
    x = rng.normal(size=10) + 1j * rng.normal(size=10)
    d = rng.normal(size=10) + 1j * rng.normal(size=10)
    step = 0.8 * _DEDUPE_ATOL * np.linalg.norm(x) * d / np.linalg.norm(d)
    x, y, z = x, x + step, x + 2.0 * step
    for rows, expected in [
        ((x, y, z), [True, False, True]),
        ((y, x, z), [True, False, False]),
        ((z, y, x), [True, False, True]),
    ]:
        vectors = np.array(rows)
        assert list(_greedy_keep(vectors)) == expected
        assert np.array_equal(_dedupe_counts(vectors), _greedy_counts(vectors))


def test_dedupe_matches_the_greedy_loop_on_random_families():
    rng = np.random.default_rng(404)
    for _ in range(40):
        n = int(rng.integers(1, 20))
        base = 10.0 ** rng.integers(-6, 6) * (rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n)))
        rows = [base[0]]
        for _ in range(int(rng.integers(1, 40))):
            if rng.random() < 0.4:
                rows.append(base[rng.integers(5)].copy())
            else:
                src = rows[rng.integers(len(rows))]
                rows.append(_near(rng, src, rng.choice([0.0, 0.5, 0.99, 1.01, 2.0])))
        vectors = np.array(rows)
        assert np.array_equal(_dedupe_counts(vectors), _greedy_counts(vectors))


def _two_period_atoms():
    """The atoms of the benchmark's n = 128 box over two modulation periods: half repeat."""
    grid = Grid(16, 8)
    rng = np.random.default_rng(3)
    psi = Signal(grid, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    return _atoms(
        WavePacketParams(grid=grid, psi=psi, a_list=(1,), b=1.0, k_range=(0, 7), c_list=tuple(range(32)))
    )


def _zeros_and_near_duplicates():
    rng = np.random.default_rng(19)
    u, v = rng.normal(size=(2, 9)) + 1j * rng.normal(size=(2, 9))
    zero = np.zeros(9, dtype=complex)
    rows = [zero, u, _near(rng, u, 0.5), zero, v, _near(rng, v, 2.0), _near(rng, u, 2.0), zero]
    return np.array(rows + [_near(rng, rows[i], f) for i in (1, 2, 4, 5, 6) for f in (0.5, 2.0)])


def _non_finite_rows():
    rng = np.random.default_rng(23)
    u, v = rng.normal(size=(2, 7)) + 1j * rng.normal(size=(2, 7))
    inf_row, nan_row = u.copy(), v.copy()
    inf_row[2], nan_row[4] = np.inf, complex(np.nan, 1.0)
    return np.array([u, inf_row, u.copy(), nan_row, _near(rng, u, 0.5), v, v.copy()])


@pytest.mark.parametrize(
    "make, kept",
    [
        (_two_period_atoms, 128),
        (lambda: np.zeros((1024, 64), dtype=complex), 1),  # gen with psi = 0: every pair a candidate
        (_zeros_and_near_duplicates, None),
        (_non_finite_rows, None),
    ],
    ids=["two-periods", "all-zero", "zeros-and-near", "non-finite"],
)
def test_batched_dedupe_matches_the_greedy_loop(make, kept):
    vectors = make()
    with np.errstate(invalid="ignore"):  # the inf row's complex squares meet inf - inf
        counts, expected = _dedupe_counts(vectors), _greedy_counts(vectors)
    assert np.array_equal(counts, expected)
    if kept is not None:
        assert np.count_nonzero(counts) == kept


def test_dedupe_of_an_all_zero_family_holds_a_few_atom_arrays():
    vectors = np.zeros((2048, 64), dtype=complex)
    tracemalloc.start()
    try:
        counts = _dedupe_counts(vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.tolist() == [2048] + [0] * 2047
    assert peak < 3 * vectors.nbytes


def test_generated_keep_set_and_labels_match_the_greedy_loop():
    # two modulation periods and two equal dilations: three quarters of the
    # atoms repeat an earlier one
    grid = Grid(4, 3)
    rng = np.random.default_rng(12)
    psi = Signal(grid, rng.normal(size=12) + 1j * rng.normal(size=12))
    box = dict(grid=grid, psi=psi, a_list=(5, 5), b=1.0, k_range=(0, 2), c_list=tuple(range(8)))
    full = generate_system(WavePacketParams(**box, dedupe=False))
    kept = generate_system(WavePacketParams(**box, dedupe=True))
    keep = _greedy_keep(full.vectors)
    assert keep.sum() == len(full) // 4
    assert np.array_equal(kept.vectors, full.vectors[keep])
    assert list(kept.labels) == [lab for lab, k in zip(full.labels, keep) if k]
    spec = FiniteSumSpec(alphas=(1.0, -2j), psis=(psi, Signal(grid, psi.values[::-1])))
    summed_full = finite_sum_system(spec, WavePacketParams(**box, dedupe=False))
    summed = finite_sum_system(spec, WavePacketParams(**box, dedupe=True))
    keep = _greedy_keep(summed_full.vectors)
    assert np.array_equal(summed.vectors, summed_full.vectors[keep])
    assert list(summed.labels) == [lab for lab, k in zip(summed_full.labels, keep) if k]


@pytest.mark.parametrize(
    "change, error",
    [
        ({"b": 0.3}, OffGridShift),
        ({"c_list": (0.0, 0.1)}, OffGridFrequency),
        ({"a_list": (1, 2)}, NonCoprimeDilation),
    ],
)
def test_generation_rejects_off_grid_parameters(change, error):
    box = dict(
        grid=GRID, psi=indicator(GRID, 0.0, 1.0), a_list=(1,), b=1.0, k_range=(0, 3), c_list=(0.0,)
    )
    box.update(change)
    params = WavePacketParams(**box)
    with pytest.raises(error):
        generate_system(params)
    spec = FiniteSumSpec(alphas=(1.0,), psis=(params.psi,))
    with pytest.raises(error):
        finite_sum_system(spec, params)


def test_system_from_signals():
    sigs = [indicator(GRID, 0.0, 1.0), indicator(GRID, 1.0, 2.0)]
    system = system_from_signals(sigs)
    assert len(system) == 2
    assert system.n == 16
    assert np.allclose(system.vector(0), sigs[0].coordinates)


# ---------------------------------------------------------------------------
# synthesis criterion


def test_synthesis_criterion_full_orbit_unitary_window():
    system = generate_system(_full_gabor_params())
    theta = operator_of(GRID, "modulate", 1.0)
    check = synthesis_criterion_check(system, theta)
    assert check.relatively_hyponormal
    assert check.range_included
    assert check.criterion
    assert check.frame_report.passes()
    assert check.agrees
    assert check.counterexample is None


def test_synthesis_criterion_detects_missing_range():
    # modulations of the unit indicator cannot span directions the window
    # still sees: an invertible window breaks the range inclusion
    system = generate_system(_modulation_params())
    theta = operator_of(GRID, "modulate", 1.0)
    check = synthesis_criterion_check(system, theta)
    assert not check.range_included
    assert not check.criterion
    assert not check.frame_report.passes()
    assert check.agrees


def test_synthesis_criterion_matched_window_support():
    # a window supported exactly on the orbit's support passes both gates
    system = generate_system(_modulation_params())
    theta = mult_operator(indicator(GRID, 0.0, 1.0))
    check = synthesis_criterion_check(system, theta)
    assert check.relatively_hyponormal
    assert check.range_included
    assert check.criterion
    assert check.frame_report.passes()
    assert check.agrees


@pytest.mark.parametrize("branch", range(4))
def test_the_synthesis_criterion_decomposes_what_check_theta_frame_does(lapack_log, branch):
    # The branches of the synthesis-criterion suite: the full orbit (0, 1) or the modulations
    # alone (2, 3) of a random window (the one-cell window in 3), under a unitary window (0, 2)
    # or the window on one cell (1, 3).  Xi Xi* = S, so the criterion's relative pencil is the
    # report's upper pencil: no eigensolve or solve beyond those of check_theta_frame.
    rng = np.random.default_rng(branch)
    cell = indicator(GRID, 0, 1)
    psi = cell if branch == 3 else Signal(GRID, rng.normal(size=16) + 1j * rng.normal(size=16))
    system = generate_system(_gabor_params(rng, GRID, psi, branch < 2))
    theta = random_unitary(rng, GRID.n) if branch in (0, 2) else mult_operator(cell)
    check = synthesis_criterion_check(system, theta)
    criterion_log = list(lapack_log)
    lapack_log.clear()
    report = check_theta_frame(system, theta)
    assert check.agrees and criterion_log == lapack_log != []
    assert check.lambda_opt == report.beta_opt and check.relatively_hyponormal == report.upper_ok


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("exponents", [(0, 0), (300, 0), (-300, 0), (0, 300), (0, -300)])
def test_the_synthesis_lambda_is_the_relative_hyponormality_constant(seed, exponents):
    # Bit for bit, at scales whose squares leave the float range: both pencils whiten the
    # same S = Xi Xi* by the same split of Theta* Theta.
    rng = np.random.default_rng(seed)
    n = 3 + seed
    vectors = (rng.normal(size=(n + seed, n)) + 1j * rng.normal(size=(n + seed, n))) * 2.0 ** exponents[0]
    theta = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * 2.0 ** exponents[1]
    if seed % 2:
        theta[:, 0] = 0.0  # a kernel, which the system's energy reaches
    system = FrameSystem(vectors)
    check = synthesis_criterion_check(system, theta)
    reference = relative_hyponormality(theta, analysis_matrix(system).conj().T)
    assert check.lambda_opt == reference.lambda_opt
    assert check.relatively_hyponormal == reference.holds


# ---------------------------------------------------------------------------
# partitioned combinations


def test_partition_validation_errors():
    with pytest.raises(PartitionNotDisjoint):
        PartitionCombination(cells=((0, 1), (1, 2)), coefficients=np.ones(3)).validate(3)
    with pytest.raises(PartitionNotExhaustive):
        PartitionCombination(cells=((0,), (2,)), coefficients=np.ones(3)).validate(3)
    with pytest.raises(DimensionMismatch):
        PartitionCombination(cells=((0,), (1,)), coefficients=np.ones(3)).validate(2)


def test_aggregation_matrix_layout():
    pc = PartitionCombination(cells=((0, 2), (1,)), coefficients=np.array([2.0, 3.0, 4.0]))
    t = pc.aggregation_matrix(3)
    assert t.shape == (2, 3)
    assert np.allclose(t, [[2.0, 0.0, 4.0], [0.0, 3.0, 0.0]])


def test_singleton_unimodular_partition_preserves_the_frame_operator():
    rng = np.random.default_rng(2002)
    system = generate_system(_full_gabor_params())
    coeffs = np.exp(2j * np.pi * rng.uniform(size=16))
    pc = PartitionCombination(cells=tuple((i,) for i in range(16)), coefficients=coeffs)
    phi = partition_combination(system, pc)
    assert np.allclose(frame_operator(phi), frame_operator(system), atol=1e-12)
    theta = operator_of(GRID, "modulate", 1.0)
    rep = partition_domination_check(system, pc, theta)
    assert rep.lambda_opt == pytest.approx(1.0, rel=1e-10)
    assert rep.dominates
    assert rep.agrees
    assert rep.upper_estimate_ok


def test_doubled_coefficients_scale_lambda_by_four():
    system = generate_system(_full_gabor_params())
    pc = PartitionCombination(
        cells=tuple((i,) for i in range(16)), coefficients=2.0 * np.ones(16)
    )
    theta = operator_of(GRID, "modulate", 1.0)
    rep = partition_domination_check(system, pc, theta)
    assert rep.lambda_opt == pytest.approx(4.0, rel=1e-10)
    assert rep.dominates
    assert rep.proof_bound_ok


def test_collapsing_cell_kills_domination():
    # summing an orthonormal pair into one vector leaves a rank-1 operator
    system = canonical_basis(2)
    pc = PartitionCombination(cells=((0, 1),), coefficients=np.ones(2))
    rep = partition_domination_check(system, pc, np.eye(2))
    assert rep.lambda_opt == pytest.approx(0.0, abs=1e-12)
    assert not rep.dominates
    assert not rep.phi_report.passes()
    assert rep.agrees
    assert rep.upper_estimate_ok


def test_two_cell_support_split():
    # four translates of the unit indicator, summed pairwise into indicators
    # of [0,2) and [2,4): the combined operator is the pairwise block sum
    params = WavePacketParams(
        grid=GRID,
        psi=indicator(GRID, 0.0, 1.0),
        a_list=(1,),
        b=1.0,
        k_range=(0, 3),
        c_list=(0.0,),
        dedupe=True,
    )
    base = generate_system(params)
    assert len(base) == 4
    pc = PartitionCombination(cells=((0, 1), (2, 3)), coefficients=np.ones(4))
    phi = partition_combination(base, pc)
    lower = indicator(GRID, 0.0, 2.0)
    upper_half = indicator(GRID, 2.0, 4.0)
    assert np.allclose(phi.vector(0), lower.coordinates, atol=1e-12)
    assert np.allclose(phi.vector(1), upper_half.coordinates, atol=1e-12)
    # against the support window, both base and combination are one-sided
    # frames on their common support with computable constants
    theta = mult_operator(indicator(GRID, 0.0, 4.0))
    rep = partition_domination_check(base, pc, theta)
    assert rep.agrees
    assert rep.upper_estimate_ok


def _random_cells(rng, size):
    order = rng.permutation(size)
    cuts = np.sort(rng.choice(np.arange(1, size), size=rng.integers(1, size // 2), replace=False))
    return tuple(tuple(int(i) for i in cell) for cell in np.split(order, cuts))


@pytest.mark.parametrize("case", ["random", "singletons", "zero-coefficients"])
def test_aggregation_norm_is_the_spectral_norm_of_the_aggregation_matrix(case):
    rng = np.random.default_rng(7)
    base = generate_system(_full_gabor_params())
    theta = operator_of(GRID, "modulate", 1.0)
    for _ in range(4):
        coeffs = rng.normal(size=16) + 1j * rng.normal(size=16)
        if case == "singletons":
            cells = tuple((i,) for i in rng.permutation(16).tolist())
        else:
            cells = _random_cells(rng, 16)
        if case == "zero-coefficients":
            coeffs[list(cells[0])] = 0.0
            coeffs[rng.random(16) < 0.3] = 0.0
        pc = PartitionCombination(cells=cells, coefficients=coeffs)
        rep = partition_domination_check(base, pc, theta)
        expected = op_norm(pc.aggregation_matrix(16))
        assert abs(rep.aggregation_norm - expected) <= 1e-15 * expected
        assert type(rep.aggregation_norm) is float and type(rep.upper_estimate_ok) is bool


def test_overlapping_cells_are_refused_before_any_decomposition(monkeypatch):
    base = generate_system(_full_gabor_params())
    overlapping = PartitionCombination(
        cells=((0, 1), (1, 2), *((i,) for i in range(3, 16))), coefficients=np.ones(16)
    )

    def no_lapack(*args, **kwargs):
        raise AssertionError("a decomposition ran before the partition was checked")

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    with pytest.raises(PartitionNotDisjoint):
        partition_domination_check(base, overlapping, np.eye(16))


# ---------------------------------------------------------------------------
# finite sums of wave packets


def test_finite_sum_spec_validation():
    psi = indicator(GRID, 0.0, 1.0)
    with pytest.raises(ValueError):
        FiniteSumSpec(alphas=(1.0, 0.0), psis=(psi, psi))
    with pytest.raises(DimensionMismatch):
        FiniteSumSpec(alphas=(1.0,), psis=(psi, psi))
    spec = FiniteSumSpec(alphas=(1.0, 2.0, -1.0), psis=(psi, psi, psi))
    assert spec.p == 3


def test_equal_window_sum_scales_by_coefficient_total():
    # alphas (1, 2, -1) with identical windows: the summed system is exactly
    # (1+2-1) = 2 times the single one, so every mu equals 4
    psi = indicator(GRID, 0.0, 1.0)
    spec = FiniteSumSpec(alphas=(1.0, 2.0, -1.0), psis=(psi, psi, psi))
    params = _full_gabor_params()
    theta = operator_of(GRID, "modulate", 1.0)
    rep = finite_sum_criterion_check(spec, params, theta)
    assert rep.exists
    assert len(rep.mu_opts) == 3
    for mu in rep.mu_opts:
        assert mu == pytest.approx(4.0, rel=1e-9)
    assert rep.agrees
    assert rep.upper_estimate_ok
    assert rep.sum_report.passes()


def test_zero_sum_collapses_and_fails():
    psi = indicator(GRID, 0.0, 1.0)
    spec = FiniteSumSpec(alphas=(1.0, -1.0), psis=(psi, psi))
    params = _full_gabor_params()
    theta = operator_of(GRID, "modulate", 1.0)
    rep = finite_sum_criterion_check(spec, params, theta)
    assert not rep.exists
    assert not rep.sum_report.passes()
    assert rep.agrees
    system = finite_sum_system(spec, params)
    assert op_norm(frame_operator(system)) <= 1e-20


def test_single_term_sum_matches_scaled_base():
    psi = indicator(GRID, 0.0, 1.0)
    spec = FiniteSumSpec(alphas=(2.0,), psis=(psi,))
    params = _full_gabor_params()
    theta = operator_of(GRID, "modulate", 1.0)
    rep = finite_sum_criterion_check(spec, params, theta)
    assert rep.exists
    assert rep.mu_opts[0] == pytest.approx(4.0, rel=1e-9)
    assert rep.best_xi == 0
    assert rep.agrees


def test_criterion_check_builds_each_window_once(monkeypatch):
    import framekit.wavepacket as wp

    rng = np.random.default_rng(77)
    psis = tuple(Signal(GRID, rng.normal(size=16) + 1j * rng.normal(size=16)) for _ in range(3))
    spec = FiniteSumSpec(alphas=(1.0, -0.5j, 2.0), psis=psis)
    params = WavePacketParams(
        grid=GRID, psi=psis[0], a_list=(1, 3), b=1.0, k_range=(0, 3), c_list=(0.0, 1.0, 5.0)
    )
    expected = finite_sum_system(spec, params)
    built, checked = [], []

    def counting_atoms(params):
        built.append(params.psi)
        return atoms(params)

    def capturing_frame(system, margin=None):
        checked.append(system)
        return frame(system, margin)

    atoms, frame = wp._atoms, wp._Frame
    monkeypatch.setattr(wp, "_atoms", counting_atoms)
    monkeypatch.setattr(wp, "_Frame", capturing_frame)
    finite_sum_criterion_check(spec, params, operator_of(GRID, "modulate", 1.0))
    # The p single windows, then the summed one, whose system is the finite sum.
    assert [id(psi) for psi in built[:-1]] == [id(psi) for psi in psis]
    summed = sum(alpha * psi.values for alpha, psi in zip(spec.alphas, psis))
    assert len(built) == len(psis) + 1 and np.array_equal(built[-1].values, summed)
    assert len(checked) == 1 + len(psis)  # one _Frame per system
    assert np.array_equal(checked[0].vectors, expected.vectors)
    assert checked[0].labels == expected.labels


def _two_period_case(dedupe):
    # two modulation periods: every atom repeats once, for any window
    grid = Grid(4, 3)
    rng = np.random.default_rng(31)
    psis = tuple(Signal(grid, rng.normal(size=12) + 1j * rng.normal(size=12)) for _ in range(2))
    params = WavePacketParams(grid, psis[0], (1,), 1.0, (0, 2), tuple(range(8)), dedupe=dedupe)
    return FiniteSumSpec(alphas=(1.0, 0.5j), psis=psis), params, operator_of(grid, "modulate", 1.0)


@pytest.mark.parametrize("dedupe", [True, False])
def test_single_window_systems_are_the_generated_ones(dedupe):
    spec, params, theta = _two_period_case(dedupe)
    rep = finite_sum_criterion_check(spec, params, theta)
    assert len(finite_sum_system(spec, params)) == (12 if dedupe else 24)
    for psi, single in zip(spec.psis, rep.single_reports, strict=True):
        expected = check_theta_frame(generate_system(replace(params, psi=psi)), theta)
        for field in fields(ThetaFrameReport):
            assert np.array_equal(getattr(single, field.name), getattr(expected, field.name))


def test_duplicate_atoms_do_not_move_the_domination_constants():
    # a duplicated label doubles the summed and the single frame operators alike
    deduped = finite_sum_criterion_check(*_two_period_case(True))
    full = finite_sum_criterion_check(*_two_period_case(False))
    np.testing.assert_allclose(deduped.mu_opts, full.mu_opts, rtol=1e-12)


def test_upper_estimate_counts_the_atoms_dedupe_folds():
    # each single folds two atoms into one vector, so its beta halves; the
    # estimate bounds the full atom set and must not move
    deduped = finite_sum_criterion_check(*_two_period_case(True))
    full = finite_sum_criterion_check(*_two_period_case(False))
    np.testing.assert_allclose(deduped.upper_estimate, full.upper_estimate, rtol=1e-12)


def test_upper_estimate_holds_when_a_single_drops_labels_the_sum_keeps():
    # the delta's four modulations coincide, so its single keeps 4 of 16
    # atoms while the sum, perturbed by the second window, keeps all 16
    rng = np.random.default_rng(7)
    delta = Signal(GRID, np.eye(16)[0])
    other = Signal(GRID, 1e-3 * (rng.normal(size=16) + 1j * rng.normal(size=16)))
    params = WavePacketParams(GRID, delta, (1,), 1.0, (0, 3), (0, 1, 2, 3), dedupe=True)
    spec = FiniteSumSpec(alphas=(1.0, 1.0), psis=(delta, other))
    rep = finite_sum_criterion_check(spec, params, np.eye(16))
    assert len(generate_system(params)) == 4
    assert len(finite_sum_system(spec, params)) == 16
    assert rep.sum_report.beta_opt > 2 * rep.single_reports[0].beta_opt
    assert rep.upper_estimate_ok, (rep.sum_report.beta_opt, rep.upper_estimate)


@pytest.mark.parametrize("shape", [(2, 8), (4, 2)])
def test_windows_on_another_grid_are_refused(shape):
    params = _full_gabor_params()
    other = indicator(Grid(*shape), 0.0, 1.0)
    spec = FiniteSumSpec(alphas=(1.0, 2.0), psis=(other, other))
    with pytest.raises(DimensionMismatch, match="different grid"):
        finite_sum_system(spec, params)
    with pytest.raises(DimensionMismatch, match="different grid"):
        finite_sum_criterion_check(spec, params, operator_of(GRID, "modulate", 1.0))


def test_mixed_windows_sum_system_is_the_atomwise_sum():
    # Half the steps and frequencies with dedupe off, and the full orbit with dedupe on: a
    # lattice-closed box, which the sum keeps whole, so it is stamped.
    rng = np.random.default_rng(5150)
    psi1 = indicator(GRID, 0.0, 1.0)
    psi2 = Signal(GRID, rng.normal(size=16) + 1j * rng.normal(size=16))
    spec = FiniteSumSpec(alphas=(1.0, 1j), psis=(psi1, psi2))
    half = replace(_full_gabor_params(dedupe=False), k_range=(0, 1), c_list=(0.0, 1.0))
    for params, stamp in ((half, None), (_full_gabor_params(dedupe=True), GRID.q)):
        combined = finite_sum_system(spec, params)
        s1, s2 = (generate_system(replace(params, psi=psi)) for psi in (psi1, psi2))
        atomwise = s1.vectors + 1j * s2.vectors
        assert combined.labels == s1.labels == s2.labels
        assert np.linalg.norm(combined.vectors - atomwise) <= 1e-13 * np.linalg.norm(atomwise)
        assert combined._lattice == stamp
