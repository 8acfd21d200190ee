"""Grid signals, the three unitary symmetry operators, and sequence spaces."""

import numpy as np
import pytest

from framekit.errors import (
    NonCoprimeDilation,
    OffGridEndpoints,
    OffGridFrequency,
    OffGridShift,
)
from framekit.numerics import restrict
from framekit.signal_space import (
    Grid,
    Signal,
    TruncatedSequenceSpace,
    dilate,
    indicator,
    modulate,
    mult_operator,
    operator_of,
    shift_operators,
    signal_from_json,
    signal_to_json,
    summing_operator,
    translate,
)


def _random_signal(rng, grid):
    vals = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    return Signal(grid, vals)


def test_grid_basics():
    g = Grid(4, 4)
    assert g.n == 16
    assert np.allclose(g.times, np.arange(16) / 4.0)
    with pytest.raises(ValueError):
        Grid(0, 4)
    with pytest.raises(ValueError):
        Grid(4, -1)


def test_signal_inner_product_weighting():
    g = Grid(4, 1)
    f = Signal(g, np.ones(4))
    # <f, f> = sum |f|^2 / q = 4/4 = 1: the indicator of one unit has norm 1
    assert f.inner(f) == pytest.approx(1.0)
    assert f.norm() == pytest.approx(1.0)
    # coordinates carry the same norm in the plain euclidean metric
    assert np.linalg.norm(f.coordinates) == pytest.approx(f.norm())


def test_indicator_support_and_errors():
    g = Grid(4, 4)
    chi = indicator(g, 0.0, 1.0)
    assert chi.values[:4].sum() == pytest.approx(4.0)
    assert np.allclose(chi.values[4:], 0.0)
    with pytest.raises(OffGridEndpoints):
        indicator(g, 1.0, 1.0)
    with pytest.raises(OffGridEndpoints):
        indicator(g, 0.1, 1.0)
    with pytest.raises(OffGridEndpoints):
        indicator(g, 0.0, 5.0)


def test_translate_is_cyclic_roll():
    g = Grid(4, 4)
    f = Signal(g, np.arange(16, dtype=float))
    shifted = translate(f, 1.0)
    assert np.allclose(shifted.values, np.roll(f.values, 4))
    with pytest.raises(OffGridShift):
        translate(f, 0.3)


def test_modulate_phase_and_alignment():
    g = Grid(4, 4)
    f = Signal(g, np.ones(16))
    m = modulate(f, 1.0)
    assert np.allclose(m.values, np.exp(2j * np.pi * g.times))
    with pytest.raises(OffGridFrequency):
        modulate(f, 0.1)


def test_commutation_phase_between_shift_and_modulation():
    # E_b T_a = exp(2 pi i b a) T_a E_b, checked entrywise
    rng = np.random.default_rng(1804)
    g = Grid(8, 4)
    f = _random_signal(rng, g)
    for a, b in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.25), (1.5, 0.75)]:
        lhs = modulate(translate(f, a), b).values
        rhs = np.exp(2j * np.pi * b * a) * translate(modulate(f, b), a).values
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_dilate_permutation_and_coprimality():
    g = Grid(4, 4)  # n = 16
    f = Signal(g, np.arange(16, dtype=float))
    d = dilate(f, 3)
    assert np.allclose(d.values, f.values[(3 * np.arange(16)) % 16])
    assert np.allclose(dilate(f, 1).values, f.values)
    with pytest.raises(NonCoprimeDilation):
        dilate(f, 2)
    with pytest.raises(ValueError):
        dilate(f, 1.5)
    # inverse dilation undoes: 3 * 11 = 33 = 1 mod 16
    assert np.allclose(dilate(d, 11).values, f.values)
    # only c mod n matters, however large c is
    assert np.array_equal(dilate(f, 3 + 16 * 2**64).values, d.values)


def _same_bytes(a, b):
    """Equal dtype, shape and bytes: unlike ``array_equal``, a signed zero counts."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_operator_of_matches_function_action():
    """Grid operations and their matrices keep the bytes of the old constructions."""
    rng = np.random.default_rng(2311)
    for q, P in [(1, 5), (4, 1), (4, 4), (3, 5)]:
        g = Grid(q, P)
        n = g.n
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        values.real[::3] = -0.0  # a permutation that multiplies by (1+0j) makes these 0.0
        values.imag[1::3] = -0.0
        f = Signal(g, values)
        eye = np.eye(n, dtype=np.complex128)
        for a in (0.0, 1.0, -1.0 / q, P + 2.0 / q, -3.0 * P - 1.0):
            steps = round(a * q)
            assert _same_bytes(translate(f, a).values, np.roll(f.values, steps))
            assert _same_bytes(operator_of(g, "translate", a), np.roll(eye, steps, axis=0))
        for b in (0.0, 1.0 / P, -2.0 / P, 3.0):
            phase = np.exp(2j * np.pi * b * g.times)
            assert _same_bytes(modulate(f, b).values, phase * f.values)
            assert _same_bytes(operator_of(g, "modulate", b), np.diag(phase))
        for c in [c for c in range(-n - 1, n + 2) if np.gcd(c, n) == 1]:
            index = (c * np.arange(n)) % n
            assert _same_bytes(dilate(f, c).values, f.values[index])
            assert _same_bytes(operator_of(g, "dilate", c), eye[index])
        assert _same_bytes(mult_operator(f), np.diag(f.values).astype(np.complex128))
        for kind, value, expected in [
            ("translate", 1.0, translate(f, 1.0)),
            ("modulate", 1.0, modulate(f, 1.0)),
            ("dilate", -1, dilate(f, -1)),
        ]:
            op = operator_of(g, kind, value)
            assert np.allclose(op @ f.coordinates, expected.coordinates, atol=1e-12)
            # each symmetry operator is unitary
            assert np.allclose(op.conj().T @ op, np.eye(g.n), atol=1e-12)


def test_operator_of_rejects_bad_input():
    g = Grid(4, 4)
    with pytest.raises(OffGridShift):
        operator_of(g, "translate", 0.3)
    with pytest.raises(NonCoprimeDilation):
        operator_of(g, "dilate", 4)
    with pytest.raises(ValueError):
        operator_of(g, "reflect", 1)


def test_mult_operator_diagonal_action():
    g = Grid(4, 4)
    window = indicator(g, 0.0, 2.0)
    op = mult_operator(window)
    rng = np.random.default_rng(99)
    f = _random_signal(rng, g)
    assert np.allclose(op @ f.coordinates, window.values * f.coordinates)


def test_truncated_space_shifts():
    space = TruncatedSequenceSpace(6, 1)
    back, fwd = shift_operators(space)
    x = np.arange(1.0, 7.0)
    assert np.allclose(back @ x, [2, 3, 4, 5, 6, 0])
    assert np.allclose(fwd @ x, [0, 1, 2, 3, 4, 5])
    assert np.allclose(fwd, back.conj().T)
    # one-sided model: back o fwd loses only the last (margin) slot,
    # fwd o back loses the first slot exactly as in the untruncated space
    assert np.allclose(back @ fwd, np.diag([1, 1, 1, 1, 1, 0]))
    assert np.allclose(fwd @ back, np.diag([0, 1, 1, 1, 1, 1]))
    # restricted to the margin-safe coordinates, back o fwd is the identity
    assert np.array_equal(restrict(back @ fwd, space.margin), np.eye(5))


def test_restrict_accepts_the_margins_of_a_truncated_space():
    m = np.arange(36.0).reshape(6, 6)
    assert np.array_equal(restrict(m, TruncatedSequenceSpace(6, 2).margin), m[:4, :4])
    assert restrict(m, None) is m
    for margin in (-1, 6, 7, 1.0, None):
        with pytest.raises(ValueError) as space_error:
            TruncatedSequenceSpace(6, margin)
        if margin is not None:
            with pytest.raises(ValueError) as restrict_error:
                restrict(m, margin)
            assert str(restrict_error.value) == str(space_error.value)
    with pytest.raises(ValueError):
        TruncatedSequenceSpace(0, 0)


def test_summing_operator_action():
    space = TruncatedSequenceSpace(5, 1)
    s = summing_operator(space)
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.allclose(s @ x, [1, 3, 5, 7, 9])  # x_i + x_{i-1}


def test_signal_json_round_trip():
    g = Grid(4, 4)
    rng = np.random.default_rng(5)
    f = _random_signal(rng, g)
    doc = signal_to_json(f)
    back = signal_from_json(doc)
    assert back.grid == g
    assert np.allclose(back.values, f.values)
    # indicator shorthand
    chi = signal_from_json({"q": 4, "P": 4, "indicator": [0, 2]})
    assert np.allclose(chi.values, indicator(g, 0.0, 2.0).values)
