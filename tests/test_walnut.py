"""An L^2(R) oracle: the spectrum of a stamped Gabor box is a sampled Walnut symbol.

On Grid(q, P) with P = 16, the box a_list [1], b = 1, k = 0..P-1 and
frequencies c = m/2 for m = 0..2q-1 is the Gabor system of translation step
alpha = 1 and modulation step beta = 1/2 of the periodized window, sampled at
x in (1/q)Z.  Its frame operator is the Walnut operator

    S = (1/beta) sum_l G_l T_{l/beta},  G_l(x) = sum_k psi(x + l/beta - k) conj psi(x - k),

which commutes with translation by one unit, so its eigenvalues are the
symbol (1/beta) sum_l G_l(x) e^{-2 pi i l xi / beta} at x = r/q, r < q, and
xi = m/P, m < P (Walnut 1992; Janssen 1997).  The symbol is computed here from
psi alone, with neither atoms nor an eigensolver, and held to the lattice
spectrum of the stamped system and to the dense eigenvalues of S.  For the
Gaussian the extreme samples are the continuous frame bounds, since both
extremizers of its symbol lie on the grid.  Atoms are linear in psi, so a
finite sum over the box with weights alpha_s is the Gabor system of
psi_sum = sum_s alpha_s psi_s, and the constants of its check are samples
of the symbols of psi_sum and of each psi_s.
"""

import numpy as np
import pytest

from framekit.frame_core import _Frame, frame_operator, optimal_bounds
from framekit.signal_space import Grid, Signal, operator_of
from framekit.wavepacket import FiniteSumSpec, WavePacketParams, finite_sum_criterion_check, generate_system

P = 16
REL = 1e-13

# Frame bounds of the Gaussian 2**(1/4) exp(-pi t^2) for alpha = 1, beta = 1/2 on L^2(R).
GAUSSIAN_A = 1.1715565326
GAUSSIAN_B = 2.8495942824


def _gabor_params(q: int, psi: np.ndarray) -> WavePacketParams:
    grid = Grid(q, P)
    c_list = tuple(m / 2 for m in range(2 * q))
    return WavePacketParams(grid, Signal(grid, psi), (1,), 1.0, (0, P - 1), c_list, dedupe=False)


def _gabor_box(q: int, psi: np.ndarray):
    system = generate_system(_gabor_params(q, psi))
    assert system._lattice == q
    return system


def _walnut_symbol(q: int, psi: np.ndarray) -> np.ndarray:
    """The symbol at x = r/q and xi = m/P, as [m, r], from the samples of psi on Grid(q, P).

    One unit is q samples, so the shift l/beta = 2l is 2lq samples and the
    symbol sums G_l over l < P/2, the shifts that one period holds.
    """
    n = q * P
    r, l, k = np.arange(q)[None, :, None], np.arange(P // 2)[:, None, None], np.arange(P)[None, None, :]
    g = np.sum(psi[(r + 2 * l * q - k * q) % n] * psi[(r - k * q) % n].conj(), axis=2)  # [l, r]
    waves = np.exp(-2j * np.pi * np.outer(np.arange(P), 2 * np.arange(P // 2)) / P)  # [m, l]
    symbol = 2.0 * waves @ g
    assert np.max(np.abs(symbol.imag)) <= REL * np.max(np.abs(symbol.real))
    return symbol.real


def _walnut_samples(q: int, psi: np.ndarray) -> np.ndarray:
    """The samples of :func:`_walnut_symbol`, sorted."""
    return np.sort(_walnut_symbol(q, psi).reshape(-1))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("q", [2, 4, 8])
def test_the_spectrum_of_a_stamped_gabor_box_is_the_sampled_walnut_symbol(q, seed):
    rng = np.random.default_rng(1000 * q + seed)
    psi = rng.normal(size=q * P) + 1j * rng.normal(size=q * P)
    system = _gabor_box(q, psi)
    samples = _walnut_samples(q, psi)
    lattice = np.sort(_Frame(system).lattice.values.reshape(-1))
    dense = np.linalg.eigvalsh(frame_operator(system))
    assert np.max(np.abs(lattice - samples)) <= REL * samples[-1]
    assert np.max(np.abs(dense - samples)) <= REL * samples[-1]


@pytest.mark.parametrize("q", [2, 4, 8])
def test_the_gaussian_box_has_the_continuous_frame_bounds(q):
    t = (np.arange(q * P) / q + P / 2) % P - P / 2  # the periodized window, centred at 0
    psi = 2.0**0.25 * np.exp(-np.pi * t**2)
    system = _gabor_box(q, psi)
    bounds = optimal_bounds(system)
    assert bounds.lower == pytest.approx(GAUSSIAN_A, abs=1e-10)
    assert bounds.upper == pytest.approx(GAUSSIAN_B, abs=1e-10)
    samples = _walnut_samples(q, psi.astype(np.complex128))
    assert (samples[0], samples[-1]) == pytest.approx((bounds.lower, bounds.upper), rel=REL)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("q", [2, 4, 8])
def test_a_finite_sum_over_the_box_has_the_walnut_constants_of_its_summed_window(q, seed):
    rng = np.random.default_rng(2000 * q + seed)
    psis = [rng.normal(size=q * P) + 1j * rng.normal(size=q * P) for _ in range(2)]
    alphas = rng.normal(size=2) + 1j * rng.normal(size=2)
    grid = Grid(q, P)
    spec = FiniteSumSpec(tuple(alphas), tuple(Signal(grid, psi) for psi in psis))
    report = finite_sum_criterion_check(spec, _gabor_params(q, psis[0]), operator_of(grid, "modulate", 1.0))
    # Under a unit window the sum's constants are the extreme samples of psi_sum's symbol.
    summed = _walnut_symbol(q, alphas[0] * psis[0] + alphas[1] * psis[1])
    beta = report.sum_report.beta_opt
    assert abs(report.sum_report.alpha_opt - summed.min()) <= REL * beta
    assert abs(beta - summed.max()) <= REL * beta
    # Both systems are diagonal in the same modes, so mu_s is the least ratio of the symbols.
    for mu, psi in zip(report.mu_opts, psis):
        ratios = summed / _walnut_symbol(q, psi)
        assert abs(mu - ratios.min()) <= REL * ratios.max()
