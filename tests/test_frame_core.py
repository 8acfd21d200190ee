"""Frame systems, optimal classical bounds, and dual-frame reconstruction."""

import hashlib
import json

import numpy as np
import pytest

from framekit import cli
from framekit.errors import DimensionMismatch, NotAFrame
from framekit.frame_core import (
    FrameSystem,
    analysis_matrix,
    canonical_basis,
    frame_operator,
    optimal_bounds,
    reconstruct,
    synthesis_matrix,
    system_from_json,
    system_to_json,
)


def test_canonical_basis_is_parseval():
    system = canonical_basis(3)
    assert np.allclose(frame_operator(system), np.eye(3))
    b = optimal_bounds(system)
    assert b.lower == pytest.approx(1.0)
    assert b.upper == pytest.approx(1.0)
    assert b.tight


def test_repeated_vector_bounds():
    # {e1, e1, e2} has frame operator diag(2, 1): bounds (1, 2), not tight
    vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    system = FrameSystem(vectors)
    assert np.allclose(frame_operator(system), np.diag([2.0, 1.0]))
    b = optimal_bounds(system)
    assert b.lower == pytest.approx(1.0)
    assert b.upper == pytest.approx(2.0)
    assert not b.tight
    # witnesses attain their Rayleigh quotients
    s = frame_operator(system)
    low = b.lower_witness
    high = b.upper_witness
    assert np.vdot(low, s @ low).real == pytest.approx(b.lower, abs=1e-12)
    assert np.vdot(high, s @ high).real == pytest.approx(b.upper, abs=1e-12)


def test_equiangular_triple_is_tight():
    # three unit vectors at 120 degrees: S = (3/2) I
    angles = 2.0 * np.pi * np.arange(3) / 3.0
    vectors = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    system = FrameSystem(vectors)
    assert np.allclose(frame_operator(system), 1.5 * np.eye(2), atol=1e-12)
    b = optimal_bounds(system)
    assert b.tight
    assert b.lower == pytest.approx(1.5)


def test_energy_identity_against_analysis():
    rng = np.random.default_rng(40224)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n, 2 * n + 3))
        vectors = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        system = FrameSystem(vectors)
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        coeffs = analysis_matrix(system) @ f
        quad = np.vdot(f, frame_operator(system) @ f).real
        assert quad == pytest.approx(float(np.sum(np.abs(coeffs) ** 2)), rel=1e-10)


def test_synthesis_is_adjoint_of_analysis():
    rng = np.random.default_rng(8)
    vectors = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    system = FrameSystem(vectors)
    assert np.allclose(synthesis_matrix(system), analysis_matrix(system).conj().T)


def test_reconstruct_round_trip():
    rng = np.random.default_rng(606)
    vectors = rng.normal(size=(7, 4)) + 1j * rng.normal(size=(7, 4))
    system = FrameSystem(vectors)
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    coeffs, back = reconstruct(system, f)
    assert coeffs.shape == (7,)
    assert np.allclose(back, f, atol=1e-10)


def test_reconstruct_decomposes_s_once_for_its_values_then_solves(lapack_log):
    rng = np.random.default_rng(607)
    system = FrameSystem(rng.normal(size=(12, 8)) + 1j * rng.normal(size=(12, 8)))
    f = rng.normal(size=8) + 1j * rng.normal(size=8)
    coeffs, back = reconstruct(system, f)
    s = frame_operator(system)
    key = hashlib.sha256(np.ascontiguousarray(s)).hexdigest()
    assert lapack_log == [("eigvalsh", key), ("solve", key)]
    assert np.array_equal(coeffs, analysis_matrix(system) @ np.linalg.solve(s, f))
    assert np.allclose(back, f, atol=1e-10)
    # Entries beyond 2**200: S is scaled by a power of two, exactly, before both steps.
    del lapack_log[:]
    big = FrameSystem(system.vectors * 2.0**300)
    big_coeffs, big_back = reconstruct(big, f)
    (first, scaled), (second, solved) = lapack_log
    assert (first, second) == ("eigvalsh", "solve") and scaled == solved
    assert np.array_equal(big_coeffs, coeffs * 2.0**-300)
    assert np.allclose(big_back, f, atol=1e-10)


def test_reconstruct_rejects_deficient_system():
    vectors = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(NotAFrame):
        reconstruct(FrameSystem(vectors), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(DimensionMismatch):
        reconstruct(canonical_basis(3), np.array([1.0, 1.0]))


@pytest.mark.parametrize(
    "least, upper, is_frame", [(2e-9, 1.0, True), (5e-10, 1.0, False), (2e-9, 4.0, False), (5e-9, 4.0, True)]
)
def test_check_frame_and_reconstruct_read_one_frame_verdict(tmp_path, capsys, least, upper, is_frame):
    # S = diag(least, upper): a frame exactly when least > psd_floor * max(1, upper).
    system = FrameSystem(np.diag(np.sqrt([least, upper])))
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(system)))
    assert cli.main(["check-frame", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"]["is_frame"] is is_frame
    if is_frame:
        reconstruct(system, np.ones(2))
    else:
        with pytest.raises(NotAFrame):
            reconstruct(system, np.ones(2))


def test_labels_and_accessors():
    vectors = np.eye(2)
    labels = ((0, 0, 0), (0, 1, 0))
    system = FrameSystem(vectors, labels=labels)
    assert len(system) == 2
    assert system.n == 2
    assert np.allclose(system.vector(1), [0.0, 1.0])
    assert system.label_index((0, 1, 0)) == 1
    with pytest.raises(KeyError):
        system.label_index((9, 9, 9))
    with pytest.raises(DimensionMismatch):
        FrameSystem(vectors, labels=((0, 0, 0),))


@pytest.mark.parametrize("labels", [((0, 0), (0, 1)), ((0, 0, 0), (0, 1, 0, 0)), ((), ())])
def test_labels_are_integer_triples(labels):
    with pytest.raises(DimensionMismatch, match="integer triple"):
        FrameSystem(np.eye(2), labels=labels)


def test_vectors_are_read_only():
    system = canonical_basis(2)
    with pytest.raises(ValueError):
        system.vectors[0, 0] = 5.0


def test_system_json_round_trip():
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    labels = tuple((0, k, 0) for k in range(4))
    system = FrameSystem(vectors, labels=labels)
    back = system_from_json(system_to_json(system))
    assert np.allclose(back.vectors, system.vectors)
    assert back.labels == labels
