"""Pure-state geometry tests.

Orthogonality is cross-checked against the plain inner product, the
Bloch cross product against the density-matrix extraction, and the
pseudo-qubit overlap against an explicit trace of matrix products.
"""

import numpy as np
import pytest

from qutrit3d.errors import NotNormalizedError, OutOfBallError
from qutrit3d.purestates import (
    bloch_from_pure,
    density_from_pure,
    haar_pure,
    mub_bases,
    orthogonal,
    orthogonal_bloch_family,
    orthogonal_state,
    pseudo_overlap,
    pseudo_qubit,
    reference_state,
    rik_decompose,
)
from qutrit3d.spin1 import ppt_separable
from qutrit3d.state import decompose


def test_rik_decompose_examples():
    p = rik_decompose([1.0, 0.0, 0.0])
    assert np.allclose(p.r, [1, 0, 0], atol=1e-15)
    assert np.allclose(p.k, 0.0, atol=1e-15)

    t = np.pi / 4
    p = rik_decompose([np.cos(t), 1j * np.sin(t), 0.0])
    assert np.allclose(p.r, [1 / np.sqrt(2), 0, 0], atol=1e-15)
    assert np.allclose(p.k, [0, 1 / np.sqrt(2), 0], atol=1e-15)

    # global phase is stripped
    p = rik_decompose(np.exp(1j * np.pi / 3) * np.array([1.0, 0.0, 0.0]))
    assert np.allclose(p.r, [1, 0, 0], atol=1e-15)
    assert np.allclose(p.k, 0.0, atol=1e-15)


def test_rik_decompose_gauge_skips_tiny_leading_component():
    amp = np.array([1e-15, 1j, 0.0])
    p = rik_decompose(amp / np.linalg.norm(amp))
    # second component anchors the phase, so it ends up real positive
    assert abs(p.amp[1].imag) < 1e-12
    assert p.amp[1].real > 0.99


def test_rik_decompose_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        rik_decompose([1.0, 1.0, 0.0])


def test_bloch_examples():
    assert np.allclose(bloch_from_pure(rik_decompose([0.6, 0.8, 0.0])), 0.0, atol=1e-15)
    a = bloch_from_pure(reference_state(np.pi / 4))
    assert np.allclose(a, [0, 0, 1], atol=1e-15)
    a = bloch_from_pure(reference_state(np.pi / 6))
    assert np.allclose(a, [0, 0, np.sqrt(3) / 2], atol=1e-15)


def test_bloch_matches_decompose_and_kernel():
    rng = np.random.default_rng(307)
    for _ in range(500):
        p = rik_decompose(haar_pure(rng))
        rho = density_from_pure(p)
        a = bloch_from_pure(p)
        assert np.max(np.abs(a - decompose(rho).a)) < 1e-12
        assert np.max(np.abs(rho.real @ a)) < 1e-12


def test_orthogonal_examples():
    e0 = rik_decompose([1.0, 0.0, 0.0])
    e1 = rik_decompose([0.0, 1.0, 0.0])
    mix = rik_decompose(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    assert orthogonal(e0, e1)
    assert not orthogonal(e0, mix)


def test_orthogonal_agrees_with_inner_product():
    rng = np.random.default_rng(311)
    for _ in range(2000):
        p = rik_decompose(haar_pure(rng))
        if rng.random() < 0.5:
            q = rik_decompose(haar_pure(rng))
        else:
            # manufacture an exactly orthogonal partner
            psi = haar_pure(rng)
            other = haar_pure(rng)
            other = other - psi * (psi.conj() @ other)
            q = rik_decompose(other / np.linalg.norm(other))
            p = rik_decompose(psi)
        overlap = abs(p.amp.conj() @ q.amp)
        assert orthogonal(p, q) == (overlap < 1e-10)


def test_orthogonal_family_grid():
    thetas = np.linspace(0.0, np.pi / 2, 5)
    phis = np.linspace(0.0, np.pi, 5)
    chis = np.linspace(0.0, 2 * np.pi, 5)
    for t in thetas:
        ref = reference_state(t)
        for f in phis:
            for x in chis:
                other = orthogonal_state(t, f, x)
                assert abs(ref.amp.conj() @ other.amp) < 1e-14
                assert orthogonal(ref, other)
                a, ap = orthogonal_bloch_family(t, f, x)
                assert float(a @ ap) <= 1e-12
                want = -4.0 * np.cos(f) ** 2 * np.cos(t) ** 2 * np.sin(t) ** 2
                assert abs(float(a @ ap) - want) < 1e-12
                assert np.max(np.abs(ap - bloch_from_pure(other))) < 1e-12


def test_orthogonal_family_closed_form_points():
    _, ap = orthogonal_bloch_family(0.3, np.pi / 2, 1.0)
    assert np.allclose(ap, 0.0, atol=1e-15)
    _, ap = orthogonal_bloch_family(np.pi / 4, np.pi / 4, 0.0)
    assert np.allclose(ap, [1 / np.sqrt(2), 0.0, -0.5], atol=1e-14)


def test_mub_orthonormality_and_overlaps():
    fam = mub_bases()
    assert len(fam.bases) == 4
    # first basis is the standard basis
    for i, p in enumerate(fam.bases[0]):
        e = np.zeros(3)
        e[i] = 1.0
        assert np.max(np.abs(p.amp - e)) < 1e-15
    for basis in fam.bases:
        G = np.array([[p.amp.conj() @ q.amp for q in basis] for p in basis])
        assert np.max(np.abs(G - np.eye(3))) < 1e-12
    target = 1.0 / np.sqrt(3.0)
    for b1 in range(4):
        for b2 in range(b1 + 1, 4):
            for p in fam.bases[b1]:
                for q in fam.bases[b2]:
                    assert abs(abs(p.amp.conj() @ q.amp) - target) < 1e-12


def test_pseudo_qubit_values():
    assert np.max(np.abs(pseudo_qubit([0.0, 0.0, 0.0]) - np.eye(3) / 3.0)) < 1e-15

    rho = pseudo_qubit([0.0, 0.0, 2.0 / 3.0])
    vals = np.linalg.eigvalsh(rho)[::-1]
    assert np.max(np.abs(vals - [2 / 3, 1 / 3, 0.0])) < 1e-12

    rng = np.random.default_rng(313)
    for _ in range(100):
        v = rng.standard_normal(3)
        v *= rng.random() * (2.0 / 3.0) / np.linalg.norm(v)
        p = decompose(pseudo_qubit(v))
        assert np.max(np.abs(p.T - np.eye(3) / 3.0)) < 1e-15
        assert np.max(np.abs(p.a - v)) < 1e-15

    with pytest.raises(OutOfBallError):
        pseudo_qubit([0.0, 0.0, 0.7])


def test_pseudo_overlap_formula_and_minimum():
    rng = np.random.default_rng(317)
    for _ in range(500):
        a = rng.standard_normal(3)
        a *= rng.random() * (2.0 / 3.0) / np.linalg.norm(a)
        b = rng.standard_normal(3)
        b *= rng.random() * (2.0 / 3.0) / np.linalg.norm(b)
        direct = np.trace(pseudo_qubit(a) @ pseudo_qubit(b)).real
        assert abs(pseudo_overlap(a, b) - direct) < 1e-12
    top = np.array([0.0, 0.0, 2.0 / 3.0])
    assert abs(pseudo_overlap(top, -top) - 1.0 / 9.0) < 1e-15


def test_pseudo_ppt_threshold_sanity():
    # separable inside a.a = 1/3, entangled beyond
    inside = np.array([0.0, 0.0, np.sqrt(1.0 / 3.0) - 1e-3])
    outside = np.array([0.0, 0.0, np.sqrt(1.0 / 3.0) + 1e-3])
    assert ppt_separable(pseudo_qubit(inside))
    assert not ppt_separable(pseudo_qubit(outside))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_bloch_vectors_are_outside_the_ball(bad):
    v, zero = [0.0, bad, 0.0], [0.0, 0.0, 0.0]
    with pytest.raises(OutOfBallError, match="^pseudo_qubit: "):
        pseudo_qubit(v)
    with pytest.raises(OutOfBallError, match="^pseudo_overlap a: "):
        pseudo_overlap(v, zero)
    with pytest.raises(OutOfBallError, match="^pseudo_overlap b: "):
        pseudo_overlap(zero, v)
