"""The Jacobi kernels against a frozen copy of the list-indexing kernel they replaced.

linalg solves a 3x3 matrix with the entries of A and V in local
variables and a 4x4 one with the 2x2 core of each rotation on locals.
Both must do the floating-point operations of the generic kernel below,
in the same order and on the same operand types (a Python float times a
complex is a full complex product): it indexes nested lists and is kept
here verbatim as the oracle.  Outputs are compared by repr, so -0.0 for
0.0, or a complex where the oracle has a float, counts as a difference.
The families are the inputs the solver sees and its edges: complex and
real matrices, matrices off Hermitian by up to HERM_TOL, rank-deficient
densities, exact and near double roots, diagonal input, entries near
the density check's bound, T of real pure states, matrices on a grid of
quarters (exact cancellations), and the partial transposes and images
of the two-qubit bridge.
"""

import math

import numpy as np
import pytest

from qutrit3d import linalg
from qutrit3d.errors import InternalCheckError
from qutrit3d.linalg import partial_transpose
from qutrit3d.spin1 import to_two_qubit
from qutrit3d.state import random_density
from qutrit3d.tolerances import DEGEN_GAP, HERM_TOL, JACOBI_SCALE_FLOOR, JACOBI_STOP

_MAX_SWEEPS = 60


def _jacobi_hermitian(rows: list, with_vectors: bool) -> tuple[list, list]:
    """Cyclic Jacobi diagonalization of a Hermitian matrix's checked rows, on a copy.

    Each rotation J zeroes one off-diagonal entry: A <- J^dag A J rewrites
    rows p, q and then columns p, q of A, and V <- V J columns p, q of V.
    A real matrix stays real (the phase apq/|apq| is then +-1).  For
    n <= 4 this converges quadratically in a handful of sweeps.  Returns
    (unsorted real eigenvalues, V as a list of rows, eigenvectors in its
    columns; no rows unless ``with_vectors``); InternalCheckError if
    _MAX_SWEEPS sweeps end with an off-diagonal modulus above the stop.
    A never reads V, so the eigenvalues do not depend on ``with_vectors``.
    """
    n = len(rows)
    A = [row[:] for row in rows]
    V = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)] if with_vectors else []
    scale = max(max(abs(x) for row in A for x in row), JACOBI_SCALE_FLOOR)
    stop = JACOBI_STOP * scale
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]

    for _ in range(_MAX_SWEEPS):
        off = 0.0
        for p, q in pairs:
            Ap, Aq = A[p], A[q]
            apq = Ap[q]
            m = abs(apq)
            off = max(off, m)
            if m <= stop:
                continue
            tau = (Aq[q].real - Ap[p].real) / (2.0 * m)
            t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0)) if tau != 0 else 1.0
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c * (apq / m)
            sc = s.conjugate()
            for j in range(n):
                apj, aqj = Ap[j], Aq[j]
                Ap[j] = c * apj - s * aqj
                Aq[j] = sc * apj + c * aqj
            for row in (*A, *V):
                aip, aiq = row[p], row[q]
                row[p] = aip * c - aiq * sc
                row[q] = aip * s + aiq * c
            # the rotation annihilates this pair; its computed value is
            # rounding residue, which can sit above the stop for good
            Ap[q] = Aq[p] = 0.0
        if off <= stop:
            break
    else:
        raise InternalCheckError(
            f"Jacobi sweep limit {_MAX_SWEEPS} reached: "
            f"off-diagonal modulus {off:.3e} above {stop:.3e}"
        )

    return [A[i][i].real for i in range(n)], V


def _hermitian(rng, n):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (X + X.conj().T) / 2.0


def _symmetric(rng, n):
    X = rng.standard_normal((n, n))
    return (X + X.T) / 2.0


def _skewed(rng, M):
    """M plus a non-Hermitian part with entries up to HERM_TOL in modulus."""
    E = rng.uniform(-1.0, 1.0, M.shape)
    if np.iscomplexobj(M):
        E = (E + 1j * rng.uniform(-1.0, 1.0, M.shape)) / np.sqrt(2.0)
    return M + HERM_TOL * E


def _double_root(rng, gap):
    """Q diag(l, l + gap, m) Q^dag in a random complex frame."""
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    lam, mu = rng.uniform(-1.0, 1.0, size=2)
    M = Q @ np.diag([lam, lam + gap, mu]) @ Q.conj().T
    return (M + M.conj().T) / 2.0


def _near_bound(M):
    """M scaled so its largest entry is 0.99 of the density check's bound."""
    return 0.99 * (linalg._ENTRY_MAX / 2.0) * M / np.abs(M).max()


def _real_pure_tensor(rng):
    """T = 1 - 2 Re(rho) of a real pure state with a global phase: exact double root 1."""
    psi = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * rng.standard_normal(3)
    psi = psi / np.linalg.norm(psi)
    return np.eye(3) - 2.0 * np.outer(psi, psi.conj()).real


def _dyadic(rng, n, complex_):
    """Entries on a grid of quarters: exact cancellations, so zeros of either sign."""
    X = rng.integers(-4, 5, (n, n)) / 4.0
    if complex_:
        X = X + 1j * rng.integers(-4, 5, (n, n)) / 4.0
    return (X + X.conj().T) / 2.0


def _density4(rng):
    rank = int(rng.integers(1, 5))
    X = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = X @ X.conj().T
    return rho / np.trace(rho).real


def _image(rng):
    return to_two_qubit(random_density(int(rng.integers(1, 4)), rng))


FAMILIES = {
    "complex": lambda rng: _hermitian(rng, 3),
    "real": lambda rng: _symmetric(rng, 3),
    "skewed_complex": lambda rng: _skewed(rng, _hermitian(rng, 3)),
    "skewed_real": lambda rng: _skewed(rng, _symmetric(rng, 3)),
    "skewed_density": lambda rng: _skewed(rng, random_density(int(rng.integers(1, 4)), rng)),
    "rank1_density": lambda rng: random_density(1, rng),
    "rank2_density": lambda rng: random_density(2, rng),
    "exact_double_root": lambda rng: _double_root(rng, 0.0),
    "near_double_root": lambda rng: _double_root(rng, DEGEN_GAP * 10.0 ** rng.uniform(-6.0, 0.0)),
    "dyadic_complex": lambda rng: _dyadic(rng, 3, True),
    "dyadic_real": lambda rng: _dyadic(rng, 3, False),
    "dyadic4": lambda rng: _dyadic(rng, 4, True),
    "diagonal": lambda rng: np.diag(rng.choice([-0.5, 0.0, 0.25, 0.5], 3)),
    "diagonal_complex": lambda rng: np.diag(rng.uniform(-1.0, 1.0, 3)).astype(complex),
    "near_bound_complex": lambda rng: _near_bound(_hermitian(rng, 3)),
    "near_bound_real": lambda rng: _near_bound(_symmetric(rng, 3)),
    "real_pure_tensor": _real_pure_tensor,
    "tensor": lambda rng: np.eye(3) - 2.0 * random_density(int(rng.integers(1, 4)), rng).real,
    "complex4": lambda rng: _hermitian(rng, 4),
    "real4": lambda rng: _symmetric(rng, 4),
    "skewed4": lambda rng: _skewed(rng, _hermitian(rng, 4)),
    "near_bound4": lambda rng: _near_bound(_hermitian(rng, 4)),
    "bridge_image": _image,
    "bridge_partial_transpose": lambda rng: partial_transpose(_image(rng)),
    "partial_transpose_density": lambda rng: partial_transpose(_density4(rng)),
}


def _rows(M):
    """M's rows as the checks hand them to a kernel: floats for real input, complex otherwise."""
    return np.asarray(M, dtype=float if np.isrealobj(M) else complex).tolist()


def _outcome(solve, *args):
    """repr of what a kernel returns, or the type and text of what it raises."""
    try:
        return repr(solve(*args))
    except InternalCheckError as exc:
        return f"InternalCheckError: {exc}"


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kernel_matches_the_frozen_reference(family):
    """Values, and V when asked for, repr-equal to the reference's; the rows are not written."""
    make = FAMILIES[family]
    rng = np.random.default_rng([20261018, 10, sorted(FAMILIES).index(family)])
    for _ in range(500):
        rows = _rows(make(rng))
        before = repr(rows)
        ref_vals, ref_V = _jacobi_hermitian(rows, with_vectors=True)
        if len(rows) == 3:
            assert repr(linalg._jacobi3(rows, with_vectors=True)) == repr((ref_vals, ref_V))
            assert repr(linalg._jacobi3(rows, with_vectors=False)) == repr(
                _jacobi_hermitian(rows, with_vectors=False))
        else:
            assert repr(linalg._jacobi4(rows)) == repr(ref_vals)
        assert repr(linalg._eigvals(rows)) == repr(sorted(ref_vals, reverse=True))
        assert repr(rows) == before


@pytest.mark.parametrize("sweeps", [1, 2])
def test_sweep_limit_matches_the_frozen_reference(monkeypatch, sweeps):
    """Under a lowered sweep limit both kernels converge or raise exactly as the reference does."""
    rng = np.random.default_rng([20261018, 20, sweeps])
    inputs = [_rows(FAMILIES[family](rng)) for family in sorted(FAMILIES) for _ in range(20)]
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", sweeps)
    monkeypatch.setitem(globals(), "_MAX_SWEEPS", sweeps)
    raised = 0
    for rows in inputs:
        expected = _outcome(_jacobi_hermitian, rows, True)
        raised += expected.startswith("InternalCheckError")
        if len(rows) == 3:
            assert _outcome(linalg._jacobi3, rows, True) == expected
            assert _outcome(linalg._jacobi3, rows, False) == _outcome(_jacobi_hermitian, rows, False)
        else:
            assert _outcome(linalg._jacobi4, rows) == _outcome(
                lambda r: _jacobi_hermitian(r, False)[0], rows)
    assert 0 < raised < len(inputs)
