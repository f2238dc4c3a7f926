"""The written-out bridge sandwiches give the generic loop's bits.

spin1 writes (1/2) X h X^dag out as fixed signed sums on Python floats,
for X = sqrt(2) W (_to_two_qubit) and X = B^dag (_b_sandwich, read by
_from_two_qubit and singlet_overlap).  The oracle below is the generic
loop they replaced, kept verbatim with its tables: a generator over the
(column, +-1/+-i) pairs of X's rows, summed by the builtin complex sum.
Every result is compared by repr, so signed zeros count, and wherever
the oracle raises the change must raise the same type, reason and
message.  The families aim at the places where a written-out sum could
drift: signed zeros, subnormals next to O(1) entries, whose halving
underflows, dyadic entries that cancel exactly, and entries at the
bound.
"""

import random

import numpy as np
import pytest

from qutrit3d import spin1
from qutrit3d.errors import NotSymmetricError, TraceError
from qutrit3d.linalg import _ENTRY_MAX, _hermitian_rows
from qutrit3d.state import _as_rows, random_density
from qutrit3d.tolerances import HERM_TOL, TRACE_TOL

# --- the oracle: the generic sandwich and its tables, verbatim ---------------

# B = sqrt(2) [t_x t_y t_z psi_-], rows |00>, |01>, |10>, |11>
_B = ((-1, 1j, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1), (1, 1j, 0, 0))
# the nonzero entries of the rows of sqrt(2) W = B[:, :3] and of B^dag
_TRIPLET_ROWS = tuple(tuple((j, c) for j, c in enumerate(row[:3]) if c) for row in _B)
_B_DAG_ROWS = tuple(
    tuple((p, row[j].conjugate()) for p, row in enumerate(_B) if row[j]) for j in range(4)
)


def _half_sandwich(rows, A: list) -> list:
    """(1/2) X H X^dag as nested lists of Python complex, H the Hermitian part of A.

    ``rows`` holds the nonzero (column, entry) pairs of each row of X,
    whose entries are +-1 or +-i, so every product is exact and only the
    sums round; A is given as rows of Python complex.  One triangle is summed and mirrored: the result is
    exactly Hermitian, with a real diagonal and no -0.0 imaginary part.
    """
    H = [[0.5 * (x + y.conjugate()) for x, y in zip(row, col)] for row, col in zip(A, zip(*A))]
    n = len(rows)
    out = [[0j] * n for _ in range(n)]
    for p in range(n):
        for q in range(p, n):
            z = 0.5 * sum(c * H[j][k] * d.conjugate() for j, c in rows[p] for k, d in rows[q])
            out[p][q], out[q][p] = z, complex(z.real, 0.0 - z.imag)
        out[p][p] = complex(out[p][p].real)
    return out


def _old_from_two_qubit(rows: list) -> list:
    M = _half_sandwich(_B_DAG_ROWS, _hermitian_rows(rows, what="two-qubit state"))
    mismatch = 4.0 * max(abs(M[j][3].real) for j in range(3))
    if mismatch > HERM_TOL:
        raise NotSymmetricError("bloch_mismatch", f"local Bloch vectors differ by {mismatch:.3e}")
    asymmetry = 4.0 * max(abs(M[j][3].imag) for j in range(3))
    if asymmetry > HERM_TOL:
        raise NotSymmetricError(
            "tensor_asymmetry", f"correlation matrix asymmetry {asymmetry:.3e}"
        )
    overlap = M[3][3].real
    if abs(overlap) > HERM_TOL:
        raise NotSymmetricError(
            "singlet_overlap", f"singlet weight {overlap:.3e} exceeds tolerance"
        )
    tr = M[0][0].real + M[1][1].real + M[2][2].real
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceError(f"two-qubit triplet trace = {tr:.15g}, expected 1")
    return [row[:3] for row in M[:3]]


def _old_singlet_overlap(rows: list) -> float:
    rows = _hermitian_rows(rows, what="two-qubit state")
    return _half_sandwich(_B_DAG_ROWS[3:], rows)[0][0].real


# --- inputs -----------------------------------------------------------------

SUBNORMAL = (5e-324, -5e-324, 1e-323, -1e-323)
HALF_BOUND = 0.99 * _ENTRY_MAX / 2.0


def _draw(rng: random.Random, family: str) -> float:
    if family == "gauss":
        return rng.gauss(0.0, 1.0)
    if family == "zeros":
        return rng.choice((0.0, -0.0, 0.0, -0.0, rng.gauss(0.0, 1.0)))
    if family == "subnormal":
        return rng.choice(SUBNORMAL + (0.0, -0.0, rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)))
    if family == "dyadic":
        return rng.randint(-4, 4) / 8.0
    if family == "bound":
        return rng.choice((-1.0, 1.0)) * HALF_BOUND * rng.choice((1.0, 0.5, 0.25, 2.0**-30))
    raise ValueError(family)


FAMILIES = ("gauss", "real", "zeros", "subnormal", "dyadic", "bound")


def _matrix(rng: random.Random, family: str, n: int) -> list:
    """An n x n matrix of Python complex; "real" has Gaussian real parts and +0.0 imaginary ones."""
    if family == "real":
        return [[complex(rng.gauss(0.0, 1.0), 0.0) for _ in range(n)] for _ in range(n)]
    return [[complex(_draw(rng, family), _draw(rng, family)) for _ in range(n)] for _ in range(n)]


def _hermitian(rows: list) -> list:
    """rows' upper triangle mirrored, with a real diagonal: exactly Hermitian."""
    n = len(rows)
    return [
        [
            rows[i][j] if i < j else complex(rows[i][i].real) if i == j else rows[j][i].conjugate()
            for j in range(n)
        ]
        for i in range(n)
    ]


def _densities(n: int):
    """n seeded densities of ranks 1-3 as checked rows."""
    for seed in range(n):
        yield _as_rows(random_density(1 + seed % 3, seed))


def _outcome(f, *args):
    """repr(f(*args)), or the type, reason and message of what it raised."""
    try:
        return repr(f(*args))
    except Exception as exc:  # compared, never hidden
        return (type(exc).__name__, getattr(exc, "reason", None), str(exc))


def _perturbed(rows4: list, where: tuple, delta: complex) -> list:
    """rows4 + (1/2) B E B^dag, E = delta at M's entry ``where`` and its mirror.

    delta is real on the diagonal.
    """
    B = np.array(_B, dtype=complex)
    E = np.zeros((4, 4), dtype=complex)
    p, q = where
    E[p, q], E[q, p] = delta, np.conj(delta)
    return (np.array(rows4) + 0.5 * (B @ E @ B.conj().T)).tolist()


# --- the tests ----------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_to_two_qubit_sandwich_bits(family, monkeypatch):
    """W h W^dag on any 3x3 rows, the state check stubbed on both sides, repr for repr."""
    monkeypatch.setattr(spin1, "_state_rows", lambda rows: rows)
    rng = random.Random(f"to-{family}")
    for _ in range(200):
        A = _matrix(rng, family, 3)
        assert repr(spin1._to_two_qubit(A)) == repr(_half_sandwich(_TRIPLET_ROWS, A)), A


@pytest.mark.parametrize("family", FAMILIES)
def test_b_sandwich_bits(family):
    """(1/2) B^dag h B on any 4x4 rows, and the paths that read it, repr for repr."""
    rng = random.Random(f"from-{family}")
    for _ in range(120):
        A = _matrix(rng, family, 4)
        assert repr(spin1._b_sandwich(A)) == repr(_half_sandwich(_B_DAG_ROWS, A)), A
        H = _hermitian(A)
        assert _outcome(spin1._from_two_qubit, H) == _outcome(_old_from_two_qubit, H), H
        got = _outcome(spin1.singlet_overlap, np.array(H))
        assert got == _outcome(_old_singlet_overlap, H), H


def test_densities_and_their_images_bits():
    """States of ranks 1-3 through the whole bridge: the image, the way back, the singlet weight."""
    for rows in _densities(30):
        rho4 = spin1._to_two_qubit(rows)
        assert repr(rho4) == repr(_half_sandwich(_TRIPLET_ROWS, rows))
        assert repr(spin1._from_two_qubit(rho4)) == repr(_old_from_two_qubit(rho4))
        assert repr(spin1.singlet_overlap(np.array(rho4))) == repr(_old_singlet_overlap(rho4))


# the entry of M each check reads, and the size of a perturbation there at its
# threshold: the Bloch mismatch (4 Re M[j][3]), the tensor asymmetry
# (4 Im M[j][3]), the singlet weight (M[3][3]) and the triplet trace
TRIPS = (
    ("bloch_mismatch", (0, 3), HERM_TOL / 4.0),
    ("bloch_mismatch", (2, 3), HERM_TOL / 4.0),
    ("tensor_asymmetry", (1, 3), 1j * HERM_TOL / 4.0),
    ("singlet_overlap", (3, 3), HERM_TOL),
    ("TraceError", (1, 1), TRACE_TOL),
)


@pytest.mark.parametrize("reason, where, tol", TRIPS)
def test_from_two_qubit_raises_as_before(reason, where, tol):
    """Images perturbed on both sides of a check's threshold: same verdict, reason, message."""
    raised = set()
    for rows in _densities(9):
        rho4 = spin1._to_two_qubit(rows)
        for scale in (0.5, 0.99, 1.01, 2.0, 1e3):
            for sign in (1.0, -1.0):
                H = _perturbed(rho4, where, complex(sign * scale * tol))
                got = _outcome(spin1._from_two_qubit, H)
                assert got == _outcome(_old_from_two_qubit, H), H
                assert _outcome(spin1.singlet_overlap, np.array(H)) == _outcome(
                    _old_singlet_overlap, H
                )
                if isinstance(got, tuple):
                    raised.add(got[1] if got[0] == "NotSymmetricError" else got[0])
    assert raised == {reason}

