"""Linear algebra kernel tests against independent references.

Eigen routines are checked against numpy's LAPACK-backed solvers (on
families that include rank-deficient states, partial transposes and
near-double roots), the values-only path against the full solve bit for
bit, the evolution exp(-i theta G) rho exp(i theta G) that dynamics.evolve
reads from eig(G) against a raw Taylor series, determinants against numpy, and the partial transpose
against hand-built tensor products.  The one-pass Hermiticity check on
Python scalars keeps the errors and messages of the numpy checks it
replaced, at the edges where Python and numpy differ, and its kernels on
local variables, one per size, raise what the generic loop over nested
lists raised: that loop is kept below verbatim as a frozen oracle.
"""

import warnings

import numpy as np
import pytest

from qutrit3d import linalg, state
from qutrit3d.dynamics import custom, evolve, generator_matrix
from qutrit3d.errors import (
    InternalCheckError, InvalidStateError, NotHermitianError, NotSymmetricError, TraceError,
)
from qutrit3d.linalg import (
    det3,
    eig_hermitian3,
    eig_sym3,
    eigvals_hermitian4,
    partial_transpose,
)
from qutrit3d.purestates import (
    PureState, density_from_pure, pseudo_overlap, pseudo_qubit, rik_decompose,
)
from qutrit3d.spin1 import from_two_qubit, to_two_qubit
from qutrit3d.state import (
    StateParams, assert_density, check_state, compose, decompose, gamma_norm, metric_tensor,
    params_from_bloch_tensor, random_density, semi_axes, validate,
)
from qutrit3d.tolerances import DEGEN_GAP, HERM_TOL, RANK_TOL, TRACE_TOL


def random_hermitian(rng, n=3, scale=1.0):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (X + X.conj().T) / 2.0


def taylor_exp(A, terms=60):
    """exp(A) summed term by term, the dumbest possible oracle."""
    out = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for n in range(1, terms):
        term = term @ A / n
        out = out + term
    return out


def test_eig_matches_lapack_on_random_hermitian():
    rng = np.random.default_rng(7)
    for _ in range(500):
        M = random_hermitian(rng)
        es = eig_hermitian3(M)
        ref = np.linalg.eigvalsh(M)[::-1]
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(es.values - ref)) < 1e-12 * scale
        assert es.values[0] >= es.values[1] >= es.values[2]
        residual = M @ es.vectors - es.vectors * es.values
        assert np.max(np.abs(residual)) < 1e-10
        gram = es.vectors.conj().T @ es.vectors
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12


def test_eig_phase_gauge():
    rng = np.random.default_rng(11)
    for _ in range(200):
        es = eig_hermitian3(random_hermitian(rng))
        for k in range(3):
            v = es.vectors[:, k]
            pivot = v[np.argmax(np.abs(v))]
            assert abs(pivot.imag) < 1e-12
            assert pivot.real > 0


def test_eig_bitwise_deterministic():
    rng = np.random.default_rng(13)
    M = random_hermitian(rng)
    a = eig_hermitian3(M)
    b = eig_hermitian3(M)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_eig_fully_degenerate():
    es = eig_hermitian3(np.eye(3) / 3.0)
    assert np.allclose(es.values, 1.0 / 3.0, atol=1e-15)
    assert np.max(np.abs(es.vectors - np.eye(3))) < 1e-14


def test_eig_degenerate_pair_diagonal():
    es = eig_hermitian3(np.diag([0.5, 0.5, 0.0]).astype(complex))
    assert np.allclose(es.values, [0.5, 0.5, 0.0], atol=1e-15)
    assert np.max(np.abs(es.vectors - np.eye(3))) < 1e-14


def test_eig_degenerate_pair_rotated():
    rng = np.random.default_rng(17)
    for _ in range(100):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        M = Q @ np.diag([0.4, 0.4, 0.2]) @ Q.conj().T
        M = (M + M.conj().T) / 2.0
        es = eig_hermitian3(M)
        assert np.allclose(es.values, [0.4, 0.4, 0.2], atol=1e-10)
        residual = M @ es.vectors - es.vectors * es.values
        assert np.max(np.abs(residual)) < 1e-10
        gram = es.vectors.conj().T @ es.vectors
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12
        # determinism on the degenerate subspace
        again = eig_hermitian3(M)
        assert np.array_equal(es.vectors, again.vectors)


def test_eig_sym3_returns_real_vectors():
    rng = np.random.default_rng(19)
    for _ in range(200):
        X = rng.standard_normal((3, 3))
        T = (X + X.T) / 2.0
        vals, vecs = eig_sym3(T)
        assert vecs.dtype.kind == "f"
        residual = T @ vecs - vecs * vals
        assert np.max(np.abs(residual)) < 1e-10


def test_eigvals_hermitian4_matches_lapack():
    rng = np.random.default_rng(23)
    for _ in range(300):
        M = random_hermitian(rng, n=4)
        vals = eigvals_hermitian4(M)
        ref = np.linalg.eigvalsh(M)[::-1]
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(vals - ref)) < 1e-12 * scale


def _near_double_root(rng, gap):
    """Q diag(l, l + gap, m) Q^dag in a random complex frame."""
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    lam, mu = rng.uniform(-1.0, 1.0, size=2)
    M = Q @ np.diag([lam, lam + gap, mu]) @ Q.conj().T
    return (M + M.conj().T) / 2.0


def _random_density4(rng):
    rank = int(rng.integers(1, 5))
    X = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = X @ X.conj().T
    return rho / np.trace(rho).real


# gaps 1e-12 ... 1e-6, half of them below DEGEN_GAP
NEAR_GAPS = np.logspace(-12.0, -6.0, 25)

SOLVER_FAMILIES_3 = {
    "hermitian": lambda rng, i: random_hermitian(rng),
    "rank1_density": lambda rng, i: random_density(1, rng),
    "rank2_density": lambda rng, i: random_density(2, rng),
    "near_double_root": lambda rng, i: _near_double_root(rng, NEAR_GAPS[i % len(NEAR_GAPS)]),
    "tensor": lambda rng, i: np.eye(3) - 2.0 * random_density(i % 3 + 1, rng).real,
}

SOLVER_FAMILIES_4 = {
    "hermitian": lambda rng: random_hermitian(rng, n=4),
    "partial_transpose_image": lambda rng: partial_transpose(
        to_two_qubit(random_density(int(rng.integers(1, 4)), rng))
    ),
    "partial_transpose_density": lambda rng: partial_transpose(_random_density4(rng)),
}


def _cluster_widths(values):
    """Per column, the spread of its cluster (0 unless re-orthonormalized)."""
    widths = np.zeros(len(values))
    i = 0
    while i < len(values):
        j = i + 1
        while j < len(values) and values[j - 1] - values[j] < DEGEN_GAP:
            j += 1
        widths[i:j] = values[i] - values[j - 1]
        i = j
    return widths


@pytest.mark.parametrize("family", sorted(SOLVER_FAMILIES_3))
def test_eig_hermitian3_against_lapack(family):
    """Eigenvalues within 1e-14 scale; residual and orthonormality within 1e-13.

    A cluster closer than DEGEN_GAP gets a basis of its subspace, not
    eigenvectors, so its columns may miss M v = lambda v by the cluster's
    spread on top of rounding.
    """
    make = SOLVER_FAMILIES_3[family]
    rng = np.random.default_rng([20261018, sorted(SOLVER_FAMILIES_3).index(family)])
    for i in range(400):
        M = make(rng, i)
        if family == "tensor":
            values, V = eig_sym3(M)
            assert V.dtype.kind == "f"
        else:
            es = eig_hermitian3(M)
            values, V = es.values, es.vectors
        ref, ref_vectors = np.linalg.eigh(M)
        ref, ref_vectors = ref[::-1], ref_vectors[:, ::-1]
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(values - ref)) <= 1e-14 * scale
        assert values[0] >= values[1] >= values[2]
        residual = np.max(np.abs(M @ V - V * values), axis=0)
        assert np.all(residual <= 1e-13 * scale + _cluster_widths(values))
        assert np.max(np.abs(V.conj().T @ V - np.eye(3))) <= 1e-13
        # well separated roots: the same eigenvectors as LAPACK, up to phase
        gaps = np.abs(np.subtract.outer(ref, ref)) + np.eye(3)
        for k in range(3):
            if np.min(gaps[k]) > 1e-3:
                overlap = abs(np.vdot(ref_vectors[:, k], V[:, k]))
                assert abs(overlap - 1.0) <= 1e-12
        if family == "tensor":
            again = eig_sym3(M)
            assert np.array_equal(again[0], values) and np.array_equal(again[1], V)
        else:
            again = eig_hermitian3(M)
            assert np.array_equal(again.values, values)
            assert np.array_equal(again.vectors, V)


@pytest.mark.parametrize("family", sorted(SOLVER_FAMILIES_4))
def test_eigvals_hermitian4_against_lapack(family):
    make = SOLVER_FAMILIES_4[family]
    rng = np.random.default_rng([20261018, 10 + sorted(SOLVER_FAMILIES_4).index(family)])
    for _ in range(300):
        M = make(rng)
        values = eigvals_hermitian4(M)
        ref = np.linalg.eigvalsh(M)[::-1]
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(values - ref)) <= 1e-14 * scale
        assert np.array_equal(eigvals_hermitian4(M), values)


def _values_only_families(rng, i):
    """3x3 inputs of every kind the solver sees, with an exact or near double root now and then."""
    real = rng.standard_normal((3, 3))
    big = 0.99 * linalg._ENTRY_MAX
    psi = rng.standard_normal(3)
    yield random_hermitian(rng)
    yield (real + real.T) / 2.0
    yield random_density(1, rng)
    yield random_density(2, rng)
    yield _near_double_root(rng, DEGEN_GAP * 10.0 ** rng.uniform(-3.0, 0.0))
    yield _near_double_root(rng, 0.0)
    yield np.diag([0.5, 0.5, 0.0]) if i % 2 else np.eye(3) / 3.0
    yield np.eye(3) - 2.0 * np.outer(psi, psi) / (psi @ psi)
    H = random_hermitian(rng)
    yield big * H / np.abs(H).max()


def test_values_only_path_is_bit_identical_to_the_full_solve():
    """Dropping V changes no eigenvalue bit: the kernel's A never reads V.

    Near and exact double roots (where the full solve re-orthonormalizes
    a cluster), entries near the solver's bound and real input all give
    the same bytes as the full path, sorted in the same order.  The 4x4
    kernel computes no V; tests/test_jacobi.py holds its values to those
    of the frozen reference kernel with V.
    """
    rng = np.random.default_rng(20261020)
    for i in range(300):
        for M in _values_only_families(rng, i):
            M = np.asarray(M, dtype=float if np.isrealobj(M) else complex)
            values = np.array(linalg._eigvals(M.tolist()))
            assert values.tobytes() == eig_hermitian3(M).values.tobytes()


def test_real_input_gets_real_arithmetic():
    """A real matrix takes the real path: the complex path's arithmetic minus the zeros.

    With every imaginary part zero, each complex product and quotient of
    the complex path has the real path's real part, so both give the
    same bits.
    """
    rng = np.random.default_rng(59)
    for _ in range(200):
        X = rng.standard_normal((3, 3))
        T = (X + X.T) / 2.0
        real = eig_hermitian3(T)
        cplx = eig_hermitian3(T.astype(complex))
        assert real.vectors.dtype.kind == "f" and cplx.vectors.dtype.kind == "c"
        assert np.array_equal(real.values, cplx.values)
        assert np.array_equal(real.vectors, cplx.vectors.real)
        assert not cplx.vectors.imag.any()


def test_exact_double_root_converges():
    """T of a real pure state has the exact double root 1 in a random frame.

    The pair a rotation annihilates must end at zero, not at its rounding
    residue: about one such T in a thousand would otherwise keep a residue
    above the stop for every sweep and reach the sweep limit.
    """
    rng = np.random.default_rng(61)
    for _ in range(2000):
        psi = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * rng.standard_normal(3)
        psi = psi / np.linalg.norm(psi)
        values, _ = eig_sym3(np.eye(3) - 2.0 * np.outer(psi, psi.conj()).real)
        assert np.max(np.abs(values - [1.0, 1.0, -1.0])) <= 1e-14


SIZED_FUNCTIONS = {
    # name: (n, what the shape error calls the matrix, its type, a function that gives an
    # n x n diagonal matrix's diagonal in descending order)
    "eig_hermitian3": (3, "Hermitian matrix", ValueError, lambda M: eig_hermitian3(M).values),
    "eig_sym3": (3, "Hermitian matrix", ValueError, lambda M: eig_sym3(M)[0]),
    "eigvals_hermitian4": (4, "Hermitian matrix", ValueError, eigvals_hermitian4),
    # the partial transpose of a diagonal matrix is that matrix
    "partial_transpose": (4, "two-qubit operator", ValueError,
                          lambda M: np.sort(np.diag(partial_transpose(M)))[::-1]),
    "custom": (3, "custom generator", ValueError,
               lambda M: eig_hermitian3(generator_matrix(custom(M))).values),
    "decompose": (3, "density matrix", TraceError, decompose),
    "from_two_qubit": (4, "two-qubit state", InvalidStateError, from_two_qubit),
}
# a diagonal matrix of their size is not a state: it fails the check after the shape
PAST_THE_SHAPE = {"decompose": TraceError, "from_two_qubit": NotSymmetricError}


@pytest.mark.parametrize("name", sorted(SIZED_FUNCTIONS))
def test_eigensolvers_check_their_shape(name):
    """Each solver, the partial transpose and each matrix argument read by _rows takes one size.

    Any other shape is an error of the caller's type naming it.  A 3x3
    solver used to return three of diag(4, 1, 3, 2)'s four eigenvalues, a
    2x2 input raised a bare IndexError, and partial_transpose returned a
    4x4 result for a 2x8 array or a flat 16-vector.
    """
    n, what, error, values = SIZED_FUNCTIONS[name]
    for M in (np.diag([2.0, 1.0]), np.diag([3.0, 1.0, 2.0]), np.diag([4.0, 1.0, 3.0, 2.0]),
              np.eye(3, 4), np.arange(9.0), np.eye(2, 8), np.arange(16.0)):
        if M.shape == (n, n) and name in PAST_THE_SHAPE:
            with pytest.raises(PAST_THE_SHAPE[name]) as exc:
                values(M)
            assert "must be" not in str(exc.value)
            continue
        if M.shape == (n, n):
            assert values(M).tolist() == sorted(np.diag(M), reverse=True)
            continue
        shape = str(M.shape).replace("(", r"\(").replace(")", r"\)")
        with pytest.raises(error, match=rf"^{what} must be {n}x{n}, got {shape}$"):
            values(M)


def _with_a(a):
    """The maximally mixed state's parameters with the Bloch vector a."""
    p = decompose(np.eye(3) / 3.0)
    return StateParams(a, p.q, p.omega, p.T)


FOUR = np.array([0.1, 0.0, 0.0, 5.0])
SHAPED_ARGUMENTS = {
    # name: (a call with one vector or tensor argument of the wrong shape, its ValueError)
    "gamma_norm a": (lambda: gamma_norm(FOUR, np.eye(3) / 3.0), "a must be of length 3, got (4,)"),
    "gamma_norm T": (lambda: gamma_norm(FOUR[:3], np.eye(4)), "T must be 3x3, got (4, 4)"),
    "params_from_bloch_tensor": (lambda: params_from_bloch_tensor(FOUR, np.eye(3) / 3.0),
                                 "a must be of length 3, got (4,)"),
    "compose": (lambda: compose(_with_a(FOUR)), "a must be of length 3, got (4,)"),
    "validate": (lambda: validate(_with_a(FOUR)), "a must be of length 3, got (4,)"),
    "metric_tensor": (lambda: metric_tensor(np.eye(4)), "T must be 3x3, got (4, 4)"),
    "semi_axes": (lambda: semi_axes(FOUR), "tensor eigenvalues must be of length 3, got (4,)"),
    "rik_decompose": (lambda: rik_decompose([0.6, 0.8j, 0.0, 0.0]),
                      "amplitudes must be of length 3, got (4,)"),
    "density_from_pure": (lambda: density_from_pure(PureState(FOUR + 0j, FOUR, 0.0 * FOUR)),
                          "amplitudes must be of length 3, got (4,)"),
    "pseudo_qubit": (lambda: pseudo_qubit(np.zeros(4)),
                     "pseudo_qubit: the Bloch vector must be of length 3, got (4,)"),
    # a row of three is not a vector of three
    "pseudo_qubit row": (lambda: pseudo_qubit(np.zeros((1, 3))),
                         "pseudo_qubit: the Bloch vector must be of length 3, got (1, 3)"),
    "pseudo_overlap": (lambda: pseudo_overlap(np.zeros(3), np.zeros(4)),
                       "pseudo_overlap b: the Bloch vector must be of length 3, got (4,)"),
}


@pytest.mark.parametrize("name", sorted(SHAPED_ARGUMENTS))
def test_vector_and_tensor_arguments_check_their_shape(name):
    """Each vector or tensor argument is read by _rows at its exact shape, or a ValueError names it.

    gamma_norm used to drop a fourth Bloch component, params_from_bloch_tensor
    kept it, density_from_pure built a 4x4 "density" of four amplitudes,
    and the others raised a bare unpacking error.
    """
    call, message = SHAPED_ARGUMENTS[name]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_unconverged_jacobi_raises(monkeypatch):
    rng = np.random.default_rng(53)
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    with pytest.raises(InternalCheckError, match="sweep limit 1 reached"):
        eig_hermitian3(random_hermitian(rng))
    with pytest.raises(InternalCheckError, match="sweep limit 1 reached"):
        eigvals_hermitian4(random_hermitian(rng, n=4))
    # rho's values-only spectrum and real input take the same limit and message; a state
    # with lambda_min = -RANK_TOL lies in linalg._at_least's band, so check_state solves it
    Q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    band = Q @ np.diag([0.7, 0.3 + RANK_TOL, -RANK_TOL]) @ Q.conj().T
    with pytest.raises(InternalCheckError, match=r"^Jacobi sweep limit 1 reached: off-diagonal "):
        check_state(band)
    X = rng.standard_normal((3, 3))
    with pytest.raises(InternalCheckError, match=r"^Jacobi sweep limit 1 reached: off-diagonal "):
        eig_sym3((X + X.T) / 2.0)
    # a diagonal matrix needs no rotation, so one sweep confirms it
    assert np.array_equal(eig_hermitian3(np.diag([0.5, 0.3, 0.2])).values, [0.5, 0.3, 0.2])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_assert_hermitian_rejects_nonfinite(value):
    """Each solver asserts that its input is Hermitian: a non-finite entry is not."""
    for n, solve in ((3, eig_hermitian3), (4, eigvals_hermitian4)):
        M = np.eye(n, dtype=complex) / n
        M[1, 1] = value
        with pytest.raises(NotHermitianError):
            solve(M)


def test_assert_hermitian_rejects_entries_that_would_overflow():
    # entries up to a sixteenth of the float range keep the Frobenius norm
    # of a 4x4 matrix below a quarter of it, so the solver's sums and
    # doublings stay finite; a larger entry is a ValueError, not an
    # OverflowError from abs() inside the sweep
    big = 0.999 * np.finfo(float).max / 16.0
    for n, solve in ((3, eig_hermitian3), (4, eigvals_hermitian4)):
        M = np.eye(n, dtype=complex) / n
        M[0, 1], M[1, 0] = big * (1 - 1j) / np.sqrt(2.0), big * (1 + 1j) / np.sqrt(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = solve(M) if n == 4 else solve(M).values
        assert np.isfinite(values).all() and abs(values[0] - big) <= 1e-12 * big
        M[0, 1], M[1, 0] = 1.7e308 * (1 - 1j), 1.7e308 * (1 + 1j)
        with pytest.raises(ValueError, match="overflows"):
            solve(M)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [3, 4])
def test_scalar_check_keeps_its_errors_and_messages(n):
    """The one pass over Python scalars raises what the numpy checks raised.

    abs() of a Python complex whose modulus is above max float raises
    OverflowError where np.abs returned inf: that entry is still the
    ValueError of an oversized entry.  A NaN part or an infinity is a
    non-finite entry, which wins over an oversized one wherever the two
    sit, and both win over a Hermiticity deviation.
    """
    base = np.eye(n, dtype=complex) / n
    huge = 1.7e308 + 1.7e308j
    overflow = r"^Hermitian matrix overflows: an entry is above 1\.12e\+307 in modulus$"
    nonfinite = r"^Hermitian matrix is not Hermitian: it has a non-finite entry$"
    solve = eig_hermitian3 if n == 3 else eigvals_hermitian4

    def check(entries):
        M = base.copy()
        for (i, j), value in entries.items():
            M[i, j] = value
        return solve(M)

    check({})
    with pytest.raises(ValueError, match=overflow):
        check({(0, 1): huge, (1, 0): np.conj(huge)})
    with pytest.raises(ValueError, match=overflow):
        check({(n - 1, 0): huge, (0, 1): 0.5})
    for value in (complex(np.nan, 0.0), complex(0.0, np.nan), np.inf, -np.inf,
                  complex(0.0, np.inf), complex(1.7e308, np.nan)):
        with pytest.raises(NotHermitianError, match=nonfinite):
            check({(n - 1, 0): value})
        with pytest.raises(NotHermitianError, match=nonfinite):
            check({(0, 1): huge, (n - 1, n - 1): value, (1, 0): 0.5})
    deviation = r"^Hermitian matrix is not Hermitian: max \|M - M\^dag\| = 2\.500e-10$"
    with pytest.raises(NotHermitianError, match=deviation):
        check({(0, n - 1): 2.5e-10})
    # a deviation of exactly HERM_TOL passes
    check({(0, n - 1): 1e-10})


@pytest.mark.filterwarnings("error")
def test_density_check_keeps_its_messages():
    """The trace, Hermiticity and entry-size messages of a density matrix keep their text."""
    rho = np.diag([0.5, 0.3, 0.2 + 3e-12]).astype(complex)
    with pytest.raises(TraceError, match=r"^density matrix trace = 1\.000000000003, expected 1$"):
        assert_density(rho)
    rho[0, 2] = 1e-9
    deviation = r"^density matrix is not Hermitian: max \|M - M\^dag\| = 1\.000e-09$"
    with pytest.raises(NotHermitianError, match=deviation):
        assert_density(rho)
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    rho[0, 1] = rho[1, 0] = 6e306
    overflow = r"^density matrix overflows: an entry is above 5\.62e\+306 in modulus$"
    with pytest.raises(ValueError, match=overflow):
        assert_density(rho)


def _old_hermitian_rows(rows: list, what: str) -> list:
    """The generic one-pass check over nested lists, verbatim."""
    dev = 0.0
    try:
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if not abs(x) <= linalg._ENTRY_MAX:  # also true for a NaN or infinite entry
                    raise linalg._entry_error(rows, what)
                d = abs(x - rows[j][i].conjugate())
                if d > dev:
                    dev = d
    except OverflowError:  # abs() of a complex whose modulus is above max float
        raise linalg._entry_error(rows, what) from None
    if dev > HERM_TOL:
        raise NotHermitianError(f"{what} is not Hermitian: max |M - M^dag| = {dev:.3e}")
    return rows


def _outcome(check, rows):
    """("ok", whether the rows come back as they went in), or the exception's type and text."""
    try:
        return "ok", check(rows, "Hermitian matrix") is rows
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


def _hermitian_bases(n: int) -> list:
    """Rows of Hermitian n x n matrices: complex, real, scaled to the entry bound, and 1/n."""
    rng = np.random.default_rng(24 + n)
    top = np.full((n, n), linalg._ENTRY_MAX) * np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
    return [
        random_hermitian(rng, n, 0.3).tolist(),
        np.real(random_hermitian(rng, n, 0.3)).tolist(),
        (np.triu(top) + np.triu(top, 1).T).tolist(),
        (np.eye(n, dtype=complex) / n).tolist(),
    ]


@pytest.mark.parametrize("n", [3, 4])
def test_hermiticity_check_matches_the_frozen_loop(n):
    """The same exception type and message, or the same rows, as the generic loop.

    Each out-of-bounds value sits in every entry position in turn, and a
    deviation above HERM_TOL, or at it, in each off-diagonal pair and each
    diagonal imaginary part; seeded matrices skewed in every entry follow.
    """
    above = float(np.nextafter(linalg._ENTRY_MAX, np.inf))
    bad = [complex(np.nan, 0.5), complex(0.5, np.nan), np.inf, -np.inf, complex(0.0, np.inf),
           complex(1e308, 1e308), above, complex(0.0, above), complex(np.nan, 1e308)]
    cases = []
    for base in _hermitian_bases(n):
        cases.append(base)
        real = not isinstance(base[0][0], complex)
        for i, j in np.ndindex(n, n):
            for value in bad:
                if not (real and isinstance(value, complex)):
                    cases.append([row[:] for row in base])
                    cases[-1][i][j] = value
            if real:
                continue
            # off the diagonal the deviation is |delta|, on it |2 Im delta|: above or at HERM_TOL
            deltas = (3e-10, -2e-10j, 1e-10, (0.6 + 0.8j) * 1e-10, 2.0**-33) if i < j else (
                6e-11j, 5e-11j, -7e-11j) if i == j else ()
            for delta in deltas:
                cases.append([row[:] for row in base])
                cases[-1][i][j] += delta
    rng = np.random.default_rng(2424)
    for _ in range(400):
        M = random_hermitian(rng, n, rng.choice([1e-3, 1.0, 1e3]))
        skew = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cases.append((M + rng.choice([0.0, 1e-11, 1e-10, 1e-9]) * skew).tolist())
    got = [_outcome(linalg._hermitian_rows, r) for r in cases]
    assert got == [_outcome(_old_hermitian_rows, r) for r in cases]
    # every path is taken: the rows back, both entry errors and the deviation
    texts = " ".join(str(text) for _, text in got)
    assert ("ok", True) in got and "overflows" in texts and "non-finite" in texts
    assert "max |M - M^dag| = " in texts


def _old_density_rows(rows: list) -> list:
    """The density check that rescanned the nine moduli, verbatim but for the module prefixes."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = linalg._hermitian_rows(
        rows, "density matrix")
    bound = linalg._ENTRY_MAX / 2.0
    if max(abs(a00), abs(a01), abs(a02), abs(a10), abs(a11), abs(a12), abs(a20), abs(a21),
           abs(a22)) > bound:
        raise ValueError(f"density matrix overflows: an entry is above {bound:.3g} in modulus")
    tr = a00 + a11 + a22
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceError(f"density matrix trace = {tr.real:.15g}, expected 1")
    return rows


def _density_outcome(check, rows):
    """("ok", whether the rows come back as they went in), or the exception's type and text."""
    try:
        return "ok", check(rows) is rows
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


def test_density_check_matches_the_frozen_rescan():
    """_density_rows, whose half entry bound _hermitian_rows enforces, raises what the rescan did.

    Each entry in turn is set, alone and with its Hermitian mirror, to
    _ENTRY_MAX / 2 and to the next float on either side, in its real or
    imaginary part, and to a non-finite or overflowing value; an entry
    above the half bound in a matrix that is not Hermitian must still be
    reported as not Hermitian.  Traces off by TRACE_TOL and one ulp on
    either side, and 200 seeded states, follow.
    """
    half = linalg._ENTRY_MAX / 2.0
    sizes = (float(np.nextafter(half, 0.0)), half, float(np.nextafter(half, np.inf)))
    big = [complex(x, 0.0) for x in sizes] + [complex(0.0, x) for x in sizes]
    bad = [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0),
           complex(-np.inf, 0.0), complex(0.0, np.inf), complex(1e308, 1e308)]
    third = (np.eye(3, dtype=complex) / 3.0).tolist()
    cases = []
    for i, j in np.ndindex(3, 3):
        for value in big + bad:
            cases.append([row[:] for row in third])
            cases[-1][i][j] = value
            if i != j:
                cases.append([row[:] for row in cases[-1]])
                cases[-1][j][i] = value.conjugate()
            # the same entry, Hermitian where it can be, in a matrix skewed elsewhere
            k = (max(i, j) + 1) % 3
            cases.append([row[:] for row in cases[-1]])
            cases[-1][k][k] += 2j * HERM_TOL
    for edge in (1.0 - TRACE_TOL, 1.0 + TRACE_TOL):
        for x in (float(np.nextafter(edge, 0.0)), edge, float(np.nextafter(edge, 2.0))):
            cases.append([[complex(x), 0j, 0j], [0j, 0j, 0j], [0j, 0j, 0j]])
    rng = np.random.default_rng(2626)
    for _ in range(200):
        cases.append(random_density(rank=int(rng.integers(1, 4)), rng=rng).tolist())
    got = [_density_outcome(state._density_rows, r) for r in cases]
    assert got == [_density_outcome(_old_density_rows, r) for r in cases]
    # every outcome occurs: the rows back, the half bound, both entry errors, skew and trace
    texts = " ".join(str(text) for _, text in got)
    assert ("ok", True) in got and "above 5.62e+306" in texts and "above 1.12e+307" in texts
    assert "non-finite" in texts and "max |M - M^dag| = " in texts and "trace = " in texts


def test_det3_matches_numpy():
    rng = np.random.default_rng(29)
    for _ in range(300):
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ref = np.linalg.det(M)
        assert abs(det3(M) - ref) < 1e-12 * max(1.0, abs(ref))


def test_exp_theta_zero_is_identity():
    rng = np.random.default_rng(37)
    G = random_hermitian(rng)
    rho = random_density(rank=3, rng=rng)
    assert np.array_equal(evolve(rho, custom(G), 0.0), rho)


def test_exp_matches_taylor_series():
    rng = np.random.default_rng(41)
    for _ in range(100):
        G = random_hermitian(rng)
        rho = random_density(rank=int(rng.integers(1, 4)), rng=rng)
        g = custom(G)
        for theta in (0.3, -1.1, 2.5):
            U = taylor_exp(-1j * theta * G)
            assert np.max(np.abs(U @ U.conj().T - np.eye(3))) < 1e-12
            ref = U @ rho @ U.conj().T
            assert np.max(np.abs(evolve(rho, g, theta) - ref)) < 1e-12


def test_exp_spin_z_closed_form():
    # (S_z)_{kl} = -i eps_{zkl}: exp(-i pi S_z) = diag(-1, -1, 1), exp(-2 pi i S_z) = 1
    g = custom(np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]))
    rho = random_density(rank=3, rng=np.random.default_rng(43))
    assert np.max(np.abs(evolve(rho, g, 2 * np.pi) - rho)) < 1e-12
    D = np.diag([-1.0, -1.0, 1.0])
    assert np.max(np.abs(evolve(rho, g, np.pi) - D @ rho @ D)) < 1e-12


def test_partial_transpose_involution_and_products():
    rng = np.random.default_rng(47)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(partial_transpose(partial_transpose(M)), M)
    # the dtype is kept, and the result is numpy's permutation of the entries
    for X in (M, M.real, np.arange(16).reshape(4, 4)):
        pt = partial_transpose(X)
        assert pt.dtype == X.dtype
        assert np.array_equal(pt, X.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4))
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.max(np.abs(partial_transpose(np.kron(A, B)) - np.kron(A, B.T))) < 1e-15


def test_partial_transpose_singlet():
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    pt = partial_transpose(rho)
    assert abs(np.trace(pt) - 1.0) < 1e-15
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-15
    vals = eigvals_hermitian4(pt)
    assert abs(vals[-1] + 0.5) < 1e-12
