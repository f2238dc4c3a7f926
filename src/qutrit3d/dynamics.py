"""Unitary spin-1 dynamics.

Nine canonical generators — rotations S_j, one-axis twistings S_j^2 and
two-axis countertwistings A_j = S_k S_l + S_l S_k — plus arbitrary
Hermitian generators.  Evolution is rho' = U rho U^dag with
U = exp(-i theta G); it always preserves the spectrum and determinant.
Rotations act as rigid SO(3) maps (a -> Ra, T -> R T R^t), so they also
preserve the semi-axes and the metric norm a.Gamma.a; twistings deform
the ellipsoid and trade Bloch-vector length against tensor shape, so the
metric norm is NOT conserved by them (det rho = det(Re rho) (1 - a.Gamma.a),
and only the left-hand side is a unitary invariant).

Every generator is diagonal in its own eigenframe, G = V Lambda V^dag
(one-axis twisting in the S_z basis, as in Kitagawa and Ueda's squeezed
spin states).  With R = V^dag rho0 V a sample is
rho(theta) = V D V^dag, D_jk = R_jk e^{-i theta (lambda_j - lambda_k)},
so each entry of rho(theta) is a fixed combination of the cosines and
sines of the three pair phases.  The scalar core (_trajectory) takes a
state's checked rows, forms R and those coefficients once from the
generator's eigenframe, and evaluates each sample from three
math.cos/math.sin pairs on Python scalars: no matrix exponential, no
BLAS, so the bytes do not depend on the CPU's kernel.  The theta = 0
sample is rho0's rows as given; every other sample's upper triangle is
mirrored, so it is exactly Hermitian with a real diagonal.  A Generator
holds tuples, its matrix rows and their eigenframe, solved once when it
is built, and the grid is a list, np.linspace's bit for bit.  custom,
evolve (a one-sample trajectory) and trajectory take a matrix in through
linalg._rows and check it once; they and generator_matrix return arrays
through linalg._array (_scene_arrays for a scene).  The CLI hands the
core the rows it parsed.  A sample is unitarily equivalent to rho0, so
every scene reuses rho0's positivity and rank (state._verdict), proven
once: a scene trajectory costs one eigensolve per sample, T(theta)'s,
and no solve of rho0 where linalg._at_least proves its verdict, one
values-only solve in its band.  Without scenes only the positivity is
read, at the same cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

from .geometry import EllipsoidScene, _scene, _scene_arrays
from .linalg import _array, _eigensystem3, _eigvals, _hermitian_rows, _rows
from .spin1 import _spin_rows
from .state import _as_rows, _not_positive, _verdict

_SHORT = {"rotation": "rot", "one_axis_twist": "twist", "two_axis_counter": "counter"}
# the upper triangle of a sample, row by row, and the pairs (j, k) of eigenvalues
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_PAIRS = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True, eq=False)
class Generator:
    """A generator's kind, axis, matrix rows and eigenframe (_eigenframe): solved once, shared."""

    kind: str
    axis: str | None
    matrix: tuple
    frame: tuple


@dataclass
class Trajectory:
    """A theta grid and its samples; the scalar core (_trajectory) fills it with lists."""

    thetas: np.ndarray
    states: list[np.ndarray]
    scenes: list[EllipsoidScene] | None = None


def _eigenframe(lam: list, V: list) -> tuple:
    """An eigensystem (_eigensystem3) on Python scalars, with the products a sample is summed from.

    Returns (lambda, u, conj u, constant, phased): u_j are the
    eigenvectors (V's columns) as Python complex.  For each
    upper-triangle entry (m, n), ``constant`` holds x_j = u_jm conj(u_jn)
    for j = 0, 1, 2, and ``phased`` holds, for each pair p = (j, k),
    sigma = x + y and tau = i (x - y) with x = u_jm conj(u_kn) and
    y = conj(u_jn) u_km; all three are real on the diagonal.
    """
    u = tuple(tuple(map(complex, col)) for col in zip(*V))
    uc = tuple(tuple(x.conjugate() for x in col) for col in u)
    constant, phased = [], []
    for m, n in _UPPER:
        c = [u[j][m] * uc[j][n] for j in range(3)]
        p = []
        for j, k in _PAIRS:
            x, y = u[j][m] * uc[k][n], uc[j][n] * u[k][m]
            d = x - y
            p += [x + y, complex(-d.imag, d.real)]
        if m == n:
            c, p = [z.real for z in c], [z.real for z in p]
        constant.append(tuple(c))
        phased.append(tuple(p))
    return tuple(lam), u, uc, tuple(constant), tuple(phased)


def _solved(rows: list, kind: str = "custom", axis: str | None = None) -> Generator:
    """The generator of a 3x3 matrix's rows of Python complex, checked and solved once."""
    rows = _hermitian_rows(rows, what=f"{kind} generator")
    return Generator(kind, axis, tuple(map(tuple, rows)), _eigenframe(*_eigensystem3(rows)))


_OPS = _spin_rows()
# label -> generator for the nine canonical generators, "rot:x" ... "counter:z"
GENERATORS = MappingProxyType({
    f"{_SHORT[kind]}:{axis}": _solved(mats[j], kind, axis)
    for kind, mats in zip(_SHORT, (_OPS.S, _OPS.S2, _OPS.A))
    for j, axis in enumerate("xyz")
})


def _canonical(short: str, axis: str) -> Generator:
    g = GENERATORS.get(f"{short}:{axis}")
    if g is None:
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    return g


def rotation(axis: str) -> Generator:
    return _canonical("rot", axis)


def one_axis_twist(axis: str) -> Generator:
    return _canonical("twist", axis)


def two_axis_counter(axis: str) -> Generator:
    return _canonical("counter", axis)


def custom(H: np.ndarray) -> Generator:
    """A Hermitian 3x3 generator, copied to rows so later writes to H cannot reach it."""
    return _solved(_rows(H, (3, 3), "custom generator"))


def canonical_generators() -> list[Generator]:
    """The nine named generators: three kinds times three axes."""
    return list(GENERATORS.values())


def generator_label(g: Generator) -> str:
    return "custom" if g.kind == "custom" else f"{_SHORT[g.kind]}:{g.axis}"


def generator_matrix(g: Generator) -> np.ndarray:
    """Hermitian matrix of a generator (S_j, S_j^2, A_j or the custom H), a writable array."""
    return _array(g.matrix)


def _grid(theta_max: float, n: int) -> list:
    """The uniform theta grid of 2 <= n <= 100000 samples on [0, theta_max], a list of floats.

    Bit for bit np.linspace(0.0, theta_max, n): i * step + 0.0, or
    i / (n - 1) * theta_max + 0.0 where the step underflows to zero, and
    theta_max itself last.
    """
    if n < 2:
        raise ValueError(f"trajectory needs at least 2 samples, got {n}")
    if n > 100000:
        raise ValueError(f"trajectory takes at most 100000 samples, got {n}")
    theta, div = float(theta_max), n - 1
    step = theta / div
    grid = [(i * step if step else i / div * theta) + 0.0 for i in range(n)]
    grid[-1] = theta
    return grid


def _in_eigenframe(rows: list, u: list, uc: list) -> tuple:
    """R = V^dag rho V of a state's rows: its real diagonal and its upper triangle."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    (p0, q0, r0), (p1, q1, r1), (p2, q2, r2) = [
        (a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z) for x, y, z in u
    ]  # rho u_k
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = uc
    diagonal = (
        (x0 * p0 + y0 * q0 + z0 * r0).real,
        (x1 * p1 + y1 * q1 + z1 * r1).real,
        (x2 * p2 + y2 * q2 + z2 * r2).real,
    )
    upper = (x0 * p1 + y0 * q1 + z0 * r1, x0 * p2 + y0 * q2 + z0 * r2, x1 * p2 + y1 * q2 + z1 * r2)
    return diagonal, upper


def _trajectory(rows: list, g: Generator, thetas: list, with_scenes: bool) -> Trajectory:
    """The samples at each theta of a density's checked rows, a Trajectory of lists.

    In the eigenframe a sample is D = R with R_jk turned by the pair phase
    e^{-i phi}, phi = theta (lambda_j - lambda_k).  So entry (m, n) of
    V D V^dag is C + sum over the pairs of Re(D_jk) sigma + Im(D_jk) tau
    (_eigenframe's products), with C = sum_j R_jj x_j fixed along the
    trajectory.  Each pair phase is formed in real arithmetic from
    cos/sin of theta lambda_j, and the upper triangle is mirrored.  At
    theta = 0 a sample is the rows as they are.  NotPositiveError unless
    the rows are a state (their _verdict, ranked and kept for the scenes,
    as _state_rows raises it); ValueError when
    theta * max|lambda| is not a finite float.  Scenes are _scene of each sample's rows, which
    the core built and does not check again, with rho0's verdict: a
    sample is unitarily equivalent to rho0, so it has rho0's eigenvalues,
    positivity and rank, and its scene solves T alone.
    """
    verdict = _verdict(rows, with_scenes)
    if not verdict[0]:
        raise _not_positive(verdict[2] or _eigvals(rows))
    lam, u, uc, constant, phased = g.frame
    big = max(abs(lam[0]), abs(lam[-1]))
    (d0, d1, d2), (ra, rb, rc) = _in_eigenframe(rows, u, uc)
    C = [d0 * x0 + d1 * x1 + d2 * x2 for x0, x1, x2 in constant]
    ar, ai, br, bi, cr, ci = ra.real, ra.imag, rb.real, rb.imag, rc.real, rc.imag
    cos, sin = math.cos, math.sin
    states = []
    for theta in thetas:
        if theta == 0.0:
            states.append([row[:] for row in rows])
            continue
        # Python floats: an overflowing phase raises here instead of giving NaN samples
        if not math.isfinite(theta * big):
            raise ValueError(f"theta = {theta:g}: theta * max|eigenvalue of G| is not finite")
        t0, t1, t2 = theta * lam[0], theta * lam[1], theta * lam[2]
        c0, s0, c1, s1, c2, s2 = cos(t0), sin(t0), cos(t1), sin(t1), cos(t2), sin(t2)
        # cos and sin of the pair phases 01, 02, 12, then D = R e^{-i phi} for each
        ca, sa = c0 * c1 + s0 * s1, s0 * c1 - c0 * s1
        cb, sb = c0 * c2 + s0 * s2, s0 * c2 - c0 * s2
        cc, sc = c1 * c2 + s1 * s2, s1 * c2 - c1 * s2
        dar, dai = ar * ca + ai * sa, ai * ca - ar * sa
        dbr, dbi = br * cb + bi * sb, bi * cb - br * sb
        dcr, dci = cr * cc + ci * sc, ci * cc - cr * sc
        e00, e01, e02, e11, e12, e22 = [
            k + dar * pa + dai * qa + dbr * pb + dbi * qb + dcr * pc + dci * qc
            for k, (pa, qa, pb, qb, pc, qc) in zip(C, phased)
        ]
        states.append([
            [complex(e00), e01, e02],
            [e01.conjugate(), complex(e11), e12],
            [e02.conjugate(), e12.conjugate(), complex(e22)],
        ])
    scenes = [_scene(s, verdict) for s in states] if with_scenes else None
    return Trajectory(thetas=thetas, states=states, scenes=scenes)


def evolve(rho: np.ndarray, g: Generator, theta: float) -> np.ndarray:
    """rho' = U rho U^dag with U = exp(-i theta G): the one-sample _trajectory."""
    return _array(_trajectory(_as_rows(rho), g, [float(theta)], False).states[0])


def trajectory(
    rho0: np.ndarray,
    g: Generator,
    theta_max: float,
    n: int,
    with_scenes: bool = False,
) -> Trajectory:
    """Evolve rho0 over a uniform theta grid on [0, theta_max] (_trajectory).

    Every sample is computed directly from rho0 (one exact phase per grid
    point, no compounded stepping), reusing a single eigendecomposition of
    the generator, solved when it was built.
    """
    t = _trajectory(_as_rows(rho0), g, _grid(theta_max, n), with_scenes)
    scenes = None if t.scenes is None else [_scene_arrays(s) for s in t.scenes]
    return Trajectory(_array(t.thetas), [_array(s) for s in t.states], scenes)
