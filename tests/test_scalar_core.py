"""The scalar records give the bytes of the public array records.

The CLI parses a file straight to rows of Python complex and renders the
report, the scene and the payloads from the records as the scalar core
fills them with lists (state.Analysis from _record, geometry.EllipsoidScene
from _scene, the bridge's rows).  The public functions return the same
records with numpy arrays.  Here each list field is compared with the
array field it converts to, and the CLI's bytes with bytes rendered from
the array records by the numpy code the CLI used before it read the
scalar records, on a seeded set of states that covers
rank 1, 2 and 3, double roots of T, states within 10x of RANK_TOL and of
SING_TOL, and entries that are -0.0.  The numpy expressions that the
scalar parse and compose replace are checked repr for repr, signed zeros
included, eig_hermitian3 against the scalar eigensystem it converts, the
pure-state arrays against the lists of _pure, _projector and _mub, and
the samplers against the lists of _random_rows and _haar.
"""

import json

import numpy as np
import pytest

from qutrit3d import cli, geometry, linalg, purestates, spin1, state
from qutrit3d.errors import MetricUndefinedError
from qutrit3d.tolerances import RANK_TOL, SING_TOL


def _rotation(rng):
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    return Q * np.sign(np.diag(R))


def _states():
    """(label, complex 3x3 matrix) of the seeded set; some are not positive."""
    rng = np.random.default_rng(1102)
    out = [(f"rank{r}", state.random_density(r, rng)) for r in (1, 2, 3) for _ in range(25)]
    # double roots of T = 1 - 2 Re(rho): a degenerate Re(rho), plain and in a random frame
    out += [("maximally_mixed", np.eye(3, dtype=complex) / 3.0)]
    for a in ([0.0, 0.0, 0.5], [0.2, -0.3, 0.1], [0.0, 2.0 / 3.0, 0.0]):
        out.append(("pseudo", state.compose(state.params_from_bloch_tensor(a, np.eye(3) / 3.0))))
    for _ in range(6):
        R = _rotation(rng)
        out.append(("double_root", (R @ np.diag([0.5, 0.25, 0.25]) @ R.T).astype(complex)))
    # the smallest eigenvalue of rho within 10x of -RANK_TOL, on both sides
    for k in (-10.0, -2.0, -1.0, -0.5, -0.1, 0.1, 1.0, 10.0):
        R = _rotation(rng)
        d = k * RANK_TOL
        out.append(("rank_tol", (R @ np.diag([0.6, 0.4 - d, d]) @ R.T).astype(complex)))
    # det(1 - T) = 8 det(Re rho) within 10x of SING_TOL, with a Bloch vector
    for k in (0.1, 0.5, 1.0, 2.0, 10.0):
        R = _rotation(rng)
        re = R @ np.diag([0.5, 0.5 - k * SING_TOL / 2.0, k * SING_TOL / 2.0]) @ R.T
        rho = re + 1j * 1e-6 * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        out.append(("sing_tol", rho))
    # entries that are -0.0 (the mirror of a -0.0 imaginary part is +0.0)
    for rho in (np.diag([0.5, 0.3, 0.2]), np.diag([1.0, 0.0, 0.0]), np.eye(3) / 3.0):
        rho = rho.astype(complex)
        rho[0, 1] = rho[1, 0] = complex(-0.0, 0.0)
        rho[1, 2], rho[2, 1] = complex(0.0, -0.0), complex(-0.0, 0.0)
        out.append(("signed_zero", rho))
    return out


STATES = _states()


def _file_rows(rho):
    """rho as the CLI parses its file: rows of Python complex, and the numpy parse it replaces."""
    obj = json.loads(json.dumps({"re": rho.real.tolist(), "im": rho.imag.tolist()}))
    rows = cli._matrix_from_obj(obj, "m.json", 3)
    old = np.array(obj["re"]) + 1j * np.array(obj["im"])
    assert repr(rows) == repr(old.tolist())
    return rows, old


def _fmt(x):
    s = format(float(x), ".12g")
    return "0" if s == "-0" else s


def _vec(v):
    return " ".join(_fmt(x) for x in v.tolist())


def _array_report(rho):
    """The report of the public array records (analyse, gamma_norm, metric_tensor): (text, dict)."""
    an = state.analyse(rho)
    p = an.params
    try:
        gamma = state.gamma_norm(p.a, p.T)
    except MetricUndefinedError:
        gamma = None
    m = state.metric_tensor(p.T)
    scene = None if an.rank is None else geometry.RANK_CASE_TO_SCENE[an.rank.case]
    bad = cli.first_violation(an.validity)
    lines = [
        f"a: {_vec(p.a)}",
        f"q: {_vec(p.q)}",
        f"omega: {_vec(p.omega)}",
        f"tensor eigenvalues: {_vec(an.tensor_eigenvalues)}",
        f"semi-axes: {_vec(an.semi_axes)}",
        f"gamma-norm: {'degenerate' if gamma is None else _fmt(gamma)}",
        "validity: ok" if bad is None else f"validity: violated: {bad}",
        f"rank: {'n/a' if an.rank is None else an.rank.rank}",
        f"case: {'n/a' if an.rank is None else an.rank.case}",
        f"scene: {'n/a' if scene is None else scene}",
    ]
    report = {
        "params": {"a": p.a.tolist(), "q": p.q.tolist(), "omega": p.omega.tolist(),
                   "tensor": p.T.tolist()},
        "validity": {"c1_ok": an.validity.c1_ok, "c2_ok": an.validity.c2_ok,
                     "c3_ok": an.validity.c3_ok, "overall": an.validity.overall},
        "tensor_eigenvalues": an.tensor_eigenvalues.tolist(),
        "semi_axes": an.semi_axes.tolist(),
        "gamma_norm": None if gamma is None else float(gamma),
        "metric": "degenerate" if not m.defined else m.gamma.tolist(),
        "rank": None if an.rank is None else {
            "rank": an.rank.rank, "case": an.rank.case, "eigenvalues": an.rank.eigenvalues.tolist()
        },
        "scene_case": scene,
    }
    return "\n".join(lines) + "\n", report


def _array_scene_dict(s):
    """The scene payload of a scene of arrays, by the numpy code of the old scene_to_dict."""
    return {
        "version": 1,
        "case": s.case,
        "semi_axes": np.asarray(s.semi_axes, dtype=float).tolist(),
        "frame": np.asarray(s.frame, dtype=float).tolist(),
        "bloch": np.asarray(s.bloch, dtype=float).tolist(),
        "rays": [{"dir": np.asarray(r.dir, dtype=float).tolist(), "style": r.style,
                  "label": r.label} for r in s.rays],
    }


def _array_payload(M):
    return {"re": M.real.tolist(), "im": M.imag.tolist()}


def _dumps(obj):
    return json.dumps(obj, indent=2)


def _assert_fields_convert(scalar, array, names):
    """Each named list field of the scalar record is repr-equal to the array field's tolist()."""
    for name in names:
        got, want = getattr(scalar, name), getattr(array, name)
        assert isinstance(got, list), name
        assert repr(got) == repr(want.tolist()), name


@pytest.mark.parametrize("i", range(len(STATES)), ids=[label for label, _ in STATES])
def test_scalar_records_give_the_bytes_of_the_array_records(i):
    _, rho = STATES[i]
    rows, old = _file_rows(rho)
    report = cli._report(rows)
    an, arrays = report[0], state.analyse(old)
    assert isinstance(an, state.Analysis)
    _assert_fields_convert(an.params, arrays.params, ("a", "q", "omega", "T"))
    _assert_fields_convert(an, arrays, ("eigenvalues", "tensor_eigenvalues", "frame", "semi_axes"))
    assert an.validity == arrays.validity
    assert (an.rank is None) == (arrays.rank is None)
    if an.rank is not None:
        assert (an.rank.rank, an.rank.case) == (arrays.rank.rank, arrays.rank.case)
        _assert_fields_convert(an.rank, arrays.rank, ("eigenvalues",))
        assert arrays.rank.eigenvalues is arrays.eigenvalues
    text, report_dict = _array_report(old)
    assert cli.report_text(report) == text
    assert _dumps(cli.report_dict(report)) == _dumps(report_dict)
    # the array path through the same functions, as the benchmark calls them
    assert cli.report_text(cli.build_report(old)) == text
    assert _dumps(cli.density_payload(rows)) == _dumps(_array_payload(old))
    if report[0].rank is None:
        return
    scene, array_scene = geometry._scene(rows), geometry.build_scene(old)
    assert isinstance(scene, geometry.EllipsoidScene) and scene.case == array_scene.case
    _assert_fields_convert(scene, array_scene, ("semi_axes", "frame", "bloch"))
    assert [(r.style, r.label) for r in scene.rays] == [
        (r.style, r.label) for r in array_scene.rays
    ]
    for ray, array_ray in zip(scene.rays, array_scene.rays):
        _assert_fields_convert(ray, array_ray, ("dir",))
    obj = geometry.export_scene_obj(array_scene, lat=5, lon=9)
    assert geometry.export_scene_obj(scene, lat=5, lon=9) == obj
    want = _dumps(_array_scene_dict(array_scene))
    assert _dumps(geometry.scene_to_dict(scene)) == want
    assert _dumps(geometry.scene_to_dict(array_scene)) == want
    rho4 = spin1._to_two_qubit(rows)
    assert _dumps(cli.density_payload(rho4)) == _dumps(_array_payload(spin1.to_two_qubit(old)))
    back = spin1._from_two_qubit(rho4)
    assert _dumps(cli.density_payload(back)) == _dumps(
        _array_payload(spin1.from_two_qubit(spin1.to_two_qubit(old)))
    )


def test_pseudo_compose_is_the_numpy_expression():
    """The pseudo command's state and payload, repr for repr, signed zeros included."""
    rng = np.random.default_rng(1103)
    special = [0.0, -0.0, 0.5, -0.5, 2.0 / 3.0, 1e-300, -5e-324, 1.0]
    vectors = [[x, y, z] for x in special[:4] for y in special for z in special[:3]]
    vectors += rng.uniform(-1.0, 1.0, (200, 3)).tolist()
    T = np.eye(3) / 3.0
    assert repr(state.PSEUDO_TENSOR) == repr(tuple(map(tuple, T.tolist())))
    in_ball = 0
    for a in vectors:
        ax, ay, az = a
        E = np.array([[0.0, az, -ay], [-az, 0.0, ax], [ay, -ax, 0.0]])
        want = ((np.eye(3) - T) - 1j * E) / 2.0
        rows = state._compose(state._bundle(list(a), state.PSEUDO_TENSOR))
        assert repr(rows) == repr(want.tolist()), a
        composed = state.compose(state.params_from_bloch_tensor(a, T))
        assert repr(composed.tolist()) == repr(rows)
        assert _dumps(cli.density_payload(rows)) == _dumps(_array_payload(want))
        if ax * ax + ay * ay + az * az <= 4.0 / 9.0:
            in_ball += 1
            rho = purestates.pseudo_qubit(a)
            assert rho.dtype == composed.dtype and repr(rho.tolist()) == repr(rows), a
    assert in_ball > 50


def test_eig_hermitian3_converts_the_scalar_eigensystem():
    rng = np.random.default_rng(1104)
    matrices = []
    for _ in range(100):
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        matrices += [(X + X.conj().T) / 2.0, (X.real + X.real.T) / 2.0]
    matrices += [np.eye(3), np.diag([1.0, 1.0, -1.0]), np.zeros((3, 3))]
    matrices += [(R @ np.diag([0.5, 0.25, 0.25]) @ R.T) for R in (_rotation(rng) for _ in range(5))]
    for M in matrices:
        es = linalg.eig_hermitian3(M)
        values, V = linalg._eigensystem3(M.tolist())
        assert repr(es.values.tolist()) == repr(values)
        assert repr(es.vectors.tolist()) == repr(V)
        assert es.vectors.dtype == (float if np.isrealobj(M) else complex)


def test_pure_state_arrays_convert_the_scalar_core():
    """rik_decompose, density_from_pure and mub_bases are _pure, _projector and _mub as arrays."""
    rng = np.random.default_rng(1106)
    amps = [purestates.haar_pure(rng) for _ in range(50)]
    # a leading component under the gauge threshold, signed zeros and a norm off by ulps
    amps += [np.array([1e-15, 1j, 0.0]), np.array([complex(-0.0, 0.6), 0.8, complex(0.0, -0.0)]),
             np.array([0.6 + 1e-13, 0.8j, 0.0])]
    cases = [(purestates._pure(a.tolist()), purestates.rik_decompose(a)) for a in amps]
    for core, array_basis in zip(purestates._mub(), purestates.mub_bases().bases):
        cases += list(zip(core, array_basis))
    for core, arrays in cases:
        _assert_fields_convert(core, arrays, ("amp", "r", "k"))
        assert (arrays.amp.dtype, arrays.r.dtype, arrays.k.dtype) == (complex, float, float)
        rows = purestates._projector(core.amp)
        for p in (core, arrays):
            rho = purestates.density_from_pure(p)
            assert rho.dtype == complex and repr(rho.tolist()) == repr(rows)


def test_samplers_convert_the_scalar_core():
    """random_density and haar_pure are _random_rows and _haar as arrays, on the same draws."""
    for seed in range(30):
        rank = seed % 3 + 1
        rho = state.random_density(rank, seed)
        assert rho.dtype == complex and rho.shape == (3, 3)
        assert repr(rho.tolist()) == repr(state._random_rows(rank, seed))
        psi = purestates.haar_pure(seed)
        assert psi.dtype == complex and psi.shape == (3,)
        assert repr(psi.tolist()) == repr(state._haar(np.random.default_rng(seed)))
    # a Generator is drawn from as it is, by both forms
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    assert repr(state.random_density(2, a).tolist()) == repr(state._random_rows(2, b))
    assert repr(purestates.haar_pure(a).tolist()) == repr(state._haar(b))


def test_four_by_four_parse_is_the_numpy_expression():
    rng = np.random.default_rng(1105)
    for _ in range(50):
        re = rng.choice([0.0, -0.0, 0.25, -1.5, 1e-300], size=(4, 4))
        im = rng.choice([0.0, -0.0, 0.25, -1.5, 1e-300], size=(4, 4))
        obj = {"re": re.tolist(), "im": im.tolist()}
        assert repr(cli._matrix_from_obj(obj, "m.json", 4)) == repr((re + 1j * im).tolist())
