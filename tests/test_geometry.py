"""Ellipsoid scene tests.

Scene geometry is checked against the diagonal-tensor form of known
states, exports against parse-back of the emitted text.  The straight-pass
OBJ writer is checked against the writer it replaced, kept below verbatim
(_old_export_scene_obj): the same string, or the same exception type and
message, for seeded scenes of every case in both forms and hand-built ones.
"""

import json
import math

import numpy as np
import pytest

from qutrit3d.errors import DegenerateMeshError, InvalidStateError
from qutrit3d.geometry import (
    CASE_POINT,
    CASE_SEGMENT,
    CASE_THREE_D,
    DASHED,
    SOLID,
    EllipsoidScene,
    Ray,
    _floats,
    _scene,
    build_scene,
    export_scene_json,
    export_scene_obj,
)
from qutrit3d.dynamics import evolve, rotation
from qutrit3d.linalg import _dot3, eig_sym3, vector_norm
from qutrit3d.state import _as_rows, decompose, gamma_norm, random_density
from qutrit3d.tolerances import LINE_EPS


def obj_vertices(text):
    out = []
    for line in text.splitlines():
        if line.startswith("v "):
            out.append([float(tok) for tok in line.split()[1:]])
    return np.array(out)


def test_scene_maximally_mixed():
    s = build_scene(np.eye(3) / 3.0)
    assert s.case == CASE_THREE_D
    assert np.allclose(s.semi_axes, 2.0 / 3.0, atol=1e-15)
    assert np.allclose(s.bloch, 0.0, atol=1e-15)
    assert s.rays == []
    assert np.max(np.abs(s.frame.T @ s.frame - np.eye(3))) < 1e-12


def test_scene_point_for_real_pure_state():
    psi = np.ones(3) / np.sqrt(3.0)
    s = build_scene(np.outer(psi, psi))
    assert s.case == CASE_POINT
    # square-root arithmetic near lambda = 1 keeps half the digits
    assert np.allclose(s.semi_axes, 0.0, atol=1e-7)
    assert [r.style for r in s.rays] == [SOLID, SOLID, DASHED]
    assert [r.label for r in s.rays] == ["u", "v", "w"]
    # the dashed ray points along the state vector
    assert np.max(np.abs(s.rays[2].dir - psi)) < 1e-10
    dirs = np.array([r.dir for r in s.rays])
    assert np.max(np.abs(dirs @ dirs.T - np.eye(3))) < 1e-10


def test_scene_segment_for_complex_pure_state():
    t = np.pi / 6
    psi = np.array([np.cos(t), 1j * np.sin(t), 0.0])
    s = build_scene(np.outer(psi, psi.conj()))
    assert s.case == CASE_SEGMENT
    assert abs(s.semi_axes[0] - np.sqrt(3.0) / 2.0) < 1e-12
    assert np.allclose(s.semi_axes[1:], 0.0, atol=1e-10)
    assert np.allclose(s.bloch, [0.0, 0.0, np.sqrt(3.0) / 2.0], atol=1e-12)
    assert np.allclose(np.abs(s.frame[:, 0]), [0.0, 0.0, 1.0], atol=1e-10)
    assert [r.style for r in s.rays] == [SOLID, DASHED]
    assert [r.label for r in s.rays] == ["v", "w"]


def test_scene_segment_interior():
    s = build_scene(np.diag([0.5, 0.5, 0.0]).astype(complex))
    assert s.case == CASE_SEGMENT
    assert abs(s.semi_axes[0] - 1.0) < 1e-12
    assert np.allclose(s.bloch, 0.0, atol=1e-15)


def test_scene_rejects_invalid():
    with pytest.raises(InvalidStateError):
        build_scene(np.diag([1.2, 0.1, -0.3]).astype(complex))


def test_scene_invariants_random():
    rng = np.random.default_rng(401)
    ray_counts = {CASE_THREE_D: 0, CASE_SEGMENT: 2, CASE_POINT: 3}
    for _ in range(500):
        rho = random_density(rank=int(rng.integers(1, 4)), rng=rng)
        s = build_scene(rho)
        lam, _ = eig_sym3(decompose(rho).T)
        cap = np.sqrt(max(1.0 - lam[2] ** 2, 0.0))
        assert s.semi_axes[0] >= s.semi_axes[1] >= s.semi_axes[2] >= 0.0
        assert np.all(s.semi_axes <= cap + 1e-9)
        proj = s.frame.T @ s.bloch
        assert np.all(s.semi_axes >= np.abs(proj) - 1e-9)
        assert np.max(np.abs(s.frame.T @ s.frame - np.eye(3))) < 1e-10
        assert len(s.rays) == ray_counts[s.case]
        for r in s.rays:
            assert abs(np.linalg.norm(r.dir) - 1.0) < 1e-10


def test_scene_rank2_bloch_on_surface():
    rng = np.random.default_rng(409)
    for _ in range(100):
        rho = random_density(rank=2, rng=rng)
        p = decompose(rho)
        s = build_scene(rho)
        if s.case != CASE_THREE_D:
            continue
        assert abs(gamma_norm(p.a, p.T) - 1.0) < 1e-9
        proj = s.frame.T @ s.bloch
        residual = float(np.sum((proj / s.semi_axes) ** 2)) - 1.0
        assert abs(residual) < 1e-9


def test_scene_rotation_invariance_of_axes():
    rng = np.random.default_rng(419)
    for _ in range(50):
        rho = random_density(rank=3, rng=rng)
        base = np.sort(build_scene(rho).semi_axes)
        for axis in "xyz":
            rotated = evolve(rho, rotation(axis), float(rng.uniform(0, 2 * np.pi)))
            got = np.sort(build_scene(rotated).semi_axes)
            assert np.max(np.abs(got - base)) < 1e-9


def test_json_round_trip_all_cases():
    t = np.pi / 6
    seg = np.outer(
        np.array([np.cos(t), 1j * np.sin(t), 0.0]),
        np.array([np.cos(t), 1j * np.sin(t), 0.0]).conj(),
    )
    psi = np.ones(3) / np.sqrt(3.0)
    for rho in (np.eye(3) / 3.0, seg, np.outer(psi, psi)):
        s = build_scene(rho)
        back = json.loads(export_scene_json(s))
        assert back["case"] == s.case
        assert np.array_equal(back["semi_axes"], s.semi_axes)
        assert np.array_equal(back["frame"], s.frame)
        assert np.array_equal(back["bloch"], s.bloch)
        assert len(back["rays"]) == len(s.rays)
        for r1, r2 in zip(s.rays, back["rays"]):
            assert np.array_equal(r2["dir"], r1.dir)
            assert (r2["style"], r2["label"]) == (r1.style, r1.label)


def test_json_schema_shape():
    payload = json.loads(export_scene_json(build_scene(np.eye(3) / 3.0)))
    assert list(payload.keys()) == ["version", "case", "semi_axes", "frame", "bloch", "rays"]
    assert payload["version"] == 1
    assert payload["case"] == "three_d"
    assert payload["rays"] == []

    psi = np.ones(3) / np.sqrt(3.0)
    payload = json.loads(export_scene_json(build_scene(np.outer(psi, psi))))
    assert [r["style"] for r in payload["rays"]] == ["solid", "solid", "dashed"]
    assert [list(r.keys()) for r in payload["rays"]] == [["dir", "style", "label"]] * 3


def test_obj_unit_sphere_counts():
    s = EllipsoidScene(
        case=CASE_THREE_D,
        semi_axes=np.ones(3),
        frame=np.eye(3),
        bloch=np.zeros(3),
        rays=[],
    )
    text = export_scene_obj(s, lat=4, lon=8)
    verts = obj_vertices(text)
    assert len(verts) == 4 * 8 + 2
    assert np.max(np.abs(np.linalg.norm(verts, axis=1) - 1.0)) < 1e-12
    faces = [line for line in text.splitlines() if line.startswith("f ")]
    assert len(faces) == 2 * 8 + 3 * 8


def test_obj_sphere_radius_parse_back():
    text = export_scene_obj(build_scene(np.eye(3) / 3.0), lat=6, lon=12)
    verts = obj_vertices(text)
    assert len(verts) == 6 * 12 + 2
    assert np.max(np.abs(np.linalg.norm(verts, axis=1) - 2.0 / 3.0)) < 1e-12


def test_obj_ellipsoid_extents():
    s = EllipsoidScene(
        case=CASE_THREE_D,
        semi_axes=np.array([1.0, 0.5, 0.5]),
        frame=np.eye(3),
        bloch=np.zeros(3),
        rays=[],
    )
    verts = obj_vertices(export_scene_obj(s, lat=5, lon=8))
    norms = np.linalg.norm(verts, axis=1)
    assert abs(norms.max() - 1.0) < 1e-12
    assert abs(norms.min() - 0.5) < 1e-12


def test_obj_segment_scene():
    t = np.pi / 6
    psi = np.array([np.cos(t), 1j * np.sin(t), 0.0])
    s = build_scene(np.outer(psi, psi.conj()))
    text = export_scene_obj(s, lat=4, lon=8)
    assert "# segment" in text
    assert text.count("# ray") == 2
    assert "# bloch" in text
    lrecords = [line for line in text.splitlines() if line.startswith("l ")]
    assert len(lrecords) == 4
    # origin + 2 segment ends + 2 ray tips + bloch tip
    assert len(obj_vertices(text)) == 6
    assert "# case: segment" in text


def test_obj_surface_only_degenerate_raises():
    psi = np.ones(3) / np.sqrt(3.0)
    s = build_scene(np.outer(psi, psi))
    with pytest.raises(DegenerateMeshError):
        export_scene_obj(s, lat=4, lon=8, surface_only=True)
    # sanity: the permissive path still works
    assert "# ray" in export_scene_obj(s, lat=4, lon=8)


def test_obj_rejects_coarse_mesh():
    s = build_scene(np.eye(3) / 3.0)
    with pytest.raises(ValueError):
        export_scene_obj(s, lat=3, lon=8)
    with pytest.raises(ValueError):
        export_scene_obj(s, lat=4, lon=7)


def _fnum(x: float) -> str:
    return repr(float(x))


def _old_export_scene_obj(
    s: EllipsoidScene, lat: int, lon: int, surface_only: bool = False
) -> str:
    """The OBJ writer with numbering closures and one cos/sin pair per vertex, verbatim."""
    if not (4 <= lat <= 1024 and 8 <= lon <= 2048):
        raise ValueError(f"mesh needs 4 <= lat <= 1024, 8 <= lon <= 2048, got lat={lat}, lon={lon}")
    if surface_only and s.case != CASE_THREE_D:
        raise DegenerateMeshError(f"no surface mesh for a {s.case} scene")

    lines: list[str] = [
        "# ellipsoid scene",
        f"# case: {s.case}",
        "# coordinates: right-handed, y-up; vertices are lab-frame (x, y, z)",
        f"# semi-axes: {_fnum(s.semi_axes[0])} {_fnum(s.semi_axes[1])} {_fnum(s.semi_axes[2])}",
    ]
    vcount = 0

    def add_vertex(point: list) -> int:
        nonlocal vcount
        lines.append(f"v {_fnum(point[0])} {_fnum(point[1])} {_fnum(point[2])}")
        vcount += 1
        return vcount

    frame = _floats(s.frame, (3, 3))
    if s.case == CASE_THREE_D:
        radii = _floats(s.semi_axes)

        def add_surface_vertex(unit: tuple) -> int:
            scaled = [r * x for r, x in zip(radii, unit)]
            return add_vertex([_dot3(row, scaled) for row in frame])

        top = add_surface_vertex((0.0, 0.0, 1.0))
        ring_start = vcount + 1
        for i in range(1, lat + 1):
            alpha = math.pi * i / (lat + 1)
            sin_a, cos_a = math.sin(alpha), math.cos(alpha)
            for j in range(lon):
                beta = 2.0 * math.pi * j / lon
                add_surface_vertex((sin_a * math.cos(beta), sin_a * math.sin(beta), cos_a))
        bottom = add_surface_vertex((0.0, 0.0, -1.0))

        def ring(i: int, j: int) -> int:
            return ring_start + i * lon + (j % lon)

        for j in range(lon):
            lines.append(f"f {top} {ring(0, j)} {ring(0, j + 1)}")
        for i in range(lat - 1):
            for j in range(lon):
                lines.append(
                    f"f {ring(i, j)} {ring(i + 1, j)} {ring(i + 1, j + 1)} {ring(i, j + 1)}"
                )
        for j in range(lon):
            lines.append(f"f {bottom} {ring(lat - 1, j + 1)} {ring(lat - 1, j)}")

    if surface_only:
        return "\n".join(lines) + "\n"

    bloch = _floats(s.bloch)
    has_bloch = vector_norm(bloch) > LINE_EPS
    origin_index = 0
    if s.rays or has_bloch:
        origin_index = add_vertex([0.0, 0.0, 0.0])

    if s.case == CASE_SEGMENT:
        half = float(s.semi_axes[0])
        lines.append("# segment")
        a_idx = add_vertex([-half * row[0] for row in frame])
        b_idx = add_vertex([half * row[0] for row in frame])
        lines.append(f"l {a_idx} {b_idx}")

    for r in s.rays:
        lines.append(f"# ray {r.label} {r.style}")
        tip = add_vertex(_floats(r.dir))
        lines.append(f"l {origin_index} {tip}")

    if has_bloch:
        lines.append("# bloch")
        tip = add_vertex(bloch)
        lines.append(f"l {origin_index} {tip}")

    return "\n".join(lines) + "\n"


def _obj_states():
    """Seeded states of every scene case: rank 2 and 3 (three_d), complex pure states
    and real rank-2 states (segment), real pure states up to a phase (point)."""
    rng = np.random.default_rng(3401)
    out = [random_density(r, rng) for r in (2, 3) for _ in range(5)]
    for _ in range(5):
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        out.append(np.outer(psi, psi.conj()))
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        p = rng.uniform(0.1, 0.9)
        out.append((Q @ np.diag([p, 1.0 - p, 0.0]) @ Q.T).astype(complex))
        q = rng.standard_normal(3)
        q = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * q / np.linalg.norm(q)
        out.append(np.outer(q, q.conj()))
    return out


def _hand_built_scenes():
    """Array scenes as the tests above build them, and a list scene of ints and signed zeros."""
    Q, _ = np.linalg.qr(np.random.default_rng(3402).standard_normal((3, 3)))
    return [
        EllipsoidScene(CASE_THREE_D, np.ones(3), np.eye(3), np.zeros(3), []),
        EllipsoidScene(CASE_THREE_D, np.array([1.0, 0.5, 0.5]), np.eye(3), np.zeros(3), []),
        EllipsoidScene(CASE_THREE_D, np.array([0.9, 0.4, 0.0]), Q, np.array([0.1, -0.2, 0.0]),
                       [Ray(Q[:, 2], DASHED, "w")]),
        EllipsoidScene(CASE_SEGMENT, np.array([0.8, 0.0, 0.0]), Q, 0.8 * Q[:, 0],
                       [Ray(Q[:, 1], SOLID, "v"), Ray(Q[:, 2], DASHED, "w")]),
        EllipsoidScene(CASE_THREE_D, [1, 0, -0.0], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                       [0, 0, 1], [Ray([0, 1, 0], SOLID, "v")]),
        EllipsoidScene(CASE_SEGMENT, [1, 0, 0], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0], []),
        EllipsoidScene(CASE_POINT, [0, 0, 0], [[0, 1, 0], [1, 0, 0], [0, 0, -1]], [0, 0, 0],
                       [Ray([0, 1, 0], SOLID, "u"), Ray([1, 0, 0], SOLID, "v"),
                        Ray([0, 0, -1], DASHED, "w")]),
    ]


def _outcome(writer, *args, **kwargs):
    try:
        return writer(*args, **kwargs)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


def test_obj_writer_matches_the_frozen_writer():
    scenes = _hand_built_scenes()
    for rho in _obj_states():
        scenes += [_scene(_as_rows(rho)), build_scene(rho)]
    assert {s.case for s in scenes} == {CASE_THREE_D, CASE_SEGMENT, CASE_POINT}
    meshes = [(4, 8), (12, 24), (5, 9), (3, 8), (4, 7), (1025, 8), (4, 2049)]
    drawn, raised = set(), set()
    for s in scenes:
        for lat, lon in meshes:
            for surface_only in (False, True):
                want = _outcome(_old_export_scene_obj, s, lat, lon, surface_only)
                got = _outcome(export_scene_obj, s, lat, lon, surface_only=surface_only)
                assert got == want, (s.case, lat, lon, surface_only)
                if isinstance(want, str):
                    drawn.add((s.case, surface_only))
                else:
                    raised.add(want[0])
    assert drawn == {(CASE_THREE_D, True), (CASE_THREE_D, False), (CASE_SEGMENT, False),
                     (CASE_POINT, False)}
    assert raised == {ValueError, DegenerateMeshError}
