"""Ellipsoid scene tests.

Scene geometry is checked against the diagonal-tensor form of known
states, exports against parse-back of the emitted text.
"""

import json

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
    build_scene,
    export_scene_json,
    export_scene_obj,
)
from qutrit3d.dynamics import evolve, rotation
from qutrit3d.linalg import eig_sym3
from qutrit3d.state import decompose, gamma_norm, random_density


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
