"""Ellipsoid scenes: construction from a state and JSON / OBJ export.

A state's correlation tensor defines an ellipsoid with semi-axes
eps_j = sqrt((1 - lambda_k)(1 - lambda_l)) along its eigenvectors and the
Bloch vector lives inside it.  When eigenvalues reach 1 the ellipsoid
degenerates: exactly one live axis leaves a line segment, none leaves a
single point; both degenerate cases are annotated with principal-axis
rays (solid for positive-curvature directions, dashed for the -1
eigenvector, which for real pure states points along the state vector).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMeshError, InternalCheckError, InvalidStateError
from .linalg import _dot3, vector_norm
from .state import (
    FULL_3D,
    POINT,
    SEGMENT_ENDPOINT,
    SEGMENT_INTERIOR,
    SURFACE_3D,
    analyse,
)
from .tolerances import LINE_EPS, SEGMENT_SLACK

CASE_THREE_D = "three_d"
CASE_SEGMENT = "segment"
CASE_POINT = "point"

SOLID = "solid"
DASHED = "dashed"

RANK_CASE_TO_SCENE = {
    FULL_3D: CASE_THREE_D,
    SURFACE_3D: CASE_THREE_D,
    SEGMENT_INTERIOR: CASE_SEGMENT,
    SEGMENT_ENDPOINT: CASE_SEGMENT,
    POINT: CASE_POINT,
}


@dataclass
class Ray:
    dir: np.ndarray
    style: str
    label: str


@dataclass
class EllipsoidScene:
    """Semi-axes (descending), eigenvector frame (columns), Bloch vector."""

    case: str
    semi_axes: np.ndarray
    frame: np.ndarray
    bloch: np.ndarray
    rays: list[Ray] = field(default_factory=list)


def build_scene(rho: np.ndarray) -> EllipsoidScene:
    """Scene of a valid state: ellipsoid frame, Bloch vector, rays.

    The case is the rank taxonomy's (see RANK_CASE_TO_SCENE): three_d
    when all three semi-axes are alive, segment for exactly one, point
    for none.
    """
    an = analyse(rho)
    if an.rank is None:
        raise InvalidStateError("state is not positive semidefinite")
    case = RANK_CASE_TO_SCENE[an.rank.case]
    frame = an.frame
    a = an.params.a
    rays: list[Ray] = []
    if case == CASE_SEGMENT:
        b, u = a.tolist(), frame[:, 0].tolist()
        bu = _dot3(b, u)
        if vector_norm([x - bu * y for x, y in zip(b, u)]) >= SEGMENT_SLACK:
            raise InternalCheckError("segment Bloch vector is not parallel to the u-axis")
        rays = [
            Ray(dir=frame[:, 1].copy(), style=SOLID, label="v"),
            Ray(dir=frame[:, 2].copy(), style=DASHED, label="w"),
        ]
    elif case == CASE_POINT:
        if vector_norm(a.tolist()) >= SEGMENT_SLACK:
            raise InternalCheckError("point case requires a vanishing Bloch vector")
        rays = [
            Ray(dir=frame[:, 0].copy(), style=SOLID, label="u"),
            Ray(dir=frame[:, 1].copy(), style=SOLID, label="v"),
            Ray(dir=frame[:, 2].copy(), style=DASHED, label="w"),
        ]
    return EllipsoidScene(case=case, semi_axes=an.semi_axes, frame=frame, bloch=a, rays=rays)


def scene_to_dict(s: EllipsoidScene) -> dict:
    """Plain-Python payload in the stable schema (version 1)."""
    return {
        "version": 1,
        "case": s.case,
        "semi_axes": np.asarray(s.semi_axes, dtype=float).tolist(),
        "frame": np.asarray(s.frame, dtype=float).tolist(),
        "bloch": np.asarray(s.bloch, dtype=float).tolist(),
        "rays": [
            {
                "dir": np.asarray(r.dir, dtype=float).tolist(),
                "style": r.style,
                "label": r.label,
            }
            for r in s.rays
        ],
    }


def export_scene_json(s: EllipsoidScene) -> str:
    """Deterministic JSON; floats as shortest round-trip decimals."""
    return json.dumps(scene_to_dict(s), indent=2)


def _fnum(x: float) -> str:
    return repr(float(x))


def export_scene_obj(
    s: EllipsoidScene, lat: int, lon: int, surface_only: bool = False
) -> str:
    """Wavefront OBJ text for a scene.

    The three_d case meshes a UV sphere (lat rings of lon points plus two
    poles, lat*lon + 2 vertices) scaled by the semi-axes and rotated into
    the lab frame; degenerate cases emit the segment and annotation rays
    as line records.  A nonzero Bloch vector is always emitted as a line
    record tagged by comment.  With surface_only=True only the mesh is
    emitted, which a degenerate scene cannot provide.
    """
    if lat < 4 or lon < 8:
        raise ValueError(f"mesh needs lat >= 4 and lon >= 8, got lat={lat}, lon={lon}")
    if surface_only and s.case != CASE_THREE_D:
        raise DegenerateMeshError(f"no surface mesh for a {s.case} scene")

    lines: list[str] = [
        "# ellipsoid scene",
        f"# case: {s.case}",
        "# coordinates: right-handed, y-up; vertices are lab-frame (x, y, z)",
        f"# semi-axes: {_fnum(s.semi_axes[0])} {_fnum(s.semi_axes[1])} {_fnum(s.semi_axes[2])}",
    ]
    vcount = 0

    def add_vertex(point: np.ndarray) -> int:
        nonlocal vcount
        lines.append(f"v {_fnum(point[0])} {_fnum(point[1])} {_fnum(point[2])}")
        vcount += 1
        return vcount

    if s.case == CASE_THREE_D:
        radii = np.asarray(s.semi_axes, dtype=float)
        frame = np.asarray(s.frame, dtype=float)
        top = add_vertex(frame @ (radii * np.array([0.0, 0.0, 1.0])))
        ring_start = vcount + 1
        for i in range(1, lat + 1):
            alpha = np.pi * i / (lat + 1)
            for j in range(lon):
                beta = 2.0 * np.pi * j / lon
                unit = np.array(
                    [np.sin(alpha) * np.cos(beta), np.sin(alpha) * np.sin(beta), np.cos(alpha)]
                )
                add_vertex(frame @ (radii * unit))
        bottom = add_vertex(frame @ (radii * np.array([0.0, 0.0, -1.0])))

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

    bloch = np.asarray(s.bloch, dtype=float)
    has_bloch = float(np.linalg.norm(bloch)) > LINE_EPS
    origin_index = 0
    if s.rays or has_bloch:
        origin_index = add_vertex(np.zeros(3))

    if s.case == CASE_SEGMENT:
        u = np.asarray(s.frame, dtype=float)[:, 0]
        half = float(s.semi_axes[0])
        lines.append("# segment")
        a_idx = add_vertex(-half * u)
        b_idx = add_vertex(half * u)
        lines.append(f"l {a_idx} {b_idx}")

    for r in s.rays:
        lines.append(f"# ray {r.label} {r.style}")
        tip = add_vertex(np.asarray(r.dir, dtype=float))
        lines.append(f"l {origin_index} {tip}")

    if has_bloch:
        lines.append("# bloch")
        tip = add_vertex(bloch)
        lines.append(f"l {origin_index} {tip}")

    return "\n".join(lines) + "\n"
