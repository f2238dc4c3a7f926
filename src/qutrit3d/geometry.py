"""Ellipsoid scenes: construction from a state and JSON / OBJ export.

A state's correlation tensor defines an ellipsoid with semi-axes
eps_j = sqrt((1 - lambda_k)(1 - lambda_l)) along its eigenvectors and the
Bloch vector lives inside it.  When eigenvalues reach 1 the ellipsoid
degenerates: exactly one live axis leaves a line segment, none leaves a
single point; both degenerate cases are annotated with principal-axis
rays (solid for positive-curvature directions, dashed for the -1
eigenvector, which for real pure states points along the state vector).

Rows in, arrays at the edge: _scene builds an EllipsoidScene of lists of
Python floats from checked rows, build_scene checks its input once and
converts that record to arrays in place (through linalg._array), and
scene_to_dict and the exporters, the OBJ mesh included, read either on
Python floats (an array through linalg._rows).
"""

from __future__ import annotations

import json
import math

from .errors import DegenerateMeshError, InternalCheckError, InvalidStateError
from .linalg import _Record, _array, _dot3, _rows, vector_norm
from .state import (
    FULL_3D,
    POINT,
    SEGMENT_ENDPOINT,
    SEGMENT_INTERIOR,
    SURFACE_3D,
    _as_rows,
    _record,
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


class Ray(_Record):
    __slots__ = ("dir", "style", "label")

    def __init__(self, dir: np.ndarray, style: str, label: str):
        self.dir, self.style, self.label = dir, style, label


class EllipsoidScene(_Record):
    """Semi-axes (descending), eigenvector frame (columns), Bloch vector.

    The scalar core (_scene) fills it and its rays with lists of Python
    floats (``frame`` as rows); build_scene converts that record in place.
    """

    __slots__ = ("case", "semi_axes", "frame", "bloch", "rays")

    def __init__(self, case, semi_axes, frame, bloch, rays: list[Ray] | None = None):
        self.case, self.semi_axes, self.frame, self.bloch = case, semi_axes, frame, bloch
        self.rays = [] if rays is None else rays


def build_scene(rho: np.ndarray) -> EllipsoidScene:
    """Scene of a valid state (_scene), its record converted to arrays in place."""
    return _scene_arrays(_scene(_as_rows(rho)))


def _scene_arrays(s: EllipsoidScene) -> EllipsoidScene:
    """A scene of lists, as _scene builds it, converted to numpy arrays in place."""
    s.semi_axes, s.frame, s.bloch = _array(s.semi_axes), _array(s.frame), _array(s.bloch)
    for r in s.rays:
        r.dir = _array(r.dir)
    return s


def _scene(rows: list, verdict: tuple | None = None) -> EllipsoidScene:
    """Scene of a valid state's checked rows: ellipsoid frame, Bloch vector, rays.

    The case is the rank taxonomy's (see RANK_CASE_TO_SCENE): three_d
    when all three semi-axes are alive, segment for exactly one, point
    for none.  ``verdict`` is passed on to _record: a trajectory's samples
    reuse rho0's state._verdict, so each costs one eigensolve, T's, framed.
    """
    r = _record(rows, verdict, True)
    if r.rank is None:
        raise InvalidStateError("state is not positive semidefinite")
    case = RANK_CASE_TO_SCENE[r.rank.case]
    a = r.params.a
    u, v, w = (list(col) for col in zip(*r.frame))
    rays: list = []
    if case == CASE_SEGMENT:
        bu = _dot3(a, u)
        if vector_norm([x - bu * y for x, y in zip(a, u)]) >= SEGMENT_SLACK:
            raise InternalCheckError("segment Bloch vector is not parallel to the u-axis")
        rays = [Ray(v, SOLID, "v"), Ray(w, DASHED, "w")]
    elif case == CASE_POINT:
        if vector_norm(a) >= SEGMENT_SLACK:
            raise InternalCheckError("point case requires a vanishing Bloch vector")
        rays = [Ray(u, SOLID, "u"), Ray(v, SOLID, "v"), Ray(w, DASHED, "w")]
    return EllipsoidScene(case, r.semi_axes, r.frame, a, rays)


def _floats(x, shape: tuple = (3,)) -> list:
    """A list field as it is; any other field (an array) of shape as nested lists of floats."""
    return x if isinstance(x, list) else _rows(x, shape, "scene field", dtype=float)


def scene_to_dict(s: EllipsoidScene) -> dict:
    """Plain-Python payload in the stable schema (version 1)."""
    return {
        "version": 1,
        "case": s.case,
        "semi_axes": _floats(s.semi_axes),
        "frame": _floats(s.frame, (3, 3)),
        "bloch": _floats(s.bloch),
        "rays": [{"dir": _floats(r.dir), "style": r.style, "label": r.label} for r in s.rays],
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
    poles, lat*lon + 2 vertices; 4 <= lat <= 1024 and 8 <= lon <= 2048
    bound it) scaled by the semi-axes and rotated into the lab frame;
    degenerate cases emit the segment and annotation rays as line
    records.  A nonzero Bloch vector is always emitted as a line record
    tagged by comment.  With surface_only=True only the mesh is
    emitted, which a degenerate scene cannot provide.
    """
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
