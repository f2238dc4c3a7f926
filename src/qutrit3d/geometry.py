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
scene_to_dict, through which both exporters read a scene once, reads
either on Python floats (an array through linalg._rows).  The case, its
checks and RANK_CASE_TO_SCENE are state's (_rank_case); state._state_rows
refuses a matrix that is not a state.
"""

from __future__ import annotations

import json
import math

from .errors import DegenerateMeshError, InternalCheckError
from .linalg import _Record, _array, _dot3, _rows, vector_norm
from .state import (
    CASE_POINT, CASE_SEGMENT, CASE_THREE_D, RANK_CASE_TO_SCENE, _as_rows, _record, _state_rows,
)
from .tolerances import LINE_EPS, SEGMENT_SLACK

SOLID = "solid"
DASHED = "dashed"


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

    The case is the record's, checked there (state.RANK_CASE_TO_SCENE): three_d
    when all three semi-axes are alive, segment for exactly one (its a checked
    here to lie along u), point for none.  A trajectory's samples pass rho0's
    linalg._verdict on to _record (``verdict``): each costs one eigensolve, T's, framed.
    """
    r = _record(rows, _state_rows(rows, True) if verdict is None else verdict, True)
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


def _vertex(p: list) -> str:
    return f"v {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}"


def export_scene_obj(
    s: EllipsoidScene, lat: int, lon: int, surface_only: bool = False
) -> str:
    """Wavefront OBJ text for a scene, its fields read once through scene_to_dict.

    The three_d case meshes a UV sphere (lat rings of lon points plus two
    poles, lat*lon + 2 vertices; 4 <= lat <= 1024 and 8 <= lon <= 2048
    bound it) scaled by the semi-axes and rotated into the lab frame:
    vertex 1 is the top pole, 2 + i*lon + (j mod lon) point j of ring i
    and lat*lon + 2 the bottom pole, each longitude turned once;
    degenerate cases emit the segment and annotation rays as line
    records.  A nonzero Bloch vector is always emitted as a line record
    tagged by comment.  With surface_only=True only the mesh is
    emitted, which a degenerate scene cannot provide.
    """
    if not (4 <= lat <= 1024 and 8 <= lon <= 2048):
        raise ValueError(f"mesh needs 4 <= lat <= 1024, 8 <= lon <= 2048, got lat={lat}, lon={lon}")
    if surface_only and s.case != CASE_THREE_D:
        raise DegenerateMeshError(f"no surface mesh for a {s.case} scene")
    d = scene_to_dict(s)
    case, (r0, r1, r2), frame = d["case"], d["semi_axes"], d["frame"]
    lines = ["# ellipsoid scene", f"# case: {case}",
             "# coordinates: right-handed, y-up; vertices are lab-frame (x, y, z)",
             f"# semi-axes: {float(r0)!r} {float(r1)!r} {float(r2)!r}"]
    n = 0  # vertices written
    if case == CASE_THREE_D:
        (f00, f01, f02), (f10, f11, f12), (f20, f21, f22) = frame
        turns = [(math.cos(b), math.sin(b)) for b in [2.0 * math.pi * j / lon for j in range(lon)]]
        alphas = [math.pi * i / (lat + 1) for i in range(1, lat + 1)]
        rings = [(math.sin(a), math.cos(a), turns) for a in alphas]
        pole = [(1.0, 0.0)]  # a ring of one point at sin(alpha) = 0.0: (0.0, 0.0, +-1.0)
        for sin_a, cos_a, ring in [(0.0, 1.0, pole), *rings, (0.0, -1.0, pole)]:
            for cos_b, sin_b in ring:
                x, y, z = r0 * (sin_a * cos_b), r1 * (sin_a * sin_b), r2 * cos_a
                lines.append(f"v {float(f00 * x + f01 * y + f02 * z)!r} "
                             f"{float(f10 * x + f11 * y + f12 * z)!r} "
                             f"{float(f20 * x + f21 * y + f22 * z)!r}")
        n = lat * lon + 2
        lines += [f"f 1 {2 + j} {2 + (j + 1) % lon}" for j in range(lon)]
        for k in range(2, n - lon, lon):  # the first point of each ring but the last
            lines += [f"f {k + j} {k + lon + j} {k + lon + (j + 1) % lon} {k + (j + 1) % lon}"
                      for j in range(lon)]
        lines += [f"f {n} {n - lon + (j + 1) % lon} {n - lon + j}" for j in range(lon)]
    if surface_only:
        return "\n".join(lines) + "\n"

    bloch = d["bloch"]
    has_bloch = vector_norm(bloch) > LINE_EPS
    if d["rays"] or has_bloch:
        lines.append("v 0.0 0.0 0.0")
        n += 1
    origin = n
    if case == CASE_SEGMENT:
        half = float(r0)
        lines += ["# segment", _vertex([-half * row[0] for row in frame]),
                  _vertex([half * row[0] for row in frame]), f"l {n + 1} {n + 2}"]
        n += 2
    tips = [(f"# ray {r['label']} {r['style']}", r["dir"]) for r in d["rays"]]
    if has_bloch:
        tips.append(("# bloch", bloch))
    for comment, tip in tips:
        n += 1
        lines += [comment, _vertex(tip), f"l {origin} {n}"]
    return "\n".join(lines) + "\n"
