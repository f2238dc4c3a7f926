"""Three-dimensional geometry of qutrit states.

A qutrit density matrix is equivalent to a Bloch vector together with a
real symmetric correlation tensor; the tensor defines an ellipsoid of
admissible Bloch vectors and a metric that measures how close a state
sits to the positivity boundary.  The package converts between the two
pictures, classifies states, builds exportable ellipsoid scenes, handles
pure-state geometry and mutually unbiased bases, bridges to the
symmetric two-qubit picture and evolves states under spin-1 unitaries.
"""

from .dynamics import one_axis_twist, rotation, trajectory
from .geometry import build_scene, export_scene_json
from .purestates import mub_bases, pseudo_qubit
from .spin1 import ppt_separable, to_two_qubit
from .state import analyse, classify_rank, compose, decompose, validate

__version__ = "0.1.0"
