"""Three-dimensional geometry of qutrit states.

A qutrit density matrix is equivalent to a Bloch vector together with a
real symmetric correlation tensor; the tensor defines an ellipsoid of
admissible Bloch vectors and a metric that measures how close a state
sits to the positivity boundary.  The package converts between the two
pictures, classifies states, builds exportable ellipsoid scenes, handles
pure-state geometry and mutually unbiased bases, bridges to the
symmetric two-qubit picture and evolves states under spin-1 unitaries.
"""

from .errors import (
    DegenerateMeshError,
    InconsistentParamsError,
    InternalCheckError,
    InvalidStateError,
    MetricUndefinedError,
    NotHermitianError,
    NotNormalizedError,
    NotPositiveError,
    NotSymmetricError,
    OutOfBallError,
    QutritError,
    TraceError,
)
from .linalg import (
    EigenSystem3,
    det3,
    eig_hermitian3,
    eig_sym3,
    eigvals_hermitian4,
    partial_transpose,
    unitary_from_eigensystem,
)
from .state import (
    FULL_3D,
    POINT,
    SEGMENT_ENDPOINT,
    SEGMENT_INTERIOR,
    SURFACE_3D,
    Analysis,
    MetricTensor,
    RankReport,
    StateParams,
    ValidityReport,
    analyse,
    classify_rank,
    compose,
    decompose,
    gamma_norm,
    metric_tensor,
    params_from_bloch_tensor,
    random_density,
    semi_axes,
    validate,
)
from .spin1 import (
    Spin1Set,
    expectations,
    from_two_qubit,
    ppt_separable,
    singlet_overlap,
    spin_set,
    to_two_qubit,
)
from .purestates import (
    MubFamily,
    PureState,
    bloch_from_pure,
    density_from_pure,
    haar_pure,
    mub_bases,
    orthogonal,
    orthogonal_bloch_family,
    orthogonal_state,
    pseudo_overlap,
    pseudo_qubit,
    reference_state,
    rik_decompose,
)
from .geometry import (
    CASE_POINT,
    CASE_SEGMENT,
    CASE_THREE_D,
    EllipsoidScene,
    Ray,
    build_scene,
    export_scene_json,
    export_scene_obj,
    scene_from_dict,
    scene_from_json,
    scene_to_dict,
)
from .dynamics import (
    Generator,
    Trajectory,
    canonical_generators,
    custom,
    evolve,
    generator_label,
    generator_matrix,
    one_axis_twist,
    rotation,
    trajectory,
    two_axis_counter,
)

__version__ = "0.1.0"
