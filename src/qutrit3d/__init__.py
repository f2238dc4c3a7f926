"""Three-dimensional geometry of qutrit states.

A qutrit density matrix is equivalent to a Bloch vector together with a
real symmetric correlation tensor; the tensor defines an ellipsoid of
admissible Bloch vectors and a metric that measures how close a state
sits to the positivity boundary.  The package converts between the two
pictures, classifies states, builds exportable ellipsoid scenes, handles
pure-state geometry and mutually unbiased bases, bridges to the
symmetric two-qubit picture and evolves states under spin-1 unitaries.

The quick-start names below resolve on first use (PEP 562), so that
importing the package, or running its command line, loads only the
modules a call needs.
"""

# quick-start name -> its defining module
_QUICK_START = {
    "one_axis_twist": "dynamics",
    "rotation": "dynamics",
    "trajectory": "dynamics",
    "build_scene": "geometry",
    "export_scene_json": "geometry",
    "mub_bases": "purestates",
    "pseudo_qubit": "purestates",
    "ppt_separable": "spin1",
    "to_two_qubit": "spin1",
    "analyse": "state",
    "classify_rank": "state",
    "compose": "state",
    "decompose": "state",
    "validate": "state",
}

__all__ = sorted(_QUICK_START)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _QUICK_START.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, as an import statement calls it: -X importtime misses importlib.import_module
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
