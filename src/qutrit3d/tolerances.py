"""Numerical tolerances used across the package.

Single tuning point: every module imports its thresholds from here instead
of hard-coding literals.
"""

# Hermiticity acceptance: max |M - M^dag| entry.
HERM_TOL = 1e-10

# Unitarity / orthonormality residuals of eigensolver output.
EIG_TOL = 1e-12

# Eigenvalue threshold separating "zero" from "nonzero" in rank counting,
# and the one-sided slack for positivity verdicts.
RANK_TOL = 1e-9

# det(1 - T) below this means the metric tensor is treated as undefined.
SING_TOL = 1e-10

# Semi-axis threshold separating "vanished" from "small": eps is built from
# products of (1 - lambda), which loses half the digits near lambda = 1.
AXIS_TOL = 1e-7

# Eigenvalue gap below which a cluster is treated as degenerate and its
# subspace re-orthonormalized deterministically.
DEGEN_GAP = 1e-9

TRACE_TOL = 1e-12

# Trace acceptance of a two-qubit density matrix.
TWO_QUBIT_TRACE_TOL = 1e-10

# Smallest amplitude modulus eligible to anchor the global-phase gauge
# of a pure state.
GAUGE_EPS = 1e-12
