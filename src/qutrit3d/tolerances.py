"""Numerical tolerances used across the package.

Single tuning point: every module imports its thresholds from here instead
of hard-coding literals.
"""

import math

# Hermiticity acceptance: max |M - M^dag| entry.
HERM_TOL = 1e-10

# Eigenvalue threshold separating "zero" from "nonzero" in rank counting,
# and the one-sided slack for positivity verdicts.  It decides both the
# rank of rho and the rank of Re rho = (1 - T)/2, whose eigenvalues
# mu = (1 - lambda)/2 say which ellipsoid semi-axes are alive.
RANK_TOL = 1e-9

# Slack of the segment and point self-checks.  They compare lengths that
# are square roots of products of mu, so the slack is a length derived
# from RANK_TOL, not a threshold of its own: for a real unit vector n
# with n^T Re(rho) n = mu <= RANK_TOL, |Im(rho) n| <= |rho n| <=
# sqrt(n^dag rho n) = sqrt(mu) (rho^2 <= rho for a state), and
# Im(rho) n = (a x n)/2, so |a x n| <= 2 sqrt(RANK_TOL).
SEGMENT_SLACK = 2.0 * math.sqrt(RANK_TOL)

# det(1 - T) below this means the metric tensor is treated as undefined.
SING_TOL = 1e-10

# Eigenvalue gap below which a cluster is treated as degenerate and its
# subspace re-orthonormalized deterministically.
DEGEN_GAP = 1e-9

# Residual threshold accepted when Gram-Schmidting a degenerate cluster;
# large enough that normalization never amplifies rounding noise.
GS_RESIDUAL = 0.1

# Cyclic Jacobi: sweeps stop once every off-diagonal modulus is at most
# JACOBI_STOP times the largest entry, floored at JACOBI_SCALE_FLOOR so a
# zero matrix still has a positive scale.
JACOBI_STOP = 1e-16
JACOBI_SCALE_FLOOR = 1e-300

# Trace acceptance |tr - 1| of a qutrit density matrix, and of the
# triplet block that a two-qubit state projects to.
TRACE_TOL = 1e-12

# Smallest amplitude modulus eligible to anchor the global-phase gauge
# of a pure state.
GAUGE_EPS = 1e-12

# Normalization acceptance of pure-state amplitudes: | |psi| - 1 |.
NORM_TOL = 1e-10

# Two pure states are orthogonal when |<psi|psi'>| is at most this.
ORTHO_TOL = 1e-10

# Slack on the pseudo-qubit ball condition a.a <= 4/9.
BALL_TOL = 1e-12

# Largest spread of the cross-basis overlap moduli of the unbiased bases.
MUB_TOL = 1e-12

# Bloch vectors shorter than this get no line record in an OBJ scene.
LINE_EPS = 1e-12
