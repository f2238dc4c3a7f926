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

# Certified verdicts (linalg._verdict): lambda_min >= -RANK_TOL and the count
# above RANK_TOL are proven only outside the band threshold +- CERT_MARGIN,
# widened by CERT_SKEW times ||A - A^dag||_F: the Jacobi's own error on
# entries of modulus <= 1 stays below CERT_MARGIN / 2.  CERT_GAMMA bounds
# the rounding of an LDL^dag of order <= 4 or of a Rayleigh quotient, in
# units of u = 2^-53 (Higham, ASNA 2nd ed., Thms 9.3, 10.3 and Lemma 3.5
# for complex products), with room to spare.
CERT_MARGIN = RANK_TOL / 100.0
CERT_SKEW = 16.0
CERT_GAMMA = 64.0 * 2.0**-53

# Slack, a length, of the geometry case's self-checks (state._rank_case and
# geometry._scene).  The verdict takes lambda_min >= -RANK_TOL up to its Jacobi's
# error d (about 1e-16; e = CERT_MARGIN / 2 bounds it): rho + s 1 >= 0 for s =
# RANK_TOL + d.  With mu the eigenvalues of Re(rho), ascending (eps_j = 2
# sqrt(mu_k mu_l)), and mu' = mu + s, a lies in the ellipsoid sum_j a_j^2 /
# (mu'_k mu'_l) <= 4: |a| <= 2 sqrt(mu'_1 mu'_2), and |a x n| <= 2 sqrt(mu'(n)
# (1 + 2 s)) for a real unit n.  A dead axis (computed mu <= RANK_TOL) has mu'
# <= 2 (RANK_TOL + d), hence 2 sqrt(2 (RANK_TOL + e)).  Exact bounds and room:
#   point |a|, segment |a - (a.u) u|: 2 sqrt(2 (RANK_TOL + d) (1 + 3 s)), below
#     the slack by (e - d) / (2 RANK_TOL), 0.25%;
#   segment |lambda_v + lambda_w| = 2 |mu_0| + 2 |tr(rho) - 1|: 1/45000 of it;
#   interior |a| - eps_u, endpoint ||a| - eps_u|: 2 sqrt(s (1 + 2 s)), 0.71 of
#     it (the lower side by rho's v-w block, det (eps_u^2 - a_u^2) / 4 <= s (1 +
#     2 s)), which leaves room for eps_u's rounding, at most 2 sqrt(d).
SEGMENT_SLACK = 2.0 * math.sqrt(2.0 * RANK_TOL + CERT_MARGIN)

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
