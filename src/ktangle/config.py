"""Centralized numerical tolerances and error types."""

# Hermiticity defect allowed in a matrix input, and eigenpair residual allowed
# in an eigendecomposition.
EPS_HERM = 1e-10

# Norm, trace and probability-sum defect allowed in an input; also the slack
# of the sum-rule and inequality checks.
EPS_NORM = 1e-9

# An eigenvalue below -EPS_EIG is genuinely negative; values in
# [-EPS_EIG, 0) count as zero.
EPS_EIG = 1e-10

# Discriminant magnitude below which the slice quadratic is treated as a
# double root (single canonical form returned).
CANONICAL_DISC_EPS = 1e-12

# Slice-quadratic coefficients below this vanish: all three below it make the
# quadratic identically zero, and any rotation of the first qubit solves it.
CANONICAL_COEF_EPS = 1e-15

# Maximum allowed leakage outside the canonical support after reduction.
CANONICAL_RESIDUAL = 1e-8

# Canonical amplitudes at or below this magnitude count as zero: a form may
# carry amplitudes down to -CANONICAL_AMP_EPS (clamped to 0), and the phase
# gauge and the phi of the |100> term ignore amplitudes this small.
CANONICAL_AMP_EPS = 1e-12

# The GHZ+W canonical forms are checked against the closed-form roots of the
# first-qubit rotation ratio within this relative tolerance.
GHZW_ROOT_RTOL = 1e-6

# The K-way trace norms of a pure state with a qubit focus integrate over
# t = e^x by the trapezoid rule with this step in x, on [-SPAN, SPAN]: the
# integrand's singularities lie pi/2 off the real x axis, so the rule's error
# falls like exp(-pi^2 / step), about 7e-18, and the integral outside the
# span is of order e^-SPAN, about 1e-18.
KWAY_QUAD_STEP = 0.25
KWAY_QUAD_SPAN = 41.5

# Hermiticity defect allowed in the input of the public partial transposes,
# and kept by a DensityOperator without symmetrizing; the transposes only
# move elements, so the output carries no larger defect.
TRANSPOSE_HERM_EPS = 1e-14

# Largest entry of |U^dagger U - 1| accepted for a local unitary.
UNITARITY_EPS = 1e-12

# Eigenvalues of a state above this count toward its rank in the roof search,
# and span the members of the exact two-qubit roof.
ROOF_RANK_CUTOFF = 1e-12

# Roof members with weight at or below this are dropped from a certificate
# and take the value 0 in the search.
ROOF_MEMBER_CUTOFF = 1e-14

# The roof search accepts a rotation only if it lowers the average by more
# than this.
ROOF_ACCEPT_MARGIN = 1e-15

# A roof search is reported converged when its last 20% of iterations lowered
# the best restart's average by less than this.
ROOF_CONVERGED_DROP = 1e-8

# States per stack in `audit` and grid points per stack in `sweep`: large
# enough that per-call overhead is paid once for many states, small enough
# that memory does not grow with the state count or the grid.
STACK_CHUNK = 256

# Proposed member rows per round of the roof search: with R restarts a round
# prefetches ROOF_ROUND_ROWS // 2R rotation steps of each (at least one).
ROOF_ROUND_ROWS = 32

# Rotation steps per segment of the roof search: at the start of a segment
# each restart draws its steps of the segment, four doubles a step, and only
# one segment's draws are held, so memory does not grow with the
# iterations; the default budget of 400 is one segment and draws once.
ROOF_DRAW_STEPS = 400

# The roof search decomposes a rank-r state into min(2r, ROOF_MAX_MEMBERS)
# members, and never into fewer than r.
ROOF_MAX_MEMBERS = 8


class ValidationError(ValueError):
    """An input violates a documented invariant (norm, trace, Hermiticity...)."""


class NumericalError(RuntimeError):
    """An iterative numerical procedure failed to converge."""
