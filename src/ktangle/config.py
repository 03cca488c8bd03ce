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

# The K-way trace norms of a state with a factor (a pure state, or a density
# matrix of low rank) and a qubit focus integrate over
# t = e^x by the trapezoid rule with this step in x, on [-SPAN, SPAN]: the
# integrand's singularities lie pi/2 off the real x axis, so the rule's error
# falls like exp(-pi^2 / step), about 7e-18, and the integral outside the
# span is of order e^-SPAN, about 1e-18.
KWAY_QUAD_STEP = 0.25
KWAY_QUAD_SPAN = 41.5

# A density matrix of at least FACTOR_MIN_DIM rows whose layout holds a qubit
# takes the factor route rho = W W^dagger for the reports of a qubit focus
# (core._density_factor): its eigenvalues above the cutoff
# FACTOR_TAIL * D * eps * lambda_max give the rank r, the rest is roundoff,
# and the route is taken when r <= D // FACTOR_RANK_DIVISOR, no eigenvalue
# lies below minus the cutoff and W W^dagger meets every entry of rho within
# it.  The factor route costs the eigh route's half-size blocks plus terms
# in r D^2 and r^2 D, the eigh route D x D eigensolves, so they cross at a
# rank proportional to D.  One report of focus 0 (one OpenBLAS thread, in
# process, the two routes alternating, best of 3-7, building W included)
# crossed between r = 8 and 12 at D = 128 (the factor route 0.95 then 2.01
# of the eigh route's 11.5 ms), between 16 and 24 at D = 256 (0.90 then
# 1.99 of 70 ms) and between 32 and 48 at D = 512 (0.75 then 1.86 of
# 567 ms): r ~ D / 15.  D / 32, about half that rank, costs 0.43, 0.27 and
# 0.22 of the eigh route at its cut, and the cost grows like r^2 past it.
# At D = 64 the route took 0.50-0.75 of the eigh route's 2.4 ms for r <= 3,
# a gain of at most 1.2 ms a report: FACTOR_MIN_DIM keeps 6 qubits and
# fewer on the eigh route.
FACTOR_MIN_DIM = 128
FACTOR_TAIL = 1.0
FACTOR_RANK_DIVISOR = 32

# A report of several foci takes the K-way trace norms of the foci whose
# rests have the same dims in one call, KWAY_STACK_ENTRIES // D^2 foci at a
# time (at least one): all of them up to 6 qubits, 4 at 7 and one from 8 on.
# The K-way step of an all-foci pure report (one OpenBLAS thread, in
# process, best of 3-20) took, one focus a call against stacked: 2.37 ->
# 1.87 ms at 5 qubits, 5.39 -> 3.87 ms at 6, 13.9 -> 12.6-13.5 ms at 7,
# 61 -> 65-70 ms at 8 and 350 -> 413-524 ms at 9, while its peak memory
# grows with the foci stacked (5.98 -> 52.7 MiB for all 9 foci at 9
# qubits, past the 2 * 512^2 * 16 B a 9-qubit report is held to).
KWAY_STACK_ENTRIES = 2**16

# The state-file scanner (statefile._scan) checks a payload in blocks of
# max(1, STATEFILE_BLOCK_CELLS // n) whole rows of n cells, so only the
# dicts json makes of one block's cells are alive at a time.  Scanning the
# density files of perfbench's mixed6 / mixed7 / mixed8 classes (D = 64,
# 128, 256; one OpenBLAS thread, in process, best of 8 alternating rounds)
# took, at blocks of one row, 2^8, 2^10, 2^12, 2^14 and 2^16 cells:
# 4.42, 4.23, 4.08, 4.04, 4.13, 4.04 ms at D = 64; 17.5, 16.9, 16.5, 16.5,
# 16.6, 16.5 ms at 128; 68.7, 67.9, 66.1, 65.8, 67.0, 69.7 ms at 256, with
# tracemalloc peaks at D = 256 of 1.08, 1.08, 1.30, 2.17, 5.69 and
# 17.8 MiB (the matrix itself is 1 MiB).  Blocks of one row cost 9 % at
# D = 64; from 2^12 on, time stops falling and only the peak grows.
STATEFILE_BLOCK_CELLS = 2**12

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
