"""The numerical tolerance policy: every float tolerance of the package, each
a constant that no function takes as an option, imported from here by the
function named beside it.  Exact-kind checks take none: Hermiticity, the
symmetry flags, skewness and gamma relations decide in
``matrices.defect_exceeds``, the one place that rule lives, where an exact
defect fails on any nonzero entry.  A ``_RTOL`` is relative to the scale
named beside it, a ``_TOL`` (and DEGENERATE_AREA) is absolute.
"""

HERMITIAN_RTOL = 1e-12  # matrices.is_hermitian: max |M - M*| against max |M|
SINGULAR_RTOL = 1e-8  # linalg.default_tolerance: |eigenvalue| <= this * (1 + ||M||_2) is zero
SKEW_RTOL = 1e-12  # linalg.pfaffian's input: max |M + M^T| against max |M|
# invariants._skew_pencil and _archetypal: (1/2) Q* L Q is rounded in L's assembly, its
# moves and the sum over lambda, so its skewness (against max |entry|) and its
# Pfaffian's imaginary part (against max(1, |Pf|)) get more than SKEW_RTOL
SKEW_CHECK_RTOL = 1e-10
GRADED_HERMITIAN_RTOL = 1e-10  # graded_index: i L_red* (grading (x) I) against max |entry|
FLAG_RTOL = 1e-12  # validate_symmetry: each float flag against max |X_j| (1 if zero)
REP_RELATION_TOL = 1e-12  # cliffordrep.validate: each float gamma relation against max |I| = 1
HELD_OUT_RTOL = 1e-9  # charpoly held-out det residual against max(1, |det|, sum |c lambda^alpha|)
REAL_COEFF_RTOL = 1e-9  # float char_poly imaginary part against its largest coefficient
PRUNE_RTOL = 1e-12  # float charpoly output and MultiPoly.pruned drop coefficients to this * the largest
POLY_EQUAL_SCALE_FLOOR = 1e-300  # poly_equal's scale floor, so zero polynomials compare
# extract_isosurface drops triangles of no larger area, taken on the vertices
# in grid-index units (a grid cell has sides 1), so the cut scales with the grid
DEGENERATE_AREA = 1e-12
TORUS_RESIDUAL_TOL = 1e-10  # torus_radius_profile: |f| at which bisection stops
UNIT_TOL = 1e-12  # expectation_variance, extract_w: unit norms and the selected block's norm
VARIANCE_RTOL = 1e-10  # variance: past -this * max(1, ||Xv||^2), a negative Var is no rounding
# sample: the on-demand field's pruning margin, against ||L_0|| + max |lambda| of
# the grid.  A node's Lipschitz bound carries eigvalsh or svd rounding (a few eps * side *
# ||L_lambda||) and no gamma relation defect: the float gammas of rep_for(d), with
# entries 0, +-1 and +-i, meet their relations exactly.  For det-sign and pfaffian-sign
# it also covers the backward error of the LU and Parlett-Reid factorisations, of the
# same order as eigvalsh's
SIGMA_MIN_PRUNE_RTOL = 1e-9
# _coerce_lambda: the largest |lambda_j| a float query takes; squares and sums
# of squares of such components, and of the entries of L_lambda, stay finite
LAMBDA_BOUND = 1e150
# HermitianTuple: the largest |entry| of a float tuple's matrices, for the same reason
ENTRY_BOUND = 1e150
# AxisSpec: the least grid step; squares of node distances and their sums, in the
# field's pruning bounds and cube diagonal, stay normal floats, so none underflows
STEP_BOUND = 1e-150
