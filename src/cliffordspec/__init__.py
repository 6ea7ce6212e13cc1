"""Joint (Clifford) spectra of tuples of Hermitian matrices.

Build a :class:`HermitianTuple`, assemble its spectral localizer, and ask
for characteristic polynomials, indicator-field grids and meshes,
topological indices, or variance certificates.  Exact (Gaussian-rational)
tuples give exact answers; float tuples carry stated tolerances.
"""

from .charpoly import char_poly, laplace_det_poly, reduced_char_poly
from .cliffordrep import GammaRep, generated_rep, rep_for, standard_rep, validate
from .errors import (
    ContractError,
    InterpolationError,
    KindMismatchError,
    SingularAtTolerance,
    SymmetryError,
    TheoremViolation,
)
from .gallery import NamedExample, list_example_names, named_example
from .invariants import (
    IndexReport,
    SymmetryProfile,
    archetypal,
    archetypal_sign,
    dual,
    graded_index,
    index,
    index_along_path,
    validate_symmetry,
)
from .linalg import (
    default_tolerance,
    determinant,
    hermitian_eigen,
    operator_norm,
    pfaffian,
    signature,
    smallest_eigen_magnitude,
)
from .localizer import (
    Localizer,
    build,
    build_reduced,
    laplace,
    square_identity_residual,
)
from .matrices import HermitianTuple, commutator, exact_matrix, float_matrix, kron
from .multipoly import (
    MultiPoly,
    poly_equal,
    polar_radial_coefficients,
    substitute_polar,
    to_text,
    variables,
)
from .sampler import (
    AxisSpec,
    GridSpec,
    SpectrumGrid,
    SpectrumMesh,
    export_grid_csv,
    export_mesh_obj,
    extract_isosurface,
    mesh_topology,
    sample,
    slice_4d,
    torus_radius_profile,
)
from .scalars import GaussianRational
from .variance import (
    VarianceCertificate,
    certificate,
    expectation_variance,
    extract_w,
    near_kernel,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
