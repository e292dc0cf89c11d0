"""Differential calculus of smooth 1-forms on the Sierpinski gasket.

Exact-rational and certified-numeric evaluation of energies, edge and path
integrals, lacuna periods, winding numbers, the Hodge decomposition, and
effective lengths / potentials on the abelian pro-covering.
"""

from .certified import CertifiedValue
from .cohomology import (
    HodgeDecomposition,
    PeriodVector,
    TriangularKernel,
    a_entry,
    b_entry,
    b_rule,
    harmonic_coefficient,
    hodge_decompose,
    perimeter_identity_check,
    periods_up_to,
    winding_number,
)
from .covering import (
    HomologyElement,
    effective_length,
    group_length,
    hnorm_divergence,
    homology_class,
    phi_hom,
    potential_difference,
)
from .errors import (
    DepthTooSmallError,
    ExactnessUnavailableError,
    GasketError,
    NonConsecutiveError,
    NonConvergentError,
    NonIntegerResultError,
    NotComparableError,
)
from .forms import (
    Atom,
    Const,
    FormTerm,
    Product,
    SmoothForm,
    Sum,
    d,
    dz_form,
    dz_integral_edge,
    dz_integral_path,
    fdg,
    integrate_edge,
    integrate_path,
    q_inner_certified,
    q_inner_exact,
    q_level,
)
from .geometry import (
    ElementaryPath,
    OrientedEdge,
    Point,
    edges_at_level,
    lacuna_path,
    path_from_json,
    path_to_json,
    perimeter_path,
    subdivide,
    validate_path,
    vertices_at_level,
    words,
)
from .harmonic import VertexFunction, harmonic_basis, random_harmonic
from .render import render_svg
from .verify import counterexample_form, run_suite

__version__ = "0.1.0"
