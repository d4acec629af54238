"""Exact arithmetic for integer quadruples under the four-reflection group:
validation, reduction to roots, orbit and growth enumeration, norm-form
representation counts, bounded censuses, matrix-identity verification,
and the n-dimensional simplex generalization."""

from types import ModuleType as _ModuleType

from .core import (
    FORM_MATRIX,
    IDENTITY,
    ResourceLimitError,
    apply_generator,
    form_signature,
    generator_matrix,
    is_triangle_quadruple,
    norm_form_substitution,
    quadratic_form,
    validate_quadruple,
    verify_coxeter_relations,
)
from .counting import (
    CensusReport,
    count_by_height,
    count_by_max,
    divisor_square_sum,
    height_sweep,
    list_by_height,
    list_by_max,
)
from .eisenstein import (
    divisor_character_sum,
    factorize,
    quadruples_with_pair,
    solve_norm_form,
)
from .orbit import (
    VectorOrbit,
    bfs_elements,
    coxeter_char_poly,
    coxeter_element,
    extremal_word,
    growth_recurrence_terms,
    max_norm_at_length,
    orbit_layers,
    orbit_sizes,
    orbit_vectors,
    prime_factor_count,
    spectral_radius,
    stabilizer_counts,
    word_norm,
)
from .reduction import (
    ReductionTrace,
    gcd_content,
    reduce_step,
    reduce_to_root,
    same_orbit,
)
from .simplex import (
    NegativeEntryWarning,
    PointConfiguration,
    gram_closed_form,
    gram_det,
    identity_residual,
    reflect,
    tuple_from_configuration,
)

__version__ = "0.1.0"

# The names imported above, less the submodules they bind on the package.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
