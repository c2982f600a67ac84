"""Busemann-Hausdorff area densities on 2-planes of small normed spaces.

Exact polytope cross-sections, density evaluation, a numeric certificate
that no linear projection onto span(e1, e2) contracts normed 2-area in the
rotated cross-polytope space, and convexity probes for codimension-two
densities of complex norms.
"""

__version__ = "0.1.0"

from .bodies import (
    AbsSumBody,
    Body,
    SmoothBody,
    body_from_dict,
    body_to_dict,
    make_complex_lp,
    make_cross_polytope,
    make_euclidean_ball,
    make_product,
    make_rotated_cross_polytope,
    minkowski,
    rotation_matrix,
)
from .contraction import (
    Certificate,
    PinningReport,
    ProjectionW0,
    area_factor,
    certify_no_contraction,
    contraction_gap,
    lemma_lower_bound,
    named_plane,
    projection_pinning,
    taylor_fit,
    w0_plane,
)
from .density import (
    DensityValue,
    alpha,
    bh_area,
    bh_density_2,
    bh_density_codim2,
    mc_section_volume,
    plane_from_bivector,
)
from .errors import (
    BHDensityError,
    CertificateFailed,
    DegenerateSpan,
    DimensionMismatch,
    IllConditioned,
    InsufficientSamples,
    InvalidId,
    NotSimple,
    UnboundedSection,
    UnsupportedDimension,
    ZeroBivector,
)
from .geom import (
    Bivector,
    Plane2,
    gram_schmidt,
    grassmann_distance,
    hodge_star,
    hodge_star_codim,
    plucker_defect,
    random_plane,
    random_planes,
    wedge,
)
from .probe import (
    DecompositionTrial,
    ScanReport,
    semi_ellipticity_scan,
    shared_line_decomposition,
)
from .sections import (
    Polygon2,
    SectionReport,
    abs_sum_section_areas,
    cross_section,
    section_areas,
    shoelace_area,
)
from .tolerances import TOL, Tolerances
