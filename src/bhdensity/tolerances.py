"""Global numeric tolerance policy.

Hard geometric tolerances are absolute for normalized quantities (unit
vectors, plane coordinates of unit balls) and scale-relative otherwise.
All modules read the module-level ``TOL`` record so the policy can be
adjusted in one place.
"""

from dataclasses import dataclass


@dataclass
class Tolerances:
    geometric: float = 1e-12        # orthonormality, convexity, area identities
    span_defect: float = 1e-12      # relative Gram defect below which a span is degenerate
    simplicity_rel: float = 1e-9    # relative Plucker defect accepted as "simple"
    resample_defect: float = 1e-9   # random draws closer than this get redrawn
    radial_n: int = 4096            # default angular resolution for smooth sections
    mc_rel_stderr: float = 0.01     # maximum relative standard error for MC volumes
    mc_rounding_rel: float = 1e-13  # floor of a QMC volume's relative standard error


TOL = Tolerances()
