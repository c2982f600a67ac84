"""Cross-sections of bodies with central 2-planes and their Euclidean areas.

Abs-sum bodies {x : sum_j |l_j(x)| <= 1} have one exact section kernel,
`section_fan`.  Restricted to a plane, the gauge bends only on the kink
rays where some restricted functional vanishes, so the section polygon's
vertices are the gauge-normalized points on those rays sorted by angle:
O(k^2) work for k functionals.  Smooth bodies are sampled radially.

`section_areas` is the one batched area entry point: it sends abs-sum
bodies through the kernel in one call and every other body through
`cross_section` plane by plane.  The certificate and the semi-ellipticity
probe score their planes through it.  A plane's area is bitwise the same
alone, in any batch and in `cross_section`.
"""

from dataclasses import dataclass

import numpy as np

from .bodies import AbsSumBody, Body, minkowski_many
from .errors import DimensionMismatch, UnboundedSection
from .geom import Plane2
from .tolerances import TOL


@dataclass(frozen=True)
class Polygon2:
    """Convex polygon in plane coordinates, counterclockwise, no repeats."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise DimensionMismatch("polygon vertices must have shape (m, 2)")
        m = v.shape[0]
        if m >= 3:
            rolled = np.roll(v, -1, axis=0)
            edges = rolled - v
            nxt = np.roll(edges, -1, axis=0)
            cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
            if np.any(cross < -TOL.geometric):
                raise ValueError("polygon is not convex/counterclockwise")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)


@dataclass(frozen=True)
class SectionReport:
    polygon: Polygon2
    euclidean_area: float
    method: str


def shoelace_area(vertices) -> float:
    """Half the absolute signed sum over the closed vertex cycle."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return float(0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def _restrict(L: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Values X[b] . L[j] as an (n_rows, k) array, summed coordinate by coordinate.

    BLAS rounds gemv and gemm differently; this sum gives a row the same bits in any batch.
    """
    X = X.T
    out = L[:, :1] * X[0]
    for i in range(1, L.shape[1]):
        out += L[:, i : i + 1] * X[i]
    return np.ascontiguousarray(out.T)


def section_constraints(body: AbsSumBody, plane: Plane2) -> np.ndarray:
    """Pairs (a_j, b_j) with the section equal to {sum_j |a_j x + b_j y| <= 1}."""
    if body.n != plane.n:
        raise DimensionMismatch("body and plane dimensions differ")
    return _restrict(body.functionals, np.stack((plane.u, plane.v))).T


def section_fan(A: np.ndarray, Bc: np.ndarray):
    """Exact sections {(x, y) : sum_j |A_j x + Bc_j y| <= 1} for a batch of planes.

    A and Bc hold the restricted functionals c_j = (a_j, b_j), one plane per
    row.  With cross_ij = a_i b_j - b_i a_j, the gauge on the kink ray of c_i
    is N((-b_i, a_i)) = sum_j |cross_ij|, so that ray meets the boundary at
    (-b_i, a_i) / N((-b_i, a_i)).  Every functional takes the point of the
    first nonvanishing functional parallel to it, so parallel and vanishing
    functionals repeat a point exactly.  Returns (areas, z, keep): the 2k
    boundary points of each plane as complex numbers x + iy sorted by angle,
    and the mask of the first copy of each point, which are the polygon's
    vertices, counterclockwise.  Raises UnboundedSection when some plane's
    functionals do not span its dual.
    """
    B, k = A.shape
    C = A + 1j * Bc
    h = np.abs(C)
    live = h > 0.0
    cross = np.abs((C.conj()[:, :, None] * C[:, None, :]).imag)  # Im(conj(c_i) c_j) = cross_ij
    parallel = (cross <= TOL.geometric * h[:, :, None] * h[:, None, :]) & live[:, :, None]
    rep = parallel.argmax(axis=1)
    lead = (rep == np.arange(k)) & live
    if (lead.sum(axis=1) < 2).any():
        raise UnboundedSection("functionals restricted to the plane do not span")
    gauge = cross.sum(axis=2)
    rows = np.arange(B)[:, None]
    z = 1j * C[rows, rep] / gauge[rows, rep]
    z = np.concatenate((z, -z), axis=1)
    order = np.argsort(np.arctan2(z.imag, z.real), axis=1, kind="stable")
    z = z[rows, order]
    keep = np.concatenate((lead, lead), axis=1)[rows, order]
    # shoelace sum over the closed cycle of sorted points
    twice = (z[:, :-1].conj() * z[:, 1:]).imag.sum(axis=1) + (z[:, -1].conj() * z[:, 0]).imag
    return 0.5 * np.abs(twice), z, keep


def _radial_section(body: Body, plane: Plane2, n_angles: int):
    # periodic rectangle rule on the polar area integrand r^2/2; error is
    # O(N^-2) for convex sections and vanishes for discs, which keeps the
    # default N = 4096 inside the documented 1e-6 disc accuracy
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    # coordinate-major (n, N) rays, so the gauge reads contiguous rows
    rays = plane.u[:, None] * np.cos(theta) + plane.v[:, None] * np.sin(theta)
    r = 1.0 / minkowski_many(body, rays.T)
    area = float(np.pi / n_angles * np.dot(r, r))
    verts = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    return SectionReport(Polygon2(verts), area, f"radial({n_angles})")


def cross_section(body: Body, plane: Plane2, radial_n: int | None = None) -> SectionReport:
    """Exact polygon for abs-sum bodies, radial approximation otherwise.

    All sections are central.  For product bodies whose plane lies entirely
    inside the left factor the section equals the factor section, so the
    computation is delegated there (keeping polyhedral exactness).  Raises
    ValueError for radial_n below 3.
    """
    if body.n != plane.n:
        raise DimensionMismatch("body and plane dimensions differ")
    if radial_n is not None and radial_n < 3:
        raise ValueError(f"radial_n must be >= 3, got {radial_n}")
    if isinstance(body, AbsSumBody):
        coeffs = section_constraints(body, plane)
        areas, z, keep = section_fan(coeffs[None, :, 0], coeffs[None, :, 1])
        polygon = Polygon2(np.column_stack((z.real[keep], z.imag[keep])))
        return SectionReport(polygon, float(areas[0]), "exact-halfplane")
    if body.kind == "product":
        nl = body.left.n
        tail = max(np.abs(plane.u[nl:]).max(initial=0.0), np.abs(plane.v[nl:]).max(initial=0.0))
        if tail <= 1e-13:
            return cross_section(body.left, Plane2(plane.u[:nl], plane.v[:nl]), radial_n)
    return _radial_section(body, plane, TOL.radial_n if radial_n is None else radial_n)


def abs_sum_section_areas(functionals: np.ndarray, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Exact section areas for one abs-sum body over a batch of planes.

    U, V hold orthonormal plane bases row-wise.  This is the `section_fan`
    kernel on the restricted functionals, so the areas are bitwise those of
    `cross_section` on the same planes, whatever the batch.
    """
    L = np.asarray(functionals, dtype=float)
    return section_fan(_restrict(L, np.asarray(U, dtype=float)),
                       _restrict(L, np.asarray(V, dtype=float)))[0]


def section_areas(body: Body, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Euclidean areas of body cut by span(U[i], V[i]) for orthonormal rows U[i], V[i].

    Abs-sum bodies take `abs_sum_section_areas` (exact, one batched call);
    other bodies take `cross_section` per plane.
    """
    if isinstance(body, AbsSumBody):
        return abs_sum_section_areas(body.functionals, U, V)
    return np.array([cross_section(body, Plane2(u, v)).euclidean_area for u, v in zip(U, V)])
