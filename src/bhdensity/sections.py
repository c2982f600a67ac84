"""Cross-sections of bodies with central 2-planes and their Euclidean areas.

Abs-sum bodies {x : sum_j |l_j(x)| <= 1} have one exact section kernel,
`section_fan`.  Restricted to a plane, the gauge bends only on the kink
rays where some restricted functional vanishes, so the section polygon's
vertices are the gauge-normalized points on those rays sorted by angle:
O(k^2) work for k functionals.  Smooth bodies have one radial-rule kernel.

`section_areas` is the one area entry point: abs-sum bodies take
`section_fan`, product planes inside the left factor the factor's section,
other planes the radial kernel.  Every caller that needs an area calls it,
one plane as a one-row batch.  `cross_section` is the one-plane view with
the polygon, for the `section` command; a plane's area is bitwise the same
alone, in any batch and in `cross_section`.
"""

from dataclasses import dataclass

import numpy as np

from .bodies import AbsSumBody, Body, minkowski_many
from .errors import DimensionMismatch, UnboundedSection
from .geom import Plane2, check_plane_basis, dot_rows
from .tolerances import TOL

_RAY_CHUNK = 1 << 16  # rays per gauge call of the radial rule: 16 planes at N = 4096


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
    The array is the transpose of a contiguous (k, n_rows) one, the layout `section_fan`
    works in.
    """
    X = X.T
    out = L[:, :1] * X[0]
    for i in range(1, L.shape[1]):
        out += L[:, i : i + 1] * X[i]
    return out.T


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

    The k x k work runs on (k, k, planes) arrays, the plane axis innermost and
    contiguous when A and Bc come from `_restrict`.  numpy's reduction over the
    leading axis adds each gauge's k terms one at a time, so a plane's bits do
    not depend on the batch.  The angle sort, the gathers and the shoelace sum
    run on contiguous (planes, 2k) rows.  Reductions call the ufuncs, not the
    array methods, whose Python wrappers would weigh on one-plane calls.
    """
    B, k = A.shape
    C = A.T + 1j * Bc.T
    h = np.abs(C)
    live = h > 0.0
    cross = np.abs((C.conj() * C[:, None]).imag)  # [j, i] = |Im(conj(c_i) c_j)| = |cross_ij|
    parallel = (cross <= TOL.geometric * h * h[:, None]) & live
    rep = parallel.T.argmax(axis=1)  # rep[b, j]: the first live c_i parallel to c_j
    lead = (rep == np.arange(k)) & live.T
    if np.minimum.reduce(np.add.reduce(lead, 1)) < 2:
        raise UnboundedSection("functionals restricted to the plane do not span")
    gauge = np.add.reduce(cross, 0)
    at = rep * B + np.arange(B)[:, None]  # flat (k, planes) indices of the points' functionals
    z = 1j * C.ravel()[at] / gauge.ravel()[at]
    z = np.concatenate((z, -z), axis=1)
    order = np.arctan2(z.imag, z.real).argsort(axis=1, kind="stable")
    order += np.arange(0, 2 * k * B, 2 * k)[:, None]  # flat indices into the (planes, 2k) rows
    keep = np.concatenate((lead, lead), axis=1).ravel()[order]
    z = z.ravel()[order]
    # shoelace sum over the closed cycle of sorted points
    zc = z.conj()
    twice = np.add.reduce((zc[:, :-1] * z[:, 1:]).imag, 1) + (zc[:, -1] * z[:, 0]).imag
    return 0.5 * np.abs(twice), z, keep


def _radial_areas(body: Body, U: np.ndarray, V: np.ndarray, n_angles: int):
    # (areas, theta, r = 1/gauge of shape (m, N)) by the periodic rectangle rule on r^2/2 over
    # N rays: error O(N^-2) for convex sections and none for discs, inside 1e-6 at N = 4096
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    # coordinate-major (n, m, N) rays, so the gauge reads contiguous rows
    rays = np.ascontiguousarray(U.T)[:, :, None] * np.cos(theta)
    rays += np.ascontiguousarray(V.T)[:, :, None] * np.sin(theta)
    r = 1.0 / minkowski_many(body, rays.reshape(body.n, -1).T).reshape(len(U), n_angles)
    return np.pi / n_angles * dot_rows(r, r), theta, r


def _in_left_factor(body: Body, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Rows within 1e-13 of a product body's left factor, which take the factor's section."""
    if isinstance(body, AbsSumBody) or body.kind != "product":
        return np.zeros(len(U), dtype=bool)
    return np.abs(np.stack((U, V), axis=1)[:, :, body.left.n :]).max(axis=(1, 2)) <= 1e-13


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
        L = body.functionals
        areas, z, keep = section_fan(_restrict(L, plane.u[None]), _restrict(L, plane.v[None]))
        polygon = Polygon2(np.column_stack((z.real[keep], z.imag[keep])))
        return SectionReport(polygon, float(areas[0]), "exact-halfplane")
    if _in_left_factor(body, plane.u[None, :], plane.v[None, :])[0]:
        nl = body.left.n
        return cross_section(body.left, Plane2(plane.u[:nl], plane.v[:nl]), radial_n)
    n_angles = TOL.radial_n if radial_n is None else radial_n
    areas, theta, r = _radial_areas(body, plane.u[None, :], plane.v[None, :], n_angles)
    verts = np.column_stack((r[0] * np.cos(theta), r[0] * np.sin(theta)))
    return SectionReport(Polygon2(verts), float(areas[0]), f"radial({n_angles})")


def _as_plane_rows(U, V, n: int):
    """U and V as float arrays of one shape (m, n); DimensionMismatch otherwise."""
    U, V = np.asarray(U, dtype=float), np.asarray(V, dtype=float)
    if U.ndim != 2 or U.shape[1] != n or V.shape != U.shape:
        raise DimensionMismatch(f"plane rows must have shape (m, {n}), got {U.shape} and {V.shape}")
    return U, V


def abs_sum_section_areas(functionals: np.ndarray, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Exact section areas for one abs-sum body over a batch of planes.

    U, V hold orthonormal plane bases row-wise, of shape (m, n) for n
    columns of functionals (DimensionMismatch otherwise).  This is the
    `section_fan` kernel on the restricted functionals, so the areas are
    bitwise those of `cross_section` on the same planes, whatever the batch.
    """
    L = np.asarray(functionals, dtype=float)
    U, V = _as_plane_rows(U, V, L.shape[-1])
    return section_fan(_restrict(L, U), _restrict(L, V))[0]


def section_areas(body: Body, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Euclidean areas of body cut by span(U[i], V[i]) for orthonormal rows U[i], V[i].

    The rows must have shape (m, body.n) (DimensionMismatch) and pass
    `check_plane_basis` (DegenerateSpan).  Abs-sum bodies take
    `abs_sum_section_areas` (exact, one batched call); a product plane inside
    the left factor takes the factor's area; the rest take the radial rule.
    """
    U, V = _as_plane_rows(U, V, body.n)
    check_plane_basis(*(np.einsum("ij,ij->i", a, b) for a, b in ((U, U), (V, V), (U, V))))
    if isinstance(body, AbsSumBody):
        return abs_sum_section_areas(body.functionals, U, V)
    areas, left = np.empty(len(U)), _in_left_factor(body, U, V)
    if left.any():
        areas[left] = section_areas(body.left, U[left, : body.left.n], V[left, : body.left.n])
    rest, step = np.flatnonzero(~left), max(1, _RAY_CHUNK // TOL.radial_n)
    for rows in np.split(rest, range(step, rest.size, step)):
        areas[rows] = _radial_areas(body, U[rows], V[rows], TOL.radial_n)[0]
    return areas
