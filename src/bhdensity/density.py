"""Busemann-Hausdorff densities on 2-planes and their codimension-two twins.

The 2-density of a body B at a simple bivector w is
``alpha_2 * |w|_2 / H^2(B intersect span(w))``; the codimension-two variant
replaces the exact planar section by a quasi-Monte Carlo volume of the
(n-2)-dimensional central section, with the spanning subspace recovered
through the Hodge dual.  That volume is the polar (radial) integral
vol(B cut by E) = alpha_m * E[rho(theta)^m], theta uniform on the unit
sphere of E and rho = 1 / gauge (Gardner, Geometric Tomography), taken by a
randomly shifted rule: the rectangle rule on the circle for m = 2 and the R3
Kronecker point set on S^3 for m = 4, with 64 random shifts whose spread
gives the standard error (L'Ecuyer and Lemieux, "Variance reduction via
lattice rules", Management Science 46, 2000).  The normalizing ball volume
alpha_m is kept in both densities (any constant cancels from every
convexity statement).
"""

import math
from dataclasses import dataclass

import numpy as np

from .bodies import Body, minkowski_many
from .errors import (
    DegenerateSpan,
    DimensionMismatch,
    InsufficientSamples,
    NotSimple,
    ZeroBivector,
)
from .geom import (
    Bivector,
    Plane2,
    _philox_streams,
    check_seed,
    gram_schmidt,
    hodge_star,
    hodge_star_codim,
    plucker_defect,
)
from .sections import cross_section
from .tolerances import TOL


@dataclass(frozen=True)
class DensityValue:
    value: float
    body: str
    bivector_norm: float
    stderr: float | None = None


def alpha(m: int) -> float:
    """Volume of the Euclidean unit m-ball, pi^(m/2) / Gamma(m/2 + 1)."""
    if not (1 <= m <= 8):
        raise DimensionMismatch("ball dimension must be in 1..8")
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def plane_from_bivector(w: Bivector) -> Plane2:
    """Recover an orthonormal basis of span(w) for a simple bivector.

    Columns of the antisymmetric coordinate matrix lie in the span; the two
    of largest Euclidean norm (ties by index) are orthonormalized, falling
    back to further column pairs if the preferred pair is degenerate.
    """
    nrm = w.norm
    if nrm == 0.0:
        raise ZeroBivector("cannot span a plane from the zero bivector")
    if abs(plucker_defect(w)) > TOL.simplicity_rel * nrm**2:
        raise NotSimple(f"plucker defect {plucker_defect(w):.3g} too large")
    n = w.n
    mat = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    mat[iu] = w.coords
    mat -= mat.T
    col_norms = np.linalg.norm(mat, axis=0)
    order = sorted(range(n), key=lambda j: (-col_norms[j], j))
    for a_idx in range(n):
        for b_idx in range(a_idx + 1, n):
            try:
                return gram_schmidt(mat[:, order[a_idx]], mat[:, order[b_idx]])
            except DegenerateSpan:
                continue
    raise NotSimple("could not extract two independent columns")


def bh_density_2(body: Body, w: Bivector) -> DensityValue:
    """Two-dimensional density alpha_2 |w|_2 / H^2(body cut by span(w))."""
    if w.n != body.n:
        raise DimensionMismatch("bivector and body dimensions differ")
    plane = plane_from_bivector(w)
    area = cross_section(body, plane).euclidean_area
    return DensityValue(math.pi * w.norm / area, body.label, w.norm)


def bh_area(body: Body, plane: Plane2, euclidean_area: float) -> float:
    """Normed 2-measure of a planar set of the given Euclidean area."""
    if euclidean_area < 0.0:
        raise ValueError("euclidean_area must be nonnegative")
    return math.pi * euclidean_area / cross_section(body, plane).euclidean_area


def _orthocomplement(plane: Plane2) -> np.ndarray:
    """Orthonormal basis (columns) of the complement of a 2-plane."""
    q, _ = np.linalg.qr(np.column_stack((plane.u, plane.v)), mode="complete")
    return q[:, 2:]


_MC_CHUNK = 1 << 12  # points per array pass
_MC_SHIFTS = 64  # random shifts; the standard error has 63 degrees of freedom
# R3 Kronecker step (1/g, 1/g^2, 1/g^3), g = 1.2207440846... the real root of x^4 = x + 1
_R3_STEP = 1.2207440846057596 ** -np.arange(1.0, 4.0)


def _frac(x: np.ndarray) -> np.ndarray:
    return x - np.floor(x)


def mc_section_volume(
    body: Body, basis: np.ndarray, n_samples: int, seed: int = 0
) -> tuple[float, float]:
    """Randomly shifted quasi-Monte Carlo volume of body cut by E = span(basis columns).

    Polar identity: vol(K cut by E) = alpha_m * E[gauge(theta)^(-m)] over theta
    uniform on the unit sphere of E, m = 2 or 4 (any other m raises
    DimensionMismatch).  The points are frac(Delta + k * step), k < N =
    n_samples // 64, for each of 64 shifts Delta drawn uniform from
    `_philox_streams(seed)`: for m = 2, step = 1/N and theta = 2 pi u is the
    shifted rectangle rule on the circle; for m = 4, step is the R3
    Kronecker vector (1/g, 1/g^2, 1/g^3), g^4 = g + 1 (Niederreiter 1992),
    and u in [0, 1)^3 goes to S^3 by Hopf coordinates
    (sqrt(1 - t) e^(2 pi i u2), sqrt(t) e^(2 pi i u3)) with the tent
    t = 1 - |2 u1 - 1|.  Every shift is an unbiased estimate (L'Ecuyer and
    Lemieux 2000).  The angles come from per-call tables exp(2 pi i j step),
    j < `_MC_CHUNK`, rotated by one complex multiply per chunk, and the
    complex points viewed as floats are the interleaved coordinates of E.

    Returns (volume, stderr): alpha_m times the mean of the shift means and
    their standard error over the shifts (63 degrees of freedom), floored at
    TOL.mc_rounding_rel of the volume, the rounding the spread cannot see.
    Below 64 samples no shift has a point: the volume is nan and the stderr
    infinite.  Raises ValueError for n_samples < 1 or a seed outside
    [0, 2**64).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    check_seed(seed)
    m = basis.shape[1]
    if m not in (2, 4):
        raise DimensionMismatch(f"section volumes are estimated in dimension 2 or 4, not {m}")
    n_pts = n_samples // _MC_SHIFTS
    if n_pts == 0:
        return math.nan, math.inf
    shifts = _philox_streams(seed)(0).random((_MC_SHIFTS, m - 1))
    step = np.array([1.0 / n_pts]) if m == 2 else _R3_STEP
    turns = slice(m // 2 - 1, None)  # the coordinates of u that are angles
    rows = min(n_pts, _MC_CHUNK)
    group = _MC_CHUNK // rows  # shifts per pass when a shift has fewer points than a chunk
    offsets = _frac(np.arange(rows)[:, None] * step)
    spins = np.exp(2j * np.pi * offsets[:, turns])
    sums = np.zeros(_MC_SHIFTS)
    for k0 in range(0, n_pts, rows):
        take = min(rows, n_pts - k0)
        for s0 in range(0, _MC_SHIFTS, group):
            base = _frac(shifts[s0 : s0 + group] + k0 * step)[:, None, :]
            z = spins[:take] * np.exp(2j * np.pi * base[..., turns])
            if m == 4:
                # u1 = base + offset lies in [0, 2), where 1 - tent(frac(u1)) = ||2 u1 - 2| - 1|
                co_t = np.abs(np.abs(2.0 * base[..., 0] - 2.0 + 2.0 * offsets[:take, 0]) - 1.0)
                z[..., 0] *= np.sqrt(co_t)
                z[..., 1] *= np.sqrt(1.0 - co_t)
            y = 1.0 / minkowski_many(body, z.view(float).reshape(-1, m) @ basis.T)
            y *= y
            if m == 4:
                y *= y
            sums[s0 : s0 + group] += y.reshape(len(base), take).sum(axis=1)
    means = sums / n_pts
    mean = float(means.mean())
    spread = float(means.std(ddof=1)) / math.sqrt(_MC_SHIFTS)
    a = alpha(m)
    return a * mean, a * max(spread, TOL.mc_rounding_rel * mean)


def bh_density_codim2(
    body: Body, w, mc_samples: int = 1_000_000, seed: int = 0
) -> DensityValue:
    """Codimension-two density alpha_(n-2) |w|_2 / H^(n-2)(body cut by span w).

    ``w`` is a simple (n-2)-vector: a Bivector when n = 4, otherwise the
    lex-ordered coordinate array of degree n-2.  The spanning subspace is
    the orthogonal complement of the plane of the Hodge-dual bivector, and
    the section volume is the seeded randomly shifted quasi-Monte Carlo
    estimate of `mc_section_volume`, whose standard error (the spread of its
    64 shift means, 63 degrees of freedom) the density's stderr carries
    over.  Raises InsufficientSamples below 64 samples, where a shift has no
    point, and when the standard error exceeds TOL.mc_rel_stderr of the
    volume, and, through `plane_from_bivector`, ZeroBivector or NotSimple for
    a zero or non-simple multivector.
    """
    n = body.n
    if n not in (4, 6):
        raise DimensionMismatch("codimension-two densities are supported for n in {4, 6}")
    if isinstance(w, Bivector):
        if w.n != n:
            raise DimensionMismatch("bivector and body dimensions differ")
        coords = w.coords
        dual = hodge_star(w)
    else:
        coords = np.asarray(w, dtype=float)
        dual = hodge_star_codim(coords, n)
    basis = _orthocomplement(plane_from_bivector(dual))
    if mc_samples < _MC_SHIFTS:
        raise InsufficientSamples(
            f"{mc_samples} samples leave a shift without a point; at least {_MC_SHIFTS} are needed"
        )
    volume, vol_se = mc_section_volume(body, basis, mc_samples, seed)
    if vol_se > TOL.mc_rel_stderr * volume:
        raise InsufficientSamples(
            f"relative standard error {vol_se / volume:.3g} exceeds {TOL.mc_rel_stderr:.0%}"
        )
    w_norm = float(np.linalg.norm(coords))
    value = alpha(n - 2) * w_norm / volume
    stderr = value * vol_se / volume
    return DensityValue(value, body.label, w_norm, stderr)
