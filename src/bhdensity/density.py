"""Busemann-Hausdorff densities on 2-planes and their codimension-two twins.

The 2-density of a body B at a simple bivector w is
``alpha_2 * |w|_2 / H^2(B intersect span(w))``; the codimension-two variant
replaces the exact planar section by a quasi-Monte Carlo volume of the
(n-2)-dimensional central section, with the spanning subspace recovered
through the Hodge dual.  That volume is the polar (radial) integral
vol(B cut by E) = alpha_m * E[rho(theta)^m], theta uniform on the unit
sphere of E and rho = 1 / gauge (Gardner, Geometric Tomography), taken by a
randomly rotated rule: one fixed point set of the sphere, the rectangle
rule on the circle for m = 2 and the R3 Kronecker point set mapped to S^3
for m = 4, scored in 64 Haar-random orthogonal frames of E whose spread
gives the standard error (Brauchart, Saff, Sloan and Womersley, "QMC
designs: optimal order quasi Monte Carlo integration schemes on the
sphere", Math. Comp. 83, 2014).  The normalizing ball volume
alpha_m is kept in both densities (any constant cancels from every
convexity statement).
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bodies import Body, gauge_power
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
    hodge_star_codim,
    plucker_defect,
)
from .sections import section_areas
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
    area = section_areas(body, plane.u[None], plane.v[None]).item()
    return DensityValue(math.pi * w.norm / area, body.label, w.norm)


def bh_area(body: Body, plane: Plane2, euclidean_area: float) -> float:
    """Normed 2-measure of a planar set of the given Euclidean area."""
    if not (math.isfinite(euclidean_area) and euclidean_area >= 0.0):
        raise ValueError(f"euclidean_area must be finite and nonnegative, got {euclidean_area}")
    return math.pi * euclidean_area / section_areas(body, plane.u[None], plane.v[None]).item()


def _orthocomplement(plane: Plane2) -> np.ndarray:
    """Orthonormal basis (columns) of the complement of a 2-plane."""
    q, _ = np.linalg.qr(np.column_stack((plane.u, plane.v)), mode="complete")
    return q[:, 2:]


_MC_CHUNK = 1 << 12  # points per gauge call
_MC_ROTATIONS = 64  # random rotations; the standard error has 63 degrees of freedom
# R3 Kronecker step (1/g, 1/g^2, 1/g^3), g = 1.2207440846... the real root of x^4 = x + 1
_R3_STEP = 1.2207440846057596 ** -np.arange(1.0, 4.0)


def mc_section_volume(
    body: Body, basis: np.ndarray, n_samples: int, seed: int = 0
) -> tuple[float, float]:
    """Randomly rotated quasi-Monte Carlo volume of body cut by E = span(basis columns).

    Polar identity: vol(K cut by E) = alpha_m * E[gauge(theta)^(-m)] over theta
    uniform on the unit sphere of E, m = 2 or 4 (any other m raises
    DimensionMismatch).  One fixed set of N = n_samples // 64 points p_k of
    the unit sphere of R^m is scored in 64 frames basis @ Q_s, where Q_s is
    a Haar orthogonal matrix drawn from `_philox_streams(seed)`: the QR of
    a Gaussian m x m matrix with the signs of its columns fixed by diag R,
    a zero counting as + (Mezzadri, Notices AMS 54, 2007).  Q_s p is uniform
    on the sphere for every fixed p, so each rotation is an unbiased
    estimate (a randomized QMC design on the sphere: Brauchart, Saff, Sloan
    and Womersley, Math. Comp. 83, 2014).  For m = 2 the points are the
    angles 2 pi k / N, so a rotation turns the rectangle rule by a random
    angle, up to a reflection; for m = 4 they are the R3 Kronecker points
    u = frac(k (1/g, 1/g^2, 1/g^3)), g^4 = g + 1 (Niederreiter 1992), mapped
    to S^3 by Hopf coordinates (sqrt(1 - t) e^(2 pi i u2), sqrt(t) e^(2 pi i u3))
    with the tent t = 1 - |2 u1 - 1|.  The points are built coordinate-major,
    `_MC_CHUNK` at a time, and `gauge_power(body, frame @ points, -m)`
    scores each chunk in each frame.

    Returns (volume, stderr): alpha_m times the mean of the rotation means
    and their standard error over the rotations (63 degrees of freedom),
    floored at TOL.mc_rounding_rel of the volume, the rounding the spread
    cannot see.  Below 64 samples no rotation has a point: the volume is
    nan and the stderr infinite.  Raises ValueError for n_samples other than
    an integer >= 1 (numpy integers count, 1e5 does not), a seed outside
    [0, 2**64) or basis columns that are not orthonormal to TOL.geometric,
    and DimensionMismatch unless basis has body.n rows.
    """
    try:
        n_samples = operator.index(n_samples)
    except TypeError:
        n_samples = 0
    if n_samples < 1:
        raise ValueError("n_samples must be an integer >= 1")
    check_seed(seed)
    if basis.ndim != 2 or basis.shape[0] != body.n:
        raise DimensionMismatch(f"basis must have {body.n} rows, got shape {basis.shape}")
    m = basis.shape[1]
    if m not in (2, 4):
        raise DimensionMismatch(f"section volumes are estimated in dimension 2 or 4, not {m}")
    if np.abs(basis.T @ basis - np.eye(m)).max() > TOL.geometric:
        raise ValueError("basis columns must be orthonormal")
    n_pts = n_samples // _MC_ROTATIONS
    if n_pts == 0:
        return math.nan, math.inf
    q, r = np.linalg.qr(_philox_streams(seed)(0).standard_normal((_MC_ROTATIONS, m, m)))
    frames = basis @ (q * np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None])
    sums = np.zeros(_MC_ROTATIONS)
    for k0 in range(0, n_pts, _MC_CHUNK):
        k = np.arange(k0, min(k0 + _MC_CHUNK, n_pts))
        if m == 2:
            radii, turns = 1.0, k[None] / n_pts
        else:
            u = _R3_STEP[:, None] * k % 1.0
            t = 1.0 - np.abs(2.0 * u[0] - 1.0)
            radii, turns = np.sqrt(np.stack((1.0 - t, t)))[:, None], u[1:]
        angles = 2.0 * np.pi * turns
        points = (radii * np.stack((np.cos(angles), np.sin(angles)), axis=1)).reshape(m, -1)
        for s, frame in enumerate(frames):
            sums[s] += gauge_power(body, frame @ points, -m).sum()
    means = sums / n_pts
    mean = float(means.mean())
    spread = float(means.std(ddof=1)) / math.sqrt(_MC_ROTATIONS)
    a = alpha(m)
    return a * mean, a * max(spread, TOL.mc_rounding_rel * mean)


def bh_density_codim2(
    body: Body, w, mc_samples: int = 1_000_000, seed: int = 0
) -> DensityValue:
    """Codimension-two density alpha_(n-2) |w|_2 / H^(n-2)(body cut by span w).

    ``w`` is a simple (n-2)-vector: its lex-ordered coordinate array of
    degree n-2, or, when n = 4, a Bivector.  The spanning subspace is the
    orthogonal complement of the plane of the Hodge-dual bivector, and
    the section volume is the seeded randomly rotated quasi-Monte Carlo
    estimate of `mc_section_volume`, whose standard error (the spread of its
    64 rotation means, 63 degrees of freedom) the density's stderr carries
    over.  Raises InsufficientSamples below 64 samples, where a rotation has
    no point, and when the standard error exceeds TOL.mc_rel_stderr of the
    volume, and, through `plane_from_bivector`, ZeroBivector or NotSimple for
    a zero or non-simple multivector.
    """
    n = body.n
    if n not in (4, 6):
        raise DimensionMismatch("codimension-two densities are supported for n in {4, 6}")
    if isinstance(w, Bivector):
        if w.n != n:
            raise DimensionMismatch("bivector and body dimensions differ")
        w = w.coords
    coords = np.asarray(w, dtype=float)
    basis = _orthocomplement(plane_from_bivector(hodge_star_codim(coords, n)))
    if mc_samples < _MC_ROTATIONS:
        raise InsufficientSamples(
            f"{mc_samples} samples leave a rotation without a point; "
            f"at least {_MC_ROTATIONS} are needed"
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
