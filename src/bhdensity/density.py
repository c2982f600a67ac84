"""Busemann-Hausdorff densities on 2-planes and their codimension-two twins.

The 2-density of a body B at a simple bivector w is
``alpha_2 * |w|_2 / H^2(B intersect span(w))``; the codimension-two variant
replaces the exact planar section by a Monte Carlo volume of the
(n-2)-dimensional central section, with the spanning subspace recovered
through the Hodge dual.  That volume is the polar (radial) estimate
vol(B cut by E) = alpha_m * E[rho(theta)^m], theta uniform on the unit
sphere of E and rho = 1 / gauge (Gardner, Geometric Tomography), with a
standard error alpha_m * s / sqrt(n) from the sample standard deviation s.
The normalizing ball volume alpha_m is kept in both densities (any
constant cancels from every convexity statement).
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


_MC_CHUNK = 1 << 12


def mc_section_volume(
    body: Body, basis: np.ndarray, n_samples: int, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo volume of body cut by the subspace E spanned by basis columns.

    Polar estimator: vol(K cut by E) = alpha_m * E[rho(theta)^m] with theta
    uniform on the unit sphere of E and rho = 1 / gauge the radial function.
    A standard Gaussian g in R^m mapped isometrically into E has a uniform
    direction, and by homogeneity rho(g/|g|)^m = (|g| / gauge(g))^m, so no
    outer box is needed.  Returns (volume, stderr) with stderr
    alpha_m * s / sqrt(n) for the sample standard deviation s; one sample
    has no sample variance and gets an infinite stderr.  Chunks are keyed
    by (seed, chunk index) on one `_philox_streams` generator, and their
    means and centred sums of squares are merged pairwise, so the result
    is independent of any parallel scheduling of the chunks.  Raises
    ValueError for a seed outside [0, 2**64).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    check_seed(seed)
    m = basis.shape[1]
    done = 0
    mean = 0.0
    sq_dev = 0.0
    chunk_idx = 0
    keyed = _philox_streams(seed)
    while done < n_samples:
        take = min(_MC_CHUNK, n_samples - done)
        g = keyed(chunk_idx).standard_normal((take, m))
        radial = np.sqrt(np.einsum("ij,ij->i", g, g)) / minkowski_many(body, g @ basis.T)
        y = radial**m
        chunk_mean = float(y.mean())
        dev = y - chunk_mean
        total = done + take
        delta = chunk_mean - mean
        mean += delta * take / total
        sq_dev += float(dev @ dev) + delta * delta * done * take / total
        done = total
        chunk_idx += 1
    var = sq_dev / (n_samples - 1) if n_samples > 1 else math.inf
    a = alpha(m)
    return a * mean, a * math.sqrt(var / n_samples)


def bh_density_codim2(
    body: Body, w, mc_samples: int = 1_000_000, seed: int = 0
) -> DensityValue:
    """Codimension-two density alpha_(n-2) |w|_2 / H^(n-2)(body cut by span w).

    ``w`` is a simple (n-2)-vector: a Bivector when n = 4, otherwise the
    lex-ordered coordinate array of degree n-2.  The spanning subspace is
    the orthogonal complement of the plane of the Hodge-dual bivector, and
    the section volume is the seeded polar estimate of `mc_section_volume`
    with its sample-variance standard error.  Raises InsufficientSamples
    when that error exceeds TOL.mc_rel_stderr of the volume, which always
    holds for a single sample.
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
    w_norm = float(np.linalg.norm(coords))
    if w_norm == 0.0:
        raise ZeroBivector("zero multivector")
    if abs(plucker_defect(dual)) > TOL.simplicity_rel * w_norm**2:
        raise NotSimple("multivector is not simple within tolerance")
    dual_plane = plane_from_bivector(dual)
    basis = _orthocomplement(dual_plane)
    volume, vol_se = mc_section_volume(body, basis, mc_samples, seed)
    if volume <= 0.0 or vol_se / volume > TOL.mc_rel_stderr:
        raise InsufficientSamples(
            f"relative standard error {vol_se / volume if volume else float('inf'):.3g} "
            f"exceeds {TOL.mc_rel_stderr:.0%}"
        )
    value = alpha(n - 2) * w_norm / volume
    stderr = value * vol_se / volume
    return DensityValue(value, body.label, w_norm, stderr)
