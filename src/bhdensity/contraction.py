"""Projection-contraction machinery and the no-contraction certificate.

A linear projection onto W0 = span(e1, e2) is determined by four reals
(a, b, c, d) filling the top-right 2x2 block of its matrix.  Such a
projection scales Euclidean 2-area on a plane V by a constant factor
lambda(V) = |f|, where in the Plucker coordinates p_ij of V

    f = p01 + c p02 + d p03 - a p12 - b p13 + (ad - bc) p23
      = G(b, c, d) + a H(d);

it contracts the normed Hausdorff 2-measure only if
lambda(V) * H^2(C cut V) <= H^2(C cut W0) for every plane V.  f has degree
at most one in each parameter, so over a box of parameters it is extreme at
the box's corners.  The certificate uses that twice: to find the least best
gap on a parameter grid by branch and bound, and then to bound the best
witness gap from below on cells bisected from the parameter box, splitting
the cells that do not clear the threshold.  Outside the box it bounds the
gap in closed form through the four coordinate planes whose f is -a, -b, c
or d.
"""

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bodies import AbsSumBody, Body, SmoothBody
from .errors import CertificateFailed, DegenerateSpan, DimensionMismatch, IllConditioned, InvalidId
from .geom import Plane2, check_seed, gram_schmidt, random_planes, wedge_rows
from .sections import section_areas

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ProjectionW0:
    """The projection onto span(e1, e2) with top-right block [[a, b], [c, d]]."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[0] = x[0] + self.a * x[2] + self.b * x[3]
        out[1] = x[1] + self.c * x[2] + self.d * x[3]
        return out


# axis attached to (e1, e2) and the sign pattern, for indices 1..8
_FAMILY_AXES = {
    1: (2, 3, +1.0, +1.0),
    2: (2, 3, -1.0, -1.0),
    3: (2, 3, -1.0, +1.0),
    4: (2, 3, +1.0, -1.0),
    5: (3, 2, +1.0, +1.0),
    6: (3, 2, -1.0, -1.0),
    7: (3, 2, -1.0, +1.0),
    8: (3, 2, +1.0, -1.0),
}


def named_plane(index: int, epsilon: float = 0.0) -> Plane2:
    """The nine named planes of the witness family (in R^4).

    Indices 1..8 tilt (e1, e2) into the (e3, e4) directions by epsilon with
    the four sign patterns on either axis pairing; index 9 is the fixed
    far-away plane.  epsilon = 0 degenerates indices 1..8 to W0.  Raises
    InvalidId for an index outside 1..9 or, below 9, |epsilon| > 0.5 or NaN.
    """
    if index not in range(1, 10):
        raise InvalidId(f"plane index {index} outside 1..9")
    if index == 9:
        s = 1.0 / SQRT2
        return Plane2(np.array([s, 0.0, s, 0.0]), np.array([0.0, s, 0.0, -s]))
    eps = float(epsilon)
    if not abs(eps) <= 0.5:
        raise InvalidId("epsilon must satisfy |eps| <= 0.5")
    ax_u, ax_v, sign_u, sign_v = _FAMILY_AXES[index]
    scale = 1.0 / np.sqrt(1.0 + eps * eps)
    u = np.zeros(4)
    v = np.zeros(4)
    u[0] = scale
    u[ax_u] = sign_u * eps * scale
    v[1] = scale
    v[ax_v] = sign_v * eps * scale
    return Plane2(u, v)


def w0_plane(n: int = 4) -> Plane2:
    u = np.zeros(n)
    v = np.zeros(n)
    u[0] = 1.0
    v[1] = 1.0
    return Plane2(u, v)


def _factor_terms(a, b, c, d, p):
    """The two terms (G, a H) of the signed factor f = G(b, c, d) + a H(d).

    G = p01 + c p02 + d p03 - b (p13 + c p23) and H = d p23 - p12, each
    evaluated left to right in that order.  On broadcast grid axes G is a
    (b, c, d) table and a H an (a, d) table.
    """
    p01, p02, p03, p12, p13, p23 = p
    return p01 + c * p02 + d * p03 - b * (p13 + c * p23), a * (d * p23 - p12)


def _signed_factors(a, b, c, d, p):
    """Signed area factor pi(u) ^ pi(v) of the projection with block [[a, b], [c, d]].

    ``p`` holds the Plucker coordinates [p01, p02, p03, p12, p13, p23] of
    span(u, v), the `wedge_rows` of u and v, along its first axis (six numbers
    or a (6, n_planes) table); the parameters broadcast against them.  f is
    multilinear and is evaluated split as G(b, c, d) + a H(d), the sum of
    `_factor_terms`: `_lattice_bounds` adds tables of the two terms, and every
    other caller gets the same bits from the same order.
    """
    g, ah = _factor_terms(a, b, c, d, p)
    return g + ah


def area_factor(p: ProjectionW0, plane: Plane2) -> float:
    """Euclidean 2-area scaling factor |pi(u) ^ pi(v)| of the projection."""
    if plane.n < 4:
        raise DimensionMismatch("projection family needs dimension >= 4")
    return float(abs(_signed_factors(p.a, p.b, p.c, p.d, wedge_rows(plane.u[:4], plane.v[:4]))))


def contraction_gap(body: Body, p: ProjectionW0, plane: Plane2) -> float:
    """lambda * H^2(body cut plane) - H^2(body cut W0).

    Positive values witness that the projection increases the normed
    Hausdorff 2-measure of sets inside the plane.
    """
    if plane.n != body.n:
        raise DimensionMismatch("body and plane dimensions differ")
    lam = area_factor(p, plane)
    w0 = w0_plane(body.n)
    area_v, w0_area = section_areas(body, np.stack((plane.u, w0.u)), np.stack((plane.v, w0.v)))
    return float(lam * area_v - w0_area)


def lemma_lower_bound(family: str, eps: float) -> float:
    """Closed-form lower bounds for the tilted-plane section areas.

    ``v1v2`` covers the planes tilted with matching signs on (e3, e4);
    ``v3v4`` the mixed-sign pair.  Both reduce to 8/(4 + 3*sqrt(2)) at
    eps = 0 and are even in eps.
    """
    if not abs(eps) < 0.5:
        raise ValueError("|eps| must be below 0.5")
    e2 = eps * eps
    if family == "v1v2":
        lead = 4.0 * (1.0 + e2) / (1.0 + SQRT2 + (SQRT2 - 1.0) * e2)
        bracket = (1.0 - eps) / (2.0 + SQRT2 - (2.0 - SQRT2) * eps) + (1.0 + eps) / (
            2.0 + SQRT2 + (2.0 - SQRT2) * eps
        )
        return lead * bracket
    if family == "v3v4":
        return 8.0 * (1.0 + e2) / (
            (SQRT2 + 1.0 + (SQRT2 - 1.0) * eps) * (SQRT2 + 2.0 + (SQRT2 - 2.0) * eps)
        )
    raise InvalidId(f"unknown bound family {family!r}; use 'v1v2' or 'v3v4'")


def taylor_fit(area_fn, eps_grid) -> tuple[float, float, float]:
    """Least-squares fit f(eps) ~ a + c eps^2 + d eps^4 over the grid.

    Returns (a, c, max residual).  The function must be even in eps (checked
    pointwise) and the grid must span at least one decade.
    """
    grid = sorted(float(e) for e in eps_grid)
    if len(set(grid)) < 4:
        raise IllConditioned("need at least 4 distinct eps values")
    if not all(0.0 < e <= 0.05 for e in grid):
        raise ValueError("eps grid must lie in (0, 0.05]")
    if grid[-1] / grid[0] < 10.0 - 1e-9:
        raise IllConditioned("eps grid spans less than one decade")
    vals = []
    for e in grid:
        fe = float(area_fn(e))
        fm = float(area_fn(-e))
        if abs(fe - fm) >= 1e-10:
            raise ValueError(f"area function is not even at eps={e}")
        vals.append(fe)
    g = np.asarray(grid)
    design = np.column_stack((np.ones_like(g), g**2, g**4))
    coef, *_ = np.linalg.lstsq(design, np.asarray(vals), rcond=None)
    resid = float(np.abs(design @ coef - vals).max())
    return float(coef[0]), float(coef[1]), resid


@dataclass(frozen=True)
class PinningReport:
    """Admissible-parameter intervals from the tilted-plane pairs at one eps."""

    eps: float
    intervals: dict

    @property
    def widths(self) -> dict:
        return {combo: hi - lo for combo, (lo, hi) in self.intervals.items()}


# the plane pair (first, second) of each pinned combination
_PIN_PAIRS = {"a+d": (1, 2), "a-d": (4, 3), "b+c": (5, 6), "b-c": (8, 7)}


def projection_pinning(body: Body, eps: float) -> PinningReport:
    """Interval bounds on (a+d, a-d, b+c, b-c) from the eight tilted planes.

    Each combination moves the projection along the line
    (a, b, c, d) = (t/2) sigma, with sigma = (1, 0, 0, 1), (1, 0, 0, -1),
    (0, 1, 1, 0) or (0, 1, -1, 0).  On that line the pair's first plane at
    t, and its second plane at -t, have the area factor exactly

        f(t) = (1 + eps t/2)^2 / (1 + eps^2),

    since, with (sigma_u, sigma_v) the plane's tilt signs and
    s^2 = 1/(1 + eps^2), f = s^2 (1 + sigma_u a eps)(1 + sigma_v d eps) on
    v1..v4 when b = c = 0 and f = s^2 (1 + sigma_u b eps)(1 + sigma_v c eps)
    on v5..v8 when a = d = 0.  f increases for t > -2/eps, so a plane of
    section area A shows a violation (A f > w0_area) exactly beyond

        t* = (2/eps) (sqrt(w0_area (1 + eps^2) / A) - 1),

    and the interval runs between -t* of the second plane and t* of the
    first, in increasing order (either may have either sign).  With
    A = w0_area + c eps^2 + O(eps^4), t* = eps (1 - c/w0_area) + O(eps^3):
    the intervals contain 0 when c < w0_area and shrink linearly with eps.
    """
    if not (0.0 < eps <= 0.1):
        raise ValueError("eps must lie in (0, 0.1]")
    planes = [w0_plane()] + [named_plane(idx, eps) for idx in range(1, 9)]
    U, V = np.array([pl.u for pl in planes]), np.array([pl.v for pl in planes])
    w0_area, *areas = section_areas(body, U, V)

    def t_star(idx):
        return 2.0 / eps * (math.sqrt(w0_area * (1.0 + eps * eps) / areas[idx - 1]) - 1.0)

    intervals = {}
    for combo, (first, second) in _PIN_PAIRS.items():
        hi, lo = t_star(first), -t_star(second)
        intervals[combo] = (min(lo, hi), max(lo, hi))
    return PinningReport(eps, intervals)


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------


@dataclass
class Certificate:
    """Result of a no-contraction certificate over the projection parameters."""

    body: str
    box_halfwidth: float
    grid_n: int
    eps_set: tuple
    extra_planes: int
    seed: int
    gap_threshold: float
    family_labels: list
    plane_areas: np.ndarray
    w0_area: float
    cell_lo: np.ndarray = field(repr=False)
    cell_hi: np.ndarray = field(repr=False)
    cell_bounds: np.ndarray = field(repr=False)
    cell_witness: np.ndarray = field(repr=False)
    refined_count: int = 0
    worst_cell: dict = field(default_factory=dict)
    global_min_max_gap: float = 0.0
    box: dict = field(default_factory=dict)
    exterior: dict = field(default_factory=dict)
    witness_counts: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0
    success: bool = False

    def to_report(self, deterministic: bool = True) -> dict:
        report = {
            "body": self.body,
            "box_halfwidth": self.box_halfwidth,
            "grid_n": self.grid_n,
            "eps_set": list(self.eps_set),
            "extra_planes": self.extra_planes,
            "seed": self.seed,
            "gap_threshold": self.gap_threshold,
            "family_size": len(self.family_labels),
            "family_labels": list(self.family_labels),
            "success": self.success,
            "global_min_max_gap": self.global_min_max_gap,
            "grid_min": {key: self.worst_cell[key] for key in ("point", "gap", "witness")},
            "worst_cell": self.worst_cell,
            "refined_points": self.refined_count,
            # no point is searched past the family; the key stays for perfbench's certify workload
            "lifted": [],
            "box": self.box,
            "exterior": self.exterior,
            "witness_counts": self.witness_counts,
        }
        if not deterministic:
            report["runtime_seconds"] = self.runtime_seconds
        return report


def _reduce_to_r4(body: Body) -> Body:
    """Product bodies with a 4-dim left factor certify through that factor."""
    if isinstance(body, SmoothBody) and body.kind == "product" and body.left.n == 4:
        return body.left
    return body


def _vertex_planes(body: Body) -> list[tuple[str, Plane2]]:
    """Planes through pairs of the body's vertices, for square abs-sum bodies.

    For a body {x : sum |l_j(x)| <= 1} with invertible functional matrix L
    the vertices are the columns of L^-1 and the images of the coordinate
    planes are canonical witness candidates.
    """
    if not isinstance(body, AbsSumBody):
        return []
    L = body.functionals
    if L.shape[0] != L.shape[1]:
        return []
    verts = np.linalg.inv(L)
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            try:
                out.append((f"vertex:{i + 1}{j + 1}", gram_schmidt(verts[:, i], verts[:, j])))
            except DegenerateSpan:
                continue
    return out


def _build_family(body: Body, eps_set, extra_planes: int, seed: int):
    labels = ["v9"]
    planes = [named_plane(9)]
    for eps in eps_set:
        for idx in range(1, 9):
            labels.append(f"v{idx}:{eps}")
            planes.append(named_plane(idx, eps))
    for lbl, pl in _vertex_planes(body):
        labels.append(lbl)
        planes.append(pl)
    for k, pl in enumerate(random_planes(seed, 4, extra_planes)):
        labels.append(f"random:{k}")
        planes.append(pl)
    return labels, planes


def _plane_tables(body: Body, planes):
    """Section areas (one `section_areas` call) and the (n_planes, 6) Plucker table."""
    U = np.array([pl.u for pl in planes])
    V = np.array([pl.v for pl in planes])
    return section_areas(body, U, V), wedge_rows(U, V)


_WITNESS_TIE = 1e-12
_TABLE = 1 << 20  # (lattice point, plane) entries per chunk of a table


@functools.cache
def _window(k):
    """The k^4 points of {0, ..., k - 1}^4, (k^4, 4), in C order; for k = 2 the
    corners of a cell, corner q taking hi on the axes where it is 1."""
    return np.indices((k,) * 4).reshape(4, -1).T


def _cells(vals):
    """The ends (lo, hi), each (cells, 4), of the cells of the lattices ``vals``
    (lattices, 4, k), lattice by lattice in C order: for a lattice (lo, mid, hi)
    its 16 children, child q taking the upper half where corner q takes hi.
    ``vals`` may hold grid indices or parameter values."""
    w = _window(vals.shape[2] - 1)
    return vals[:, np.arange(4), w].reshape(-1, 4), vals[:, np.arange(4), w + 1].reshape(-1, 4)


def _gaps(a, b, c, d, P, areas, w0_area):
    """|f| * area - w0_area of every plane of the Plucker table ``P`` (last
    axis) at the broadcast parameters: the bits whose largest is a point's
    best gap in `_lattice_bounds`."""
    return np.abs(_signed_factors(a, b, c, d, P.T)) * areas - w0_area


def _lattice_bounds(vals, P, areas, w0_area):
    """Least gap of each plane of the Plucker table ``P`` over each cell of the
    lattices ``vals``, and the best gap at each lattice point.

    ``vals`` (lattices, 4, k) holds each lattice's k values along the axes a,
    b, c, d; its cells are the (k - 1)^4 boxes between neighbouring values,
    in C order.  f is one broadcast add of the G table over the k^3 (b, c, d)
    points and the a H table over the k^2 (a, d) points, so every point
    carries the bits of `_signed_factors`; a cell's f_min and f_max are exact
    minima and maxima over windows of 2 along each axis.  The best gap, the
    largest |f| * area less w0_area, subtracts w0_area once, after the
    maximum, which is exact, since rounding is monotone.
    Returns the bounds (lattices * cells, n_planes), lattice by lattice, and
    the best gaps (lattices, k, k, k, k).
    """
    a, b, c, d = (vals[(slice(None), t) + (None,) * t + (slice(None),) + (None,) * (4 - t)]
                  for t in range(4))
    f = np.add(*_factor_terms(a, b, c, d, P.T))
    best = (np.abs(f) * areas).max(axis=-1) - w0_area
    f_min = f_max = f
    for t in range(1, 5):
        head, tail = ((slice(None),) * t + (s,) for s in (slice(None, -1), slice(1, None)))
        f_min = np.minimum(f_min[head], f_min[tail])
        f_max = np.maximum(f_max[head], f_max[tail])
    # f has degree at most one in each parameter, so [f_min, f_max] is its range on the
    # cell; unless the corners share a sign, f vanishes in the cell
    lower = areas * np.maximum(np.maximum(f_min, -f_max), 0.0) - w0_area
    return lower.reshape(-1, areas.size), best


def _score(vals, P, areas, w0_area):
    """`_lattice_bounds` of the lattices ``vals`` (lattices, 4, k), in chunks
    whose f table stays within ``_TABLE`` entries: each cell's bound (its
    planes' best least gap) and the first plane reaching it, in `_cells`
    order, and the best gap at every lattice point (lattices, k, k, k, k)."""
    rows = max(1, _TABLE // (vals.shape[2] ** 4 * areas.size))
    parts = []
    for s in range(0, vals.shape[0], rows):
        lower, best = _lattice_bounds(vals[s:s + rows], P, areas, w0_area)
        parts.append((lower.max(axis=1), lower.argmax(axis=1), best))
    return [np.concatenate(part) for part in zip(*parts)]


def _grid_minimum(axes, P, areas, w0_area, allowance):
    """Flat C-order index and value of the first least best gap, floored at
    -w0_area, on the grid ``axes``^4, by branch and bound over cells of grid
    indices.

    Each level splits its cells [lo, hi] at mid = (lo + hi) // 2 and
    `_score`s the lattices ``axes[(lo, mid, hi)]``.  U, the least lattice
    point value so far, is kept with its least index.  At the level's end a
    child is split in turn only if its bound less ``allowance`` is at most U,
    it spans two grid steps on some axis (else its grid points are its scored
    corners) and zero steps on none (its sibling holds it).  U only falls, so
    every grid point the search skips lies above the final U: the index and
    value are bitwise those of a full scan, whatever the chunks of `_score`.
    """
    shape = (axes.size,) * 4
    lo, hi = np.zeros((1, 4), dtype=np.intp), np.full((1, 4), axes.size - 1)
    best, best_idx = np.inf, -1
    while lo.shape[0]:
        idx = np.stack((lo, (lo + hi) // 2, hi), axis=-1)
        bound, _, gaps = _score(axes[idx], P, areas, w0_area)
        values = np.maximum(gaps, -w0_area).ravel()
        least = values.min()
        if least <= best:
            points = idx[:, np.arange(4), _window(3)].reshape(-1, 4)[values == least]
            at = np.ravel_multi_index(points.T, shape).min()
            best, best_idx = min((best, best_idx), (float(least), int(at)))
        lo, hi = _cells(idx)
        steps = hi - lo
        keep = (bound - allowance <= best) & (steps.max(axis=1) >= 2) & (steps.min(axis=1) >= 1)
        lo, hi = lo[keep], hi[keep]
    return best_idx, best


def _bisect(lo, hi, P, areas, w0_area, threshold, allowance, budget):
    """Split the cells [lo, hi] into 16 until all clear ``threshold``.

    Each level `_score`s its lattices: the first level's are the cells' ends
    (lo, hi), and a split cell's 16 children are the `_cells` of its lattice
    (lo, mid, hi), sharing 81 corners.  Each level keeps the cells that clear
    as verified and splits the others.  Returns the cell count per level and
    the verified cells (lo, hi, bound, witness), level by level; a cell's
    witness is the first plane of largest least gap on it.  Raises
    CertificateFailed, without a gap table, at the least corner best gap of a
    level that does not clear the threshold, the first in (cell, corner)
    order, or at the open cell of least bound before more than ``budget``
    cells or a split below float resolution.
    """
    counts, verified_cells = [], []
    vals = np.stack((lo, hi), axis=-1)
    while True:
        bounds, witness, best = _score(vals, P, areas, w0_area)
        lo, hi = _cells(vals)
        if best.min() <= threshold:
            # corner q of a cell is the lattice point at its least index plus q
            corners = sliding_window_view(best, (2,) * 4, axis=(1, 2, 3, 4)).reshape(-1, 16)
            c, q = divmod(int(np.argmin(corners)), 16)
            raise CertificateFailed(np.where(_window(2)[q], hi[c], lo[c]), corners[c, q],
                                    reason="bisection corner")
        counts.append(int(lo.shape[0]))
        bounds -= allowance
        verified = bounds > threshold
        verified_cells.append((lo[verified], hi[verified], bounds[verified], witness[verified]))
        lo, hi, bounds = lo[~verified], hi[~verified], bounds[~verified]
        if not lo.shape[0]:
            return counts, [np.concatenate(part) for part in zip(*verified_cells)]
        worst = int(np.argmin(bounds))
        centre, mid = 0.5 * (lo[worst] + hi[worst]), 0.5 * (lo + hi)
        if np.any((mid <= lo) | (mid >= hi)):
            raise CertificateFailed(centre, bounds[worst],
                                    reason="bisection reached float resolution")
        if sum(counts) + 16 * lo.shape[0] > budget:
            raise CertificateFailed(centre, bounds[worst], reason=(
                f"bisection budget of {budget} cells exhausted with {lo.shape[0]} cells open"))
        vals = np.stack((lo, mid, hi), axis=-1)


def certify_no_contraction(
    body: Body,
    box_halfwidth: float = 4.0,
    grid_n: int = 33,
    eps_set=(0.02, 0.05, 0.1),
    extra_planes: int = 64,
    seed: int = 0,
    gap_threshold: float = 1e-3,
    threads: int | None = None,
) -> Certificate:
    """Certify a witness gap above ``gap_threshold`` at every projection (a, b, c, d).

    Both searches score each level of lattices with `_score`, one chunked
    pass of the corner-bound kernel `_lattice_bounds`, and cut lattices into
    cells with `_cells`.  `_grid_minimum` finds the least best gap on the
    grid with grid_n points per axis on [-R, R]^4 by branch and bound: cells
    of grid indices are split from the whole grid, and at the end of each
    level a cell is dropped once its bound, less the allowance below,
    exceeds U, the least best gap at any grid point scored so far.  The
    allowance covers the rounding of a grid point's best gap and of the
    cell's bound, so the result is bitwise that of a full scan, whatever the
    chunk size.  Only if the grid minimum clears the threshold is the box
    [-R, R]^4 bisected from a single cell (`_bisect`), within
    (grid_n - 1)^4 cells, until every cell's bound clears it; a split cell's
    16 children are bounded from their 81 shared corners.  Outside the box
    some |parameter| exceeds R, so the coordinate planes whose f is that
    parameter bound every gap by min_k A_k * R - w0_area.

    A verified cell's witness is the first plane of the cell's largest
    least gap; ``witness_counts`` counts the verified cells by witness, and
    the least verified cell, the first in level order, is the worst cell's
    refined cell.  The grid minimum's witness is the first plane within
    ``_WITNESS_TIE`` of the best gap there.

    Bounds are lowered by the allowance 64 eps (A S + w0_area), with A the
    largest section area used and S = 1 + 4R + 2R^2.  Unit planes have
    |p_ij| <= 1, so in the box the absolute terms of f = G + a H sum to at
    most S: p01, c p02, d p03, b p13 and b c p23 in G, a d p23 and a p12 in
    a H.  In the order of `_factor_terms` no term meets more than five
    roundings: c p02 meets its product, the two sums and the difference in G
    and the final sum; b c p23 meets c p23, the sum with p13, the product
    with b, that difference and the final sum; a term of a H meets at most
    d p23, the difference, the product with a and the final sum.  So the
    computed f is off by at most gamma_5 S < 3 eps S, where
    gamma_k = k u / (1 - k u) and u = eps / 2.  The product with the area
    and the subtraction of w0_area add about eps (A S + w0_area); corner
    minima and maxima add nothing.  The rest of the allowance, some
    60 eps (A S + w0_area), covers the rounding of the Plucker rows and is
    all the error the section areas may carry: they are trusted to it, not
    proved.

    ``threads`` is accepted and ignored; perfbench's certify workload still
    passes it, and the benchmark refresh (ROADMAP item 1) deletes it.  Raises
    ValueError when R is so large that the allowance overflows, and
    CertificateFailed when the exterior bound, the grid minimum or the least
    bisection corner of a level does not clear the threshold, or the
    bisection stops.
    """
    if not (np.isfinite(box_halfwidth) and box_halfwidth >= 2.0):
        raise ValueError("box halfwidth must be finite and >= 2")
    if grid_n < 21:
        raise ValueError("grid_n must be >= 21")
    eps_set = tuple(sorted(float(e) for e in eps_set))
    if not eps_set or not all(0.0 < e <= 0.2 for e in eps_set):
        raise ValueError("eps_set must be nonempty inside (0, 0.2]")
    if len(set(eps_set)) < len(eps_set):
        raise ValueError("eps_set must not repeat a value")
    if not np.isfinite(gap_threshold):
        raise ValueError("gap_threshold must be finite")
    if extra_planes < 0:
        raise ValueError("extra_planes must be >= 0")
    check_seed(seed)

    t0 = time.perf_counter()
    target = _reduce_to_r4(body)
    if target.n != 4:
        raise DimensionMismatch("certificate runs on 4-dimensional bodies")

    labels, planes = _build_family(target, eps_set, extra_planes, seed)
    eye = np.eye(4)  # span(e2, e3), span(e2, e4), span(e1, e3), span(e1, e4): f = -a, -b, c, d
    ext_planes = [Plane2(eye[i], eye[j]) for i, j in ((1, 2), (1, 3), (0, 2), (0, 3))]
    areas, P = _plane_tables(target, planes + [w0_plane(4)] + ext_planes)
    w0_area, ext_areas = float(areas[-5]), areas[-4:].tolist()
    areas, P = areas[:-5], P[:-5]
    R = float(box_halfwidth)
    top_area = max(areas.max(), max(ext_areas))
    allowance = 64.0 * np.finfo(float).eps * (top_area * (1.0 + 4.0 * R + 2.0 * R * R) + w0_area)
    if not np.isfinite(allowance):
        raise ValueError(f"box halfwidth {R:g} overflows the rounding allowance")

    def fail_at(point, max_gap, reason):
        gaps = _gaps(*point, P, areas, w0_area)
        raise CertificateFailed(point, max_gap, dict(zip(labels, gaps.tolist())), reason)

    # --- exterior, in closed form
    exterior_bound = min(ext_areas) * R - w0_area - allowance
    if exterior_bound <= gap_threshold:
        fail_at(tuple(R * eye[int(np.argmin(ext_areas))]), exterior_bound,
                "exterior bound min_k A_k * R - w0_area does not clear the threshold")

    # --- grid points; bisection of the box once the grid minimum clears
    axes = np.linspace(-R, R, grid_n)
    flat_idx, min_gap = _grid_minimum(axes, P, areas, w0_area, allowance)
    min_point = tuple(float(axes[i]) for i in np.unravel_index(flat_idx, (grid_n,) * 4))
    if min_gap <= gap_threshold:
        fail_at(min_point, min_gap, "grid minimum")
    at_min = _gaps(*min_point, P, areas, w0_area)
    min_witness = labels[int(np.argmax(at_min >= min_gap - _WITNESS_TIE))]
    try:
        level_cells, (cell_lo, cell_hi, bounds, witness) = _bisect(
            np.full((1, 4), -R), np.full((1, 4), R), P, areas, w0_area, gap_threshold, allowance,
            (grid_n - 1) ** 4)
    except CertificateFailed as err:
        fail_at(err.point, err.max_gap, err.reason)
    j = int(np.argmin(bounds))

    witness_labels, witness_freq = np.unique(witness, return_counts=True)
    counts = {labels[w]: int(c) for w, c in zip(witness_labels.tolist(), witness_freq)}

    return Certificate(
        body=body.label,
        box_halfwidth=R,
        grid_n=int(grid_n),
        eps_set=eps_set,
        extra_planes=int(extra_planes),
        seed=int(seed),
        gap_threshold=float(gap_threshold),
        family_labels=labels,
        plane_areas=areas,
        w0_area=float(w0_area),
        cell_lo=cell_lo,
        cell_hi=cell_hi,
        cell_bounds=bounds,
        cell_witness=witness,
        refined_count=sum(level_cells[1:]),
        worst_cell={
            "point": list(min_point),
            "gap": min_gap,
            "witness": min_witness,
            "local_gap": min_gap,
            "refined_point": [float(t) for t in 0.5 * (cell_lo[j] + cell_hi[j])],
            "refined_halfwidth": float(0.5 * (cell_hi[j, 0] - cell_lo[j, 0])),
            "refined_gap": float(bounds[j]),
            "refined_witness": labels[int(witness[j])],
        },
        global_min_max_gap=float(bounds[j]),
        box={"guarantee": "verified", "cells_per_level": level_cells,
             "allowance": float(allowance)},
        exterior={"guarantee": "verified", "areas": dict(zip("abcd", ext_areas)), "R": R,
                  "bound": float(exterior_bound)},
        witness_counts=counts,
        runtime_seconds=time.perf_counter() - t0,
        success=True,
    )
