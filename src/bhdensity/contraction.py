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
the box's corners.  The certificate uses that to bound the best witness gap
from below on every cell of a parameter grid, bisecting the cells that do
not clear the threshold, and bounds it outside the grid's box in closed
form through the four coordinate planes whose f is -a, -b, c or d.
"""

import itertools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bodies import AbsSumBody, Body, SmoothBody
from .errors import CertificateFailed, DegenerateSpan, DimensionMismatch, IllConditioned, InvalidId
from .geom import Plane2, check_seed, gram_schmidt, random_planes, wedge_rows
from .sections import cross_section, section_areas

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


@dataclass(frozen=True)
class PlaneFamilyId:
    """Member of the built-in witness family: index 1..9, epsilon for 1..8."""

    index: int
    epsilon: float = 0.0

    def __post_init__(self):
        if self.index not in range(1, 10):
            raise InvalidId(f"plane index {self.index} outside 1..9")
        if self.index != 9 and not abs(self.epsilon) <= 0.5:
            raise InvalidId("epsilon must satisfy |eps| <= 0.5")


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


def named_plane(plane_id: PlaneFamilyId | int, epsilon: float | None = None) -> Plane2:
    """The nine named planes of the witness family (in R^4).

    Indices 1..8 tilt (e1, e2) into the (e3, e4) directions by epsilon with
    the four sign patterns on either axis pairing; index 9 is the fixed
    far-away plane.  epsilon = 0 degenerates indices 1..8 to W0.
    """
    if isinstance(plane_id, PlaneFamilyId):
        pid = plane_id
    else:
        pid = PlaneFamilyId(int(plane_id), 0.0 if epsilon is None else float(epsilon))
    if pid.index == 9:
        s = 1.0 / SQRT2
        return Plane2(np.array([s, 0.0, s, 0.0]), np.array([0.0, s, 0.0, -s]))
    ax_u, ax_v, sign_u, sign_v = _FAMILY_AXES[pid.index]
    eps = pid.epsilon
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
    `_factor_terms`: the grid pass adds tables of the two terms, and every
    other caller gets the same bits from the same order.
    """
    g, ah = _factor_terms(a, b, c, d, p)
    return g + ah


def area_factor(p: ProjectionW0, plane: Plane2) -> float:
    """Euclidean 2-area scaling factor |pi(u) ^ pi(v)| of the projection."""
    if plane.n < 4:
        raise DimensionMismatch("projection family needs dimension >= 4")
    return float(abs(_signed_factors(p.a, p.b, p.c, p.d, wedge_rows(plane.u[:4], plane.v[:4]))))


def contraction_gap(
    body: Body, p: ProjectionW0, plane: Plane2, w0_area: float | None = None
) -> float:
    """lambda * H^2(body cut plane) - H^2(body cut W0).

    Positive values witness that the projection increases the normed
    Hausdorff 2-measure of sets inside the plane.
    """
    if plane.n != body.n:
        raise DimensionMismatch("body and plane dimensions differ")
    lam = area_factor(p, plane)
    area_v = cross_section(body, plane).euclidean_area
    if w0_area is None:
        w0_area = cross_section(body, w0_plane(body.n)).euclidean_area
    return lam * area_v - w0_area


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
    w0_area = cross_section(body, w0_plane(body.n)).euclidean_area

    def t_star(idx):
        area = cross_section(body, named_plane(idx, eps)).euclidean_area
        return 2.0 / eps * (math.sqrt(w0_area * (1.0 + eps * eps) / area) - 1.0)

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
    cell_values: np.ndarray = field(repr=False)
    cell_witness: np.ndarray = field(repr=False)
    cell_bounds: np.ndarray = field(repr=False)
    grid_min_gap: float = 0.0
    grid_min_point: tuple = (0.0, 0.0, 0.0, 0.0)
    grid_min_witness: str = ""
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
            "grid_min": {
                "point": list(self.grid_min_point),
                "gap": self.grid_min_gap,
                "witness": self.grid_min_witness,
            },
            "worst_cell": self.worst_cell,
            "refined_points": self.refined_count,
            # no point is searched past the family; the key stays for perfbench's certify workload
            "lifted": [],
            "box": self.box,
            "exterior": self.exterior,
            "witness_counts": self.witness_counts,
            "cells": {
                "count": int(self.cell_values.size),
                "min_gap": float(self.cell_values.min()),
                "max_gap": float(self.cell_values.max()),
                "all_positive": bool((self.cell_values > 0.0).all()),
            },
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
            labels.append(f"v{idx}:{eps:g}")
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
_BLOCK = 1 << 16  # grid points per block of the grid passes

# corner k of a cell [lo, hi] takes hi on the axes where _CORNERS[k] is set
_CORNERS = np.array(list(itertools.product((False, True), repeat=4)))


def _corner_gaps(f_min, f_max, areas, w0_area):
    """Least gap of each plane over a cell whose corner factors span [f_min, f_max].

    f has degree at most one in each parameter, so that is its range on the
    cell; unless the corners share a sign, f vanishes in the cell."""
    return areas * np.maximum(np.maximum(f_min, -f_max), 0.0) - w0_area


def _on_slabs(rows, threads, do_slab):
    """Run ``do_slab(i0, i1)`` over [0, rows) split into one row range per thread."""
    workers = min(threads or os.cpu_count() or 1, rows)
    edges = np.linspace(0, rows, workers + 1).astype(int).tolist()
    if workers == 1:
        do_slab(0, rows)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(do_slab, edges[:-1], edges[1:]))


def _grid_axes(axes):
    """The grid axes shaped so `_factor_terms` gives a (b, c, d) table and an (a, d) table."""
    return axes[:, None, None], axes[:, None], axes


def _block_rows(g, rows):
    """Rows per block of a slab of ``rows`` rows, so a block's temporaries stay in cache."""
    return min(rows, max(1, _BLOCK // g**3))


def _scan_points(axes, P, areas, w0_area, threads):
    """Best gap at each point of the grid ``axes``^4 over the planes of the
    Plucker table ``P``.

    Per plane and block the factors are one broadcast add of the G and a H
    tables.  |f| * area >= 0 is maximized over the planes, starting from 0,
    and w0_area is subtracted once after that, which is exact, since rounding
    is monotone.  Slabs of the first axis run on a thread pool and write only
    their own rows.
    """
    g = axes.size
    best = np.zeros((g,) * 4)
    B, C, D = _grid_axes(axes)

    def do_slab(i0, i1):
        A = axes[i0:i1, None, None, None]
        k = _block_rows(g, i1 - i0)
        top, buf = best[i0:i1], np.empty((k, g, g, g))
        for i in range(areas.size):
            G, aH = _factor_terms(A, B, C, D, P[i])
            for r in range(0, i1 - i0, k):
                t = top[r:r + k]
                f = np.add(G, aH[r:r + k], out=buf[:len(t)])
                np.abs(f, out=f)
                f *= areas[i]
                np.maximum(t, f, out=t)
        top -= w0_area

    _on_slabs(g, threads, do_slab)
    return best


def _scan_witnesses(axes, P, areas, w0_area, best, threads):
    """First plane of ``P`` whose gap is within ``_WITNESS_TIE`` of ``best`` at
    each grid point.  Each plane is tested only at the points still without a
    witness; slabs of the first axis run on a thread pool."""
    g = axes.size
    witness = np.zeros(best.shape, dtype=np.int32)
    B, C, D = _grid_axes(axes)

    def do_slab(i0, i1):
        A = axes[i0:i1, None, None, None]
        wit, floor = witness[i0:i1].reshape(-1), best[i0:i1].ravel() - _WITNESS_TIE
        # flat position in the slab, its (b, c, d) index in G and its (a, d) index in a H
        pos = np.arange(floor.size)
        bcd, ad = pos % g**3, pos // g**3 * g + pos % g
        for i in range(areas.size):
            G, aH = _factor_terms(A, B, C, D, P[i])
            hit = np.abs(G.ravel()[bcd] + aH.ravel()[ad]) * areas[i] - w0_area >= floor
            if hit.any():
                wit[pos[hit]] = i
                pos, bcd, ad, floor = pos[~hit], bcd[~hit], ad[~hit], floor[~hit]
                if not pos.size:
                    break

    _on_slabs(g, threads, do_slab)
    return witness


def _corner_tables(G, aH):
    """Least G over each cell's four (b, c)-corners and least a H over its two a-corners."""
    G = np.minimum(G[:-1], G[1:])
    return np.minimum(G[:, :-1], G[:, 1:]), np.minimum(aH[:-1], aH[1:])


def _scan_cells(axes, P, areas, w0_area, threads):
    """Each cell's best ``_corner_gaps`` on the grid ``axes``^4, over the planes
    of the Plucker table ``P``.

    The least f over a cell's 16 corners is the lesser over its two d-corners
    of the least G over its (b, c)-corners plus the least a H over its
    a-corners: rounding is monotone in each addend, so that is bitwise the
    least of the 16 computed corner values.  The least -f is found the same
    way, and a plane's least |f|, if f keeps its sign, is the larger of the
    two.  The maximum over the planes starts at 0, which is the 0 clamp, and
    w0_area is subtracted once after it: that is exact for the same reason.
    Slabs of cells along the first axis run on a thread pool; a slab reads
    the grid row after its last cell.
    """
    g = axes.size
    bounds = np.zeros((g - 1,) * 4)
    B, C, D = _grid_axes(axes)

    def do_slab(i0, i1):
        A = axes[i0:i1 + 1, None, None, None]
        k = _block_rows(g, i1 - i0)
        cell, buf = bounds[i0:i1], np.empty((k, g - 1, g - 1, g))
        lows = np.empty((2, k) + (g - 1,) * 3)
        for i in range(areas.size):
            G, aH = _factor_terms(A, B, C, D, P[i])
            tables = (_corner_tables(G, aH), _corner_tables(-G, -aH))
            for r in range(0, i1 - i0, k):
                c = cell[r:r + k]
                low = lows[:, :len(c)]
                for (Gt, at), out in zip(tables, low):
                    s = np.add(Gt, at[r:r + k], out=buf[:len(c)])
                    np.minimum(s[..., :-1], s[..., 1:], out=out)
                low = np.maximum(low[0], low[1], out=low[0])
                low *= areas[i]
                np.maximum(c, low, out=c)
        cell -= w0_area

    _on_slabs(g - 1, threads, do_slab)
    return bounds


def _scan_grid(axes, P, areas, w0_area, threads):
    """Best gaps, witnesses and cell bounds of one grid, by the three passes."""
    best = _scan_points(axes, P, areas, w0_area, threads)
    return (best, _scan_witnesses(axes, P, areas, w0_area, best, threads),
            _scan_cells(axes, P, areas, w0_area, threads))


def _cell_bounds(lo, hi, P, areas, w0_area):
    """``_corner_gaps`` (cells, n_planes) of the cells [lo, hi], their corners
    (cells, 16, 4) and the best gap at each corner (cells, 16)."""
    corners = np.where(_CORNERS, hi[:, None, :], lo[:, None, :])
    f = _signed_factors(*np.moveaxis(corners, -1, 0)[..., None], P.T)
    lower = _corner_gaps(f.min(axis=1), f.max(axis=1), areas, w0_area)
    return lower, corners, (np.abs(f) * areas - w0_area).max(axis=2)


def _bisect(lo, hi, bounds, P, areas, w0_area, threshold, allowance, budget):
    """Split the open cells [lo, hi] (bounds ``bounds``) into 16 until all clear ``threshold``.

    Returns the cell count per level and the least cleared (bound, lo, hi).
    Raises CertificateFailed, without a gap table, at a corner whose best gap
    does not clear the threshold, or at the open cell of least bound before
    more than ``budget`` cells or a split below float resolution.
    """
    counts, least = [], (np.inf, None, None)
    chunk = max(1, (1 << 20) // (16 * areas.size))
    while lo.shape[0]:
        worst = int(np.argmin(bounds))
        centre, mid = 0.5 * (lo[worst] + hi[worst]), 0.5 * (lo + hi)
        if np.any((mid <= lo) | (mid >= hi)):
            raise CertificateFailed(centre, bounds[worst],
                                    reason="bisection reached float resolution")
        if sum(counts) + 16 * lo.shape[0] > budget:
            raise CertificateFailed(centre, bounds[worst], reason=(
                f"bisection budget of {budget} cells exhausted with {lo.shape[0]} cells open"))
        lo, hi = (np.where(_CORNERS, mid[:, None], lo[:, None]).reshape(-1, 4),
                  np.where(_CORNERS, hi[:, None], mid[:, None]).reshape(-1, 4))
        bounds = np.empty(lo.shape[0])
        for s in range(0, lo.shape[0], chunk):
            lower, corners, corner_best = _cell_bounds(lo[s:s + chunk], hi[s:s + chunk],
                                                       P, areas, w0_area)
            if corner_best.min() <= threshold:
                c, k = np.unravel_index(int(np.argmin(corner_best)), corner_best.shape)
                raise CertificateFailed(corners[c, k], corner_best[c, k], reason="bisection corner")
            bounds[s:s + chunk] = lower.max(axis=1) - allowance
        counts.append(int(lo.shape[0]))
        verified = bounds > threshold
        j = int(np.argmin(np.where(verified, bounds, np.inf)))
        if verified[j] and bounds[j] < least[0]:
            least = (float(bounds[j]), lo[j], hi[j])
        lo, hi, bounds = lo[~verified], hi[~verified], bounds[~verified]
    return counts, least


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

    The grid has grid_n points per axis on [-R, R]^4.  One pass finds each
    grid point's best gap (`_scan_points`).  Only if the least of them clears
    the threshold do two more passes find each point's first witness
    (`_scan_witnesses`) and each cell's best ``_corner_gaps`` (`_scan_cells`).
    Cells that do not clear the threshold are bisected (``_bisect``) within
    (grid_n - 1)^4 cells.  Outside the box some |parameter| exceeds R, so the
    coordinate planes whose f is that parameter bound every gap by
    min_k A_k * R - w0_area.

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

    The grid passes run on ``threads`` threads (None or 0: one per CPU); the
    result does not depend on the count.  Raises CertificateFailed when the
    exterior bound, a grid point or a bisection corner does not clear the
    threshold, or the bisection stops.
    """
    if not (np.isfinite(box_halfwidth) and box_halfwidth >= 2.0):
        raise ValueError("box halfwidth must be finite and >= 2")
    if grid_n < 21:
        raise ValueError("grid_n must be >= 21")
    eps_set = tuple(sorted(float(e) for e in eps_set))
    if not eps_set or not all(0.0 < e <= 0.2 for e in eps_set):
        raise ValueError("eps_set must be nonempty inside (0, 0.2]")
    if not np.isfinite(gap_threshold):
        raise ValueError("gap_threshold must be finite")
    if extra_planes < 0:
        raise ValueError("extra_planes must be >= 0")
    if threads is not None and threads < 0:
        raise ValueError("threads must be >= 0")
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

    def fail_at(point, max_gap, reason):
        gaps = np.abs(_signed_factors(*point, P.T)) * areas - w0_area
        raise CertificateFailed(point, max_gap, dict(zip(labels, gaps.tolist())), reason)

    # --- exterior, in closed form
    exterior_bound = min(ext_areas) * R - w0_area - allowance
    if exterior_bound <= gap_threshold:
        fail_at(tuple(R * eye[int(np.argmin(ext_areas))]), exterior_bound,
                "exterior bound min_k A_k * R - w0_area does not clear the threshold")

    # --- grid points; witnesses and cell bounds once the grid minimum clears; bisection
    axes = np.linspace(-R, R, grid_n)
    best = _scan_points(axes, P, areas, w0_area, threads)

    flat_idx = int(np.argmin(best.ravel()))
    grid_min_gap = float(best.ravel()[flat_idx])
    ii = np.unravel_index(flat_idx, best.shape)
    grid_min_point = tuple(float(axes[i]) for i in ii)
    if grid_min_gap <= gap_threshold:
        fail_at(grid_min_point, grid_min_gap, "grid minimum")
    witness = _scan_witnesses(axes, P, areas, w0_area, best, threads)
    grid_min_witness = labels[int(witness[ii])]
    bounds = _scan_cells(axes, P, areas, w0_area, threads)
    bounds -= allowance

    verified = bounds > gap_threshold
    jj = np.unravel_index(int(np.argmin(np.where(verified, bounds, np.inf))), bounds.shape)
    least = (bounds[jj] if verified[jj] else np.inf, axes[list(jj)], axes[[i + 1 for i in jj]])
    open_idx = np.argwhere(~verified)
    try:
        level_cells, bisected = _bisect(axes[open_idx], axes[open_idx + 1], bounds[~verified],
                                        P, areas, w0_area, gap_threshold, allowance, bounds.size)
    except CertificateFailed as err:
        fail_at(err.point, err.max_gap, err.reason)
    least_bound, least_lo, least_hi = min(least, bisected, key=lambda t: t[0])
    lower, _, _ = _cell_bounds(least_lo[None], least_hi[None], P, areas, w0_area)

    witness_labels, witness_freq = np.unique(witness, return_counts=True)
    counts = {labels[int(w)]: int(c) for w, c in zip(witness_labels, witness_freq)}

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
        cell_values=best,
        cell_witness=witness,
        cell_bounds=bounds,
        grid_min_gap=grid_min_gap,
        grid_min_point=grid_min_point,
        grid_min_witness=grid_min_witness,
        refined_count=sum(level_cells),
        worst_cell={
            "point": list(grid_min_point),
            "gap": grid_min_gap,
            "witness": grid_min_witness,
            "local_gap": grid_min_gap,
            "refined_point": [float(t) for t in 0.5 * (least_lo + least_hi)],
            "refined_halfwidth": float(0.5 * (least_hi[0] - least_lo[0])),
            "refined_gap": float(least_bound),
            "refined_witness": labels[int(np.argmax(lower[0]))],
        },
        global_min_max_gap=float(least_bound),
        box={"guarantee": "verified", "cells_per_level": [int(bounds.size)] + level_cells,
             "allowance": float(allowance)},
        exterior={"guarantee": "verified", "areas": dict(zip("abcd", ext_areas)), "R": R,
                  "bound": float(exterior_bound)},
        witness_counts=counts,
        runtime_seconds=time.perf_counter() - t0,
        success=True,
    )
