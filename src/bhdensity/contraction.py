"""Projection-contraction machinery and the numeric no-contraction certificate.

A linear projection onto W0 = span(e1, e2) is determined by four reals
(a, b, c, d) filling the top-right 2x2 block of its matrix.  Such a
projection scales Euclidean 2-area on a plane V by a constant factor
lambda(V) = |pi(u) ^ pi(v)|; it contracts the normed Hausdorff 2-measure
only if lambda(V) * H^2(C cut V) <= H^2(C cut W0) for every plane V.  The
certificate sweeps a parameter box and exhibits, for each grid point, a
witness plane violating that inequality.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bodies import AbsSumBody, Body, SmoothBody
from .errors import CertificateFailed, DegenerateSpan, DimensionMismatch, IllConditioned, InvalidId
from .geom import Plane2, _philox, gram_schmidt, random_planes
from .sections import cross_section, section_areas

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ProjectionW0:
    """The projection onto span(e1, e2) with top-right block [[a, b], [c, d]]."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def matrix(self, n: int = 4) -> np.ndarray:
        if n < 4:
            raise DimensionMismatch("projection family needs dimension >= 4")
        m = np.zeros((n, n))
        m[0, 0] = m[1, 1] = 1.0
        m[0, 2], m[0, 3] = self.a, self.b
        m[1, 2], m[1, 3] = self.c, self.d
        return m

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[0] = x[0] + self.a * x[2] + self.b * x[3]
        out[1] = x[1] + self.c * x[2] + self.d * x[3]
        return out

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class PlaneFamilyId:
    """Member of the built-in witness family: index 1..9, epsilon for 1..8."""

    index: int
    epsilon: float = 0.0

    def __post_init__(self):
        if self.index not in range(1, 10):
            raise InvalidId(f"plane index {self.index} outside 1..9")
        if self.index != 9 and abs(self.epsilon) > 0.5:
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


def _area_factors(a, b, c, d, u, v):
    """|pi(u) ^ pi(v)| for the projection with block [[a, b], [c, d]].

    ``u`` and ``v`` are unpacked along their first axis, so they may be
    4-tuples, 4-vectors or (4, n_planes) tables; the parameters broadcast
    against them.
    """
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    return abs((u0 + a * u2 + b * u3) * (v1 + c * v2 + d * v3)
               - (v0 + a * v2 + b * v3) * (u1 + c * u2 + d * u3))


def area_factor(p: ProjectionW0, plane: Plane2) -> float:
    """Euclidean 2-area scaling factor |pi(u) ^ pi(v)| of the projection."""
    if plane.n < 4:
        raise DimensionMismatch("projection family needs dimension >= 4")
    return float(_area_factors(p.a, p.b, p.c, p.d, plane.u[:4], plane.v[:4]))


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
    if abs(eps) >= 0.5:
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
    widths: dict


_PIN_LINES = {
    "a+d": (1, 2, lambda t: ProjectionW0(t / 2.0, 0.0, 0.0, t / 2.0)),
    "a-d": (4, 3, lambda t: ProjectionW0(t / 2.0, 0.0, 0.0, -t / 2.0)),
    "b+c": (5, 6, lambda t: ProjectionW0(0.0, t / 2.0, t / 2.0, 0.0)),
    "b-c": (8, 7, lambda t: ProjectionW0(0.0, t / 2.0, -t / 2.0, 0.0)),
}


def _gap_root_increasing(gap_fn, lo, hi):
    """Root of an increasing function bracketed by sign change, by bisection."""
    flo, fhi = gap_fn(lo), gap_fn(hi)
    while fhi <= 0.0:
        hi = lo + 2.0 * (hi - lo)
        fhi = gap_fn(hi)
    if flo >= 0.0:
        raise ValueError("left bracket is not negative")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if gap_fn(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def projection_pinning(body: Body, eps: float) -> PinningReport:
    """Interval bounds on (a+d, a-d, b+c, b-c) from the eight tilted planes.

    For each combination, the projection moves along the symmetric parameter
    line and the two matched planes of the pair flag a violation on either
    side; the reported interval runs between the two gap sign changes.  The
    intervals always contain 0 and shrink linearly with eps.
    """
    if not (0.0 < eps <= 0.1):
        raise ValueError("eps must lie in (0, 0.1]")
    w0_area = cross_section(body, w0_plane(body.n)).euclidean_area
    intervals = {}
    widths = {}
    for combo, (idx_plus, idx_minus, line) in _PIN_LINES.items():
        plane_plus = named_plane(idx_plus, eps)
        plane_minus = named_plane(idx_minus, eps)
        area_plus = cross_section(body, plane_plus).euclidean_area
        area_minus = cross_section(body, plane_minus).euclidean_area

        def gap_plus(t):
            return area_factor(line(t), plane_plus) * area_plus - w0_area

        def gap_minus_neg(t):
            # reflect so the bisection always sees an increasing function
            return area_factor(line(-t), plane_minus) * area_minus - w0_area

        vertex = -2.0 / eps + 1e-9  # lambda vanishes there, gap surely negative
        hi = _gap_root_increasing(gap_plus, vertex, vertex + 4.0 / eps)
        lo = -_gap_root_increasing(gap_minus_neg, vertex, vertex + 4.0 / eps)
        lo, hi = min(lo, hi), max(lo, hi)
        intervals[combo] = (lo, hi)
        widths[combo] = hi - lo
    return PinningReport(eps, intervals, widths)


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------


@dataclass
class Certificate:
    """Result of a no-contraction sweep over the projection parameter box."""

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
    grid_min_gap: float = 0.0
    grid_min_point: tuple = (0.0, 0.0, 0.0, 0.0)
    grid_min_witness: str = ""
    refined_count: int = 0
    lifted: list = field(default_factory=list)
    worst_cell: dict = field(default_factory=dict)
    global_min_max_gap: float = 0.0
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
            "lifted": self.lifted,
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
    areas = np.array([cross_section(body, pl).euclidean_area for pl in planes])
    U = np.array([pl.u for pl in planes])
    V = np.array([pl.v for pl in planes])
    return areas, U, V


_WITNESS_TIE = 1e-12


def _best_gaps(A, B, C, D, U, V, areas, w0_area):
    """Best gap over the planes and the first plane within tie tolerance of it.

    The parameters A, B, C, D broadcast against each other; U, V hold one
    plane per row.  The planes are visited twice (the max, then the
    witness), so no (points, planes) matrix is built.
    """

    def gaps(i):
        return _area_factors(A, B, C, D, U[i], V[i]) * areas[i] - w0_area

    best = gaps(0)
    for i in range(1, areas.size):
        np.maximum(best, gaps(i), out=best)
    floor = best - _WITNESS_TIE
    witness = np.zeros(best.shape, dtype=np.int32)
    assigned = np.zeros(best.shape, dtype=bool)
    for i in range(areas.size):
        hit = ~assigned & (gaps(i) >= floor)
        witness[hit] = i
        assigned |= hit
    return best, witness


def _scan_grid(axes, U, V, areas, w0_area, threads):
    """Per-cell best gap and first witness within tie tolerance, vectorized.

    The first grid axis is chunked across a thread pool; chunks write into
    disjoint slabs so the result is independent of scheduling.
    """
    g = axes.size
    best = np.empty((g, g, g, g))
    witness = np.empty((g, g, g, g), dtype=np.int32)

    B = axes[None, :, None, None]
    C = axes[None, None, :, None]
    D = axes[None, None, None, :]

    def do_slab(i0, i1):
        A = axes[i0:i1, None, None, None]
        best[i0:i1], witness[i0:i1] = _best_gaps(A, B, C, D, U, V, areas, w0_area)

    workers = threads or os.cpu_count() or 1
    bounds = np.linspace(0, g, min(workers, g) + 1).astype(int)
    slabs = [(int(bounds[k]), int(bounds[k + 1])) for k in range(len(bounds) - 1)
             if bounds[k] < bounds[k + 1]]
    if len(slabs) <= 1:
        do_slab(0, g)
    else:
        with ThreadPoolExecutor(max_workers=len(slabs)) as pool:
            list(pool.map(lambda se: do_slab(*se), slabs))
    return best, witness


def _maximize_gap_at(point, start_planes, body, w0_area, max_sweeps=200, stop_above=None):
    """Coordinate descent on raw plane parameters, step-halving, <= max_sweeps.

    Maximizes lambda * area(plane) - w0_area over Gr(2, 4) starting from each
    given plane; returns the best (gap, label-of-start).  Each coordinate's
    +step and -step moves are scored in one area call, and the first
    improving one is taken.  When ``stop_above`` is given, later starts are
    skipped once the bound is cleared (the result is a witness lower bound
    either way).
    """
    a, b, c, d = (float(t) for t in point)

    def frame(x):
        # inline Gram-Schmidt in plain floats; None for degenerate spans
        ax, ay, az, aw = x[0], x[1], x[2], x[3]
        bx, by, bz, bw = x[4], x[5], x[6], x[7]
        na = (ax * ax + ay * ay + az * az + aw * aw) ** 0.5
        if na < 1e-12:
            return None
        ax, ay, az, aw = ax / na, ay / na, az / na, aw / na
        dot = ax * bx + ay * by + az * bz + aw * bw
        bx, by, bz, bw = bx - dot * ax, by - dot * ay, bz - dot * az, bw - dot * aw
        nb = (bx * bx + by * by + bz * bz + bw * bw) ** 0.5
        if nb < 1e-9:
            return None
        fu = (ax, ay, az, aw)
        fv = (bx / nb, by / nb, bz / nb, bw / nb)
        return fu, fv, _area_factors(a, b, c, d, fu, fv)

    def score(xs):
        # degenerate spans score -inf, planes the projection collapses -w0_area
        vals = [-np.inf] * len(xs)
        live = []
        for j, x in enumerate(xs):
            fr = frame(x)
            if fr is None:
                continue
            if fr[2] == 0.0:
                vals[j] = -w0_area
            else:
                live.append((j, fr))
        if live:
            U = np.array([fr[0] for _, fr in live])
            V = np.array([fr[1] for _, fr in live])
            areas = section_areas(body, U, V, radial_n=1024)
            for (j, fr), area in zip(live, areas):
                vals[j] = fr[2] * float(area) - w0_area
        return vals

    best_gap = -np.inf
    best_label = ""
    for label, plane in start_planes:
        x = list(plane.u) + list(plane.v)
        val = score([x])[0]
        if not np.isfinite(val):
            continue
        step = 0.2
        for _ in range(max_sweeps):
            improved = False
            for i in range(8):
                moves = [x.copy(), x.copy()]
                moves[0][i] += step
                moves[1][i] -= step
                for x2, v2 in zip(moves, score(moves)):
                    if v2 > val + 1e-15:
                        x, val = x2, v2
                        improved = True
                        break
            if not improved:
                step *= 0.5
                if step < 1e-7:
                    break
        if val > best_gap:
            best_gap = val
            best_label = label
        if stop_above is not None and best_gap > stop_above:
            break
    return best_gap, best_label


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
    """Sweep the projection box and certify a positive witness gap everywhere.

    For every grid point of [-R, R]^4 the maximum contraction gap over the
    witness family is recorded; the worst 1% of cells get one level of grid
    halving, and the lowest refined points plus the worst cell are sharpened
    by a local plane maximizer.  Rays from the box boundary out to 10R check
    that gaps keep growing outside the box.  Raises CertificateFailed when
    any evaluated point has no witness above the threshold.
    """
    if box_halfwidth < 2.0:
        raise ValueError("box halfwidth must be >= 2")
    if grid_n < 21:
        raise ValueError("grid_n must be >= 21")
    eps_set = tuple(sorted(float(e) for e in eps_set))
    if not eps_set or not all(0.0 < e <= 0.2 for e in eps_set):
        raise ValueError("eps_set must be nonempty inside (0, 0.2]")

    t0 = time.perf_counter()
    target = _reduce_to_r4(body)
    if target.n != 4:
        raise DimensionMismatch("certificate runs on 4-dimensional bodies")

    labels, planes = _build_family(target, eps_set, extra_planes, seed)
    areas, U, V = _plane_tables(target, planes)
    w0_area = cross_section(target, w0_plane(4)).euclidean_area

    axes = np.linspace(-box_halfwidth, box_halfwidth, grid_n)
    best, witness = _scan_grid(axes, U, V, areas, w0_area, threads)

    flat_idx = int(np.argmin(best.ravel()))
    grid_min_gap = float(best.ravel()[flat_idx])
    ii = np.unravel_index(flat_idx, best.shape)
    grid_min_point = tuple(float(axes[i]) for i in ii)
    grid_min_witness = labels[int(witness[ii])]

    def fail_at(point, max_gap, reason):
        gaps = _area_factors(*point, U.T, V.T) * areas - w0_area
        raise CertificateFailed(point, max_gap, dict(zip(labels, gaps.tolist())), reason)

    if grid_min_gap <= gap_threshold:
        lifted_gap, _ = _maximize_gap_at(
            grid_min_point,
            [(grid_min_witness, planes[int(witness[ii])])],
            target,
            w0_area,
            stop_above=gap_threshold,
        )
        if max(grid_min_gap, lifted_gap) <= gap_threshold:
            fail_at(grid_min_point, max(grid_min_gap, lifted_gap), "interior grid minimum")

    start_pool = [("v9", planes[0])]
    for lbl, pl in zip(labels, planes):
        if lbl.startswith("vertex:34"):
            start_pool.append((lbl, pl))
    probe_starts = [(f"probe:v{i}", named_plane(i, 0.35)) for i in range(1, 9)]

    # worst cell: center gap possibly improved by its own maximizer run
    worst_gap_lift, _ = _maximize_gap_at(
        grid_min_point, [(grid_min_witness, planes[int(witness[ii])])] + start_pool, target, w0_area
    )
    worst_local_gap = max(grid_min_gap, worst_gap_lift)

    # --- refinement: one level of grid halving around the worst 1% of cells
    n_cells = best.size
    n_refine = max(1, int(np.ceil(0.01 * n_cells)))
    order = np.lexsort((np.arange(n_cells), best.ravel()))
    refine_cells = order[:n_refine]
    half = (axes[1] - axes[0]) / 2.0
    offsets = np.array([np.array(t) * half for t in _halving_offsets()], dtype=float)
    centers = np.stack(np.unravel_index(refine_cells, best.shape), axis=1)
    centers = axes[centers]
    refined_points = (centers[:, None, :] + offsets[None, :, :]).reshape(-1, 4)
    refined_points = np.unique(refined_points, axis=0)
    refined_best, refined_wit = _best_gaps(
        *np.ascontiguousarray(refined_points.T), U, V, areas, w0_area
    )

    # --- maximizer lift on every refined point that could drag the global
    # minimum below the sharpened worst-cell value (capped for safety)
    bar = max(2.0 * gap_threshold, worst_local_gap - 1e-9)
    low_idx = np.flatnonzero(refined_best < bar)
    if low_idx.size > 128:
        sub = np.lexsort((low_idx, refined_best[low_idx]))[:128]
        low_idx = low_idx[sub]
    lifted = []
    lifted_values = refined_best.copy()
    for idx in (int(i) for i in low_idx):
        pt = refined_points[idx]
        fam_gap = float(refined_best[idx])
        starts = [(labels[refined_wit[idx]], planes[refined_wit[idx]])] + start_pool + probe_starts
        lifted_gap, from_label = _maximize_gap_at(
            tuple(pt), starts, target, w0_area, stop_above=worst_local_gap
        )
        new_val = max(fam_gap, lifted_gap)
        lifted_values[idx] = new_val
        lifted.append(
            {
                "point": [float(t) for t in pt],
                "family_gap": fam_gap,
                "lifted_gap": new_val,
                "witness": labels[refined_wit[idx]]
                if new_val == fam_gap
                else f"optimized({from_label})",
            }
        )

    # refined argmin inside the worst cell's halved neighborhood (post-lift);
    # value ties within the witness tolerance resolve toward the cell center
    cell_pt = np.asarray(grid_min_point)
    near = np.all(np.abs(refined_points - cell_pt[None, :]) <= half + 1e-12, axis=1)
    if np.any(near):
        near_idx = np.flatnonzero(near)
        vals = lifted_values[near_idx]
        tied = near_idx[vals <= vals.min() + _WITNESS_TIE]
        dists = np.abs(refined_points[tied] - cell_pt[None, :]).max(axis=1)
        jloc = int(tied[int(np.lexsort((tied, dists))[0])])
        refined_point = [float(t) for t in refined_points[jloc]]
        refined_gap = float(lifted_values[jloc])
        refined_witness = labels[int(refined_wit[jloc])]
    else:
        refined_point = list(grid_min_point)
        refined_gap = grid_min_gap
        refined_witness = grid_min_witness

    # global minimum over every evaluated point, using the best-known witness
    # value at each (the worst cell keeps its maximizer-sharpened gap)
    base_vals = best.ravel().copy()
    base_vals[flat_idx] = worst_local_gap
    global_min = min(float(base_vals.min()), float(lifted_values.min()))
    if global_min <= gap_threshold:
        bad = int(np.lexsort((np.arange(lifted_values.size), lifted_values))[0])
        fail_at(tuple(refined_points[bad]), float(lifted_values[bad]), "refined point")

    # --- exterior: 2^8 sign-pattern rays from the box boundary to 10R
    rays = _exterior_rays(seed, box_halfwidth)
    radii_factors = 10.0 ** (np.arange(8) / 7.0)
    pts = rays[:, None, :] * radii_factors[None, :, None]
    mx, _ = _best_gaps(*np.moveaxis(pts, -1, 0), U, V, areas, w0_area)
    steps = np.diff(mx, axis=1)
    falling = steps < -1e-9
    monotone = not falling.any()
    if not monotone:
        r, k = np.unravel_index(int(np.argmax(falling)), falling.shape)
        fail_at(tuple(float(t) for t in pts[r, k + 1]), 0.0, "exterior ray not monotone")

    witness_labels, witness_freq = np.unique(witness, return_counts=True)
    counts = {labels[int(w)]: int(c) for w, c in zip(witness_labels, witness_freq)}

    cert = Certificate(
        body=body.label,
        box_halfwidth=float(box_halfwidth),
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
        grid_min_gap=grid_min_gap,
        grid_min_point=grid_min_point,
        grid_min_witness=grid_min_witness,
        refined_count=int(refined_points.shape[0]),
        lifted=lifted,
        worst_cell={
            "point": list(grid_min_point),
            "gap": grid_min_gap,
            "witness": grid_min_witness,
            "local_gap": worst_local_gap,
            "refined_point": refined_point,
            "refined_gap": refined_gap,
            "refined_witness": refined_witness,
        },
        global_min_max_gap=float(global_min),
        exterior={
            "rays": len(rays),
            "radii_factors": radii_factors.tolist(),
            "monotone": monotone,
            "min_step": float(steps.min()),
        },
        witness_counts=counts,
        runtime_seconds=time.perf_counter() - t0,
        success=True,
    )
    return cert


def _halving_offsets():
    """All offsets in {-1, 0, +1}^4 in a fixed deterministic order."""
    vals = (-1.0, 0.0, 1.0)
    return [(p, q, r, s) for p in vals for q in vals for r in vals for s in vals]


def _exterior_rays(seed: int, box_halfwidth: float) -> np.ndarray:
    """256 rays: 16 sign patterns times 16 weight profiles, boundary-scaled."""
    gen = _philox(seed, 0xE57E)
    signs = np.array([[p, q, r, s] for p in (1.0, -1.0) for q in (1.0, -1.0)
                      for r in (1.0, -1.0) for s in (1.0, -1.0)])
    rays = []
    for pattern in signs:
        weights = [np.ones(4)]
        for _ in range(15):
            weights.append(0.25 + np.abs(gen.standard_normal(4)))
        for w in weights:
            d = pattern * w
            d = d / np.abs(d).max() * box_halfwidth
            rays.append(d)
    return np.asarray(rays)
