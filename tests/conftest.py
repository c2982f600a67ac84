import math
from itertools import combinations, product

import numpy as np
import pytest

import bhdensity as bh

SQRT2 = math.sqrt(2.0)
W0_AREA = 8.0 / (4.0 + 3.0 * SQRT2)  # = 12*sqrt(2) - 16
V9_GAP = 17.0 - 12.0 * SQRT2
C1_V1V2 = 272.0 * SQRT2 - 384.0
C2_V3V4 = 408.0 * SQRT2 - 576.0


@pytest.fixture(scope="session")
def body_c():
    return bh.make_rotated_cross_polytope()


@pytest.fixture(scope="session")
def body_o():
    return bh.make_cross_polytope(4)


@pytest.fixture(scope="session")
def ball4():
    return bh.make_euclidean_ball(4)


def random_abs_sum_body(seed: int) -> bh.AbsSumBody:
    """Random well-conditioned 4-functional body for fuzz scans."""
    gen = np.random.default_rng(seed)
    while True:
        L = np.eye(4) + 0.45 * gen.standard_normal((4, 4))
        try:
            return bh.AbsSumBody(L, label=f"random-abs-sum-{seed}")
        except ValueError:
            continue


def embed_plane(plane: bh.Plane2, n: int) -> bh.Plane2:
    u = np.zeros(n)
    v = np.zeros(n)
    u[: plane.n] = plane.u
    v[: plane.n] = plane.v
    return bh.Plane2(u, v)


def gram_route(pu: np.ndarray, pv: np.ndarray) -> float:
    """Independent area factor: Gram determinant via its Schur complement.

    sqrt(det Gram(pu, pv)) = |pu| * |pv - proj_pu(pv)|, which avoids the
    catastrophic cancellation of the naive |pu|^2 |pv|^2 - (pu.pv)^2 form.
    """
    g11 = float(np.dot(pu, pu))
    if g11 == 0.0:
        return 0.0
    resid = pv - (np.dot(pu, pv) / g11) * pu
    return math.sqrt(g11) * float(np.linalg.norm(resid))


def _clip_halfplane(poly, nx, ny, rhs):
    """Keep the side nx*x + ny*y <= rhs of a convex polygon (vertex loop)."""
    out = []
    if not poly:
        return out
    px, py = poly[-1]
    pin = nx * px + ny * py <= rhs
    for cx, cy in poly:
        cin = nx * cx + ny * cy <= rhs
        if cin != pin:
            dx, dy = cx - px, cy - py
            t = (rhs - (nx * px + ny * py)) / (nx * dx + ny * dy)
            out.append((px + t * dx, py + t * dy))
        if cin:
            out.append((cx, cy))
        px, py, pin = cx, cy, cin
    return out


def clipped_section_area(functionals, plane: bh.Plane2) -> float:
    """Independent oracle for abs-sum section areas, exponential in k.

    {sum_j |l_j| <= 1} is the intersection of the half-planes
    {sum_j s_j l_j <= 1} over all sign vectors s, so clip a square that
    holds the section against each of them.  The gauge is at least
    sigma_min |x| for the least singular value of the restricted
    functionals, which bounds the section by the disc of radius 1/sigma_min.
    """
    L = np.asarray(functionals, dtype=float)
    coeffs = np.column_stack((L @ plane.u, L @ plane.v))
    half = 2.0 / np.linalg.svd(coeffs, compute_uv=False)[-1]
    poly = [(-half, -half), (half, -half), (half, half), (-half, half)]
    for signs in product((1.0, -1.0), repeat=coeffs.shape[0]):
        nx, ny = np.dot(signs, coeffs)
        if nx != 0.0 or ny != 0.0:
            poly = _clip_halfplane(poly, nx, ny, 1.0)
    return bh.shoelace_area(poly)


def per_trial_draw(seed: int, n: int, stream: int):
    """Independent oracle for the probe's draws: one stream, one trial at a time.

    Draws u, v, t (n normals each) from the trial's Philox stream until the
    wedges u^v, u^t and their sum all have norm at least 1e-6, then scales
    the triple to |w| = 1.  Returns (u, v, t) and the Bivector triple.
    """
    from bhdensity.geom import _philox

    gen = _philox(seed, stream)
    while True:
        u, v, t = (gen.standard_normal(n) for _ in range(3))
        w1 = bh.wedge(u, v)
        w2 = bh.wedge(u, t)
        scale = (w1 + w2).norm
        if min(w1.norm, w2.norm) >= 1e-6 and scale >= 1e-6:
            w1 = (1.0 / scale) * w1
            w2 = (1.0 / scale) * w2
            return (u, v, t), (w1 + w2, w1, w2)


def per_trial_phi_dim4(body, seed: int, trials: int):
    """Independent oracle for the dim-4 probe: one draw, wedge and plane per trial.

    Each trial's triple comes from `per_trial_draw` as Bivector objects and
    each of its three planes from `gram_schmidt`; one `section_areas` call
    scores them.  Returns the triples, the 2-densities (trials, 3) and the
    1e-8 bands.
    """
    U = np.empty((trials, 3, 4))
    V = np.empty((trials, 3, 4))
    norms = np.empty((trials, 3))
    triples = []
    for i in range(trials):
        (u, v, t), triple = per_trial_draw(seed, 4, i)
        for j, (b, w) in enumerate(zip((v + t, v, t), triple)):
            plane = bh.gram_schmidt(u, b)
            U[i, j], V[i, j], norms[i, j] = plane.u, plane.v, w.norm
        triples.append(triple)
    areas = bh.section_areas(body, U.reshape(-1, 4), V.reshape(-1, 4))
    return triples, math.pi * norms / areas.reshape(-1, 3), np.full(trials, 1e-8)


def hodge_loop(coords, n: int, down: bool = False) -> np.ndarray:
    """Independent oracle for the Hodge star: a signed loop over lex index sets.

    Each coordinate of a lex-ordered 2-subset c (or (n-2)-subset, if
    ``down``) is added, into a zero array, to the coordinate of its
    complement with the sign of the permutation (c, complement).
    """
    m = n - 2 if down else 2
    target = {c: k for k, c in enumerate(combinations(range(n), n - m))}
    out = np.zeros(len(target))
    for idx, c in enumerate(combinations(range(n), m)):
        comp = tuple(k for k in range(n) if k not in c)
        perm = c + comp
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        out[target[comp]] += (-1) ** inversions * coords[idx]
    return out
