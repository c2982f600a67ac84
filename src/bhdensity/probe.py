"""Semi-ellipticity probes: triangle inequality on simple multivector triples.

A density restricted to the Grassmann cone extends to a norm only if
phi(w1 + w2) <= phi(w1) + phi(w2) whenever all three multivectors are
simple.  In the second exterior power a sum of two simple bivectors is
simple exactly when their planes share a line, so drawing u ^ v and u ^ t
covers every two-term simple decomposition up to degenerate cases.
Violations are findings, not errors.

Every trial draws from its own Philox stream (seed, trial index), so a
trial's triple does not depend on how the scan is cut up.  Dimension 4 runs
the geometry as array operations over chunks of `_CHUNK` trials: the wedges,
norms and rejection test of the draws, the Gram-Schmidt bases of the three
planes and one `section_areas` call per chunk.  One reduction merges the
chunks' slacks, so a scan's memory does not grow with its trial count.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bodies import Body
from .density import bh_density_codim2
from .errors import DimensionMismatch
from .geom import (
    Bivector,
    _philox,
    check_seed,
    dot_rows,
    gram_schmidt_rows,
    hodge_star,
    wedge,
    wedge_rows,
)
from .sections import section_areas

_CHUNK = 4096  # trials per array pass of a scan


@dataclass(frozen=True)
class DecompositionTrial:
    """One probe triple with its density values and slack."""

    w: Bivector
    w1: Bivector
    w2: Bivector
    body: str
    phi: float
    phi1: float
    phi2: float

    @property
    def slack(self) -> float:
        return self.phi1 + self.phi2 - self.phi


@dataclass(frozen=True)
class ScanReport:
    body: str
    trials: int
    min_slack: float
    violations: int
    worst_trial: DecompositionTrial
    mc_samples: int | None = None


def _shared_line_draw(seed: int, n: int, stream: int | None):
    """Vectors (u, v, t) and the normalized triple (u^(v+t), u^v, u^t)."""
    if n not in (4, 6):
        raise DimensionMismatch("decomposition trials are drawn in dimension 4 or 6")
    gen = _philox(seed, stream)
    while True:
        u = gen.standard_normal(n)
        v = gen.standard_normal(n)
        t = gen.standard_normal(n)
        w1 = wedge(u, v)
        w2 = wedge(u, t)
        w = w1 + w2
        scale = w.norm
        if min(w1.norm, w2.norm) < 1e-6 or scale < 1e-6:
            continue
        w1 = (1.0 / scale) * w1
        w2 = (1.0 / scale) * w2
        return (u, v, t), (w1 + w2, w1, w2)


def shared_line_decomposition(seed: int, n: int, stream: int | None = None):
    """Simple bivector triple (u^(v+t), u^v, u^t), normalized to |w| = 1.

    The planes of the two parts share the line through u, so the sum is
    simple too; degenerate draws are resampled from the same stream.
    Raises ValueError for a seed or stream outside [0, 2**64).
    """
    check_seed(seed, stream)
    return _shared_line_draw(seed, n, stream)[1]


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, bitwise those of `Bivector.norm`."""
    return np.sqrt(dot_rows(x, x))


def _shared_line_rows(seed: int, start: int, stop: int):
    """Vectors (m, 3, 4) and normalized triples (m, 3, 6) of dim-4 trials start..stop-1.

    Row k holds (u, v, t) and the coordinates of (w, w1, w2), bitwise those
    of `_shared_line_draw(seed, 4, start + k)`: a stream's first 12 normals
    are its first three 4-normal draws, and the wedges and norms take the
    same floating-point operations.  Rejected draws are rare; they are
    redrawn by `_shared_line_draw` from their own streams.
    """
    uvt = np.stack([_philox(seed, i).standard_normal(12) for i in range(start, stop)])
    uvt = uvt.reshape(-1, 3, 4)
    u, v, t = uvt[:, 0], uvt[:, 1], uvt[:, 2]
    w1 = wedge_rows(u, v)
    w2 = wedge_rows(u, t)
    scale = _norms(w1 + w2)
    redraw = (np.minimum(_norms(w1), _norms(w2)) < 1e-6) | (scale < 1e-6)
    inv = 1.0 / np.where(redraw, 1.0, scale)[:, None]
    w1 = w1 * inv
    w2 = w2 * inv
    triple = np.stack((w1 + w2, w1, w2), axis=1)
    for k in np.flatnonzero(redraw):
        uvt[k], biv = _shared_line_draw(seed, 4, start + int(k))
        triple[k] = [b.coords for b in biv]
    return uvt, triple


def _phi_dim4(body: Body, seed: int, start: int, stop: int):
    """2-densities (m, 3) and violation bands of trials start..stop-1.

    The planes come straight from the drawn vectors: w, w1 and w2 span
    (u, v+t), (u, v) and (u, t), orthonormalized together by
    `gram_schmidt_rows` and scored by one `section_areas` call.  The band
    is 1e-8.
    """
    uvt, triple = _shared_line_rows(seed, start, stop)
    u, v, t = uvt[:, 0], uvt[:, 1], uvt[:, 2]
    b = np.stack((v + t, v, t), axis=1)
    U, V = gram_schmidt_rows(np.broadcast_to(u[:, None], b.shape), b)
    areas = section_areas(body, U.reshape(-1, 4), V.reshape(-1, 4)).reshape(-1, 3)
    return math.pi * _norms(triple) / areas, np.full(len(uvt), 1e-8)


def _phi_dim6(body: Body, seed: int, start: int, stop: int, samples: int):
    """Codim-2 densities (m, 3) of the Hodge duals of trials start..stop-1, and bands.

    The band of a trial is three combined standard errors.
    """
    values = [
        [
            bh_density_codim2(body, hodge_star(biv), samples, seed=(seed << 20) + i * 3 + j)
            for j, biv in enumerate(shared_line_decomposition(seed, 6, stream=i))
        ]
        for i in range(start, stop)
    ]
    phis = np.array([[dv.value for dv in row] for row in values])
    errs = [[dv.stderr or 0.0 for dv in row] for row in values]
    bands = np.array([3.0 * math.sqrt(sum(e * e for e in row)) for row in errs])
    return phis, bands


def semi_ellipticity_scan(
    body: Body, trials: int, seed: int = 0, mc_samples: int | None = None
) -> ScanReport:
    """Run decomposition trials of phi(w) <= phi(w1) + phi(w2).

    Four-dimensional bodies score the planes of the drawn triples through
    `section_areas` (violation band 1e-8), in chunks of `_CHUNK` trials;
    six-dimensional bodies test the degree-4 duals of the drawn bivector
    triples through the codimension-two Monte Carlo densities (mc_samples
    each, 10^6 when unset, seeded (seed << 20) + 3 * trial + j), with the
    band widened to three combined standard errors.  Reports the minimum
    slack, the worst trial (the first one at the minimum) and the violation
    count; for n = 6 the stored trial bivectors are the Hodge duals of the
    tested multivectors.  Raises ValueError for a seed outside [0, 2**64),
    or one whose dim-6 Monte Carlo seeds would leave it.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if mc_samples is not None and mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    check_seed(seed)
    samples = None
    if body.n == 4:
        densities = partial(_phi_dim4, body, seed)
    elif body.n == 6:
        if (seed << 20) + 3 * trials > 2**64:
            raise ValueError(
                f"seed {seed} is too large for {trials} dim-6 trials: their Monte Carlo "
                "seeds (seed << 20) + 3 * trial + j must stay below 2**64"
            )
        samples = 1_000_000 if mc_samples is None else mc_samples
        densities = partial(_phi_dim6, body, seed, samples=samples)
    else:
        raise DimensionMismatch("scan supports dimension 4 (exact) and 6 (Monte Carlo)")
    violations = 0
    for start in range(0, trials, _CHUNK):
        phis, bands = densities(start, min(start + _CHUNK, trials))
        slacks = phis[:, 1] + phis[:, 2] - phis[:, 0]
        k = int(np.argmin(slacks))
        if start == 0 or slacks[k] < min_slack:
            worst, min_slack, worst_phis = start + k, float(slacks[k]), phis[k]
        violations += int(np.count_nonzero(slacks < -bands))
    phi, phi1, phi2 = (float(x) for x in worst_phis)
    triple = shared_line_decomposition(seed, body.n, stream=worst)
    worst_trial = DecompositionTrial(*triple, body.label, phi, phi1, phi2)
    return ScanReport(body.label, trials, min_slack, violations, worst_trial, samples)
