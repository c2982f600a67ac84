"""Semi-ellipticity probes: triangle inequality on simple multivector triples.

A density restricted to the Grassmann cone extends to a norm only if
phi(w1 + w2) <= phi(w1) + phi(w2) whenever all three multivectors are
simple.  In the second exterior power a sum of two simple bivectors is
simple exactly when their planes share a line, so drawing u ^ v and u ^ t
covers every two-term simple decomposition up to degenerate cases.
Violations are findings, not errors.

Every trial draws from its own Philox stream (seed, trial index) through
geom's keyed-draw kernel, so a trial's triple does not depend on how the
scan is cut up.  Scans run the geometry as array operations over chunks
of `_CHUNK` trials; one reduction merges the chunks' slacks and keeps the
worst trial's triple, so a scan's memory does not grow with its trial count.
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
    _stream_rows,
    check_seed,
    dot_rows,
    gram_schmidt_rows,
    hodge_star,
    wedge_rows,
)
from .sections import section_areas

_CHUNK = 3072  # trials per array pass of a scan: 9,216 section planes


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


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, bitwise those of `Bivector.norm`."""
    return np.sqrt(dot_rows(x, x))


def _shared_line_rows(seed: int, n: int, streams):
    """Vectors (m, 3, n) and normalized triples (m, 3, n(n-1)/2) of the given streams.

    Row k holds (u, v, t), the 3n normals `_stream_rows` draws from stream k,
    and (w, w1, w2) = (u^(v+t), u^v, u^t) scaled to |w| = 1; the planes of w1
    and w2 share the line through u, so w is simple too.  A draw with |w|,
    |w1| or |w2| below 1e-6 is redrawn.
    """
    if n not in (4, 6):
        raise DimensionMismatch("decomposition trials are drawn in dimension 4 or 6")
    triple = np.empty((len(streams), 3, n * (n - 1) // 2))

    def redraw(rows, uvt):
        u, v, t = uvt[:, :n], uvt[:, n : 2 * n], uvt[:, 2 * n :]
        w1, w2 = wedge_rows(u, v), wedge_rows(u, t)
        scale = _norms(w1 + w2)
        bad = (np.minimum(_norms(w1), _norms(w2)) < 1e-6) | (scale < 1e-6)
        inv = 1.0 / np.where(bad, 1.0, scale)[:, None]
        w1, w2 = w1 * inv, w2 * inv
        triple[rows] = np.stack((w1 + w2, w1, w2), axis=1)
        return bad

    return _stream_rows(seed, streams, 3 * n, redraw).reshape(-1, 3, n), triple


def shared_line_decomposition(seed: int, n: int, stream: int | None = None):
    """Simple bivector triple (u^(v+t), u^v, u^t), |w| = 1: one row of `_shared_line_rows`.

    Raises ValueError for a seed or stream outside [0, 2**64).
    """
    check_seed(seed, stream)
    return tuple(Bivector(c, n) for c in _shared_line_rows(seed, n, [stream])[1][0])


def _phi_dim4(body: Body, seed: int, start: int, stop: int):
    """2-densities (m, 3), violation bands and triples of trials start..stop-1.

    The planes come straight from the drawn vectors: w, w1 and w2 span
    (u, v+t), (u, v) and (u, t), orthonormalized together by
    `gram_schmidt_rows` and scored by one `section_areas` call.  The band
    is 1e-8.
    """
    uvt, triple = _shared_line_rows(seed, 4, range(start, stop))
    u, v, t = uvt[:, 0], uvt[:, 1], uvt[:, 2]
    b = np.stack((v + t, v, t), axis=1)
    U, V = gram_schmidt_rows(np.broadcast_to(u[:, None], b.shape), b)
    areas = section_areas(body, U.reshape(-1, 4), V.reshape(-1, 4)).reshape(-1, 3)
    return math.pi * _norms(triple) / areas, np.full(len(uvt), 1e-8), triple


def _phi_dim6(body: Body, seed: int, start: int, stop: int, samples: int):
    """Codim-2 densities (m, 3) of the Hodge duals of trials start..stop-1, bands and triples.

    The band of a trial is three combined standard errors.  Each comes from
    the spread of 64 rotation means, so it has 63 degrees of freedom; three
    standard errors of Student's t with 63 degrees of freedom cover 99.61%
    two-sided (99.73% for a normal), and the combination of the three has at
    least those degrees of freedom.
    """
    triple = _shared_line_rows(seed, 6, range(start, stop))[1]
    values = [
        [
            bh_density_codim2(body, hodge_star(Bivector(c, 6)), samples,
                              seed=(seed << 20) + i * 3 + j)
            for j, c in enumerate(row)
        ]
        for i, row in zip(range(start, stop), triple)
    ]
    phis = np.array([[dv.value for dv in row] for row in values])
    errs = [[dv.stderr for dv in row] for row in values]
    bands = np.array([3.0 * math.sqrt(sum(e * e for e in row)) for row in errs])
    return phis, bands, triple


def semi_ellipticity_scan(
    body: Body, trials: int, seed: int = 0, mc_samples: int | None = None
) -> ScanReport:
    """Run decomposition trials of phi(w) <= phi(w1) + phi(w2).

    Trials run in chunks of `_CHUNK`, each drawn by `_shared_line_rows`.
    Four-dimensional bodies score the planes of the drawn triples through
    `section_areas` (violation band 1e-8); six-dimensional bodies test the
    degree-4 duals of the drawn bivector triples through the codimension-two
    quasi-Monte Carlo densities (mc_samples each, 10^6 when unset, seeded
    (seed << 20) + 3 * trial + j), with the band widened to three combined
    standard errors of 63 degrees of freedom each (99.61% two-sided
    coverage under Student's t).  Reports the minimum slack, the worst
    trial (the first one at the minimum, its triple kept from its chunk, so
    bitwise `shared_line_decomposition(seed, n, trial)`) and the violation
    count; for n = 6 the stored trial bivectors are the Hodge duals of the
    tested multivectors.  Raises ValueError for a seed outside [0, 2**64), or one
    whose dim-6 Monte Carlo seeds would leave it.
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
        phis, bands, triples = densities(start, min(start + _CHUNK, trials))
        slacks = phis[:, 1] + phis[:, 2] - phis[:, 0]
        k = int(np.argmin(slacks))
        if start == 0 or slacks[k] < min_slack:
            min_slack, worst_phis, worst_triple = float(slacks[k]), phis[k], triples[k].copy()
        violations += int(np.count_nonzero(slacks < -bands))
    worst_trial = DecompositionTrial(*(Bivector(c, body.n) for c in worst_triple), body.label,
                                     *(float(x) for x in worst_phis))
    return ScanReport(body.label, trials, min_slack, violations, worst_trial, samples)
