"""Semi-ellipticity probes: triangle inequality on simple multivector triples.

A density restricted to the Grassmann cone extends to a norm only if
phi(w1 + w2) <= phi(w1) + phi(w2) whenever all three multivectors are
simple.  In the second exterior power a sum of two simple bivectors is
simple exactly when their planes share a line, so drawing u ^ v and u ^ t
covers every two-term simple decomposition up to degenerate cases.
Violations are findings, not errors.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bodies import Body
from .density import bh_density_codim2
from .errors import DimensionMismatch
from .geom import Bivector, _philox, gram_schmidt, hodge_star, wedge
from .sections import section_areas


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
    """
    return _shared_line_draw(seed, n, stream)[1]


def _phi_dim4(body: Body, seed: int, trials: int):
    """Drawn triples, their 2-densities (trials, 3) and violation bands.

    The planes come straight from the drawn vectors: w, w1 and w2 span
    (u, v+t), (u, v) and (u, t).  The band is 1e-8.
    """
    U = np.empty((trials, 3, 4))
    V = np.empty((trials, 3, 4))
    norms = np.empty((trials, 3))
    triples = []
    for i in range(trials):
        (u, v, t), triple = _shared_line_draw(seed, 4, i)
        for j, (b, w) in enumerate(zip((v + t, v, t), triple)):
            plane = gram_schmidt(u, b)
            U[i, j], V[i, j], norms[i, j] = plane.u, plane.v, w.norm
        triples.append(triple)
    areas = section_areas(body, U.reshape(-1, 4), V.reshape(-1, 4))
    return triples, math.pi * norms / areas.reshape(-1, 3), np.full(trials, 1e-8)


def _phi_dim6(body: Body, seed: int, trials: int, samples: int):
    """Drawn triples, the codim-2 densities of their Hodge duals (trials, 3) and bands.

    The band of a trial is three combined standard errors.
    """
    triples = [shared_line_decomposition(seed, 6, stream=i) for i in range(trials)]
    values = [
        [
            bh_density_codim2(body, hodge_star(biv), samples, seed=(seed << 20) + i * 3 + j)
            for j, biv in enumerate(triple)
        ]
        for i, triple in enumerate(triples)
    ]
    phis = np.array([[dv.value for dv in row] for row in values])
    errs = [[dv.stderr or 0.0 for dv in row] for row in values]
    bands = np.array([3.0 * math.sqrt(sum(e * e for e in row)) for row in errs])
    return triples, phis, bands


def semi_ellipticity_scan(
    body: Body, trials: int, seed: int = 0, mc_samples: int | None = None
) -> ScanReport:
    """Run decomposition trials of phi(w) <= phi(w1) + phi(w2).

    Four-dimensional bodies score the planes of the drawn triples through
    `section_areas` (violation band 1e-8); six-dimensional bodies test the
    degree-4 duals of the drawn bivector triples through the
    codimension-two Monte Carlo densities (mc_samples each, 10^6 when
    unset), with the band widened to three combined standard errors.
    Reports the minimum slack, the worst trial and the violation count; for
    n = 6 the stored trial bivectors are the Hodge duals of the tested
    multivectors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if mc_samples is not None and mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    samples = None
    if body.n == 4:
        triples, phis, bands = _phi_dim4(body, seed, trials)
    elif body.n == 6:
        samples = 1_000_000 if mc_samples is None else mc_samples
        triples, phis, bands = _phi_dim6(body, seed, trials, samples)
    else:
        raise DimensionMismatch("scan supports dimension 4 (exact) and 6 (Monte Carlo)")
    slacks = phis[:, 1] + phis[:, 2] - phis[:, 0]
    worst = int(np.argmin(slacks))
    violations = int(np.count_nonzero(slacks < -bands))
    phi, phi1, phi2 = (float(x) for x in phis[worst])
    worst_trial = DecompositionTrial(*triples[worst], body.label, phi, phi1, phi2)
    return ScanReport(body.label, trials, float(slacks[worst]), violations, worst_trial, samples)
