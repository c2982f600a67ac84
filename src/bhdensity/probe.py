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

from .bodies import AbsSumBody, Body, ambient_dim, body_label
from .density import bh_density_2, bh_density_codim2
from .errors import DimensionMismatch
from .geom import Bivector, _philox, gram_schmidt, hodge_star, wedge
from .sections import abs_sum_section_areas


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


def _phi_exact_batch(body: AbsSumBody, seed: int, trials: int):
    """Drawn triples and their exact 2-densities for an abs-sum body, shape (trials, 3).

    The planes come straight from the drawn vectors: w, w1 and w2 span
    (u, v+t), (u, v) and (u, t).
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
    areas = abs_sum_section_areas(body.functionals, U.reshape(-1, 4), V.reshape(-1, 4))
    return triples, math.pi * norms / areas.reshape(-1, 3)


def semi_ellipticity_scan(
    body: Body, trials: int, seed: int = 0, mc_samples: int | None = None
) -> ScanReport:
    """Run decomposition trials of phi(w) <= phi(w1) + phi(w2).

    Four-dimensional bodies use exact sections (violation band 1e-8);
    six-dimensional bodies test the degree-4 duals of the drawn bivector
    triples through the codimension-two Monte Carlo densities, with the
    band widened to three combined standard errors.  Reports the minimum
    slack, the worst trial and the violation count; for n = 6 the stored
    trial bivectors are the Hodge duals of the tested multivectors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = ambient_dim(body)
    if n == 4:
        if isinstance(body, AbsSumBody):
            triples, phis = _phi_exact_batch(body, seed, trials)
        else:
            triples = [shared_line_decomposition(seed, 4, stream=i) for i in range(trials)]
            phis = np.array(
                [
                    [bh_density_2(body, w).value for w in triple]
                    for triple in triples
                ]
            )
        slacks = phis[:, 1] + phis[:, 2] - phis[:, 0]
        worst = int(np.argmin(slacks))
        violations = int(np.count_nonzero(slacks < -1e-8))
        w, w1, w2 = triples[worst]
        worst_trial = DecompositionTrial(
            w, w1, w2, body_label(body), float(phis[worst, 0]),
            float(phis[worst, 1]), float(phis[worst, 2]),
        )
        return ScanReport(body_label(body), trials, float(slacks.min()), violations, worst_trial)

    if n == 6:
        samples = mc_samples or 1_000_000
        min_slack = np.inf
        worst_trial = None
        violations = 0
        for i in range(trials):
            w, w1, w2 = shared_line_decomposition(seed, 6, stream=i)
            values = []
            errs = []
            for j, biv in enumerate((w, w1, w2)):
                dual = hodge_star(biv)  # degree-4 coordinates of the tested multivector
                dv = bh_density_codim2(body, dual, samples, seed=(seed << 20) + i * 3 + j)
                values.append(dv.value)
                errs.append(dv.stderr or 0.0)
            slack = values[1] + values[2] - values[0]
            band = 3.0 * math.sqrt(sum(e * e for e in errs))
            if slack < -band:
                violations += 1
            if slack < min_slack:
                min_slack = slack
                worst_trial = DecompositionTrial(
                    w, w1, w2, body_label(body), values[0], values[1], values[2]
                )
        return ScanReport(
            body_label(body), trials, float(min_slack), violations, worst_trial, samples
        )

    raise DimensionMismatch("scan supports dimension 4 (exact) and 6 (Monte Carlo)")
