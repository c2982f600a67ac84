"""The four benchmark workloads, each driven through bhdensity's public API.

Every workload builds its inputs from the benchmark seed, offers an untimed
warm-up, and runs one *pass* -- the unit a user waits for -- as a list of
operations whose outputs are checked.  An operation fails when any of its
checks fails; payload hashes must repeat across the passes of a run.
"""

import hashlib
import inspect
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import bhdensity as bh
from bhdensity import _jsonfmt, cli

SQRT2 = math.sqrt(2.0)
W0_AREA = 12.0 * SQRT2 - 16.0
V9_GAP = 17.0 - 12.0 * SQRT2
THREADS = 2


def _digest(text) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Work sizes the tracer attaches to spans of these functions.
SPAN_SIZES = {
    "sections.cross_section": lambda a, k: len(getattr(_arg(a, k, 0, "body"), "functionals", ())),
    "sections.abs_sum_section_areas": lambda a, k: len(_arg(a, k, 1, "U")),
    "bodies.minkowski_many": lambda a, k: len(_arg(a, k, 1, "X")),
    "density.bh_density_codim2": lambda a, k: int(_arg(a, k, 2, "mc_samples")),
    "probe.semi_ellipticity_scan": lambda a, k: int(_arg(a, k, 1, "trials")),
}


@dataclass
class Outcome:
    """One checked operation: its failed checks and an optional payload hash."""

    name: str
    failures: list = field(default_factory=list)
    digest: str | None = None


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir  # scratch files, relative to the checkout root
        self.rng = np.random.default_rng(seed)
        self.tracer = None  # set while a traced pass runs

    def begin_op(self):
        if self.tracer is not None:
            self.tracer.op += 1

    def warm_up(self):
        raise NotImplementedError

    def run_pass(self) -> list:
        raise NotImplementedError

    def layer_counters(self) -> dict:
        """Workload-specific per-layer values read from program outputs."""
        return {}

    def time_to_accuracy(self, pass_seconds):
        """Seconds to reach relative accuracy 1e-3 on every result of a pass.

        Exact workloads have it after one pass.
        """
        return pass_seconds

    def close(self):
        pass


class Certify(Workload):
    """certify_no_contraction on rotated-cross4 at the CLI defaults, plus the
    euclid-n (n=4) control that must fail at the orthogonal projection.

    The certificate's cost depends on its seed through the random witness
    planes (4 to 12 maximizer lifts for seeds 0..5, 7.1 to 9.3 s), so a pass
    certifies at three seeds, the benchmark seed and two drawn from it, to
    shrink that spread between benchmark seeds.
    """

    name = "certify"
    PARAMS = dict(box_halfwidth=4.0, grid_n=33, eps_set=(0.02, 0.05, 0.1), extra_planes=64)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.body = bh.make_rotated_cross_polytope()
        self.control = bh.make_euclidean_ball(4)
        self.cert_seeds = [seed] + [int(s) for s in self.rng.integers(0, 2**31, size=2)]
        self.counters = {}

    def warm_up(self):
        bh.certify_no_contraction(self.body, grid_n=21, seed=self.seed, threads=THREADS)

    def _certify(self, seed):
        self.begin_op()
        fails = []
        cert = bh.certify_no_contraction(self.body, seed=seed, threads=THREADS, **self.PARAMS)
        report = bh.Certificate.to_report(cert, deterministic=True)
        worst = cert.worst_cell
        _check(fails, cert.success, "certificate not successful")
        _check(fails, cert.global_min_max_gap >= 1e-3, f"min gap {cert.global_min_max_gap}")
        _check(fails, worst["witness"] == "v9", f"worst witness {worst['witness']}")
        _check(fails, abs(worst["local_gap"] - V9_GAP) <= 0.1 * V9_GAP,
               f"local gap {worst['local_gap']}")
        if seed == self.seed:
            self.counters = {
                "contraction.refined_points": report["refined_points"],
                "contraction.lifted_points": len(report["lifted"]),
                "contraction.family_size": report["family_size"],
            }
        return Outcome(f"certify:seed{seed}", fails, _digest(_jsonfmt.dumps(report)))

    def run_pass(self):
        out = [self._certify(s) for s in self.cert_seeds]
        self.begin_op()
        fails = []
        try:
            bh.certify_no_contraction(self.control, seed=self.seed, threads=THREADS, **self.PARAMS)
            fails.append("control certificate did not fail")
        except bh.CertificateFailed as err:
            _check(fails, err.point == (0.0, 0.0, 0.0, 0.0), f"control failed at {err.point}")
            _check(fails, max(err.gaps.values()) <= 1e-12, "control family gap above 1e-12")
        out.append(Outcome("control", fails))
        return out

    def layer_counters(self):
        """Counters of the certificate at the benchmark seed."""
        return self.counters


def random_abs_sum_body(seed: int) -> bh.AbsSumBody:
    """Well-conditioned random 4x4 abs-sum body (acceptance criterion 8's generator)."""
    gen = np.random.default_rng(seed)
    while True:
        L = np.eye(4) + 0.45 * gen.standard_normal((4, 4))
        try:
            return bh.AbsSumBody(L, label=f"random-abs-sum-{seed}")
        except ValueError:
            continue


class Probe4(Workload):
    """Dim-4 semi-ellipticity scans of 10^4 trials: rotated-cross4 and one
    seeded random abs-sum body."""

    name = "probe4"
    TRIALS = 10_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.bodies = [bh.make_rotated_cross_polytope(), random_abs_sum_body(seed)]
        self.scan_seeds = [int(s) for s in self.rng.integers(0, 2**31, size=2)]

    def warm_up(self):
        bh.semi_ellipticity_scan(self.bodies[0], 1000, seed=self.scan_seeds[0])

    def run_pass(self):
        out = []
        for body, s in zip(self.bodies, self.scan_seeds):
            self.begin_op()
            fails = []
            rep = bh.semi_ellipticity_scan(body, self.TRIALS, seed=s)
            _check(fails, rep.violations == 0, f"{rep.violations} violations on {body.label}")
            _check(fails, rep.min_slack >= -1e-8, f"min slack {rep.min_slack} on {body.label}")
            out.append(Outcome(f"scan:{body.label}", fails))
        return out


class DensityObserver:
    """Times every bh_density_codim2 call, at the package and the probe binding."""

    def __init__(self):
        import bhdensity.probe as probe_mod

        self.records = []  # (seconds, value, stderr, samples)
        self._sites = [(bh, "bh_density_codim2"), (probe_mod, "bh_density_codim2")]
        original = bh.bh_density_codim2
        signature = inspect.signature(original)
        records = self.records

        def bh_density_codim2(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            t0 = time.perf_counter()
            dv = original(*args, **kwargs)
            records.append((time.perf_counter() - t0, dv.value, dv.stderr,
                            int(bound.arguments["mc_samples"])))
            return dv

        bh_density_codim2.__module__ = original.__module__
        bh_density_codim2.__qualname__ = original.__qualname__
        self._original = original
        for owner, attr in self._sites:
            setattr(owner, attr, bh_density_codim2)

    def close(self):
        for owner, attr in self._sites:
            setattr(owner, attr, self._original)


class McCodim2(Workload):
    """Dim-6 Monte Carlo scans of complex-lp(1.5, 3) and complex-lp(3, 3), and
    rotated-cross4 codimension-two densities checked against the exact
    2-density."""

    name = "mc_codim2"
    SCAN_TRIALS = 2
    SCAN_SAMPLES = 1_000_000
    DIM4_DENSITIES = 4
    DIM4_SAMPLES = 200_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.observer = DensityObserver()
        self.complex_bodies = [bh.make_complex_lp(1.5, 3), bh.make_complex_lp(3.0, 3)]
        self.scan_seeds = [int(s) for s in self.rng.integers(0, 2**31, size=2)]
        self.body_c = bh.make_rotated_cross_polytope()
        self.dim4 = []  # (bivector, exact density, mc seed)
        while len(self.dim4) < self.DIM4_DENSITIES:
            w = bh.wedge(self.rng.standard_normal(4), self.rng.standard_normal(4))
            if w.norm < 1e-3:
                continue
            w = (1.0 / w.norm) * w
            exact = bh.bh_density_2(self.body_c, w).value
            self.dim4.append((w, exact, int(self.rng.integers(0, 2**31))))
        self.pass_records = []

    def warm_up(self):
        w, _, s = self.dim4[0]
        bh.bh_density_codim2(self.complex_bodies[0], bh.hodge_star(bh.wedge(
            np.eye(6)[0], np.eye(6)[1])), 100_000, seed=s)
        bh.bh_density_codim2(self.body_c, w, 100_000, seed=s)

    def run_pass(self):
        first = len(self.observer.records)
        out = []
        for body, s in zip(self.complex_bodies, self.scan_seeds):
            self.begin_op()
            rep = bh.semi_ellipticity_scan(body, self.SCAN_TRIALS, seed=s,
                                           mc_samples=self.SCAN_SAMPLES)
            fails = [] if rep.violations == 0 else [f"{rep.violations} violations on {body.label}"]
            out.append(Outcome(f"scan:{body.label}", fails,
                               _digest(float(rep.min_slack).hex())))
        for w, exact, s in self.dim4:
            self.begin_op()
            dv = bh.bh_density_codim2(self.body_c, w, self.DIM4_SAMPLES, seed=s)
            z = abs(dv.value - exact) / dv.stderr
            out.append(Outcome("codim2:rotated-cross4", [] if z <= 4.0 else [f"z = {z:.2f}"],
                               _digest(float(dv.value).hex())))
        self.pass_records = self.observer.records[first:]
        return out

    def time_to_accuracy(self, pass_seconds):
        """Mean over the pass's densities of seconds * (relative stderr / 1e-3)^2."""
        return float(np.mean([t * (se / v / 1e-3) ** 2 for t, v, se, _ in self.pass_records]))

    def layer_counters(self):
        rse = [se / v * math.sqrt(n) for _, v, se, n in self.pass_records]
        return {"density.rse_sqrt_n": float(np.mean(rse))}

    def close(self):
        self.observer.close()


class Sections(Workload):
    """In-process `bhdensity section` CLI calls on seeded JSON abs-sum bodies
    in R^4 with k = 4, 8 and 12 functionals, the same planes for each k,
    and the rotated-cross4 w0 section.

    The clipping cost at k = 12 varies from body to body, so each k gets
    several bodies to keep that spread small between benchmark seeds.
    """

    name = "sections"
    KS = (4, 8, 12)
    BODIES = 4
    PLANES = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.plane_seeds = [int(s) for s in self.rng.integers(0, 2**31, size=self.PLANES)]
        planes = [bh.random_plane(s, 4) for s in self.plane_seeds]
        U = np.array([p.u for p in planes])
        V = np.array([p.v for p in planes])
        self.cases = []  # (k, body path, plane seed, expected area)
        for k in self.KS:
            for b in range(self.BODIES):
                L = self.rng.standard_normal((k, 4))
                path = os.path.join(self.workdir, f"body-k{k}-{b}.json")
                with open(path, "w") as fh:
                    fh.write(_jsonfmt.dumps(bh.body_to_dict(bh.AbsSumBody(L))))
                expected = bh.abs_sum_section_areas(L, U, V)
                self.cases.extend((k, path, s, float(a)) for s, a in zip(self.plane_seeds, expected))
        self.out_path = os.path.join(self.workdir, "section.json")

    def _section(self, body, plane):
        argv = ["section", "--body", body, "--plane", plane, "--deterministic",
                "--out", self.out_path]
        code = cli.main(argv)
        if code != 0:
            return code, b""
        with open(self.out_path, "rb") as fh:
            return code, fh.read()

    def warm_up(self):
        _, path, s, _ = self.cases[0]
        self._section(path, f"random:{s}")

    def run_pass(self):
        out = []
        for k, path, s, expected in self.cases:
            self.begin_op()
            code, raw = self._section(path, f"random:{s}")
            fails = []
            _check(fails, code == 0, f"exit code {code}")
            area = json.loads(raw)["area"] if raw else float("nan")
            _check(fails, abs(area - expected) <= 1e-12 * expected,
                   f"k={k} random:{s} area {area!r} vs {expected!r}")
            out.append(Outcome(f"section:k{k}", fails, _digest(raw)))
        self.begin_op()
        code, raw = self._section("rotated-cross4", "w0")
        area = json.loads(raw)["area"] if raw else float("nan")
        fails = [] if abs(area - W0_AREA) <= 1e-12 else [f"exit code {code}, w0 area {area!r}"]
        out.append(Outcome("section:w0", fails, _digest(raw)))
        return out


WORKLOADS = {w.name: w for w in (Certify, Probe4, McCodim2, Sections)}
