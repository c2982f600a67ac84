"""Command-line front end: section | density | gap | certify | lemmas | probe.

Every JSON report embeds the toolkit version, a config echo and the seed;
floats are serialized with 17 significant digits so identical configs give
bitwise-identical files (the timestamp, the thread count and the output
path, which do not change a result, are left out under --deterministic).
Exit codes: 0 success, 1 usage error, 2 certificate failure.
"""

import argparse
import csv
import io
import os
import sys
import time

import numpy as np

from . import __version__
from ._jsonfmt import dumps
from .bodies import (
    Body,
    body_from_dict,
    make_complex_lp,
    make_cross_polytope,
    make_euclidean_ball,
    make_product,
    make_rotated_cross_polytope,
)
from .contraction import (
    ProjectionW0,
    area_factor,
    certify_no_contraction,
    contraction_gap,
    lemma_lower_bound,
    named_plane,
    taylor_fit,
    w0_plane,
)
from .density import bh_density_2, bh_density_codim2
from .errors import BHDensityError, CertificateFailed
from .geom import Bivector, Plane2, gram_schmidt, random_plane
from .probe import semi_ellipticity_scan
from .sections import cross_section


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(t) for t in text.replace(";", ",").split(",") if t.strip()]
    except ValueError as exc:
        raise UsageError(f"could not parse number list {text!r}: {exc}")


def build_body(args) -> Body:
    """Builtin body names or a JSON body file."""
    name = args.body
    if os.path.exists(name):
        import json

        try:
            with open(name) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read body file {name!r}: {exc.strerror}") from None
        return body_from_dict(data)
    if name == "cross4":
        return make_cross_polytope(4)
    if name == "rotated-cross4":
        return make_rotated_cross_polytope()
    if name == "euclid-n":
        return make_euclidean_ball(4 if args.n is None else args.n)
    if name == "complex-lp":
        p = getattr(args, "p", None)
        k = getattr(args, "k", None)
        if p is None or k is None:
            raise UsageError("complex-lp requires --p and --k")
        return make_complex_lp(p, k)
    if name == "product-c-b":
        m = 1 if args.euclidean_dim is None else args.euclidean_dim
        return make_product(make_rotated_cross_polytope(), m)
    raise UsageError(
        f"unknown body {name!r}; use cross4 | rotated-cross4 | euclid-n | "
        "complex-lp | product-c-b or a JSON file path"
    )


def parse_plane(text: str, n: int) -> Plane2:
    """Plane mini-language: w0, v1:EPS .. v8:EPS, v9, random:SEED, raw numbers."""
    text = text.strip().lower()
    if text == "w0":
        return w0_plane(n)
    if text == "v9":
        return named_plane(9)
    if text.startswith("v") and ":" in text:
        head, eps = text.split(":", 1)
        try:
            return named_plane(int(head[1:]), float(eps))
        except (ValueError, BHDensityError) as exc:
            raise UsageError(f"bad plane {text!r}: {exc}")
    if text.startswith("random:"):
        return random_plane(int(text.split(":", 1)[1]), n)
    nums = _parse_floats(text)
    if len(nums) != 2 * n:
        raise UsageError(
            f"raw plane needs {2 * n} numbers (two basis vectors), got {len(nums)}"
        )
    return gram_schmidt(np.array(nums[:n]), np.array(nums[n:]))


def _write(args, text: str):
    """Write a report to --out, or to stdout without one."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict):
    # the thread count and the output path do not change a result, so a
    # deterministic report leaves them out
    skip = ("func", "threads", "out") if args.deterministic else ("func",)
    report = {
        "toolkit_version": __version__,
        "config_echo": {
            k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
        },
        "seed": getattr(args, "seed", 0),
    }
    if not args.deterministic:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    report.update(payload)
    _write(args, dumps(report))


def cmd_section(args):
    body = build_body(args)
    plane = parse_plane(args.plane, body.n)
    rep = cross_section(body, plane, args.radial_n)
    _emit(
        args,
        {
            "area": rep.euclidean_area,
            "method": rep.method,
            "vertices": rep.polygon.vertices.tolist(),
        },
    )
    return 0


def cmd_density(args):
    body = build_body(args)
    coords = np.array(_parse_floats(args.bivector))
    if args.codim2:
        value = bh_density_codim2(body, coords, args.mc_samples, args.seed)
    else:
        value = bh_density_2(body, Bivector(coords, body.n))
    _emit(args, {"value": value.value, "stderr": value.stderr, "body": value.body})
    return 0


def cmd_gap(args):
    body = build_body(args)
    nums = _parse_floats(args.proj)
    if len(nums) != 4 or not np.all(np.isfinite(nums)):
        raise UsageError(f"--proj needs four finite numbers a,b,c,d, got {args.proj!r}")
    proj = ProjectionW0(*nums)
    plane = parse_plane(args.plane, body.n)
    gap = contraction_gap(body, proj, plane)
    _emit(args, {"gap": gap, "area_factor": area_factor(proj, plane)})
    return 0


def cmd_certify(args):
    body = build_body(args)
    try:
        cert = certify_no_contraction(
            body,
            box_halfwidth=args.box,
            grid_n=args.grid,
            eps_set=_parse_floats(args.eps),
            extra_planes=args.extra_planes,
            seed=args.seed,
            gap_threshold=args.threshold,
            threads=args.threads,
        )
    except CertificateFailed as exc:
        _emit(
            args,
            {
                "success": False,
                "failed_at": list(exc.point),
                "max_gap": exc.max_gap,
                "reason": exc.reason,
            },
        )
        print(f"certificate FAILED: {exc}", file=sys.stderr)
        return 2
    _emit(args, cert.to_report(deterministic=args.deterministic))
    return 0


def cmd_lemmas(args):
    body = make_rotated_cross_polytope()
    eps_grid = _parse_floats(args.eps_grid)
    families = {
        "v1v2": 1,
        "v3v4": 3,
        "v5v6": 5,
        "v7v8": 7,
    }
    rows = []
    fitted = {}
    for fam, idx in families.items():

        def exact_area(eps, idx=idx):
            return cross_section(body, named_plane(idx, eps)).euclidean_area

        _, c_fit, _ = taylor_fit(exact_area, eps_grid)
        fitted[fam] = c_fit
        for eps in eps_grid:
            bound = lemma_lower_bound(fam, eps) if fam in ("v1v2", "v3v4") else ""
            rows.append((fam, eps, bound, exact_area(eps), c_fit))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["family", "eps", "lower_bound", "exact_area", "fitted_c"])
    for fam, eps, bound, area, c_fit in rows:
        writer.writerow(
            [
                fam,
                format(eps, ".17g"),
                format(bound, ".17g") if bound != "" else "",
                format(area, ".17g"),
                format(c_fit, ".17g"),
            ]
        )
    _write(args, buf.getvalue())
    return 0


def cmd_probe(args):
    body = build_body(args)
    report = semi_ellipticity_scan(body, args.trials, args.seed, args.mc_samples)
    worst = report.worst_trial
    _emit(
        args,
        {
            "min_slack": report.min_slack,
            "violations": report.violations,
            "trials": report.trials,
            "worst_trial": {
                "w": worst.w.coords.tolist(),
                "w1": worst.w1.coords.tolist(),
                "w2": worst.w2.coords.tolist(),
                "phi": worst.phi,
                "phi1": worst.phi1,
                "phi2": worst.phi2,
                "slack": worst.slack,
            },
        },
    )
    return 0


def make_parser() -> _Parser:
    parser = _Parser(prog="bhdensity", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, body=True):
        if body:
            p.add_argument("--body", required=True, help="builtin name or JSON file")
            p.add_argument("--n", type=int, help="dimension for euclid-n")
            p.add_argument("--p", type=float, help="exponent for complex-lp")
            p.add_argument("--k", type=int, help="complex dimension for complex-lp")
            p.add_argument("--euclidean-dim", type=int, help="euclidean factor for product-c-b")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--deterministic", action="store_true",
                       help="omit the timestamp for bitwise-reproducible reports")

    p = sub.add_parser("section", help="cross-section polygon and area")
    common(p)
    p.add_argument("--plane", required=True)
    p.add_argument("--radial-n", type=int, default=None)
    p.set_defaults(func=cmd_section)

    p = sub.add_parser("density", help="Busemann-Hausdorff density of a bivector")
    common(p)
    p.add_argument("--bivector", required=True, help="lex coordinates, comma separated")
    p.add_argument("--codim2", action="store_true")
    p.add_argument("--mc-samples", type=int, default=1_000_000)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("gap", help="contraction gap of a projection at a plane")
    common(p)
    p.add_argument("--proj", required=True, help="a,b,c,d")
    p.add_argument("--plane", required=True)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("certify", help="no-contraction certificate over a parameter box")
    common(p)
    p.add_argument("--box", type=float, default=4.0)
    p.add_argument("--grid", type=int, default=33)
    p.add_argument("--eps", default="0.02,0.05,0.1")
    p.add_argument("--extra-planes", type=int, default=64)
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("lemmas", help="CSV sweep of tilt families: bounds, areas, fits")
    common(p, body=False)
    p.add_argument("--eps-grid", default="0.002,0.004,0.006,0.008,0.01,0.012,0.014,0.016,0.018,0.02")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("probe", help="semi-ellipticity scan")
    common(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--mc-samples", type=int, default=None)
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (BHDensityError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
