"""Unit balls of finite-dimensional norms and their Minkowski functionals.

Two representations cover everything the toolkit needs:

* ``AbsSumBody`` -- polyhedral balls {x : sum_j |l_j(x)| <= 1} given by a
  functional matrix; this houses the cross-polytope, its rotated copy and
  arbitrary linear images of the l1 ball.
* ``SmoothBody`` -- Euclidean balls, complex lp balls on interleaved real
  coordinate pairs, and products (gauge = max of factor gauges).
"""

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DimensionMismatch
from .geom import MAX_DIM, _philox, as_vec

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class AbsSumBody:
    """Polyhedral unit ball {x : sum_j |l_j(x)| <= 1}."""

    functionals: np.ndarray
    label: str = "abs_sum"

    def __post_init__(self):
        f = np.asarray(self.functionals, dtype=float)
        if f.ndim != 2 or f.shape[0] < 1:
            raise DimensionMismatch("functionals must form a k x n matrix")
        if not (2 <= f.shape[1] <= MAX_DIM):
            raise DimensionMismatch(f"ambient dimension {f.shape[1]} outside 2..{MAX_DIM}")
        if not np.all(np.isfinite(f)):
            raise ValueError("functional entries must be finite")
        sv = np.linalg.svd(f, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise ValueError("functionals do not span the space; the body is unbounded")
        f.setflags(write=False)
        object.__setattr__(self, "functionals", f)

    @property
    def n(self) -> int:
        return self.functionals.shape[1]


@dataclass(frozen=True)
class SmoothBody:
    """Non-polyhedral ball: euclidean | complex_lp | product."""

    kind: str
    n: int
    p: float | None = None
    k: int | None = None
    left: "Body | None" = None
    m: int | None = None
    label: str = field(default="")

    def __post_init__(self):
        if self.kind not in ("euclidean", "complex_lp", "product"):
            raise ValueError(f"unknown smooth body kind {self.kind!r}")
        if not (2 <= self.n <= MAX_DIM):
            raise DimensionMismatch(f"ambient dimension {self.n} outside 2..{MAX_DIM}")


Body = Union[AbsSumBody, SmoothBody]


def rotation_matrix() -> np.ndarray:
    """The orthogonal map taking the l1 ball to the rotated benchmark body."""
    s = 1.0 / SQRT2
    return np.array(
        [
            [s, 0.0, 0.5, 0.5],
            [0.0, s, -0.5, 0.5],
            [s, 0.0, -0.5, -0.5],
            [0.0, -s, -0.5, 0.5],
        ]
    )


def make_cross_polytope(n: int) -> AbsSumBody:
    """Unit ball of l1^n; for n = 4 the regular cross-polytope."""
    return AbsSumBody(np.eye(n), label=f"cross{n}")


def make_rotated_cross_polytope() -> AbsSumBody:
    """Rotated copy of the 4-dim cross-polytope, stored by its functionals.

    The functionals are the rows of the transpose of the rotation matrix,
    i.e. the inequality sum_j |(M^T y)_j| <= 1 written out explicitly.
    """
    return AbsSumBody(rotation_matrix().T.copy(), label="rotated-cross4")


def _spot_check_homogeneity(body: "SmoothBody"):
    gen = _philox(20240917)
    for _ in range(8):
        x = gen.standard_normal(body.n)
        t = float(gen.uniform(0.25, 4.0))
        a = minkowski(body, t * x)
        b = t * minkowski(body, x)
        if abs(a - b) > 1e-10 * max(1.0, abs(b)):
            raise ValueError("norm evaluator is not positively homogeneous")


def make_euclidean_ball(n: int) -> SmoothBody:
    body = SmoothBody(kind="euclidean", n=n, label=f"euclidean-ball({n})")
    _spot_check_homogeneity(body)
    return body


def make_complex_lp(p: float, k: int) -> SmoothBody:
    """Complex lp ball on C^k, realized on interleaved real pairs in R^(2k).

    Unit-modulus complex scaling acts by rotation inside each pair, so the
    gauge satisfies |lambda z| = |lambda| |z| for every complex lambda.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"p must be a finite number >= 1, got {p!r}")
    if not (1 <= k <= MAX_DIM // 2):
        raise DimensionMismatch(f"complex dimension {k} outside 1..{MAX_DIM // 2}")
    body = SmoothBody(kind="complex_lp", n=2 * k, p=float(p), k=int(k),
                      label=f"complex-lp(p={p:g},k={k})")
    _spot_check_homogeneity(body)
    return body


def make_product(left: Body, m: int) -> SmoothBody:
    """Product body left x B_2^m; the gauge is the max of the factor gauges."""
    if m < 1:
        raise DimensionMismatch("euclidean factor dimension must be >= 1")
    n = left.n + m
    if n > MAX_DIM:
        raise DimensionMismatch(f"product dimension {n} exceeds {MAX_DIM}")
    body = SmoothBody(kind="product", n=n, left=left, m=int(m),
                      label=f"product({left.label},{m})")
    _spot_check_homogeneity(body)
    return body


def _complex_lp_power(XT: np.ndarray, p: float, q: float) -> np.ndarray:
    """(sum_j |z_j|^p)^(q/p) over the interleaved pairs of the columns of XT, in one power."""
    sq = XT[0::2] ** 2
    sq += XT[1::2] ** 2
    # p = 1 needs no branch: numpy computes ** 0.5 as a sqrt and ** 1.0 as a copy;
    # adding the k <= 4 rows one at a time beats .sum(axis=0), with the same bits
    return sum(sq ** (p / 2.0)) ** (q / p)


def gauge_power(body: Body, XT: np.ndarray, q: float) -> np.ndarray:
    """gauge(x)^q for the columns x of XT, an (n, N) array, as N values.

    The one gauge kernel, coordinate-major: every term reads whole rows of
    XT.  It has no rescale path, so it is meant for columns of moderate
    norm, such as unit vectors; `minkowski_many` wraps it for rows of any
    scale.  For q = 1 the values are bitwise those of the row formulas
    except where a sum has 8 or more terms (abs-sum bodies of k >= 8
    functionals, and the Euclidean ball of R^8 when XT is C-ordered): numpy
    adds a row of that length pairwise, a column term by term.
    """
    if isinstance(body, AbsSumBody):
        g = np.abs(body.functionals @ XT).sum(axis=0)
    elif body.kind == "euclidean":
        return (XT * XT).sum(axis=0) ** (q / 2.0)
    elif body.kind == "complex_lp":
        return _complex_lp_power(XT, body.p, q)
    else:  # product
        nl = body.left.n
        right = XT[nl:]
        g = np.maximum(gauge_power(body.left, XT[:nl], 1.0), np.sqrt((right * right).sum(axis=0)))
    return g ** q


def _largest_power(body: Body) -> float:
    """The largest power the gauge takes of a coordinate, at least 2."""
    if isinstance(body, AbsSumBody) or body.kind == "euclidean":
        return 2.0
    if body.kind == "complex_lp":
        return max(body.p, 2.0)
    return _largest_power(body.left)


def minkowski_many(body: Body, X: np.ndarray) -> np.ndarray:
    """Minkowski functional on the rows of X (vectorized), safe at any scale."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != body.n:
        raise DimensionMismatch(f"expected shape (m, {body.n}), got {X.shape}")
    # outside [1/t, t] a square or power may have left the normal floats; the
    # gauge is 1-homogeneous, so such rows are redone after an exact rescale
    t = 2.0 ** (900.0 / _largest_power(body))
    with np.errstate(over="ignore", under="ignore"):
        val = gauge_power(body, X.T, 1.0)
        if val.size and not (val.min() >= 1.0 / t and val.max() <= t):
            off = ~((val >= 1.0 / t) & (val <= t))
            _, exp = np.frexp(np.abs(X[off]).max(axis=1))
            val[off] = np.ldexp(gauge_power(body, np.ldexp(X[off], -exp[:, None]).T, 1.0), exp)
    return val


def minkowski(body: Body, x) -> float:
    """Gauge of the body at x: inf{t > 0 : x in t*body}."""
    x = as_vec(x, body.n)
    return float(minkowski_many(body, x[None, :])[0])


def body_to_dict(body: Body) -> dict:
    """JSON-ready description matching the CLI ingestion schema."""
    if isinstance(body, AbsSumBody):
        return {"kind": "abs_sum", "functionals": body.functionals.tolist()}
    if body.kind == "euclidean":
        return {"kind": "euclidean", "n": body.n}
    if body.kind == "complex_lp":
        return {"kind": "complex_lp", "p": body.p, "k": body.k}
    return {
        "kind": "product",
        "left": body_to_dict(body.left),
        "euclidean_dim": body.m,
    }


_BODY_KEYS = {
    "abs_sum": ("functionals",),
    "euclidean": ("n",),
    "complex_lp": ("p", "k"),
    "product": ("left", "euclidean_dim"),
}


def _number(data: dict, key: str, integral: bool = True):
    """data[key] as an int, or as a float if not ``integral``; ValueError unless a JSON number."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if integral and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value) if integral else float(value)


def body_from_dict(data: dict) -> Body:
    """Inverse of body_to_dict; validates as the constructors do.

    Raises ValueError for a non-object, an unknown kind, a missing key or a
    non-integral n, k or euclidean_dim.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a body description must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in _BODY_KEYS:
        raise ValueError(f"unknown body kind {kind!r}")
    missing = [key for key in _BODY_KEYS[kind] if key not in data]
    if missing:
        raise ValueError(f"{kind} body lacks {', '.join(map(repr, missing))}")
    if kind == "abs_sum":
        return AbsSumBody(np.asarray(data["functionals"], dtype=float))
    if kind == "euclidean":
        return make_euclidean_ball(_number(data, "n"))
    if kind == "complex_lp":
        return make_complex_lp(_number(data, "p", integral=False), _number(data, "k"))
    return make_product(body_from_dict(data["left"]), _number(data, "euclidean_dim"))
