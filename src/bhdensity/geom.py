"""Dense small-dimension linear algebra: planes, wedges, Hodge star, Plucker.

Vectors and matrices are plain float64 numpy arrays; the structured objects
(oriented planes, bivectors) are small frozen dataclasses.  Everything here
is a pure function of its inputs and safe to share across threads.
"""

from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .errors import DegenerateSpan, DimensionMismatch, UnsupportedDimension
from .tolerances import TOL

MAX_DIM = 8


def as_vec(x, n: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 vector, optionally of dimension n."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if not (2 <= v.size <= MAX_DIM):
        raise UnsupportedDimension(f"dimension {v.size} outside 2..{MAX_DIM}")
    if n is not None and v.size != n:
        raise DimensionMismatch(f"expected dimension {n}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


@cache
def _lex_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of the lex pairs (i, j), i < j, of range(n).

    Returns the (n, n) table of each pair's lex index, and per lex pair the
    lex index of its complement among the (n-2)-subsets and the sign
    (-1)^(i+j-1) of the permutation (i, j, complement).  Complementing
    reverses the lex order of equal-size subsets (A precedes B exactly when
    the least element of their symmetric difference lies in A), so the
    complement of the k-th pair is the k-th (n-2)-subset from the end, and
    the complement index is its own inverse.
    """
    i, j = np.triu_indices(n, k=1)
    index = np.zeros((n, n), dtype=int)
    index[i, j] = np.arange(i.size)
    tables = (index, np.arange(i.size)[::-1], np.where((i + j) % 2, 1.0, -1.0))
    for t in tables:
        t.setflags(write=False)
    return tables


def check_plane_basis(uu, vv, uv) -> None:
    """The plane-basis rule on the dot products u.u, v.v and u.v (numpy scalars of one
    basis, or arrays over rows of bases): unit length within 3 TOL.geometric and
    orthogonality within TOL.geometric, or DegenerateSpan; NaN fails."""
    tol = TOL.geometric
    if not ((abs(uu - 1.0) <= 3.0 * tol) & (abs(vv - 1.0) <= 3.0 * tol)).all():
        raise DegenerateSpan("plane basis vectors must be unit length")
    if not (abs(uv) <= tol).all():
        raise DegenerateSpan("plane basis vectors must be orthogonal")


@dataclass(frozen=True)
class Plane2:
    """Oriented 2-plane given by an ordered orthonormal pair (u, v)."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = as_vec(self.u)
        v = as_vec(self.v, u.size)
        check_plane_basis(np.dot(u, u), np.dot(v, v), np.dot(u, v))
        u.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.u.size

    def projector(self) -> np.ndarray:
        """Orthogonal projection matrix onto the plane."""
        return np.outer(self.u, self.u) + np.outer(self.v, self.v)


@dataclass(frozen=True)
class Bivector:
    """Element of the second exterior power in lexicographic coordinates.

    For n = 4 the coordinate order is (12, 13, 14, 23, 24, 34).
    """

    coords: np.ndarray
    n: int

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if not (2 <= self.n <= MAX_DIM):
            raise UnsupportedDimension(f"dimension {self.n} outside 2..{MAX_DIM}")
        if c.shape != (self.n * (self.n - 1) // 2,):
            raise DimensionMismatch(
                f"need {self.n * (self.n - 1) // 2} coordinates for n={self.n}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("bivector coordinates must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def __add__(self, other: "Bivector") -> "Bivector":
        if self.n != other.n:
            raise DimensionMismatch("bivectors live in different dimensions")
        return Bivector(self.coords + other.coords, self.n)

    def __mul__(self, t: float) -> "Bivector":
        return Bivector(self.coords * float(t), self.n)

    __rmul__ = __mul__


def dot_rows(a, b) -> np.ndarray:
    """Dot products over the last axis of two broadcastable arrays.

    A stack of (1, n) @ (n, 1) products goes through the same BLAS dot as
    np.dot and np.linalg.norm of one vector, so each value is bitwise the
    one those give for rows of the same memory layout (BLAS sums unit-stride
    and strided rows in different orders).
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def degenerate_rows(a, b, defect: float | None = None) -> np.ndarray:
    """True where a pair of vectors along the last axis spans no plane.

    That is a zero vector, or a relative 2x2 Gram determinant at or below
    `defect` (TOL.span_defect when unset).
    """
    defect = TOL.span_defect if defect is None else defect
    na2, nb2, ab = dot_rows(a, a), dot_rows(b, b), dot_rows(a, b)
    return (na2 == 0.0) | (nb2 == 0.0) | (na2 * nb2 - ab * ab <= defect * na2 * nb2)


def gram_schmidt_rows(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize pairs of vectors along the last axis, keeping u parallel to a.

    Deterministic: u = a/|a| first, then b is orthogonalized against u in
    two passes.  Returns the stacked bases (u, v).  Raises DegenerateSpan
    when `degenerate_rows` holds for some pair.
    """
    if np.any(degenerate_rows(a, b)):
        raise DegenerateSpan("vectors are zero or numerically dependent")
    u = a / np.sqrt(dot_rows(a, a))[..., None]
    w = b - dot_rows(u, b)[..., None] * u
    w -= dot_rows(u, w)[..., None] * u  # second pass for orthogonality at 1e-16
    return u, w / np.sqrt(dot_rows(w, w))[..., None]


def gram_schmidt(a, b) -> Plane2:
    """`gram_schmidt_rows` for one pair of vectors, as a checked Plane2."""
    a = as_vec(a)
    b = as_vec(b, a.size)
    return Plane2(*gram_schmidt_rows(a, b))


def wedge_rows(u, v) -> np.ndarray:
    """Lexicographic coordinates u_i v_j - u_j v_i of u ^ v along the last axis.

    The result is C-ordered, so its rows have unit stride like the
    coordinates of one Bivector.
    """
    i, j = np.triu_indices(np.shape(u)[-1], k=1)
    return np.ascontiguousarray(u[..., i] * v[..., j] - u[..., j] * v[..., i])


def wedge(u, v) -> Bivector:
    """Exterior product of two vectors in lexicographic coordinates."""
    u = as_vec(u)
    v = as_vec(v, u.size)
    return Bivector(wedge_rows(u, v), u.size)


def hodge_star(w: Bivector):
    """Hodge star of a bivector.

    Maps degree 2 to degree n-2 with the sign of the permutation
    (i, j, complement) of (1..n); this makes star(star(w)) = w on bivectors.
    One signed gather through `_lex_tables`; adding 0.0 turns a -0.0
    coordinate into +0.0.  For n = 4 the result is again a Bivector;
    otherwise it is the lex-ordered coordinate array over (n-2)-subsets.
    """
    _, comp, sign = _lex_tables(w.n)
    out = (sign * w.coords)[comp] + 0.0
    if w.n == 4:
        return Bivector(out, 4)
    return out


def hodge_star_codim(coords, n: int) -> Bivector:
    """Hodge star from degree n-2 back down to degree 2, the inverse of `hodge_star`."""
    if not 2 <= n <= MAX_DIM:
        raise UnsupportedDimension(f"dimension {n} outside 2..{MAX_DIM}")
    _, comp, sign = _lex_tables(n)
    coords = np.asarray(coords, dtype=float)
    if coords.shape != comp.shape:
        raise DimensionMismatch(f"need {comp.size} coordinates for degree {n - 2} in n={n}")
    return Bivector(sign * coords[comp] + 0.0, n)


def plucker_defect(w: Bivector) -> float:
    """Simplicity defect; zero exactly when the bivector is decomposable.

    For n = 4 this is the Plucker quadric p12*p34 - p13*p24 + p14*p23
    (signed); for other dimensions it is the Euclidean norm of w ^ w.
    """
    c = w.coords
    if w.n == 4:
        return float(c[0] * c[5] - c[1] * c[4] + c[2] * c[3])
    index = _lex_tables(w.n)[0]
    i, j, k, l = np.array(list(combinations(range(w.n), 4)), dtype=int).reshape(-1, 4).T
    val = (c[index[i, j]] * c[index[k, l]] - c[index[i, k]] * c[index[j, l]]
           + c[index[i, l]] * c[index[j, k]])
    return float(np.linalg.norm(2.0 * val))


def check_seed(seed, stream=None) -> None:
    """Raise ValueError unless seed (and stream, if given) lie in [0, 2**64).

    That is the range of a Philox key word.
    """
    for name, value in (("seed", seed), ("stream", stream)):
        if value is not None and not 0 <= value < 2**64:
            raise ValueError(f"{name} must be in [0, 2**64), got {value}")


def _philox(seed, stream=None) -> np.random.Generator:
    key = [np.uint64(seed), np.uint64(0 if stream is None else stream)]
    return np.random.Generator(np.random.Philox(key=key))


def _philox_streams(seed):
    """Keyed draws for many streams: stream -> Generator bitwise `_philox(seed, stream)`.

    Builds one Philox bit generator per call and re-keys it through its state
    for each request: key (seed, stream), counter zero, output buffer empty,
    as just built.  The state template is taken once from the generator, its
    words as Python ints, so a request writes one key word and assigns the
    state: about a twentieth of the cost of building a generator (0.45 against
    9.7 us on 2 CPUs with numpy 2.4).  Every request returns the same
    Generator, so finish one stream's draws before keying the next.
    """
    bitgen = np.random.Philox(key=[np.uint64(seed), np.uint64(0)])
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    words = fresh["state"]
    words["counter"], words["key"] = words["counter"].tolist(), words["key"].tolist()
    fresh["buffer"] = fresh["buffer"].tolist()
    key = words["key"]

    def keyed(stream) -> np.random.Generator:
        key[1] = 0 if stream is None else stream
        bitgen.state = fresh
        return gen

    return keyed


def _stream_rows(seed: int, streams, width: int, redraw) -> np.ndarray:
    """Rows (len(streams), width): row k is the first `width` normals of
    `_philox(seed, streams[k])`, drawn through one `_philox_streams` generator,
    and takes the next `width` of its own stream while `redraw(rows, X[rows])`
    flags it, so a row depends only on (seed, stream)."""
    keyed = _philox_streams(seed)
    X = np.empty((len(streams), width))
    for row, stream in zip(X, streams):
        keyed(stream).standard_normal(out=row)
    rows, draws = np.arange(len(streams)), 1
    while rows.size:
        rows, draws = rows[redraw(rows, X[rows])], draws + 1
        for k in rows:
            X[k] = keyed(streams[k]).standard_normal(width * draws)[-width:]
    return X


def _plane_rows(seed: int, n: int, streams) -> list[Plane2]:
    """`random_plane` of each stream, as one batch; n is checked before drawing."""
    if not 2 <= n <= MAX_DIM:
        raise UnsupportedDimension(f"dimension {n} outside 2..{MAX_DIM}")
    ab = _stream_rows(seed, streams, 2 * n,
                      lambda _, x: degenerate_rows(x[:, :n], x[:, n:], TOL.resample_defect))
    return [Plane2(u, v) for u, v in zip(*gram_schmidt_rows(ab[:, :n], ab[:, n:]))]


def random_plane(seed: int, n: int, stream: int | None = None) -> Plane2:
    """Uniform (rotation-invariant) random 2-plane from a counter-based RNG.

    Gram-Schmidt applied to two standard Gaussian vectors; identical
    (seed, stream) always yields the identical plane.  A pair that
    `degenerate_rows` flags at TOL.resample_defect is redrawn from the same
    stream.  Raises UnsupportedDimension for n outside 2..8 and ValueError
    for a seed or stream outside [0, 2**64).
    """
    check_seed(seed, stream)
    return _plane_rows(seed, n, [stream])[0]


def random_planes(seed: int, n: int, count: int) -> list[Plane2]:
    """Planes of streams 0..count-1, drawn as one batch: bitwise
    ``[random_plane(seed, n, stream=i) for i in range(count)]``."""
    check_seed(seed)
    return _plane_rows(seed, n, range(count))


def grassmann_distance(p: Plane2, q: Plane2) -> float:
    """Frobenius distance of the orthogonal projectors, scaled by 1/sqrt(2)."""
    if p.n != q.n:
        raise DimensionMismatch("planes live in different dimensions")
    return float(np.linalg.norm(p.projector() - q.projector(), "fro") / np.sqrt(2.0))
