"""Dense small-dimension linear algebra: planes, wedges, Hodge star, Plucker.

Vectors and matrices are plain float64 numpy arrays; the structured objects
(oriented planes, bivectors) are small frozen dataclasses.  Everything here
is a pure function of its inputs and safe to share across threads.
"""

from dataclasses import dataclass
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


def lex_pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _perm_sign(perm) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


@dataclass(frozen=True)
class Plane2:
    """Oriented 2-plane given by an ordered orthonormal pair (u, v)."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = as_vec(self.u)
        v = as_vec(self.v, u.size)
        tol = TOL.geometric
        if abs(np.dot(u, u) - 1.0) > 3.0 * tol or abs(np.dot(v, v) - 1.0) > 3.0 * tol:
            raise DegenerateSpan("plane basis vectors must be unit length")
        if abs(np.dot(u, v)) > tol:
            raise DegenerateSpan("plane basis vectors must be orthogonal")
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

    def __sub__(self, other: "Bivector") -> "Bivector":
        if self.n != other.n:
            raise DimensionMismatch("bivectors live in different dimensions")
        return Bivector(self.coords - other.coords, self.n)

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


def gram_schmidt_rows(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize pairs of vectors along the last axis, keeping u parallel to a.

    Deterministic: u = a/|a| first, then b is orthogonalized against u in
    two passes.  Returns the stacked bases (u, v).  Raises DegenerateSpan
    when some pair's relative 2x2 Gram determinant is below the span
    tolerance.
    """
    na2 = dot_rows(a, a)
    nb2 = dot_rows(b, b)
    if np.any(na2 == 0.0) or np.any(nb2 == 0.0):
        raise DegenerateSpan("zero vector cannot span a plane")
    ab = dot_rows(a, b)
    if np.any(na2 * nb2 - ab * ab <= TOL.span_defect * na2 * nb2):
        raise DegenerateSpan("vectors are numerically dependent")
    u = a / np.sqrt(na2)[..., None]
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
    For n = 4 the result is again a Bivector; otherwise it is the lex-ordered
    coordinate array over (n-2)-subsets.
    """
    n = w.n
    if n > MAX_DIM:
        raise UnsupportedDimension(f"dimension {n} outside 2..{MAX_DIM}")
    m = n - 2
    combos = list(combinations(range(n), m))
    combo_index = {c: k for k, c in enumerate(combos)}
    out = np.zeros(len(combos))
    for idx, (i, j) in enumerate(lex_pairs(n)):
        comp = tuple(k for k in range(n) if k != i and k != j)
        sign = _perm_sign((i, j) + comp)
        out[combo_index[comp]] += sign * w.coords[idx]
    if n == 4:
        return Bivector(out, 4)
    return out


def hodge_star_codim(coords, n: int) -> Bivector:
    """Hodge star from degree n-2 back down to degree 2."""
    if n > MAX_DIM:
        raise UnsupportedDimension(f"dimension {n} outside 2..{MAX_DIM}")
    m = n - 2
    combos = list(combinations(range(n), m))
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (len(combos),):
        raise DimensionMismatch(f"need {len(combos)} coordinates for degree {m} in n={n}")
    pair_index = {p: k for k, p in enumerate(lex_pairs(n))}
    out = np.zeros(n * (n - 1) // 2)
    for idx, c in enumerate(combos):
        comp = tuple(k for k in range(n) if k not in c)
        sign = _perm_sign(c + comp)
        out[pair_index[comp]] += sign * coords[idx]
    return Bivector(out, n)


def plucker_defect(w: Bivector) -> float:
    """Simplicity defect; zero exactly when the bivector is decomposable.

    For n = 4 this is the Plucker quadric p12*p34 - p13*p24 + p14*p23
    (signed); for other dimensions it is the Euclidean norm of w ^ w.
    """
    c = w.coords
    if w.n == 4:
        return float(c[0] * c[5] - c[1] * c[4] + c[2] * c[3])
    pairs = lex_pairs(w.n)
    index = {p: k for k, p in enumerate(pairs)}
    total = 0.0
    for (i, j, k, l) in combinations(range(w.n), 4):
        val = (
            c[index[(i, j)]] * c[index[(k, l)]]
            - c[index[(i, k)]] * c[index[(j, l)]]
            + c[index[(i, l)]] * c[index[(j, k)]]
        )
        total += (2.0 * val) ** 2
    return float(np.sqrt(total))


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


def random_plane(seed: int, n: int, stream: int | None = None) -> Plane2:
    """Uniform (rotation-invariant) random 2-plane from a counter-based RNG.

    Gram-Schmidt applied to two standard Gaussian vectors; identical
    (seed, stream) always yields the identical plane.  Near-degenerate
    draws are redrawn from the same stream.  Raises ValueError for a seed or
    stream outside [0, 2**64).
    """
    check_seed(seed, stream)
    gen = _philox(seed, stream)
    while True:
        a = gen.standard_normal(n)
        b = gen.standard_normal(n)
        na2 = float(np.dot(a, a))
        nb2 = float(np.dot(b, b))
        if na2 == 0.0 or nb2 == 0.0:
            continue
        gram = na2 * nb2 - float(np.dot(a, b)) ** 2
        if gram < TOL.resample_defect * na2 * nb2:
            continue
        return gram_schmidt(a, b)


def random_planes(seed: int, n: int, count: int) -> list[Plane2]:
    """Independent reproducible planes, one counter stream per index."""
    return [random_plane(seed, n, stream=i) for i in range(count)]


def grassmann_distance(p: Plane2, q: Plane2) -> float:
    """Frobenius distance of the orthogonal projectors, scaled by 1/sqrt(2)."""
    if p.n != q.n:
        raise DimensionMismatch("planes live in different dimensions")
    return float(np.linalg.norm(p.projector() - q.projector(), "fro") / np.sqrt(2.0))
