import math
import re

import numpy as np
import pytest

import bhdensity as bh
from bhdensity import density, probe
from bhdensity.geom import _philox, _philox_streams, degenerate_rows
from bhdensity.tolerances import TOL
from conftest import hodge_loop

E = np.eye(4)


def test_gram_schmidt_already_orthonormal():
    pl = bh.gram_schmidt(E[0], E[1])
    assert np.allclose(pl.u, E[0]) and np.allclose(pl.v, E[1])


def test_gram_schmidt_removes_first_component():
    pl = bh.gram_schmidt(E[0], E[0] + E[1])
    assert np.allclose(pl.u, E[0], atol=1e-15)
    assert np.allclose(pl.v, E[1], atol=1e-15)


def test_gram_schmidt_normalizes_orthogonal_inputs():
    eps = 0.1
    s = math.sqrt(1.01)
    pl = bh.gram_schmidt(E[0] + eps * E[2], E[1] + eps * E[3])
    assert np.allclose(pl.u, (E[0] + 0.1 * E[2]) / s, atol=1e-15)
    assert np.allclose(pl.v, (E[1] + 0.1 * E[3]) / s, atol=1e-15)


def test_gram_schmidt_degenerate():
    with pytest.raises(bh.DegenerateSpan):
        bh.gram_schmidt(E[0], 1.0000000000000002 * E[0])


def test_degenerate_rows_flags_each_pair():
    a = np.array([E[0], E[0], E[0], E[0]])
    b = np.array([1.0000000000000002 * E[0], np.zeros(4), E[0] + 1e-3 * E[1], E[1]])
    assert degenerate_rows(a, b).tolist() == [True, True, False, False]


def test_gram_schmidt_span_reconstruction():
    gen = np.random.default_rng(11)
    for _ in range(200):
        a = gen.standard_normal(4)
        b = gen.standard_normal(4)
        pl = bh.gram_schmidt(a, b)
        for x in (a, b):
            resid = x - np.dot(x, pl.u) * pl.u - np.dot(x, pl.v) * pl.v
            assert np.linalg.norm(resid) < 1e-10 * max(1.0, np.linalg.norm(x))


def test_wedge_examples():
    assert np.allclose(bh.wedge(E[0], E[1]).coords, [1, 0, 0, 0, 0, 0])
    assert np.allclose(bh.wedge(E[0], E[0]).coords, np.zeros(6))
    assert np.allclose(bh.wedge(E[0] + E[2], E[1]).coords, [1, 0, 0, -1, 0, 0])


def test_wedge_dimension_mismatch():
    with pytest.raises(bh.DimensionMismatch):
        bh.wedge(np.ones(4), np.ones(5))


HODGE_TABLE = {
    (0, 1): ((2, 3), 1.0),
    (0, 2): ((1, 3), -1.0),
    (0, 3): ((1, 2), 1.0),
    (1, 2): ((0, 3), 1.0),
    (1, 3): ((0, 2), -1.0),
    (2, 3): ((0, 1), 1.0),
}


def test_hodge_star_table_n4():
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for (i, j), (target, sign) in HODGE_TABLE.items():
        out = bh.hodge_star(bh.wedge(E[i], E[j]))
        expected = np.zeros(6)
        expected[pairs.index(target)] = sign
        assert np.allclose(out.coords, expected)


def test_hodge_star_involution_n4():
    gen = np.random.default_rng(5)
    for _ in range(50):
        w = bh.Bivector(gen.standard_normal(6), 4)
        back = bh.hodge_star(bh.hodge_star(w))
        assert np.allclose(back.coords, w.coords, atol=1e-15)


def test_hodge_star_n6_basis():
    e6 = np.eye(6)
    out = bh.hodge_star(bh.wedge(e6[0], e6[1]))
    # complement (3,4,5,6) is the last lex 4-subset, positive sign
    assert out.shape == (15,)
    assert out[-1] == 1.0 and np.count_nonzero(out) == 1


def test_hodge_star_isometry_and_linearity():
    gen = np.random.default_rng(6)
    for n in (4, 5, 6):
        dim = n * (n - 1) // 2
        for _ in range(50):
            a = bh.Bivector(gen.standard_normal(dim), n)
            b = bh.Bivector(gen.standard_normal(dim), n)
            sa = np.asarray(bh.hodge_star(a).coords if n == 4 else bh.hodge_star(a))
            sb = np.asarray(bh.hodge_star(b).coords if n == 4 else bh.hodge_star(b))
            assert abs(np.linalg.norm(sa) - a.norm) < 1e-12
            al, be = gen.standard_normal(2)
            s_comb = bh.hodge_star(al * a + be * b)
            s_comb = np.asarray(s_comb.coords if n == 4 else s_comb)
            assert np.allclose(s_comb, al * sa + be * sb, atol=1e-12)


def test_hodge_gathers_match_loop_oracle_bitwise():
    # zero coordinates of either sign come out as +0.0, as the loop's accumulation gives
    gen = np.random.default_rng(8)
    for n in range(2, 9):
        dim = n * (n - 1) // 2
        for _ in range(20):
            c = gen.standard_normal(dim)
            c[gen.random(dim) < 0.3] = 0.0
            c[gen.random(dim) < 0.3] = -0.0
            up = bh.hodge_star(bh.Bivector(c, n))
            up = up.coords if n == 4 else up
            down = bh.hodge_star_codim(c, n).coords
            assert up.tobytes() == hodge_loop(c, n).tobytes()
            assert down.tobytes() == hodge_loop(c, n, down=True).tobytes()


def test_hodge_unsupported_dimension():
    with pytest.raises(bh.UnsupportedDimension):
        bh.Bivector(np.zeros(36), 9)


def test_plucker_examples():
    gen = np.random.default_rng(7)
    for _ in range(100):
        u, v = gen.standard_normal(4), gen.standard_normal(4)
        w = bh.wedge(u, v)
        scale = (np.linalg.norm(u) * np.linalg.norm(v)) ** 2
        assert abs(bh.plucker_defect(w)) <= 1e-10 * max(scale, 1e-30)
    assert bh.plucker_defect(bh.Bivector([1, 0, 0, 0, 0, 1], 4)) == 1.0
    assert bh.plucker_defect(bh.Bivector(np.zeros(6), 4)) == 0.0


def test_plucker_general_dimension():
    e6 = np.eye(6)
    assert bh.plucker_defect(bh.wedge(e6[0] + e6[4], e6[1] - e6[5])) < 1e-12
    nonsimple = bh.wedge(e6[0], e6[1]) + bh.wedge(e6[2], e6[3])
    assert bh.plucker_defect(nonsimple) > 0.5


def test_random_plane_determinism_and_orthonormality():
    p1 = bh.random_plane(123, 4)
    p2 = bh.random_plane(123, 4)
    assert np.array_equal(p1.u, p2.u) and np.array_equal(p1.v, p2.v)
    for i in range(100):
        pl = bh.random_plane(9, 4, stream=i)
        assert abs(np.dot(pl.u, pl.u) - 1) < 1e-12
        assert abs(np.dot(pl.u, pl.v)) < 1e-12


@pytest.mark.parametrize("n", [-1, 0, 1, 9])
def test_random_plane_rejects_dimension_before_drawing(n):
    # n = 0 and n = 1 never give a spanning pair, so the draw loop would not end
    with pytest.raises(bh.UnsupportedDimension):
        bh.random_plane(0, n)
    for count in (0, 3):
        with pytest.raises(bh.UnsupportedDimension):
            bh.random_planes(0, n, count)


@pytest.mark.parametrize("count", [0, 1, 64])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_random_planes_are_random_plane_streams(seed, count):
    # one re-keyed generator draws what a fresh generator per stream draws, redraws included
    planes = bh.random_planes(seed, 4, count)
    want = [bh.random_plane(seed, 4, stream=i) for i in range(count)]
    assert len(planes) == count
    for got, pl in zip(planes, want):
        assert got.u.tobytes() == pl.u.tobytes() and got.v.tobytes() == pl.v.tobytes()


def _reference_plane(seed, n, stream):
    """A plane and its draw count, one stream at a time: pairs of n normals are
    drawn until their relative Gram determinant exceeds TOL.resample_defect."""
    gen = _philox(seed, stream)
    draws = 0
    while True:
        a, b = gen.standard_normal(n), gen.standard_normal(n)
        draws += 1
        na2, nb2, ab = np.dot(a, a), np.dot(b, b), np.dot(a, b)
        if na2 > 0.0 and nb2 > 0.0 and na2 * nb2 - ab * ab > TOL.resample_defect * na2 * nb2:
            return bh.gram_schmidt(a, b), draws


@pytest.mark.parametrize("defect", [None, 0.3, 0.9], ids=["default", "0.3", "0.9"])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_random_planes_match_per_stream_reference(monkeypatch, n, seed, defect):
    # a defect of 0.3 or 0.9 forces redraws, which never happen at the default
    if defect is not None:
        monkeypatch.setattr(TOL, "resample_defect", defect)
    want, draws = zip(*(_reference_plane(seed, n, i) for i in range(300)))
    assert (max(draws) > 1) == (defect is not None)
    for count in (0, 1, 300):
        planes = bh.random_planes(seed, n, count)
        single = [bh.random_plane(seed, n, stream=i) for i in range(count)]
        assert len(planes) == len(single) == count
        for got, one, pl in zip(planes, single, want):
            bits = pl.u.tobytes() + pl.v.tobytes()
            assert got.u.tobytes() + got.v.tobytes() == bits
            assert one.u.tobytes() + one.v.tobytes() == bits


def test_random_plane_rotation_invariant_moment():
    vals = [bh.random_plane(5, 4, stream=i).u[0] ** 2 for i in range(10_000)]
    assert abs(np.mean(vals) - 0.25) < 0.02


def test_grassmann_distance():
    w0 = bh.w0_plane(4)
    assert bh.grassmann_distance(w0, w0) == 0.0
    v1 = bh.named_plane(1, 0.01)
    d = bh.grassmann_distance(w0, v1)
    assert 0.013 < d < 0.015  # ~ sqrt(2) * eps
    # swap of basis does not change the underlying plane
    swapped = bh.Plane2(w0.v, w0.u)
    assert bh.grassmann_distance(w0, swapped) < 1e-12


def _philox_state_bits(gen):
    s = gen.bit_generator.state
    return (s["state"]["counter"].tobytes(), s["state"]["key"].tobytes(), s["buffer"].tobytes(),
            s["buffer_pos"], s["has_uint32"], s["uinteger"])


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_philox_streams_are_fresh_philox_streams(seed):
    # every request follows a draw of another length and a 32-bit draw from the
    # same kernel call, which leave the counter, buffer and half word mid-stream
    keyed = _philox_streams(seed)
    for stream, shape in [(0, 7), (2**64 - 1, (4096, 3)), (0, (4096, 4)), (3, 12),
                          (2**64 - 1, 1), (None, 5)]:
        gen = keyed(stream)
        assert _philox_state_bits(gen) == _philox_state_bits(_philox(seed, stream))
        assert (gen.standard_normal(shape).tobytes()
                == _philox(seed, stream).standard_normal(shape).tobytes())
        gen.integers(0, 10, size=3, dtype=np.uint32)


def test_philox_stream_closures_share_no_state():
    # two kernels of different seeds, requested alternately: each keeps its own seed and
    # builds each stream fresh, whatever the other drew in between
    kernels = {5: _philox_streams(5), 2**64 - 1: _philox_streams(2**64 - 1)}
    for seed, stream in [(5, None), (2**64 - 1, 2**64 - 1), (5, 2**64 - 1), (2**64 - 1, None),
                         (5, 3), (2**64 - 1, 0)]:
        gen = kernels[seed](stream)
        assert _philox_state_bits(gen) == _philox_state_bits(_philox(seed, stream))
        assert (gen.standard_normal(9).tobytes()
                == _philox(seed, stream).standard_normal(9).tobytes())
        gen.integers(0, 10, size=3, dtype=np.uint32)


def test_philox_stream_callers_refuse_out_of_range_seeds():
    basis = np.eye(4)[:, :2]
    for value in (-1, 2**64):
        seed_msg, stream_msg = (re.escape(f"{name} must be in [0, 2**64), got {value}")
                                for name in ("seed", "stream"))
        with pytest.raises(ValueError, match=seed_msg):
            bh.mc_section_volume(bh.make_cross_polytope(4), basis, 10, seed=value)
        with pytest.raises(ValueError, match=seed_msg):
            bh.shared_line_decomposition(value, 4, stream=0)
        with pytest.raises(ValueError, match=stream_msg):
            bh.shared_line_decomposition(0, 4, stream=value)


def test_keyed_draw_callers_build_one_bit_generator(monkeypatch):
    built = []

    class CountingPhilox(np.random.Philox):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("key"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    probe._shared_line_rows(3, 4, range(100))
    assert len(built) == 1
    body = bh.make_cross_polytope(4)
    bh.mc_section_volume(body, np.eye(4)[:, :2], 3 * density._MC_CHUNK + 1, seed=3)
    assert len(built) == 2
