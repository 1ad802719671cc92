import random
import tracemalloc

import numpy as np
import pytest

from kgsig.random_fields import Draws, bump

# random.Random(7).random() is the same on every Python, so these pin the
# seed -> data mapping; the normals allow for libm rounding in log1p and cos.
SEED7_UNIFORMS = [
    0.32383276483316237,
    0.15084917392450192,
    0.6509344730398537,
    0.07243628666754276,
    0.5358820043066892,
]
SEED7_NORMALS = [
    0.5161661633565218,
    1.3031666217102853,
    -0.8234106660654669,
    -0.3453072255510914,
    -0.2527843847463517,
]


def test_same_seed_same_draws_other_seed_other_draws():
    a, b, c = Draws(3), Draws(3), Draws(4)
    first = [a.uniform(-1.0, 2.0), *a.normal((2, 5)).ravel(), a.normal()]
    again = [b.uniform(-1.0, 2.0), *b.normal((2, 5)).ravel(), b.normal()]
    other = [c.uniform(-1.0, 2.0), *c.normal((2, 5)).ravel(), c.normal()]
    assert first == again
    assert all(x != y for x, y in zip(first, other))


@pytest.mark.parametrize("size, shape", [(5, (5,)), ((3,), (3,)), ((2, 16), (2, 16)), ((0,), (0,))])
def test_normal_shapes(size, shape):
    out = Draws(0).normal(size)
    assert isinstance(out, np.ndarray) and out.shape == shape and out.dtype == float


def test_scalar_normal_is_a_python_float():
    assert type(Draws(0).normal()) is float


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-3.0, -2.5), (0.1, 0.3), (1e-9, 2e-9)])
def test_uniform_stays_in_the_half_open_interval(lo, hi):
    draws = Draws(11)
    xs = [draws.uniform(lo, hi) for _ in range(20_000)]
    assert all(lo <= x < hi for x in xs)


def test_normal_moments():
    x = Draws(0).normal(200_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.01


def test_seed7_draws_are_pinned():
    draws = Draws(7)
    assert [draws.uniform(0.0, 1.0) for _ in range(5)] == SEED7_UNIFORMS
    scalar = Draws(7)
    for got in (Draws(7).normal(5).tolist(), [scalar.normal() for _ in range(5)]):
        np.testing.assert_allclose(got, SEED7_NORMALS, rtol=1e-15, atol=0)


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
@pytest.mark.parametrize("k", [0, 1, 2, 5, 1000])
def test_bulk_normals_consume_the_single_draw_stream(seed, k):
    # normal(k) reads its 2k uniforms in bulk; they, and the state after
    # them, must be exactly those of 2k random() calls
    draws = Draws(seed)
    bulk, after = draws.normal(k), draws.uniform(0.0, 1.0)
    stream = random.Random(seed)
    u = np.array([stream.random() for _ in range(2 * k)])
    assert np.array_equal(bulk, np.sqrt(-2.0 * np.log1p(-u[0::2])) * np.cos(2.0 * np.pi * u[1::2]))
    assert after == stream.random()


def reference_bump(s):
    # the masked expression bump evaluated before it worked in its output array
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


def test_bump_matches_the_masked_expression():
    # the edges, a node whose square rounds to 1, signed zeros and non-finite
    # values; the (120, 241) argument of the positivity suite, a strided view
    # of it and a scalar
    below = np.nextafter(1.0, 0.0)
    edges = np.array([-np.inf, -1.5, -1.0, -below, -0.0, 0.0, 1e-300, below, 1.0, np.inf, np.nan])
    grid = np.random.default_rng(17).uniform(-1.5, 1.5, (120, 241))
    for s in (edges, grid, grid[::2, ::3], 0.5):
        got = bump(s)
        assert got.shape == np.shape(s) and got.dtype == float
        assert np.array_equal(got, reference_bump(s))
    # evaluated in its output array: the mask is the one other array of the argument's size
    bump(grid)
    tracemalloc.start()
    try:
        bump(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * grid.nbytes
