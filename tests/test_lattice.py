import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgsig.lattice import (
    SINE_FFT_MIN_POINTS,
    SpatialGrid,
    dirichlet_basis,
    laplacian,
    omega,
)


def test_grid_spacing_and_points():
    grid = SpatialGrid(4, 5.0)
    assert grid.spacing == pytest.approx(1.0)
    grid2 = SpatialGrid(2, 3.0)
    assert grid2.points == pytest.approx([1.0, 2.0])
    grid3 = SpatialGrid(64, 10.0)
    assert grid3.spacing == pytest.approx(10.0 / 65.0)
    assert SpatialGrid(np.int64(2), 3.0).points == pytest.approx([1.0, 2.0])


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        SpatialGrid(0, 1.0)
    # NaN fails the > comparison too
    for length in (0.0, -1.0, -2.0, np.nan):
        with pytest.raises(ValueError, match="grid length must be positive"):
            SpatialGrid(4, length)
    # 2.5 points gave 3 modes whose eigenvalues belong to no lattice on (0, 1)
    for count in (2.5, 2.0, "4"):
        with pytest.raises(TypeError):
            dirichlet_basis(count, 1.0)


def test_laplacian_stencil_n2():
    grid = SpatialGrid(2, 3.0)  # h = 1
    expected = np.array([[2.0, -1.0], [-1.0, 2.0]])
    assert laplacian(grid) == pytest.approx(expected)


def test_eigenpairs_n2_hand_values():
    # Frozen oracle: for N=2, h=1 the eigenvalues are {1, 3} and the
    # h-normalized eigenvectors are (1, 1)/sqrt(2h) and (1, -1)/sqrt(2h).
    basis = dirichlet_basis(2, 3.0)
    assert basis.eigenvalues == pytest.approx([1.0, 3.0], abs=1e-12)
    v0 = basis.vectors[:, 0] * np.sign(basis.vectors[0, 0])
    v1 = basis.vectors[:, 1] * np.sign(basis.vectors[0, 1])
    assert v0 == pytest.approx(np.array([1.0, 1.0]) / np.sqrt(2.0), abs=1e-12)
    assert v1 == pytest.approx(np.array([1.0, -1.0]) / np.sqrt(2.0), abs=1e-12)


def test_eigenpairs_match_closed_form_sine_modes():
    # Reference route: dense diagonalization of the 3-point stencil, with
    # eigh's unit Euclidean columns rescaled to h-weighted norm 1.
    n, length = 16, 10.0
    basis = dirichlet_basis(n, length)
    evals, vecs = np.linalg.eigh(laplacian(basis.grid))
    vecs = vecs / np.sqrt(basis.grid.spacing)
    assert basis.eigenvalues == pytest.approx(evals, rel=1e-13)
    for k in range(n):
        got = basis.vectors[:, k]
        sign = np.sign(np.dot(vecs[:, k], got))
        assert got == pytest.approx(sign * vecs[:, k], abs=1e-12)


def test_orthonormality_and_completeness():
    basis = dirichlet_basis(24, 7.0)
    h = basis.grid.spacing
    gram = h * basis.vectors.T @ basis.vectors
    assert gram == pytest.approx(np.eye(24), abs=1e-12)
    rng = np.random.default_rng(7)
    u = rng.normal(size=24) + 1j * rng.normal(size=24)
    assert basis.synthesize(basis.analyze(u)) == pytest.approx(u, rel=1e-10)


def test_operator_reconstruction():
    basis = dirichlet_basis(12, 4.0)
    op = laplacian(basis.grid)
    vecs = basis.vectors
    rebuilt = basis.grid.spacing * (vecs @ (basis.eigenvalues[:, None] * vecs.T))
    assert rebuilt == pytest.approx(op, rel=1e-10)


def test_residual_per_eigenpair():
    basis = dirichlet_basis(32, 10.0)
    op = laplacian(basis.grid)
    for k in range(basis.size):
        v = basis.vectors[:, k]
        res = op @ v - basis.eigenvalues[k] * v
        assert np.linalg.norm(res) <= 1e-10 * basis.eigenvalues[k] * np.linalg.norm(v)


def test_lowest_eigenvalue_monotone_toward_continuum():
    # For fixed L the smallest eigenvalue increases with N toward (pi/L)^2.
    length = 10.0
    target = (np.pi / length) ** 2
    lows = [dirichlet_basis(n, length).eigenvalues[0] for n in (16, 32, 64, 128)]
    assert all(a < b for a, b in zip(lows, lows[1:]))
    assert all(lo < target for lo in lows)
    assert lows[-1] == pytest.approx(target, rel=1e-3)


def test_omega_values_and_zero_mode_rejection():
    assert omega(3.0, 1.0) == pytest.approx(2.0)
    assert omega(np.array([1.0, 3.0]), 0.0) == pytest.approx([1.0, np.sqrt(3.0)])
    with pytest.raises(ValueError):
        omega(0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(min_value=1e-6, max_value=1e4),
    m=st.floats(min_value=0.0, max_value=100.0),
)
def test_omega_dominates_mass_and_momentum(lam, m):
    w = omega(lam, m)
    assert w >= m
    assert w >= np.sqrt(lam)
    assert w == pytest.approx(np.hypot(np.sqrt(lam), m), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_mode_table_is_exactly_symmetric(n):
    # analyze and synthesize use the table in row-major form for both
    # directions, which is exact only because vectors[j, k] depends on j * k
    vecs = dirichlet_basis(n, 3.0).vectors
    assert np.array_equal(vecs, vecs.T)


# Grid sizes on both sides of the FFT threshold; N+1 is prime at 1020 and at
# the threshold itself (768)
TRANSFORM_SIZES = (1, 2, SINE_FFT_MIN_POINTS - 1, SINE_FFT_MIN_POINTS, 1020, 1024)


def test_transforms_act_on_the_last_axis_of_a_stack():
    rng = np.random.default_rng(11)
    for n in (33,) + TRANSFORM_SIZES:
        basis = dirichlet_basis(n, 5.0)
        h, vecs = basis.grid.spacing, basis.vectors
        x = rng.normal(size=(3, 2, n)) + 1j * rng.normal(size=(3, 2, n))
        got = basis.analyze(x)
        assert got.shape == x.shape
        per_row = np.array([[basis.analyze(row) for row in pair] for pair in x])
        column_form = np.array([[h * vecs.T @ row for row in pair] for pair in x])
        scale = np.abs(column_form).max()
        assert np.abs(got - per_row).max() <= 1e-14 * scale
        assert np.abs(got - column_form).max() <= 1e-14 * scale
        back = basis.synthesize(got)
        assert np.abs(back - x).max() <= 1e-13 * np.abs(x).max()


@pytest.mark.parametrize("lead", [(), (2,), (3, 2)], ids=["real", "complex2", "complex3x2"])
@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_sine_transform_matches_the_table(n, lead):
    # The table product is the reference on every grid; from
    # SINE_FFT_MIN_POINTS on, analyze and synthesize run through numpy.fft.
    basis = dirichlet_basis(n, 5.0)
    rng = np.random.default_rng(n)
    u = rng.normal(size=lead + (n,))
    if lead:
        u = u + 1j * rng.normal(size=u.shape)
    coeffs = basis.analyze(u)
    back = basis.synthesize(coeffs)
    h, vecs = basis.grid.spacing, basis.vectors
    ref = h * (u @ vecs)
    assert np.abs(coeffs - ref).max() <= 1e-13 * np.abs(ref).max()
    ref_back = coeffs @ vecs
    assert np.abs(back - ref_back).max() <= 1e-13 * np.abs(ref_back).max()
    assert np.abs(back - u).max() <= 1e-13 * np.abs(u).max()
    assert coeffs.shape == back.shape == u.shape
    assert np.iscomplexobj(coeffs) == np.iscomplexobj(back) == bool(lead)
