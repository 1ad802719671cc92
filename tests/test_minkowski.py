"""Closed-form Minkowski mode engine, the lattice cross-check, and the
per-mode block spectrum that both the cross-check and `signature` read."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgsig.lattice import dirichlet_basis
from kgsig.signature import block_eigenvalues, signature_analytic, signature_reconstruct
from kgsig.minkowski import (
    ModeSuperposition,
    amplitude_to_cauchy,
    cauchy_signature_blocks,
    cauchy_to_amplitude,
    cross_check_lattice,
    mink_cauchy_inverse,
    mink_scalar_product,
    mink_signature_action,
    mink_symplectic,
)


def single_mode(a_plus, a_minus, momentum=np.sqrt(3.0), mass=1.0):
    return ModeSuperposition(
        dimension=1,
        momenta=np.array([momentum]),
        amplitudes=np.array([[a_plus], [a_minus]], dtype=complex),
        weights=np.array([1.0]),
        mass=mass,
    )


def random_superposition(rng, count=6, dimension=1, mass=1.0):
    if dimension == 1:
        momenta = np.sort(rng.uniform(0.1, 4.0, size=count))
    else:
        momenta = rng.uniform(-2.0, 2.0, size=(count, 3))
    return ModeSuperposition(
        dimension=dimension,
        momenta=momenta,
        amplitudes=rng.normal(size=(2, count)) + 1j * rng.normal(size=(2, count)),
        weights=rng.uniform(0.5, 2.0, size=count),
        mass=mass,
    )


def test_symplectic_upper_shell_constant():
    # omega = 2 from |k| = sqrt(3), m = 1
    mode = single_mode(1.0, 0.0)
    assert mink_symplectic(mode, mode) == pytest.approx(1j / (16 * np.pi**2))


def test_symplectic_equal_shells_cancel():
    mode = single_mode(0.7 - 0.2j, 0.7 - 0.2j)
    assert mink_symplectic(mode, mode) == 0.0


def test_symplectic_skew_symmetry():
    rng = np.random.default_rng(0)
    a = random_superposition(rng)
    b = ModeSuperposition(
        dimension=1,
        momenta=a.momenta,
        amplitudes=rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6)),
        weights=a.weights,
        mass=a.mass,
    )
    lhs, rhs = mink_symplectic(a, b), mink_symplectic(b, a)
    assert abs(lhs + np.conj(rhs)) < 1e-14 * abs(lhs)


def test_scalar_product_constant_and_positivity():
    mode = single_mode(1.0, 0.0)
    assert mink_scalar_product(mode, mode) == pytest.approx(1 / (16 * np.pi))
    rng = np.random.default_rng(1)
    for dimension in (1, 3):
        sup = random_superposition(rng, dimension=dimension)
        assert mink_scalar_product(sup, sup).real > 0.0


def test_scalar_product_from_signature_and_symplectic():
    rng = np.random.default_rng(2)
    a = random_superposition(rng)
    b = ModeSuperposition(
        dimension=1,
        momenta=a.momenta,
        amplitudes=rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6)),
        weights=a.weights,
        mass=a.mass,
    )
    lhs = mink_scalar_product(a, b)
    rhs = 1j * mink_symplectic(a, mink_signature_action(b))
    assert abs(lhs - rhs) < 1e-14 * abs(lhs)


def test_signature_action_shells():
    mode = single_mode(1.0, 0.0)
    acted = mink_signature_action(mode)
    assert acted.amplitudes[0, 0] == -np.pi
    assert acted.amplitudes[1, 0] == 0.0
    twice = mink_signature_action(acted)
    assert np.allclose(twice.amplitudes, np.pi**2 * mode.amplitudes)
    massless = ModeSuperposition(
        dimension=1,
        momenta=np.array([2.0]),
        amplitudes=np.array([[1.0], [1.0]], dtype=complex),
        weights=np.array([1.0]),
        mass=0.0,
    )
    acted0 = mink_signature_action(massless)
    assert acted0.amplitudes[0, 0] == -np.pi
    assert acted0.amplitudes[1, 0] == np.pi


def test_cauchy_transform_roundtrip():
    rng = np.random.default_rng(3)
    sup = random_superposition(rng)
    om = sup.frequencies
    prod = np.einsum("mij,mjk->mik", amplitude_to_cauchy(om), cauchy_to_amplitude(om))
    assert np.abs(prod - np.eye(2)).max() < 1e-14
    pairs = np.einsum("mij,jm->im", amplitude_to_cauchy(om), sup.amplitudes)
    back = mink_cauchy_inverse(pairs, om)
    assert np.abs(back - sup.amplitudes).max() < 1e-13


def test_cauchy_signature_closed_form():
    om = np.array([1.0, 2.5])
    blocks = cauchy_signature_blocks(om)
    for w, block in zip(om, blocks):
        assert np.allclose(block, -np.pi * np.array([[0, 1 / w], [w, 0]]), atol=1e-14)
    # (1, 0) at omega 1 -> (0, -pi)
    out = blocks[0] @ np.array([1.0, 0.0])
    assert out == pytest.approx([0.0, -np.pi])


def test_validation_errors():
    with pytest.raises(ValueError, match="distinct"):
        ModeSuperposition(
            dimension=1,
            momenta=np.array([1.0, 1.0]),
            amplitudes=np.zeros((2, 2), dtype=complex),
            weights=np.ones(2),
            mass=1.0,
        )
    with pytest.raises(ValueError, match="no frequency"):
        ModeSuperposition(
            dimension=1,
            momenta=np.array([0.0]),
            amplitudes=np.zeros((2, 1), dtype=complex),
            weights=np.ones(1),
            mass=0.0,
        )
    valid = dict(momenta=np.ones(1), amplitudes=np.zeros((2, 1)), weights=np.ones(1), mass=1.0)
    for dimension, changes, message in (
        (2, {}, "dimension must be 1 or 3"),
        (1, {"momenta": np.ones((1, 3))}, "dimension-1 momenta"),
        (3, {}, "dimension-3 momenta"),
        (3, {"momenta": np.ones((1, 2))}, "dimension-3 momenta"),
        (1, {"amplitudes": np.zeros((2, 2))}, "amplitudes need shape"),
        (1, {"amplitudes": np.zeros(2)}, "amplitudes need shape"),
    ):
        with pytest.raises(ValueError, match=message):
            ModeSuperposition(dimension=dimension, **{**valid, **changes})
    rng = np.random.default_rng(4)
    a = random_superposition(rng)
    b = random_superposition(rng, mass=2.0)
    with pytest.raises(ValueError, match="different mode sets"):
        mink_symplectic(a, b)
    with pytest.raises(ValueError, match="positive"):
        mink_cauchy_inverse(np.zeros((2, 1), dtype=complex), np.array([0.0]))


def test_cross_check_against_lattice():
    for mass in (1.0, 0.25, 0.0):
        report = cross_check_lattice(mass, dirichlet_basis(16, 10.0))
        assert report.max_block_deviation <= 1e-14
        assert report.max_eigenvalue_deviation <= 1e-13


def check_against_eigvals(blocks):
    """block_eigenvalues against LAPACK's eigvals, ascending real parts. A
    pair near a double root is ill-conditioned, so the bound widens as the
    oracle's pair closes, to sqrt(eps) of the block's size at a double root."""
    vals = block_eigenvalues(blocks)
    ref = np.sort(np.linalg.eigvals(blocks).real, axis=1)
    size = np.abs(blocks).max(axis=(1, 2))
    gap = ref[:, 1] - ref[:, 0]
    tol = 1e-14 * size + np.minimum(1e-7 * size, 1e-14 * size**2 / np.maximum(gap, 1e-300))
    assert np.all(vals[:, 0] <= vals[:, 1])
    assert np.all(np.abs(vals - ref) <= tol[:, None])
    return vals


_ENTRY = st.floats(-1e3, 1e3, allow_subnormal=False)
_BLOCK = st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY)


@settings(max_examples=300, deadline=None)
@given(st.lists(_BLOCK, min_size=1, max_size=8), st.booleans())
def test_block_eigenvalues_match_eigvals_on_random_blocks(entries, symmetric):
    blocks = np.array(entries).reshape(-1, 2, 2)
    if symmetric:
        blocks[:, 1, 0] = blocks[:, 0, 1]
    vals = check_against_eigvals(blocks)
    a, b, c, d = blocks.reshape(-1, 4).T
    pair = (0.5 * (a - d)) ** 2 + b * c < 0.0  # a complex pair: its half-trace, twice
    assert np.array_equal(vals[pair], np.repeat(0.5 * (a + d)[pair, None], 2, axis=1))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_ENTRY, _ENTRY), min_size=1, max_size=8), st.booleans())
def test_block_eigenvalues_on_diagonal_and_scalar_blocks(diagonals, scalar):
    blocks = np.zeros((len(diagonals), 2, 2))
    blocks[:, 0, 0], blocks[:, 1, 1] = np.array(diagonals).T
    if scalar:
        blocks[:, 1, 1] = blocks[:, 0, 0]
    check_against_eigvals(blocks)


def test_block_eigenvalues_of_rotations_are_their_half_trace():
    angle = np.linspace(0.1, 3.0, 7)
    blocks = np.stack([np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)], axis=1)
    vals = check_against_eigvals(blocks.reshape(-1, 2, 2))
    assert np.array_equal(vals, np.repeat(np.cos(angle)[:, None], 2, axis=1))


@pytest.mark.parametrize("route", ["lattice", "minkowski"])
@pytest.mark.parametrize("mass", [0.0, 1e-3, 1.5, 30.0])
def test_block_eigenvalues_on_analytic_blocks_at_n_1024(mass, route):
    # from the lowest mode to the highest, omega spans four decades
    sig = signature_analytic(mass, dirichlet_basis(1024, 10.0))
    blocks = sig.blocks if route == "lattice" else cauchy_signature_blocks(sig.frequencies)
    vals = check_against_eigvals(blocks)
    assert np.abs(vals - [-np.pi, np.pi]).max() <= 9e-16  # two ulps of pi


def test_block_eigenvalues_on_reconstructed_blocks():
    # the recovered blocks are not analytic: their products differ from pi^2
    sig, _ = signature_reconstruct(1.5, dirichlet_basis(4, 10.0), 0.2)
    assert np.abs(sig.blocks[:, 0, 1] * sig.blocks[:, 1, 0] - np.pi**2).max() > 1e-4
    check_against_eigvals(sig.blocks)
