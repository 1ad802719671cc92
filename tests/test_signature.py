"""Signature operator: analytic form, complex structure and frequency
projectors, massless limit, Riesz identity, and Dirac-sequence
reconstruction (the block spectrum is tested with the Minkowski cross-check)."""

import numpy as np
import pytest

from kgsig.config import ExperimentConfig
from kgsig.dynamics import CauchyDatum, apply_mode_blocks, propagate
from kgsig.lattice import SpectralBasis, dirichlet_basis, omega
from kgsig.massfamily import MassInterval, MassWeight, make_family, spacetime_gram
from kgsig.minkowski import ModeSuperposition, mink_cauchy_inverse
from kgsig.random_fields import random_datum
from kgsig.signature import (
    BUMP_SQUARED_INTEGRAL,
    apply_signature,
    assemble,
    complex_structure,
    massless_bound,
    massless_limit,
    per_mode_distance,
    projectors,
    reconstruction_weight,
    scalar_product,
    signature_analytic,
    signature_reconstruct,
    sobolev_scale,
)
from kgsig.symplectic import symplectic


@pytest.fixture(scope="module")
def basis():
    return dirichlet_basis(16, 10.0)


@pytest.fixture(scope="module")
def sig(basis):
    return signature_analytic(1.0, basis)


def test_block_action_at_unit_frequency(basis):
    # mass tuned so the lowest mode has omega = 1: (1, 0) must map to (0, -pi)
    mass = float(np.sqrt(1.0 - basis.eigenvalues[0]))
    sig1 = signature_analytic(mass, basis)
    v = basis.vectors[:, 0].astype(complex)
    datum = CauchyDatum(basis.analyze(np.stack([v, np.zeros_like(v)])), basis)
    phi, pi = basis.synthesize(apply_signature(sig1, datum).modes)
    assert np.abs(phi).max() < 1e-14
    assert np.abs(pi + np.pi * basis.vectors[:, 0]).max() < 1e-13


def test_blocks_square_to_pi_squared(sig):
    rng = np.random.default_rng(1)
    a = random_datum(rng, sig.basis)
    twice = apply_signature(sig, apply_signature(sig, a))
    (phi2, pi2), (phi, pi) = sig.basis.synthesize(twice.modes), sig.basis.synthesize(a.modes)
    assert np.abs(phi2 - np.pi**2 * phi).max() < 1e-12
    assert np.abs(pi2 - np.pi**2 * pi).max() < 1e-12


def test_assembled_matrix_is_block_diagonal(sig):
    full = assemble(sig)
    assert full.shape == (32, 32)
    assert np.allclose(full[:2, :2], sig.blocks[0])
    assert np.abs(full[:2, 2:]).max() == 0.0


def test_scalar_product_values_and_symmetry(sig):
    om = sig.frequencies
    n = sig.basis.size
    coeffs = np.zeros((2, n), dtype=complex)
    coeffs[:, 3] = (1.0, om[3])
    datum = CauchyDatum(coeffs, sig.basis)
    assert scalar_product(sig, datum, datum) == pytest.approx(2 * np.pi * om[3])
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = random_datum(rng, sig.basis), random_datum(rng, sig.basis)
        aa = scalar_product(sig, a, a)
        assert aa.real > 0.0 and abs(aa.imag) < 1e-12 * aa.real
        ab, ba = scalar_product(sig, a, b), scalar_product(sig, b, a)
        assert abs(ab - np.conj(ba)) < 1e-12 * abs(ab)


def test_scalar_product_rejects_grid_mismatch(sig):
    rng = np.random.default_rng(3)
    for other in (dirichlet_basis(8, 10.0), dirichlet_basis(16, 10.0)):
        with pytest.raises(ValueError, match="different basis"):
            scalar_product(sig, random_datum(rng, other), random_datum(rng, other))
        with pytest.raises(ValueError, match="different bases"):
            per_mode_distance(sig, signature_analytic(sig.mass, other))


def test_signature_commutes_with_propagation(sig):
    rng = np.random.default_rng(4)
    a = random_datum(rng, sig.basis)
    for t in (0.5, 10.0, 100.0):
        lhs = apply_signature(sig, propagate(a, t, sig.mass))
        rhs = propagate(apply_signature(sig, a), t, sig.mass)
        (phi_l, pi_l), (phi_r, pi_r) = sig.basis.synthesize(np.stack([lhs.modes, rhs.modes]))
        assert np.abs(phi_l - phi_r).max() < 1e-11
        assert np.abs(pi_l - pi_r).max() < 1e-11


def test_norm_and_symplectic_conserved_under_flow(sig):
    rng = np.random.default_rng(5)
    a, b = random_datum(rng, sig.basis), random_datum(rng, sig.basis)
    ref_norm = scalar_product(sig, a, a)
    ref_sym = symplectic(a, b)
    for t in (1.0, 50.0, 100.0):
        at = propagate(a, t, sig.mass)
        bt = propagate(b, t, sig.mass)
        assert abs(scalar_product(sig, at, at) - ref_norm) < 1e-11 * abs(ref_norm)
        assert abs(symplectic(at, bt) - ref_sym) < 1e-11 * abs(ref_sym)


def test_complex_structure_squares_to_minus_one(sig):
    j = complex_structure(sig)
    ident = np.broadcast_to(np.eye(2), j.shape)
    assert np.abs(np.einsum("nij,njk->nik", j, j) + ident).max() < 1e-12
    om = sig.frequencies
    vec = np.array([1.0, om[5]], dtype=complex)
    assert np.abs(j[5] @ vec + 1j * vec).max() < 1e-12
    rng = np.random.default_rng(6)
    a = random_datum(rng, sig.basis)
    ja = CauchyDatum(np.einsum("nij,jn->in", j, a.modes), sig.basis)
    na, nja = scalar_product(sig, a, a), scalar_product(sig, ja, ja)
    assert abs(na - nja) < 1e-12 * abs(na)


def test_projectors_split_frequencies(sig):
    j = complex_structure(sig)
    hol, ah = projectors(j)
    ident = np.broadcast_to(np.eye(2), j.shape)
    assert np.abs(hol + ah - ident).max() == 0.0
    assert np.abs(np.einsum("nij,njk->nik", hol, hol) - hol).max() < 1e-14
    assert np.abs(
        np.einsum("nij,njk->nik", hol, j) - np.einsum("nij,njk->nik", j, hol)
    ).max() < 1e-14
    om = sig.frequencies
    plus = np.array([1.0, om[5]], dtype=complex)
    minus = np.array([1.0, -om[5]], dtype=complex)
    assert np.abs(hol[5] @ plus).max() < 1e-14
    assert np.abs(hol[5] @ minus - minus).max() < 1e-14


def test_block_square_guards_reject_perturbed_blocks(sig):
    # 1e-9 relative in one entry of one mode, far above the 1e-12 guard
    blocks = sig.blocks.copy()
    blocks[3, 0, 1] *= 1.0 + 1e-9
    bent = sig._replace(blocks=blocks)
    with pytest.raises(ValueError, match="do not square to pi"):
        complex_structure(bent)
    j = complex_structure(sig)
    j[3, 1, 0] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="does not square to -Id"):
        projectors(j)


def test_massless_bound_hand_value():
    basis = dirichlet_basis(4, 10.0)
    k = np.sqrt(basis.eigenvalues[0])
    om = np.sqrt(basis.eigenvalues[0] + 0.25)
    expect = np.pi * 0.25 * max(1.0 / (k**2 * om), 1.0 / (k * (k + om)))
    assert massless_bound(basis, 0.5)[0] == pytest.approx(expect, rel=1e-14)


def test_massless_limit_table(basis):
    limit, table = massless_limit(basis)
    assert limit.mass == 0.0
    assert np.all(np.diff(table.norms) < 0.0)
    assert np.all(table.mode_norms <= 2.0 * table.mode_bounds)
    assert np.all(table.norms <= 2.0 * table.bounds)
    # limit action on a (1, k) mode
    k = np.sqrt(basis.eigenvalues[2])
    vec = np.array([1.0, k])
    assert np.abs(limit.blocks[2] @ vec + np.pi * vec).max() < 1e-12
    # distance helpers agree with the table
    sig_m = signature_analytic(0.5, basis)
    assert per_mode_distance(sig_m, limit).max() == pytest.approx(table.norms[1])
    assert per_mode_distance(sig_m, limit) == pytest.approx(table.mode_norms[1])
    zero_mode = SpectralBasis(basis.grid, np.concatenate([[0.0], basis.eigenvalues[1:]]))
    with pytest.raises(ValueError, match="zero mode present"):
        massless_limit(zero_mode)


def _operator(basis, blocks):
    return signature_analytic(1.0, basis)._replace(blocks=blocks)


def _blocks_of_every_kind(n, rng):
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    c, s = np.cos(angles), np.sin(angles)
    rotations = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
    u, v = rng.normal(size=(2, n, 2))
    return {
        "random": rng.normal(size=(n, 2, 2)),
        "zero": np.zeros((n, 2, 2)),
        "rank_one": u[:, :, None] * v[:, None, :],
        "diagonal": np.einsum("ni,ij->nij", rng.normal(size=(n, 2)) - 3.0, np.eye(2)),
        "scaled_rotation": rng.uniform(0.1, 10.0, (n, 1, 1)) * rotations,
        "scaled_reflection": rng.uniform(0.1, 10.0, (n, 1, 1)) * rotations @ np.diag([1.0, -1.0]),
        "huge": 1e300 * rng.normal(size=(n, 2, 2)),
        "tiny": 1e-300 * rng.normal(size=(n, 2, 2)),
    }


@pytest.mark.parametrize(
    "kind",
    ["random", "zero", "rank_one", "diagonal", "scaled_rotation", "scaled_reflection", "huge", "tiny"],
)
def test_closed_form_block_norm_matches_svd(basis, kind):
    # the closed form against LAPACK's SVD on the same weighted blocks
    blocks = _blocks_of_every_kind(basis.size, np.random.default_rng(11))[kind]
    scale, weighted = sobolev_scale(basis)[:, None], blocks.copy()
    weighted[:, 0, :] *= scale
    weighted[:, :, 0] *= 1.0 / scale
    svd = np.linalg.norm(weighted, 2, axis=(1, 2))
    closed = per_mode_distance(_operator(basis, blocks), _operator(basis, 0.0 * blocks))
    assert np.all(np.isfinite(closed))
    assert np.allclose(closed, svd, rtol=8 * np.finfo(float).eps, atol=0.0)


def test_per_mode_distance_rejects_complex_blocks(basis, sig):
    with pytest.raises(ValueError, match="real"):
        per_mode_distance(_operator(basis, sig.blocks + 0j), sig)


def test_riesz_inverse_and_consistency(basis):
    # S^-1 = S / pi^2, and sigma(a, b) = -i <a|S^-1 b>, measured rather
    # than assumed so the factor-i bookkeeping of the two pairings shows
    limit, _ = massless_limit(basis)
    inv_blocks = limit.blocks / np.pi**2
    prod = np.einsum("nij,njk->nik", inv_blocks, limit.blocks)
    ident = np.broadcast_to(np.eye(2), prod.shape)
    assert np.abs(prod - ident).max() < 1e-12
    rng = np.random.default_rng(7)
    a, b = random_datum(rng, basis), random_datum(rng, basis)
    ratio = symplectic(a, b) / scalar_product(limit, a, apply_mode_blocks(inv_blocks, b))
    assert abs(ratio + 1j) < 1e-12
    assert scalar_product(limit, a, a).real > 0.0


def test_reconstruction_converges_in_half_width():
    basis8 = dirichlet_basis(8, 10.0)
    ana = signature_analytic(1.5, basis8)
    devs = []
    for hw in (0.2, 0.1):
        rec, report = signature_reconstruct(1.5, basis8, hw)
        assert report.converged
        devs.append(np.abs(rec.blocks - ana.blocks).max())
    assert devs[0] < 2e-2
    assert devs[1] < 5e-3
    assert devs[0] / devs[1] > 2.5


def unit_family_blocks(mass, basis, half_width, tol=1e-3):
    """Reference route to the blocks: one spacetime Gram of the 2N unit-data
    families (v_n, 0) and (0, v_n), of which only the diagonal 2x2 blocks
    are read."""
    weight = MassWeight(mass, half_width)
    norm2 = weight.mass_moment(power=1, squared=True)
    interval = MassInterval(0.5 * (mass - half_width), mass + 2.0 * half_width)
    n, zero = basis.size, np.zeros(basis.size)
    families = [
        make_family(CauchyDatum(modes, basis), weight, interval)
        for e in np.eye(n)
        for modes in ((e, zero), (zero, e))
    ]
    gram, report = spacetime_gram(families, tol=tol * norm2 * 1e-2)
    pairs = gram.reshape(n, 2, n, 2)[np.arange(n), :, np.arange(n), :] / norm2
    return -np.array([[0.0, 1.0], [1.0, 0.0]]) @ pairs, report


@pytest.mark.parametrize("half_width", [0.2, 0.05])
def test_reconstruction_matches_unit_family_gram(half_width):
    # per-mode kernels read directly give the unit-family blocks, with no
    # cross-mode term: the pairings are real and diagonal
    basis8 = dirichlet_basis(8, 10.0)
    rec, report = signature_reconstruct(1.5, basis8, half_width)
    ref, ref_report = unit_family_blocks(1.5, basis8, half_width)
    assert np.abs(rec.blocks - ref).max() <= 1e-12 * np.abs(ref).max()
    assert report.final_t == ref_report.final_t
    assert report.stages == ref_report.stages
    assert np.all(rec.blocks[:, [0, 1], [0, 1]] == 0.0)


def test_reconstruction_ignores_enclosing_interval():
    basis8 = dirichlet_basis(8, 10.0)
    rec_a, _ = signature_reconstruct(
        1.5, basis8, 0.2, interval=MassInterval(0.5, 2.5)
    )
    rec_b, _ = signature_reconstruct(
        1.5, basis8, 0.2, interval=MassInterval(0.9, 2.1)
    )
    assert np.abs(rec_a.blocks - rec_b.blocks).max() == 0.0


NAN = float("nan")
ONE_MODE = {"dimension": 1, "momenta": [0.5], "amplitudes": [[1.0], [0.0]]}


@pytest.mark.parametrize(
    "call",
    [
        lambda basis: signature_analytic(NAN, basis),
        lambda basis: omega(basis.eigenvalues, NAN),
        lambda basis: ModeSuperposition(**ONE_MODE, weights=[1.0], mass=NAN),
        lambda basis: ModeSuperposition(**ONE_MODE, weights=[NAN], mass=1.0),
        lambda basis: mink_cauchy_inverse(np.ones((2, 1)), np.array([NAN])),
        lambda basis: reconstruction_weight(1.5, 0.05, NAN),
    ],
    ids=["signature_analytic", "omega", "superposition-mass", "superposition-weights",
         "mink_cauchy_inverse", "reconstruction-tol"],
)
def test_guards_reject_nan(basis, call):
    # each guard was written as a comparison that NaN fails, so NaN passed it
    with pytest.raises(ValueError):
        call(basis)


def test_records_refuse_field_assignment():
    sig, report = signature_reconstruct(1.5, dirichlet_basis(4, 10.0), 0.2)
    for record, name in ((sig, "blocks"), (report, "final_t"), (ExperimentConfig(), "seed")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_reconstruction_preconditions(basis):
    with pytest.raises(ValueError, match="positive mass"):
        signature_reconstruct(0.1, basis, 0.2)
    with pytest.raises(ValueError, match="half-width too large"):
        signature_reconstruct(1.5, basis, 0.5)
    # a negative half-width at m = 0 passed the support check and divided by 0
    with pytest.raises(ValueError, match="positive half_width"):
        signature_reconstruct(0.0, basis, -0.1)
    with pytest.raises(ValueError, match="support outside I"):
        signature_reconstruct(1.5, basis, 0.2, interval=MassInterval(1.4, 2.0))
    # the support is checked before the tolerance rule, which fails here too
    with pytest.raises(ValueError, match="support outside I"):
        reconstruction_weight(1.0, 0.05, 1e-6, MassInterval(1.0, 2.0))
    with pytest.raises(ValueError, match="nonnegative"):
        signature_analytic(-1.0, basis)


def test_reconstruction_reads_no_mass_rule(monkeypatch):
    # the normalization has a closed form and the kernels their own omega rule
    def no_rule(self):
        raise AssertionError("signature_reconstruct read the weight's mass rule")

    for name in ("nodes", "quad", "values"):
        monkeypatch.setattr(MassWeight, name, property(no_rule))
    _, report = signature_reconstruct(1.5, dirichlet_basis(4, 10.0), 0.2)
    assert report.converged


@pytest.mark.parametrize(
    "mass, half_width", [(1.5, 0.05), (1.5, 0.2), (0.5, 0.1), (4.0, 0.5)]
)
def test_reconstruction_normalization_matches_the_gauss_rule(mass, half_width):
    rule = MassWeight(mass, half_width).mass_moment(1, squared=True)
    norm2 = mass * half_width * BUMP_SQUARED_INTEGRAL
    assert norm2 == pytest.approx(rule, rel=1e-14, abs=0.0)


def test_bump_squared_integral_bessel_form():
    special = pytest.importorskip("scipy.special")
    bessel = 2.0 * np.exp(-1.0) * (special.k1(1.0) - special.k0(1.0))
    assert BUMP_SQUARED_INTEGRAL == pytest.approx(bessel, rel=1e-15, abs=0.0)
