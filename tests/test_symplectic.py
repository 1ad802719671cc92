import numpy as np
import pytest

from kgsig.dynamics import (
    CauchyDatum,
    SpacetimeTestFunction,
    causal_fundamental,
    propagate,
    simpson_weights,
    time_window,
)
from kgsig.lattice import SINE_FFT_MIN_POINTS, dirichlet_basis, omega
from kgsig.random_fields import bump, random_datum, random_test_function
from kgsig.symplectic import gm_form, symplectic

from duhamel_reference import modes_of, reference_duhamel_modes

MASS = 1.0


@pytest.fixture(scope="module")
def basis():
    return dirichlet_basis(16, 10.0)


def test_positive_frequency_diagonal_value(basis):
    # sigma((1, w)v_n, (1, w)v_n) = 2 i w for an h-normalized mode.
    n = 4
    w = omega(basis.eigenvalues[n], MASS)
    v = basis.vectors[:, n]
    datum = CauchyDatum(basis.analyze(np.stack([v, w * v])), basis)
    assert symplectic(datum, datum) == pytest.approx(2j * w, abs=1e-12)


def test_sesquilinear_and_skew(basis):
    rng = np.random.default_rng(21)
    a, b, c = (random_datum(rng, basis) for _ in range(3))
    al, be = 0.3 - 1.1j, -0.7 + 0.2j
    lin = symplectic(a, al * b + be * c)
    assert lin == pytest.approx(
        al * symplectic(a, b) + be * symplectic(a, c),
        rel=1e-12,
    )
    left = symplectic(al * a, b)
    assert left == pytest.approx(np.conj(al) * symplectic(a, b), rel=1e-12)
    assert symplectic(a, b) == pytest.approx(-np.conj(symplectic(b, a)), rel=1e-12)


def test_basis_mismatch_rejected(basis):
    # another size, then equal parameters on a distinct object: by identity
    rng = np.random.default_rng(1)
    a = random_datum(rng, basis)
    for other in (dirichlet_basis(8, 10.0), dirichlet_basis(16, 10.0)):
        b = random_datum(rng, other)
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="different bases"):
                symplectic(*pair)


@pytest.mark.parametrize("n", [16, 768])
def test_mode_space_form_equals_the_lattice_sum(n):
    # Parseval against i h sum_x [conj(pi_a) phi_b + conj(phi_a) pi_b];
    # n = 16 runs the sine table, n = 768 the FFT
    assert (n >= SINE_FFT_MIN_POINTS) == (n == 768)
    basis = dirichlet_basis(n, 10.0)
    rng = np.random.default_rng(34)
    a, b = random_datum(rng, basis), random_datum(rng, basis)
    (phi_a, pi_a), (phi_b, pi_b) = basis.synthesize(a.modes), basis.synthesize(b.modes)
    lattice = 1j * basis.grid.spacing * np.sum(np.conj(pi_a) * phi_b + np.conj(phi_a) * pi_b)
    assert abs(symplectic(a, b) - lattice) <= 1e-13 * abs(lattice)


def test_invariance_under_propagation(basis):
    rng = np.random.default_rng(33)
    a, b = random_datum(rng, basis), random_datum(rng, basis)
    ref = symplectic(a, b)
    for t in (0.5, 7.0, 31.0):
        at = propagate(a, t, MASS)
        bt = propagate(b, t, MASS)
        assert symplectic(at, bt) == pytest.approx(ref, rel=1e-12)


def test_causal_form_equals_symplectic_of_causal_data(basis):
    # Dual-route identity; residual is pure quadrature error, fourth order.
    residuals, magnitudes = [], []
    for dt in (0.05, 0.025):
        times = time_window(-5.0, 5.0, dt)
        rng = np.random.default_rng(2)
        f = random_test_function(rng, basis, times)
        g = random_test_function(rng, basis, times)
        lhs = gm_form(f, g, MASS)
        rhs = symplectic(causal_fundamental(f, MASS), causal_fundamental(g, MASS))
        residuals.append(abs(lhs - rhs))
        magnitudes.append(abs(lhs))
    assert residuals[0] <= 1e-6 * max(1.0, magnitudes[0])
    assert residuals[0] / residuals[1] >= 3.0


def test_both_causal_sides_take_sources_on_equal_but_distinct_objects(basis):
    # gm_form asks for neither one basis object nor one times array
    times = time_window(-3.0, 3.0, 0.05)
    rng = np.random.default_rng(5)
    f = random_test_function(rng, basis, times)
    g = random_test_function(rng, basis, times)
    twin_basis = dirichlet_basis(16, 10.0)
    twin = SpacetimeTestFunction(times.copy(), g.profiles, g.shapes, twin_basis)
    assert twin.basis is not g.basis and twin.times is not g.times
    assert gm_form(f, twin, MASS) == gm_form(f, g, MASS)


def test_causal_form_in_mode_space_equals_the_lattice_sum(basis):
    # Parseval: h sum_x conj(u) v = sum_n conj(u_n) v_n for h-orthonormal
    # modes, in both terms of <f, S_ret g> - conj(<g, S_ret f>)
    times = time_window(-5.0, 5.0, 0.05)
    rng = np.random.default_rng(12)
    f, g = random_test_function(rng, basis, times), random_test_function(rng, basis, times)

    def retarded_pairing(a, b):
        ret = reference_duhamel_modes(b, MASS)[0]
        a_lattice, u = basis.synthesize(np.stack([modes_of(a), ret]))
        per_node = basis.grid.spacing * np.sum(np.conj(a_lattice) * u, axis=1)
        return np.sum(simpson_weights(times) * per_node)

    lattice = retarded_pairing(f, g) - np.conj(retarded_pairing(g, f))
    assert abs(gm_form(f, g, MASS) - lattice) <= 1e-13 * abs(lattice)


def test_causal_form_window_mismatch_rejected(basis):
    rng = np.random.default_rng(4)
    f = random_test_function(rng, basis, time_window(-5.0, 5.0, 0.05))
    g = random_test_function(rng, basis, time_window(-4.0, 4.0, 0.05))
    with pytest.raises(ValueError, match="window"):
        gm_form(f, g, MASS)


@pytest.mark.parametrize("move", [lambda t: t + 1e-9, lambda t: t * (1 + 3e-6)], ids=["shift", "rescale"])
def test_causal_form_needs_the_same_time_nodes(basis, move):
    # np.allclose accepts both windows; the rescaled one moved the value by
    # 3.6e-6 on 1.47, above the 1e-6 CCR tolerance
    times = time_window(-3.0, 3.0, 0.05)
    rng = np.random.default_rng(5)
    f, g = random_test_function(rng, basis, times), random_test_function(rng, basis, times)
    moved = SpacetimeTestFunction(move(times), g.profiles, g.shapes, basis)
    assert np.allclose(moved.times, times)
    with pytest.raises(ValueError, match="sources must share a time window"):
        gm_form(f, moved, MASS)


def test_disjoint_supports_reduce_to_advanced_part(basis):
    # g supported after f: the retarded part of G g does not meet supp f.
    times = time_window(-6.0, 6.0, 0.05)
    rng = np.random.default_rng(9)

    def shifted(center):
        profile = bump((times - center) / 1.5)
        spatial = basis.analyze(np.exp(-((basis.grid.points - 5.0) ** 2) / 4.0))
        return SpacetimeTestFunction(times, profile[None], spatial[None], basis)

    f = shifted(-3.5)  # support [-5, -2]
    g = shifted(3.5)  # support [2, 5]
    total = gm_form(f, g, MASS)
    fields = reference_duhamel_modes(g, MASS)
    f_lattice, ret, adv = basis.synthesize(np.stack([modes_of(f), *fields]))
    quad = simpson_weights(times)
    h = basis.grid.spacing
    adv_part = -np.sum(quad * (h * np.sum(np.conj(f_lattice) * adv, axis=1)))
    assert total == pytest.approx(adv_part, rel=1e-12)
    overlap = np.abs(np.conj(f_lattice) * ret).max()
    assert overlap == 0.0


def test_causal_form_grid_mismatch_rejected():
    # equal point counts, different lengths: the spacings differ
    times = time_window(-3.0, 3.0, 0.05)
    rng = np.random.default_rng(6)
    f = random_test_function(rng, dirichlet_basis(8, 10.0), times)
    g = random_test_function(rng, dirichlet_basis(8, 20.0), times)
    with pytest.raises(ValueError, match="share a grid"):
        gm_form(f, g, MASS)
