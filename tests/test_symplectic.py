import numpy as np
import pytest

from kgsig.dynamics import (
    CauchyDatum,
    SpacetimeTestFunction,
    causal_field,
    propagate,
    retarded_green,
    simpson_weights,
    time_window,
)
from kgsig.lattice import SpectralBasis, build_grid, dirichlet_basis, omega
from kgsig.random_fields import random_datum, random_test_function
from kgsig.symplectic import gm_form, gm_symplectic_side, symplectic

MASS = 1.0


@pytest.fixture(scope="module")
def basis():
    return dirichlet_basis(16, 10.0)


def test_positive_frequency_diagonal_value(basis):
    # sigma((1, w)v_n, (1, w)v_n) = 2 i w for an h-normalized mode.
    n = 4
    w = omega(basis.eigenvalues[n], MASS)
    v = basis.vectors[:, n]
    datum = CauchyDatum(v, w * v)
    assert symplectic(datum, datum, basis.grid) == pytest.approx(2j * w, abs=1e-12)


def test_sesquilinear_and_skew(basis):
    rng = np.random.default_rng(21)
    a, b, c = (random_datum(rng, basis) for _ in range(3))
    al, be = 0.3 - 1.1j, -0.7 + 0.2j
    lin = symplectic(a, al * b + be * c, basis.grid)
    assert lin == pytest.approx(
        al * symplectic(a, b, basis.grid) + be * symplectic(a, c, basis.grid),
        rel=1e-12,
    )
    left = symplectic(al * a, b, basis.grid)
    assert left == pytest.approx(np.conj(al) * symplectic(a, b, basis.grid), rel=1e-12)
    assert symplectic(a, b, basis.grid) == pytest.approx(
        -np.conj(symplectic(b, a, basis.grid)), rel=1e-12
    )


def test_grid_mismatch_rejected(basis):
    other = build_grid(8, 10.0)
    rng = np.random.default_rng(1)
    a = random_datum(rng, basis)
    with pytest.raises(ValueError):
        symplectic(a, a, other)


def test_invariance_under_propagation(basis):
    rng = np.random.default_rng(33)
    a, b = random_datum(rng, basis), random_datum(rng, basis)
    ref = symplectic(a, b, basis.grid)
    for t in (0.5, 7.0, 31.0):
        at = propagate(a, t, MASS, basis)
        bt = propagate(b, t, MASS, basis)
        assert symplectic(at, bt, basis.grid) == pytest.approx(ref, rel=1e-12)


def test_causal_form_equals_symplectic_of_causal_data(basis):
    # Dual-route identity; residual is pure quadrature error, fourth order.
    residuals, magnitudes = [], []
    for dt in (0.05, 0.025):
        times = time_window(-5.0, 5.0, dt)
        rng = np.random.default_rng(2)
        f = random_test_function(rng, basis, times)
        g = random_test_function(rng, basis, times)
        lhs = gm_form(f, g, MASS)
        rhs = gm_symplectic_side(f, g, MASS)
        residuals.append(abs(lhs - rhs))
        magnitudes.append(abs(lhs))
    assert residuals[0] <= 1e-6 * max(1.0, magnitudes[0])
    assert residuals[0] / residuals[1] >= 3.0


def test_both_causal_sides_take_sources_on_equal_but_distinct_objects(basis):
    # neither side asks for one basis object or one times array
    times = time_window(-3.0, 3.0, 0.05)
    rng = np.random.default_rng(5)
    f = random_test_function(rng, basis, times)
    g = random_test_function(rng, basis, times)
    twin_basis = dirichlet_basis(16, 10.0)
    twin = SpacetimeTestFunction(times=times.copy(), values=g.values, basis=twin_basis)
    assert twin.basis is not g.basis and twin.times is not g.times
    assert gm_form(f, twin, MASS) == gm_form(f, g, MASS)
    assert gm_symplectic_side(f, twin, MASS) == gm_symplectic_side(f, g, MASS)


def test_causal_form_in_mode_space_equals_the_lattice_sum(basis):
    # Parseval: h sum_x conj(u) v = sum_n conj(u_n) v_n for h-orthonormal modes
    times = time_window(-5.0, 5.0, 0.05)
    rng = np.random.default_rng(12)
    f, g = random_test_function(rng, basis, times), random_test_function(rng, basis, times)
    u = causal_field(g, MASS).values
    per_node = basis.grid.spacing * np.sum(np.conj(f.values) * u, axis=1)
    lattice = np.sum(simpson_weights(times) * per_node)
    assert abs(gm_form(f, g, MASS) - lattice) <= 1e-13 * abs(lattice)


def test_causal_form_analyzes_each_source_once(basis, monkeypatch):
    # no causal field is synthesized to the lattice only to be analyzed again
    times = time_window(-3.0, 3.0, 0.05)
    rng = np.random.default_rng(13)
    f, g = random_test_function(rng, basis, times), random_test_function(rng, basis, times)
    analyzed = []
    analyze = SpectralBasis.analyze

    def counted(self, u):
        analyzed.append(u)
        return analyze(self, u)

    monkeypatch.setattr(SpectralBasis, "analyze", counted)
    gm_form(f, g, MASS)
    assert sorted(map(id, analyzed)) == sorted([id(f.values), id(g.values)])


def test_causal_form_window_mismatch_rejected(basis):
    rng = np.random.default_rng(4)
    f = random_test_function(rng, basis, time_window(-5.0, 5.0, 0.05))
    g = random_test_function(rng, basis, time_window(-4.0, 4.0, 0.05))
    with pytest.raises(ValueError, match="window"):
        gm_form(f, g, MASS)


def test_disjoint_supports_reduce_to_advanced_part(basis):
    # g supported after f: the retarded part of G g does not meet supp f.
    times = time_window(-6.0, 6.0, 0.05)
    rng = np.random.default_rng(9)

    def shifted(center):
        from kgsig.dynamics import SpacetimeTestFunction
        from kgsig.random_fields import bump_profile

        profile = bump_profile(times, center, 1.5)
        spatial = np.exp(-((basis.grid.points - 5.0) ** 2) / 4.0)
        return SpacetimeTestFunction(
            times=times, values=profile[:, None] * spatial[None, :], basis=basis
        )

    f = shifted(-3.5)  # support [-5, -2]
    g = shifted(3.5)  # support [2, 5]
    from kgsig.dynamics import advanced_green, simpson_weights

    total = gm_form(f, g, MASS)
    adv = advanced_green(g, MASS)
    quad = simpson_weights(times)
    h = basis.grid.spacing
    adv_part = -np.sum(quad * (h * np.sum(np.conj(f.values) * adv.values, axis=1)))
    assert total == pytest.approx(adv_part, rel=1e-12)
    ret = retarded_green(g, MASS)
    overlap = np.abs(np.conj(f.values) * ret.values).max()
    assert overlap == 0.0


def test_causal_form_grid_mismatch_rejected():
    # equal point counts, different lengths: the spacings differ
    times = time_window(-3.0, 3.0, 0.05)
    rng = np.random.default_rng(6)
    f = random_test_function(rng, dirichlet_basis(8, 10.0), times)
    g = random_test_function(rng, dirichlet_basis(8, 20.0), times)
    with pytest.raises(ValueError, match="share a grid"):
        gm_form(f, g, MASS)
