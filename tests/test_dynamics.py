import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

import kgsig.dynamics
from kgsig import random_fields
from kgsig.dynamics import (
    CauchyDatum,
    SpacetimeTestFunction,
    causal_fundamental,
    gm_form,
    green_residuals,
    propagate,
    simpson_weights,
    time_window,
)
from kgsig.lattice import SINE_FFT_MIN_POINTS, dirichlet_basis, laplacian, omega
from kgsig.random_fields import Draws, bump, random_datum, random_test_function
from kgsig.signature import apply_signature, scalar_product, signature_analytic
from kgsig.state import build_state, pair_matrix
from kgsig.symplectic import symplectic

from duhamel_reference import (
    modes_of,
    reference_cumulative_simpson,
    reference_duhamel_modes,
    reference_kg_residual,
)

MASS = 1.0


@pytest.fixture(scope="module")
def basis():
    return dirichlet_basis(16, 10.0)


def single_mode_source(basis, times, mode, center=-1.0, half_width=2.0):
    profile = bump((times - center) / half_width)
    return SpacetimeTestFunction(times, profile[None], np.eye(basis.size)[mode][None], basis)


def as_stack(f, *shape):
    # the sources of a (K,) stack as a stack of the given shape
    return SpacetimeTestFunction(
        f.times, f.profiles.reshape(*shape, *f.profiles.shape[-2:]),
        f.shapes.reshape(*shape, *f.shapes.shape[-2:]), f.basis,
    )


def test_positive_frequency_mode_rotates(basis):
    # (1, w) v_n data evolve by the pure phase exp(-i w t).
    n = 3
    w = omega(basis.eigenvalues[n], MASS)
    v = basis.vectors[:, n]
    out = propagate(CauchyDatum(basis.analyze(np.stack([v, w * v])), basis), 0.7, MASS)
    phi, pi = basis.synthesize(out.modes)
    expected = np.exp(-1j * w * 0.7)
    assert phi == pytest.approx(expected * v, abs=1e-13)
    assert pi == pytest.approx(expected * w * v, abs=1e-13)


def test_large_grid_never_builds_the_mode_table():
    # From SINE_FFT_MIN_POINTS on the transforms run through numpy.fft, so
    # nothing of size N^2 is allocated unless `vectors` is read.
    large = dirichlet_basis(1024, 10.0)
    datum = random_datum(np.random.default_rng(5), large)
    out = propagate(datum, 0.7, MASS)
    back = large.analyze(large.synthesize(out.modes))
    assert np.abs(back - out.modes).max() <= 1e-13 * np.abs(out.modes).max()
    assert "vectors" not in large.__dict__


def test_cauchy_data_stay_in_mode_space(basis, transforms):
    # drawing, propagating, acting on and pairing Cauchy data, and pairing
    # the causal data of sources, read only the (2, N) mode stacks
    state, sig = build_state(MASS, basis), signature_analytic(MASS, basis)
    rng = np.random.default_rng(14)
    times = time_window(-3.0, 3.0, 0.05)
    solved = causal_fundamental(random_test_function(rng, basis, times, size=3), MASS)
    del transforms[:]  # the sources' own analysis is not a datum's
    a, b = random_datum(rng, basis), random_datum(rng, basis)
    at = propagate(a, 0.7, MASS)
    scalar_product(sig, apply_signature(sig, at), b)
    symplectic(at, b)
    pair_matrix(state, solved)
    assert transforms == []


def test_datum_shape_and_basis_checks(basis):
    with pytest.raises(ValueError, match="shape"):
        CauchyDatum(np.zeros((2, basis.size + 1)), basis)
    with pytest.raises(ValueError, match="shape"):
        CauchyDatum(np.zeros(basis.size), basis)
    # leading batch axes are free; the last two must be (2, N)
    assert CauchyDatum(np.zeros((4, 2, basis.size)), basis).modes.shape == (4, 2, basis.size)
    for shape in ((4, 3, basis.size), (4, 2, basis.size - 1), (4, basis.size, 2)):
        with pytest.raises(ValueError, match="shape"):
            CauchyDatum(np.zeros(shape), basis)
    datum = random_datum(np.random.default_rng(15), basis)
    assert (datum + datum).basis is basis and (2.0 * datum).basis is basis
    twin = CauchyDatum(datum.modes, dirichlet_basis(16, 10.0))
    with pytest.raises(ValueError, match="different bases"):
        datum + twin
    # a source's factors must be (..., C, time nodes) and (..., C, N) with the
    # same leading axes, on 1-D times
    times = time_window(-1.0, 1.0, 0.5)
    nodes, n = times.size, basis.size
    for t, profiles, shapes in ((times, (1, nodes), (1, n + 1)), (times, (1, nodes + 2), (1, n)),
                                (times[None], (1, nodes), (1, n)), (times, (2, nodes), (3, n)),
                                (times, (2, 1, nodes), (1, 2, n)), (times, (nodes,), (n,))):
        with pytest.raises(ValueError, match="shape"):
            SpacetimeTestFunction(t, np.zeros(profiles), np.zeros(shapes), basis)
    # indexing reaches the stack axes only, never a source's terms; a complex
    # source has complex shapes, never complex time profiles
    f = single_mode_source(basis, time_window(-5.0, 5.0, 0.5), 2)
    with pytest.raises(IndexError):
        f[0]
    with pytest.raises(ValueError, match="time profiles must be real"):
        SpacetimeTestFunction(f.times, f.profiles + 0j, f.shapes, basis)
    assert as_stack(f[None], 1, 1)[0, ...].shape == (1,)


def test_batched_data_act_entry_by_entry(basis):
    # a (K, 2, N) stack propagates, takes mode blocks and pairs exactly as
    # its K data do one at a time
    rng = np.random.default_rng(16)
    data = [random_datum(rng, basis) for _ in range(3)]
    stack = CauchyDatum(np.stack([d.modes for d in data]), basis)
    sig = signature_analytic(MASS, basis)
    blocks = apply_signature(sig, propagate(stack, 0.7, MASS))
    for k, d in enumerate(data):
        one = apply_signature(sig, propagate(d, 0.7, MASS))
        np.testing.assert_array_equal(blocks.modes[k], one.modes)
        np.testing.assert_array_equal(symplectic(d, stack)[k], symplectic(d, data[k]))


def test_propagate_matches_matrix_exponential(basis):
    # Independent oracle: expm of the full 2N x 2N Hamiltonian.
    n = basis.size
    ham = np.zeros((2 * n, 2 * n))
    ham[:n, n:] = np.eye(n)
    ham[n:, :n] = laplacian(basis.grid) + MASS**2 * np.eye(n)
    t = 1.3
    rng = np.random.default_rng(11)
    datum = random_datum(rng, basis)
    ref = expm(-1j * t * ham) @ basis.synthesize(datum.modes).reshape(-1)
    got = basis.synthesize(propagate(datum, t, MASS).modes).reshape(-1)
    assert got == pytest.approx(ref, abs=1e-12)


def test_propagate_group_property(basis):
    rng = np.random.default_rng(3)
    datum = random_datum(rng, basis)
    one = propagate(propagate(datum, 0.4, MASS), 1.1, MASS)
    two = propagate(datum, 1.5, MASS)
    phi1, pi1 = basis.synthesize(one.modes)
    phi2, pi2 = basis.synthesize(two.modes)
    assert phi1 == pytest.approx(phi2, abs=1e-12)
    assert pi1 == pytest.approx(pi2, abs=1e-12)


def test_time_window_and_simpson_weights():
    times = time_window(-5.0, 5.0, 0.05)
    assert times.size % 2 == 1
    assert times[0] == -5.0 and times[-1] == 5.0
    w = simpson_weights(times)
    # Simpson integrates cubics exactly
    assert np.sum(w * times**3) == pytest.approx(0.0, abs=1e-12)
    assert np.sum(w * times**2) == pytest.approx(2 * 5.0**3 / 3, rel=1e-12)
    with pytest.raises(ValueError, match="empty time window"):
        time_window(2.0, 1.0, 0.05)
    with pytest.raises(ValueError, match="odd number of nodes"):
        simpson_weights(times[:-1])


@pytest.mark.parametrize("dt", [-0.1, 0.0, np.nan])
def test_time_window_rejects_a_step_that_is_not_positive(dt):
    # -0.1 gave 3 nodes at spacing 0.5, 0 divided by zero, NaN failed in int()
    with pytest.raises(ValueError, match="time step must be positive"):
        time_window(0.0, 1.0, dt)


@pytest.mark.parametrize(
    "t_min, t_max, dt, message",
    [(0.0, np.inf, 1.0, "bounds must be finite"),
     (-1e308, 1e308, 1.0, "more nodes than an array index"),
     (0.0, 1.0, 1e-320, "more nodes than an array index")],
    ids=["infinite-bound", "span-overflows", "step-underflows"],
)
def test_time_window_rejects_bounds_and_node_counts_that_do_not_fit(t_min, t_max, dt, message):
    # each ended in OverflowError: the node count was inf when made an int
    with pytest.raises(ValueError, match=message):
        time_window(t_min, t_max, dt)


@pytest.mark.parametrize("node", [0.2 + 1e-6, np.nan])
def test_simpson_weights_reject_nonuniform_and_nan_nodes(node):
    times = np.array([0.0, 0.1, node, 0.3, 0.4])
    with pytest.raises(ValueError, match="time nodes must be uniform"):
        simpson_weights(times)


def test_cumulative_simpson_exact_on_quadratics():
    times = time_window(0.0, 2.0, 0.1)
    y = 3.0 * times**2 - times + 0.5
    exact = times**3 - times**2 / 2 + 0.5 * times
    got = reference_cumulative_simpson(y[:, None], 0.1)[:, 0]
    assert got == pytest.approx(exact, abs=1e-13)


def test_source_validation_rejects_touching_window_edge(basis):
    # one term of three reaches the last node
    times = time_window(-2.0, 2.0, 0.1)
    profiles = np.stack([bump(times), bump(times / 4.0), bump(times)])
    shapes = np.ones((3, basis.size), dtype=complex)
    SpacetimeTestFunction(times, profiles[[0, 0, 2]], shapes, basis)
    with pytest.raises(ValueError, match="window too small"):
        SpacetimeTestFunction(times, profiles, shapes, basis)


@pytest.mark.parametrize(
    "node, value", [(0, np.nan), (20, np.inf), (20, -np.inf)], ids=["nan-edge", "inf", "minus-inf"]
)
@pytest.mark.parametrize("factor", ["profiles", "shapes"])
def test_source_validation_rejects_non_finite_modes(basis, node, value, factor):
    # a NaN at the edge fails no > comparison; an inf elsewhere made the scale
    # inf. Each term is checked through its two factors, real or complex;
    # in a (3,) stack only the last source is bad.
    times = time_window(-3.0, 3.0, 0.1)
    good = single_mode_source(basis, times, 2)
    for dtype in (float, complex):
        for stack in (False, True):
            profiles, shapes = (
                np.stack([a] * 3) if stack else a.copy() for a in (good.profiles, good.shapes)
            )
            shapes = shapes.astype(dtype)
            bad = (-1,) if stack else ()
            if factor == "profiles":
                profiles[bad + (0, node)] = value
            else:
                shapes[bad + (0, 5)] = value
            with pytest.raises(ValueError, match="must be finite"):
                SpacetimeTestFunction(times, profiles, shapes, basis)


def test_retarded_green_matches_adaptive_quadrature(basis):
    # Mode-wise Duhamel oracle via scipy.integrate.quad.
    n = 5
    w = float(omega(basis.eigenvalues[n], MASS))
    times = time_window(-5.0, 5.0, 0.05)
    f = single_mode_source(basis, times, n)
    u_modes = reference_duhamel_modes(f, MASS)[0]

    def profile(s):
        arg = (s + 1.0) / 2.0
        return np.exp(-1.0 / (1.0 - arg**2)) if abs(arg) < 1.0 else 0.0

    for t_probe in (0.5, 3.0):
        j = int(np.argmin(np.abs(times - t_probe)))
        tj = times[j]
        ref = quad(
            lambda s: np.sin(w * (tj - s)) / w * profile(s),
            -3.0,
            min(tj, 1.0),
            limit=400,
        )[0]
        assert u_modes[j, n] == pytest.approx(ref, abs=2e-6)


def test_retarded_supported_in_future_of_source(basis):
    times = time_window(-5.0, 5.0, 0.05)
    f = single_mode_source(basis, times, 2)  # support [-3, 1]
    u = basis.synthesize(reference_duhamel_modes(f, MASS)[0])
    assert np.abs(u[times < -3.05]).max() == 0.0
    assert np.abs(u[times > 2.0]).max() > 1e-3


def test_advanced_supported_in_past_of_source(basis):
    times = time_window(-5.0, 5.0, 0.05)
    f = single_mode_source(basis, times, 2, center=1.0)  # support [-1, 3]
    u = basis.synthesize(reference_duhamel_modes(f, MASS)[1])
    assert np.abs(u[times > 3.05]).max() == 0.0
    assert np.abs(u[times < -2.0]).max() > 1e-3


@pytest.mark.parametrize("side", [0, 1], ids=["retarded_green", "advanced_green"])
def test_green_residual_is_second_order_in_dt(basis, side):
    residuals = []
    for dt in (0.05, 0.025):
        times = time_window(-5.0, 5.0, dt)
        f = single_mode_source(basis, times, 5)
        residuals.append(reference_kg_residual(reference_duhamel_modes(f, MASS)[side], f, MASS))
    assert residuals[0] < 5e-3
    assert residuals[0] / residuals[1] > 3.0


def test_advanced_is_time_reflected_retarded(basis):
    # With a symmetric window, S_adv f (t) = S_ret f~ (-t) for f~(t) = f(-t).
    times = time_window(-4.0, 4.0, 0.05)
    rng = np.random.default_rng(5)
    f = random_test_function(rng, basis, times)
    reflected = SpacetimeTestFunction(times, f.profiles[:, ::-1], f.shapes, basis)
    adv = basis.synthesize(reference_duhamel_modes(f, MASS)[1])
    ret = basis.synthesize(reference_duhamel_modes(reflected, MASS)[0])[::-1]
    assert np.abs(adv - ret).max() == pytest.approx(0.0, abs=1e-12)


def test_causal_data_reproduce_causal_field(basis):
    # G f is homogeneous: evolving its t=0 data must match the spacetime
    # field from the (independent) cumulative Duhamel quadratures.
    errs = []
    for dt in (0.05, 0.025):
        times = time_window(-5.0, 5.0, dt)
        rng = np.random.default_rng(7)
        f = random_test_function(rng, basis, times)
        data = causal_fundamental(f, MASS)
        ret, adv = reference_duhamel_modes(f, MASS)
        field = basis.synthesize(ret - adv)
        worst = 0.0
        for j in range(0, times.size, 7):
            phi = basis.synthesize(propagate(data, times[j], MASS).modes[0])
            worst = max(worst, float(np.abs(phi - field[j]).max()))
        errs.append(worst)
    assert errs[0] < 5e-6
    assert errs[0] / errs[1] > 8.0


def test_causal_field_is_retarded_field_for_past_sources(basis):
    times = time_window(-5.0, 5.0, 0.05)
    f = single_mode_source(basis, times, 4, center=-2.5, half_width=1.5)
    ret, adv = reference_duhamel_modes(f, MASS)
    g_field, r_field = basis.synthesize(np.stack([ret - adv, ret]))
    future = times > -0.9  # strictly after supp f = [-4, -1]
    assert np.abs(g_field[future] - r_field[future]).max() < 1e-12


def reference_test_function(rng, basis, times, components=3, real=False):
    # the per-component accumulation that random_test_function's single
    # (J, C) @ (C, N) product replaces, one analysis per component; same
    # draws in the same order
    t0, t1 = float(times[0]), float(times[-1])
    span, x, length = t1 - t0, basis.grid.points, basis.grid.length
    modes = np.zeros((times.size, basis.size), dtype=float if real else complex)
    for _ in range(components):
        center = rng.uniform(t0 + 0.30 * span, t1 - 0.30 * span)
        half_width = rng.uniform(0.15 * span, 0.25 * span)
        carrier = rng.uniform(0.0, 2.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        profile = bump((times - center) / half_width) * np.cos(carrier * times + phase)
        x0 = rng.uniform(0.25 * length, 0.75 * length)
        width = rng.uniform(0.10 * length, 0.20 * length)
        shape = np.exp(-((x - x0) ** 2) / (2.0 * width**2))
        amp = rng.normal() if real else rng.normal() + 1j * rng.normal()
        modes += profile[:, None] * basis.analyze(amp * shape)[None, :]
    return modes


@pytest.mark.parametrize("components", [0, 3])
@pytest.mark.parametrize("real", [True, False])
def test_random_sources_match_the_accumulated_reference(basis, monkeypatch, real, components):
    # 0 terms: an empty sum still has the shape and dtype of a source
    monkeypatch.setattr(random_fields, "COMPONENTS", components)
    times = time_window(-3.0, 3.0, 0.05)
    got = random_test_function(np.random.default_rng(4), basis, times, real=real)
    ref = reference_test_function(np.random.default_rng(4), basis, times, components, real)
    assert got.dtype == ref.dtype and got.profiles.shape == (components, times.size)
    # three products summed in another order: a few ulp of the largest value
    assert np.abs(modes_of(got) - ref).max() <= 1e-15 * np.abs(ref).max()


def test_real_sources_stay_real(basis):
    times = time_window(-3.0, 3.0, 0.05)
    rng = np.random.default_rng(8)
    f = random_test_function(rng, basis, times, real=True)
    assert f.dtype == f.profiles.dtype == f.shapes.dtype == np.float64
    assert random_test_function(rng, basis, times).dtype == np.complex128
    assert (f * 1j).dtype == np.complex128
    assert modes_of(f).dtype == np.float64
    as_complex = SpacetimeTestFunction(times, f.profiles, f.shapes.astype(complex), basis)
    got, ref = causal_fundamental(f, MASS), causal_fundamental(as_complex, MASS)
    for a, b in zip(basis.synthesize(got.modes), basis.synthesize(ref.modes)):
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()


@pytest.mark.parametrize("dt", [0.05, 0.025])
def test_shared_duhamel_pass_matches_separate_routes(basis, dt, monkeypatch):
    # green_residuals runs one blocked pass per field and reduces each block
    # as it arrives, bit for bit the residuals of the whole fields
    times = time_window(-5.0, 5.0, dt)
    f = random_test_function(np.random.default_rng(9), basis, times)
    separate = [reference_kg_residual(u, f, MASS) for u in reference_duhamel_modes(f, MASS)]
    passes, blocks = [], kgsig.dynamics._green_blocks

    def counted(f, mass, step):
        passes.append((f, step))
        return blocks(f, mass, step)

    monkeypatch.setattr(kgsig.dynamics, "_green_blocks", counted)
    assert list(green_residuals(f, MASS)) == separate
    assert passes == [(f, 1), (f, -1)]


@pytest.mark.parametrize("real", [True, False])
def test_a_stack_draw_leaves_the_stream_where_single_draws_do(basis, real):
    times = time_window(-3.0, 3.0, 0.05)
    for make in (lambda: Draws(3), lambda: np.random.default_rng(3)):
        stacked, single = make(), make()
        random_test_function(stacked, basis, times, real=real, size=4)
        for _ in range(4):
            random_test_function(single, basis, times, real=real)
        assert stacked.uniform(0.0, 1.0) == single.uniform(0.0, 1.0)


@pytest.mark.parametrize("n", [16, 64, 300, 1024])
@pytest.mark.parametrize("real", [True, False])
def test_a_stack_draw_holds_the_single_draws(n, real):
    # one analysis of the (12, N) shapes against four of (3, N): the FFT path
    # and the table up to a few hundred points do not depend on the batch,
    # the table product at n = 300 may round differently; the time profiles
    # are elementwise, so they match exactly
    basis = dirichlet_basis(n, 10.0)
    times = time_window(-3.0, 3.0, 0.05)
    stack = random_test_function(Draws(5), basis, times, real=real, size=4)
    rng = Draws(5)
    singles = [random_test_function(rng, basis, times, real=real) for _ in range(4)]
    profiles = np.stack([f.profiles for f in singles])
    shapes = np.stack([f.shapes for f in singles])
    assert stack.dtype == shapes.dtype and stack.shape == (4,)
    np.testing.assert_array_equal(stack.profiles, profiles)
    if n == 300:
        assert np.abs(stack.shapes - shapes).max() <= 1e-15 * np.abs(shapes).max()
    else:
        np.testing.assert_array_equal(stack.shapes, shapes)


def reference_causal_fundamental(f, mass):
    # the moments of the (..., J, N) modes against each Simpson-weighted
    # phase table, the contraction causal_fundamental made before it took
    # them per term from the factors
    w = omega(f.basis.eigenvalues, mass)
    phase, quad = w[None, :] * f.times[:, None], simpson_weights(f.times)[:, None]
    sin_int, cos_int = (
        np.einsum("jn,...jn->...n", quad * table(phase), modes_of(f)) for table in (np.sin, np.cos)
    )
    return np.stack([-sin_int / w, 1j * cos_int], axis=-2)


@pytest.mark.parametrize("size", [None, 5])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("n", [64, 768])
def test_causal_data_from_source_factors_match_the_dense_route(n, real, size):
    # the moments per term, (3, J) @ (J, N) per source, against those of the
    # (K, J, N) modes; n = 64 runs the sine table, 768 the FFT
    assert (n >= SINE_FFT_MIN_POINTS) == (n == 768)
    basis = dirichlet_basis(n, 10.0)
    times = time_window(-3.0, 3.0, 0.05)
    f = random_test_function(Draws(11), basis, times, real=real, size=size)
    got, ref = causal_fundamental(f, MASS), reference_causal_fundamental(f, MASS)
    assert got.modes.shape == ref.shape and got.basis is basis
    assert np.abs(got.modes - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("size", [None, 3])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize(
    "value, message",
    [(np.nan, "must be finite"), (np.inf, "must be finite"), (1.0, "window too small")],
    ids=["nan", "inf", "edge"],
)
def test_random_sources_reject_a_bad_term(basis, monkeypatch, value, message, real, size):
    # the last term of the last source gets a profile value at the window's
    # last node that is not finite or does not vanish
    def bad_bump(s):
        out = bump(s)
        out[-1, -1] = value
        return out

    monkeypatch.setattr(random_fields, "bump", bad_bump)
    times = time_window(-3.0, 3.0, 0.1)
    with pytest.raises(ValueError, match=message):
        random_test_function(Draws(2), basis, times, real=real, size=size)


def test_a_term_that_vanishes_against_an_infinite_shape_is_not_finite(basis):
    # 0 x inf: the term's modes are NaN, rejected with no warning on the way
    times = time_window(-3.0, 3.0, 0.1)
    shapes = np.zeros((2, basis.size))
    shapes[1, 3] = np.inf
    with pytest.raises(ValueError, match="must be finite"):
        SpacetimeTestFunction(times, np.stack([bump(times), 0.0 * times]), shapes, basis)


def gathered_field(f, step):
    # the whole (..., J, N) field of the retarded (step 1) or advanced
    # (step -1) blocked pass, each block put at its nodes
    field = np.empty((*f.shape, f.times.size, f.basis.size), f.dtype)
    run = np.moveaxis(field, -2, 0)[::step]  # in pass order
    for first, block in kgsig.dynamics._green_blocks(f, MASS, step):
        run[first:first + len(block)] = block
    return field


@pytest.mark.parametrize("real", [True, False])
def test_functions_of_a_source_act_row_by_row_on_a_stack(basis, real):
    # a (2, 2, J, N) stack: every row of every result equals the function of
    # that row alone, bit for bit, so no function mixes rows or reads axis 0
    times = time_window(-3.0, 3.0, 0.05)
    draws = random_test_function(Draws(6), basis, times, real=real, size=8)
    fs, gs = as_stack(draws[:4], 2, 2), as_stack(draws[4:], 2, 2)
    solved = causal_fundamental(fs, MASS)
    fields = [gathered_field(fs, step) for step in (1, -1)]
    residuals = green_residuals(fs, MASS)
    pairing = gm_form(fs, gs, MASS)
    assert solved.modes.shape == (2, 2, 2, basis.size) and pairing.shape == (2, 2)
    assert residuals[0].shape == residuals[1].shape == (2, 2)
    for a, b in np.ndindex(2, 2):
        f, g = fs[a, b], gs[a, b]
        np.testing.assert_array_equal(solved[a, b].modes, causal_fundamental(f, MASS).modes)
        for stacked, step in zip(fields, (1, -1)):
            np.testing.assert_array_equal(stacked[a, b], gathered_field(f, step))
        assert [r[a, b] for r in residuals] == list(green_residuals(f, MASS))
        assert pairing[a, b] == gm_form(f, g, MASS)


# The expressions that gm_form evaluated before it ran in blocks of time
# rows, on the source's modes as the passes form their rows; the blocked
# version keeps every operation and its order, so they must agree bit for bit.


def reference_pairing(f, field):
    # the Simpson-weighted spacetime sum of conj(f) * field, per-node mode sums first
    per_node = np.sum(np.conj(modes_of(f)) * field, axis=-1)
    return np.sum(simpson_weights(f.times) * per_node, axis=-1)


def reference_gm_form(f, g, mass):
    # <f, S_ret g> - conj(<g, S_ret f>) from the whole retarded fields
    ret_f, ret_g = reference_duhamel_modes(f, mass)[0], reference_duhamel_modes(g, mass)[0]
    return reference_pairing(f, ret_g) - np.conj(reference_pairing(g, ret_f))


def ret_minus_adv_gm_form(f, g, mass):
    # <f, (S_ret - S_adv) g>, the form before it took S_adv as the adjoint of S_ret
    ret, adv = reference_duhamel_modes(g, mass)
    return reference_pairing(f, ret - adv)


def window_of(nodes):
    # J = nodes on [-3, 3]; the sources vanish at both ends for any J
    times = time_window(-3.0, 3.0, 6.0 / (nodes - 1))
    assert times.size == nodes
    return times


@pytest.mark.parametrize("nodes", [3, 5, 241])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_buffered_layer_matches_the_reference_expressions(basis, nodes, real):
    times = window_of(nodes)
    fs = random_test_function(Draws(10), basis, times, real=real, size=4)
    for f in (fs[0], as_stack(fs, 2, 2)):
        reference = reference_duhamel_modes(f, MASS)
        for step, ref, residual in zip((1, -1), reference, green_residuals(f, MASS)):
            got = gathered_field(f, step)
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(residual, reference_kg_residual(ref, f, MASS))


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_no_function_of_the_layer_writes_into_its_inputs(basis, real):
    times = time_window(-3.0, 3.0, 0.05)
    draws = random_test_function(Draws(12), basis, times, real=real, size=8)
    for f, g in ((draws[0], draws[1]), (as_stack(draws[:4], 2, 2), as_stack(draws[4:], 2, 2))):
        inputs = (f.profiles, f.shapes, f.times, g.profiles, g.shapes)
        before = [a.copy() for a in inputs]
        gathered_field(f, 1)
        gathered_field(f, -1)
        green_residuals(f, MASS)
        causal_fundamental(f, MASS)
        gm_form(f, g, MASS)
        gm_form(f, f, MASS)  # one source on both sides
        for a, b in zip(inputs, before):
            assert a.tobytes() == b.tobytes()


def test_gm_form_pairs_real_and_complex_sources_bit_for_bit(basis):
    # a complex f against a real g makes the product wider than g's causal
    # field; so does a stack f against a single g
    times = time_window(-3.0, 3.0, 0.05)
    real = random_test_function(Draws(13), basis, times, real=True, size=2)
    cplx = random_test_function(Draws(14), basis, times, size=2)
    for f, g in ((real, cplx), (cplx, real), (cplx, real[0]), (real, cplx[0]), (real[0], cplx)):
        got = gm_form(f, g, MASS)
        ref = reference_gm_form(f, g, MASS)
        assert np.result_type(got) == np.result_type(f.dtype, g.dtype)
        np.testing.assert_array_equal(got, ref)


def test_gm_form_rejects_another_basis_or_window(basis):
    # each forward pass checks its pair, so g on an equal twin basis, or on
    # a window moved by 1, is not paired as if it were f's
    times = time_window(-3.0, 3.0, 0.05)
    f, g = (random_test_function(Draws(seed), basis, times) for seed in (1, 2))
    twin = SpacetimeTestFunction(times, g.profiles, g.shapes, dirichlet_basis(16, 10.0))
    shifted = SpacetimeTestFunction(times + 1.0, g.profiles, g.shapes, basis)
    with pytest.raises(ValueError, match="sources live on different bases"):
        gm_form(f, twin, MASS)
    with pytest.raises(ValueError, match="sources must share a time window"):
        gm_form(f, shifted, MASS)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_gm_form_agrees_with_the_ret_minus_adv_form_at_quadrature_order(basis, real):
    # S_adv as the adjoint of S_ret against S_adv from the backward pass: the
    # two differ only by quadrature error. Measured over seeds 0-7, real and
    # complex (3,) stacks, as a share of the largest entry: 4.2e-7 at dt 0.05,
    # 2.2e-9 at dt 0.025 (n = 16 and 64), 4.9e-12 at dt 0.0125
    worst = []
    for dt in (0.05, 0.025):
        times = time_window(-3.0, 3.0, dt)
        fs = random_test_function(Draws(20), basis, times, real=real, size=6)
        f, g = fs[0::2], fs[1::2]
        old = ret_minus_adv_gm_form(f, g, MASS)
        worst.append(np.abs(gm_form(f, g, MASS) - old).max() / np.abs(old).max())
    assert worst[0] <= 1e-6 and worst[0] >= 16.0 * worst[1]


def pairs_per_block(count, modes):
    # the node pairs each block after the first adds, for a stack of `count`
    # sources of `modes` modes; the first block holds one node more
    return max(1, kgsig.dynamics._BLOCK_VALUES // (2 * modes * count))


_BLOCK_CASES = {  # nodes in units of pairs per block, and the blocks they take
    "three-nodes": (lambda pairs: 3, 1),
    "one-block": (lambda pairs: 2 * pairs + 1, 1),
    "one-block-and-a-pair": (lambda pairs: 2 * pairs + 3, 2),
    "several-blocks": (lambda pairs: 6 * pairs + 1, 3),
}


@pytest.mark.parametrize("block_values", [None, 1], ids=["module-blocks", "one-pair-blocks"])
@pytest.mark.parametrize("case", list(_BLOCK_CASES))
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "2x2-stack"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_blocked_pass_matches_the_reference_expressions(
    basis, monkeypatch, block_values, case, stacked, real
):
    # both passes block by block, both residuals and gm_form, at windows that
    # fit one block, spill one pair into a second, and take several, bit for bit
    if block_values is not None:
        monkeypatch.setattr(kgsig.dynamics, "_BLOCK_VALUES", block_values)
    count, shape = (4, (2, 2)) if stacked else (1, ())
    nodes_of, blocks = _BLOCK_CASES[case]
    nodes = nodes_of(pairs_per_block(count, basis.size))
    times = window_of(nodes)
    same = random_test_function(Draws(16), basis, times, real=real, size=2 * count)
    other = random_test_function(Draws(17), basis, times, real=not real, size=count)
    f, g, h = (as_stack(s, *shape) for s in (same[:count], same[count:], other))
    reference = reference_duhamel_modes(f, MASS)
    for step, ref in zip((1, -1), reference):
        run, spans = np.moveaxis(ref, -2, 0)[::step], []  # the field at the pass nodes
        for first, block in kgsig.dynamics._green_blocks(f, MASS, step):
            assert block.dtype == ref.dtype
            np.testing.assert_array_equal(block, run[first:first + len(block)])
            spans.append((first, first + len(block)))
        # from node 0 to J - 1, each later block repeating the last two nodes
        assert len(spans) == blocks and spans[0][0] == 0 and spans[-1][1] == nodes
        assert all(later[0] == earlier[1] - 2 for earlier, later in zip(spans, spans[1:]))
    for got, ref in zip(green_residuals(f, MASS), reference):
        np.testing.assert_array_equal(got, reference_kg_residual(ref, f, MASS))
    # a partner of the other dtype, or a single one against a stack, makes the
    # product wider than the causal field
    for partner in (g, h, *((g[0, 0],) if stacked else ())):
        got = gm_form(f, partner, MASS)
        assert np.result_type(got) == np.result_type(f.dtype, partner.dtype)
        np.testing.assert_array_equal(got, reference_gm_form(f, partner, MASS))
        np.testing.assert_array_equal(gm_form(partner, f, MASS), -np.conj(got))


@pytest.mark.parametrize("nodes", [1001, 4001])
def test_duhamel_pass_memory_does_not_grow_with_the_window(nodes):
    # green_residuals and gm_form hold a few blocks of a pass, gm_form also
    # its per-node sums, and a source's check its factors: past those, the
    # peak is bounded by the block size, whatever the window's length
    basis = dirichlet_basis(64, 10.0)
    fs = random_test_function(Draws(18), basis, window_of(nodes), size=2)
    f, g = fs[0], fs[1]
    assert f.dtype == np.complex128
    bound = 200 * kgsig.dynamics._BLOCK_VALUES  # bytes: 1.6 MB at the module block size
    for run, extra in ((lambda: green_residuals(f, MASS), 0),
                       (lambda: gm_form(f, g, MASS), 16 * nodes),
                       (lambda: SpacetimeTestFunction(f.times, f.profiles, f.shapes, basis), 0)):
        run()
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < extra + bound
