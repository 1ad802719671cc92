"""Mass families, the mass integral map p, and the spacetime pairing."""

import numpy as np
import pytest

from kgsig import massfamily
from kgsig.dynamics import CauchyDatum, simpson_weights, time_window
from kgsig.lattice import dirichlet_basis
from kgsig.massfamily import (
    ConvergenceError,
    MassInterval,
    MassWeight,
    apply_T,
    integrate_p,
    interval_weight,
    make_family,
    mass_decomposition_gram,
    spacetime_gram,
)
from kgsig.random_fields import bump, random_datum
from kgsig.signature import signature_reconstruct

INTERVAL = MassInterval(1.0, 2.0)


@pytest.fixture(scope="module")
def basis():
    return dirichlet_basis(16, 10.0)


def rhs_pairing(fa, fb, nodes=200):
    """Mass-decomposition value: integral of scale_a scale_b <a|b>_m m dm on a
    local `nodes`-point Gauss-Legendre rule of the weight's support."""
    wgt = fa.weight
    x, w = np.polynomial.legendre.leggauss(nodes)
    m = wgt.center + wgt.half_width * x
    lam = fa.basis.eigenvalues
    ca, cb = fa.base.modes, fb.base.modes
    om = np.sqrt(lam[:, None] + m[None, :] ** 2)
    per_m = np.pi * (
        om.T @ (np.conj(ca[0]) * cb[0]) + (1.0 / om.T) @ (np.conj(ca[1]) * cb[1])
    )
    u = wgt.half_width * w * wgt.profile(m) ** 2 * m ** (1 + fa.mass_power + fb.mass_power)
    return complex(np.sum(u * per_m))


def uniform_p(families, period, times):
    """(p a)(t, .) of each family at each time, shape (J, F, N), with the mass
    integral on the uniform-omega rule of this period: omega_q = omega_lo +
    q 2 pi / P per mode, m_q = sqrt(omega_q^2 - lambda), weight Delta omega_q
    w(m_q) m_q^k (m dm = omega d omega). The families share one basis and
    weight, so one cos/sin table over (time, mode, node) serves them all."""
    basis, wgt = families[0].basis, families[0].weight
    lam = basis.eigenvalues[:, None]
    lo, hi = wgt.center - wgt.half_width, wgt.center + wgt.half_width
    step = 2 * np.pi / period
    widest = np.sqrt(lam[0, 0] + hi**2) - np.sqrt(lam[0, 0] + lo**2)
    om = np.sqrt(lam + lo**2) + step * np.arange(int(widest / step) + 2)
    m = np.sqrt(np.maximum(om**2 - lam, 0.0))
    phase = om[:, None, :] * times[None, :, None]  # (N, J, Q)
    u = np.stack([step * om * wgt.profile(m) * m**f.mass_power for f in families], -1)
    cos_part = np.cos(phase) @ u  # (N, J, F)
    sin_part = np.sin(phase) @ (u / om[:, :, None])
    phi, pi = np.stack([f.base.modes for f in families], -1)[:, :, None]  # (N, 1, F)
    return basis.synthesize((cos_part * phi - 1j * sin_part * pi).transpose(1, 2, 0))


def simpson_stage(families, t_lo, t_hi, dt, period):
    """Reference stage: Simpson in time of the h-weighted pairing of the
    p-images over [-t_hi, -t_lo] and [t_lo, t_hi] ([-t_hi, t_hi] if t_lo = 0),
    with p on the same uniform-omega rule as the stage under test."""
    spans = [(-t_hi, t_hi)] if t_lo == 0.0 else [(t_lo, t_hi), (-t_hi, -t_lo)]
    h = families[0].basis.grid.spacing
    gram = np.zeros((len(families), len(families)), dtype=complex)
    for lo, hi in spans:
        times = time_window(lo, hi, dt)
        fields = uniform_p(families, period, times)
        per_time = h * np.einsum("tax,tbx->tab", fields.conj(), fields)
        gram += np.tensordot(simpson_weights(times), per_time, axes=1)
    return gram


def stage_gram(families, t_lo, t_hi, period=None):
    """One stage on the rule of the given period (the production period
    RULE_PERIOD_RATIO * t_hi by default): the per-mode kernels summed over
    modes against each family pair's mode data."""
    period = period or massfamily.RULE_PERIOD_RATIO * t_hi
    weight, lam = families[0].weight, families[0].basis.eigenvalues
    powers, row = np.unique([f.mass_power for f in families], return_inverse=True)
    nodes = int(massfamily._rule_nodes(weight, lam, period))
    g = massfamily._uniform_rule(weight, lam, powers, period, nodes)(t_lo, t_hi)
    modes = np.stack([f.base.modes for f in families])
    gram = np.zeros((len(families), len(families)), dtype=complex)
    for n in range(lam.size):
        for x in (0, 1):  # phi with g_cos, pi with g_sin
            c = modes[:, x, n]
            gram += np.outer(c.conj(), c) * g[x, n][np.ix_(row, row)]
    return gram


@pytest.fixture(
    scope="module",
    params=[interval_weight(INTERVAL), MassWeight(1.5, 0.2)],
    ids=["broad", "narrow"],
)
def mixed_families(request):
    """Three families on one weight, one of them after one application of T."""
    basis8 = dirichlet_basis(8, 10.0)
    rng = np.random.default_rng(13)
    weight = request.param
    return [
        make_family(random_datum(rng, basis8), weight, INTERVAL),
        make_family(random_datum(rng, basis8), weight, INTERVAL),
        apply_T(make_family(random_datum(rng, basis8), weight, INTERVAL)),
    ]


def test_interval_rejects_zero_in_closure():
    with pytest.raises(ValueError, match="0 ∉ Ī"):
        MassInterval(0.0, 1.0)
    with pytest.raises(ValueError, match="0 ∉ Ī"):
        MassInterval(-1.0, 2.0)
    with pytest.raises(ValueError):
        MassInterval(2.0, 1.0)


# (power, squared) -> moment of the (1, 2) weight, frozen from
# scipy.integrate.quad at epsabs 1e-15
FROZEN_MOMENTS = {
    (1, False): 0.332995362126059,
    (1, True): 0.09981459063374484,
    (2, False): 0.5082682277832105,
}


def test_weight_moments_against_adaptive_quadrature():
    wgt = interval_weight(INTERVAL)
    for (power, squared), value in FROZEN_MOMENTS.items():
        assert wgt.mass_moment(power, squared) == pytest.approx(value, abs=1e-13)


def test_weight_profile_matches_node_values():
    wgt = MassWeight(1.5, 0.3)
    assert np.allclose(wgt.profile(wgt.nodes), wgt.values, atol=1e-15)
    assert wgt.profile(np.array([1.2, 1.8])) == pytest.approx([0.0, 0.0])
    assert wgt.profile(np.array([1.5]))[0] == pytest.approx(np.exp(-1.0))


def test_make_family_validates_support(basis):
    rng = np.random.default_rng(0)
    datum = random_datum(rng, basis)
    with pytest.raises(ValueError, match="support outside I"):
        make_family(datum, MassWeight(1.9, 0.3), INTERVAL)
    # the rounding slack scales with m_hi: at masses near 1e-15 a fixed 1e-12
    # let a weight reach through m = 0 or start below m_lo; reaching through
    # m = 0 is no weight at all
    tiny = MassInterval(1e-15, 2e-15)
    with pytest.raises(ValueError, match="positive mass"):
        MassWeight(1.5e-15, 1e-12)
    with pytest.raises(ValueError, match="support outside I"):
        make_family(datum, MassWeight(1.5e-15, 6e-16), tiny)
    make_family(datum, interval_weight(tiny), tiny)
    fam = make_family(datum, interval_weight(INTERVAL), INTERVAL)
    assert fam.mass_power == 0
    assert np.array_equal(fam.node_scale, fam.weight.values)


def test_nan_weight_fails_the_support_check():
    # a NaN centre is no weight: it fails at construction, before any support check
    with pytest.raises(ValueError, match="positive mass"):
        MassWeight(np.nan, 0.1)
    for half_width in (0.0, -0.1, np.nan):
        with pytest.raises(ValueError, match="positive half_width"):
            MassWeight(1.5, half_width)


def test_apply_T_scales_nodes(basis):
    rng = np.random.default_rng(1)
    fam = make_family(
        random_datum(rng, basis), interval_weight(INTERVAL), INTERVAL
    )
    twice = apply_T(apply_T(fam))
    assert twice.mass_power == 2
    assert np.allclose(
        twice.node_scale, fam.weight.values * fam.weight.nodes**2, rtol=1e-15
    )


def test_integrate_p_single_mode_oracle():
    # frozen from scipy.integrate.quad of the closed-form mode integrals at
    # t = 0.7 for the mode with eigenvalue 0.81 (N = 8, L = 10)
    basis8 = dirichlet_basis(8, 10.0)
    v = basis8.vectors[:, 2]
    assert basis8.eigenvalues[2] == pytest.approx(0.81, abs=1e-12)
    datum = CauchyDatum(basis8.analyze(np.stack([(0.3 + 0.1j) * v, (-0.2 + 0.4j) * v])), basis8)
    fam = make_family(datum, interval_weight(INTERVAL), INTERVAL)
    cos_int, sin_int = 0.10664898728246866, 0.17727872666041597
    expect = (cos_int * (0.3 + 0.1j) - 1j * sin_int * (-0.2 + 0.4j)) * v
    assert np.abs(basis8.synthesize(integrate_p(fam, 0.7)) - expect).max() < 1e-12


def test_integrate_p_of_a_stacked_base_is_the_per_datum_images():
    basis8 = dirichlet_basis(8, 10.0)
    rng = np.random.default_rng(5)
    data = [random_datum(rng, basis8) for _ in range(3)]
    stack = CauchyDatum(np.stack([d.modes for d in data]), basis8)  # (3, 2, N)
    weight = interval_weight(INTERVAL)
    images = integrate_p(make_family(stack, weight, INTERVAL), 0.7)
    each = [integrate_p(make_family(d, weight, INTERVAL), 0.7) for d in data]
    assert images.shape == (3, 8)
    assert np.array_equal(images, np.stack(each))


def test_a_stacked_family_pairs_as_its_single_datum_families():
    # rows of a stacked base take the family's mass power; the powers are mixed
    basis8 = dirichlet_basis(8, 10.0)
    rng = np.random.default_rng(11)
    data = [random_datum(rng, basis8) for _ in range(3)]
    stack = CauchyDatum(np.stack([d.modes for d in data]), basis8)  # (3, 2, N)
    weight = interval_weight(INTERVAL)
    extra = make_family(random_datum(rng, basis8), weight, INTERVAL)
    stacked = [extra, apply_T(make_family(stack, weight, INTERVAL)), apply_T(apply_T(extra))]
    singles = [extra, *(apply_T(make_family(d, weight, INTERVAL)) for d in data), stacked[2]]
    gram, report = spacetime_gram(stacked, tol=1e-8)
    ref, ref_report = spacetime_gram(singles, tol=1e-8)
    assert gram.shape == (5, 5)
    assert np.array_equal(gram, ref)
    assert (report.final_t, report.stages) == (ref_report.final_t, ref_report.stages)
    assert np.array_equal(mass_decomposition_gram(stacked), mass_decomposition_gram(singles))


def test_integrate_p_decays(basis):
    rng = np.random.default_rng(7)
    fam = make_family(
        random_datum(rng, basis), interval_weight(INTERVAL), INTERVAL
    )
    norms = [np.linalg.norm(integrate_p(fam, t)) for t in (0.0, 50.0, 200.0)]
    assert norms[1] < 0.03 * norms[0]
    assert norms[2] < 1e-3 * norms[0]


@pytest.mark.parametrize("t_lo, t_hi", [(0.0, 10.0), (10.0, 20.0)])
def test_stage_gram_matches_simpson_reference(mixed_families, t_lo, t_hi):
    # a period near 4 t_hi is too short for this comparison: the rule's
    # periodic images of the t = 0 peak would enter the Simpson window
    period = 1600.0
    exact = stage_gram(mixed_families, t_lo, t_hi, period)
    scale = np.abs(exact).max()
    assert np.abs(exact - exact.conj().T).max() <= 1e-14 * scale
    # Simpson's error is O(dt^4): it shrinks ~16x per halving towards the
    # exact kernel
    errs = [
        np.abs(simpson_stage(mixed_families, t_lo, t_hi, dt, period) - exact).max()
        for dt in (0.02, 0.01)
    ]
    assert errs[1] < 1e-8 * scale
    assert errs[0] / errs[1] > 12.0


def increments(basis, weight, starts):
    """Stage grams [t, 2t] for t in starts and the total over [0, 2 starts[-1]]
    of six random families."""
    rng = np.random.default_rng(17)
    fams = [
        make_family(random_datum(rng, basis), weight, INTERVAL) for _ in range(6)
    ]
    incs = [stage_gram(fams, t, 2 * t) for t in starts]
    return incs, stage_gram(fams, 0.0, 2 * starts[-1])


def assert_psd(inc, total):
    herm = 0.5 * (inc + inc.conj().T)
    assert np.linalg.eigvalsh(herm).min() >= -1e-12 * np.abs(total).max()


WEIGHTS = pytest.mark.parametrize(
    "weight",
    [interval_weight(INTERVAL), MassWeight(1.5, 0.05)],
    ids=["broad", "narrow"],
)


@WEIGHTS
def test_stage_increments_are_positive_semidefinite(basis, weight):
    # an increment is the Gram matrix of the p-images over its stage set, so
    # the entrywise maximum the stopping rule tests is a diagonal tail mass
    # and cannot be small by cancellation
    incs, total = increments(basis, weight, (200.0, 400.0))
    for inc in incs:
        assert np.abs(inc).max() <= (1 + 1e-12) * inc.diagonal().real.max()
        assert_psd(inc, total)


@WEIGHTS
def test_long_stage_increments_are_positive_semidefinite(basis, weight):
    # long stages sum kernels at arguments above 1e4 rad; on the broad
    # weight these increments are rounding noise (~1e-15), so only the
    # eigenvalue floor is checked
    incs, total = increments(basis, weight, (1600.0, 3200.0))
    for inc in incs:
        assert_psd(inc, total)


def test_gram_matches_mass_decomposition(basis):
    rng = np.random.default_rng(7)
    wgt = interval_weight(INTERVAL)
    fams = [
        make_family(random_datum(rng, basis), wgt, INTERVAL) for _ in range(3)
    ]
    gram, report = spacetime_gram(fams, tol=1e-6)
    assert report.converged
    assert report.final_t <= 1600.0
    rhs = np.array([[rhs_pairing(a, b) for b in fams] for a in fams])
    rel = np.abs(gram - rhs) / np.maximum(np.abs(rhs), 1e-12)
    assert rel.max() < 1e-8
    # Hermitian and positive definite for independent random data
    assert np.abs(gram - gram.conj().T).max() < 1e-12 * np.abs(gram).max()
    assert np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)).min() > 0.0


def test_narrow_gram_is_one_evaluation_on_the_final_rule(basis):
    # the total must come from the final rule alone: summing the increments
    # of the shorter-period rules folds the slow tail of a narrow weight back
    # into the early windows (~7e-5 of the largest entry here)
    rng = np.random.default_rng(7)
    wgt = MassWeight(1.5, 0.05)
    fams = [
        make_family(random_datum(rng, basis), wgt, INTERVAL) for _ in range(3)
    ]
    gram, report = spacetime_gram(fams, tol=1e-11)
    assert report.converged and report.final_t >= 6400.0
    rhs = np.array([[rhs_pairing(a, b) for b in fams] for a in fams])
    assert np.abs(gram - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_library_pairing_matches_local_oracle(basis):
    rng = np.random.default_rng(9)
    wgt = interval_weight(INTERVAL)
    a = make_family(random_datum(rng, basis), wgt, INTERVAL)
    b = make_family(random_datum(rng, basis), wgt, INTERVAL)
    lib, local = mass_decomposition_gram([a, b])[0, 1], rhs_pairing(a, b)
    assert abs(lib - local) < 1e-13 * abs(local)


@WEIGHTS
@pytest.mark.parametrize("n", [8, 16])
def test_mass_kernels_are_the_long_window_limit_per_mode(weight, n):
    # the identity per mode, before any contraction with family data: the
    # adaptive [-T, T] kernels converge to the weight's mass-rule kernels
    lam = dirichlet_basis(n, 10.0).eigenvalues
    powers = np.array([0, 1])
    limit = massfamily._mass_kernels(weight, lam, powers)
    kernels, report = massfamily.adaptive_kernels(
        weight, lam, powers, lambda g: g, 1e-9, massfamily.T_CEILING_DEFAULT
    )
    assert report.converged and kernels.shape == limit.shape == (2, n, 2, 2)
    assert np.abs(kernels - limit).max() <= 1e-12 * np.abs(limit).max()


@WEIGHTS
def test_fixed_gauss_rule_sits_on_its_plateau(basis, weight):
    # the library's trapezoid rule and an independent 100-node Gauss rule
    # agree to rounding, broad or narrow
    rng = np.random.default_rng(21)
    fams = [make_family(random_datum(rng, basis), weight, INTERVAL) for _ in range(3)]
    fams[2] = apply_T(fams[2])
    lib = mass_decomposition_gram(fams)
    local = np.array([[rhs_pairing(a, b, nodes=100) for b in fams] for a in fams])
    assert np.abs(lib - local).max() <= 1e-13 * np.abs(local).max()


@pytest.mark.parametrize(
    "weight", [interval_weight(INTERVAL), MassWeight(1.5, 0.0125)], ids=["broad", "narrow"]
)
def test_doubling_the_mass_rule_moves_the_gram_by_ulps(basis, monkeypatch, weight):
    # the bump vanishes to all orders at its ends, so the trapezoid rule is on
    # its rounding plateau at 256 intervals (at 128 the Gram is 300+ ulps off)
    rng = np.random.default_rng(21)
    fams = [make_family(random_datum(rng, basis), weight, INTERVAL) for _ in range(3)]
    fams[2] = apply_T(fams[2])
    broad, grams, moments = interval_weight(INTERVAL), [], []
    for intervals in (massfamily._INTERVALS, 2 * massfamily._INTERVALS):
        nodes = np.linspace(-1.0, 1.0, intervals + 1)[1:-1]
        monkeypatch.setattr(massfamily, "_INTERVALS", intervals)
        monkeypatch.setattr(massfamily, "_UNIT_NODES", nodes)
        monkeypatch.setattr(massfamily, "_UNIT_VALUES", bump(nodes))
        grams.append(mass_decomposition_gram(fams))
        moments.append([broad.mass_moment(power, sq) for power, sq in FROZEN_MOMENTS])
    largest = np.abs(grams[0]).max()
    assert np.abs(grams[1] - grams[0]).max() <= 8 * np.spacing(largest)
    for found in moments:
        assert found == pytest.approx(list(FROZEN_MOMENTS.values()), abs=1e-14, rel=0.0)


def test_mass_operator_is_symmetric_for_pairing(basis):
    rng = np.random.default_rng(11)
    wgt = interval_weight(INTERVAL)
    a = make_family(random_datum(rng, basis), wgt, INTERVAL)
    b = make_family(random_datum(rng, basis), wgt, INTERVAL)
    lhs = spacetime_gram([apply_T(a), b])[0][0, 1]
    rhs = spacetime_gram([a, apply_T(b)])[0][0, 1]
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)
    assert abs(lhs - rhs_pairing(apply_T(a), b)) < 1e-8 * abs(lhs)


def test_narrow_weight_localizes_pairing():
    # pairing / (weight mass moment) -> fixed-mass scalar product as the
    # weight narrows, with O(half_width^2) error
    basis8 = dirichlet_basis(8, 10.0)
    rng = np.random.default_rng(3)
    da, db = random_datum(rng, basis8), random_datum(rng, basis8)
    ca, cb = da.modes, db.modes
    m0 = 1.5
    om0 = np.sqrt(basis8.eigenvalues + m0**2)
    target = np.pi * np.sum(
        om0 * np.conj(ca[0]) * cb[0] + np.conj(ca[1]) * cb[1] / om0
    )
    errs = []
    for hw in (0.2, 0.1):
        wgt = MassWeight(m0, hw)
        fa = make_family(da, wgt, INTERVAL)
        fb = make_family(db, wgt, INTERVAL)
        gram, report = spacetime_gram([fa, fb], tol=1e-8)
        assert report.converged
        approx = gram[0, 1] / wgt.mass_moment(power=1, squared=True)
        errs.append(abs(approx - target) / abs(target))
    assert errs[1] < 1e-3
    assert errs[0] / errs[1] > 2.5


def test_gram_requires_shared_basis(basis):
    rng = np.random.default_rng(0)
    other = dirichlet_basis(16, 10.0)
    wgt = interval_weight(INTERVAL)
    fam_a = make_family(random_datum(rng, basis), wgt, INTERVAL)
    fam_b = make_family(random_datum(rng, other), wgt, INTERVAL)
    fam_c = make_family(fam_a.base, MassWeight(1.5, 0.5), INTERVAL)  # equal, not shared
    for gram in (spacetime_gram, mass_decomposition_gram):  # one shared check
        with pytest.raises(ValueError, match="share one spectral basis"):
            gram([fam_a, fam_b])
        with pytest.raises(ValueError, match="share one mass weight"):
            gram([fam_a, fam_c])
        with pytest.raises(ValueError, match="no families"):
            gram([])


def test_ceiling_raises_convergence_error(basis):
    rng = np.random.default_rng(5)
    fam = make_family(
        random_datum(rng, basis), interval_weight(INTERVAL), INTERVAL
    )
    with pytest.raises(ConvergenceError, match="did not converge"):
        spacetime_gram([fam], tol=1e-30, t_ceiling=400.0)


def test_first_stage_past_ceiling_raises(basis, monkeypatch):
    # the first stage [T_START, 2 T_START] would end at 400, past the ceiling:
    # no rule is built and no result with final_t > t_ceiling comes back
    def no_rule(*args):
        raise AssertionError("a stage past t_ceiling was built")

    rng = np.random.default_rng(5)
    fam = make_family(
        random_datum(rng, basis), interval_weight(INTERVAL), INTERVAL
    )
    monkeypatch.setattr(massfamily, "_uniform_rule", no_rule)
    with pytest.raises(ConvergenceError, match="did not converge by T = 200"):
        spacetime_gram([fam], t_ceiling=300.0)


@pytest.mark.parametrize("start", [0.01, 1e-9, 1e-300])
def test_short_first_window_does_not_end_the_doubling(basis, monkeypatch, start):
    # the increment of a short stage is small only because the stage is: the
    # doubling may stop only once every mode has dephased over the window
    monkeypatch.setattr(massfamily, "T_START", start)
    rng = np.random.default_rng(7)
    wgt = interval_weight(INTERVAL)
    fams = [make_family(random_datum(rng, basis), wgt, INTERVAL) for _ in range(3)]
    gram, report = spacetime_gram(fams, tol=1e-6)
    rhs = np.array([[rhs_pairing(a, b) for b in fams] for a in fams])
    assert report.converged
    assert np.abs(gram - rhs).max() <= 1e-8 * np.abs(rhs).max()
    spread = massfamily._spread(wgt, basis.eigenvalues)
    assert report.final_t * spread.min() >= 2 * np.pi


def test_short_first_window_skips_to_its_first_dephased_grid_point(basis, monkeypatch):
    # from T_START = 0.01, the first stage that ends with every mode dephased
    # is [10.24, 20.48]: the skip builds no rule before it, and the Gram,
    # final_t and stage records are those of a run that starts at 10.24
    rng = np.random.default_rng(7)
    wgt = interval_weight(INTERVAL)
    fams = [make_family(random_datum(rng, basis), wgt, INTERVAL) for _ in range(3)]
    narrowest = massfamily._spread(wgt, basis.eigenvalues).min()
    assert 10.24 * narrowest < 2 * np.pi <= 20.48 * narrowest
    monkeypatch.setattr(massfamily, "T_START", 0.01)
    gram, report = spacetime_gram(fams)
    monkeypatch.setattr(massfamily, "T_START", 10.24)
    seeded, seeded_report = spacetime_gram(fams)
    assert gram.tobytes() == seeded.tobytes()
    assert report.final_t == seeded_report.final_t
    assert report.stages == seeded_report.stages
    assert [(r.t_lo, r.t_hi, r.period, r.nodes, r.increment) for r in report.records] == [
        (r.t_lo, r.t_hi, r.period, r.nodes, r.increment) for r in seeded_report.records
    ]


def test_no_stage_is_built_before_every_mode_dephases(monkeypatch):
    # reconstruct's weights at n = 64 have not dephased by 2 T_START, where
    # the first stage ends: the doubling skips to the first stage that ends
    # dephased. A rule of period P serves the stage that ends at
    # P / RULE_PERIOD_RATIO
    built = []
    rule = massfamily._uniform_rule

    def counted(weight, lam, powers, period, nodes):
        built.append(period / massfamily.RULE_PERIOD_RATIO)
        return rule(weight, lam, powers, period, nodes)

    monkeypatch.setattr(massfamily, "_uniform_rule", counted)
    basis64 = dirichlet_basis(64, 10.0)
    for half_width, first in ((0.05, 800.0), (0.025, 1600.0)):
        wgt = MassWeight(1.5, half_width)
        narrowest = massfamily._spread(wgt, basis64.eigenvalues).min()
        assert first / 2 * narrowest < 2 * np.pi <= first * narrowest
        built.clear()
        _, report = signature_reconstruct(1.5, basis64, half_width)
        assert min(built) == first == report.records[0].t_hi
        assert len(built) == len(report.records)


def test_dephasing_stall_names_the_t_it_needs():
    # the narrowest mode of a 1e-9 wide interval dephases only past the
    # ceiling: the skip reaches it and no stage is built
    basis = dirichlet_basis(4, 10.0)
    interval = MassInterval(1.999999999, 2.0)
    wgt = interval_weight(interval)
    fam = make_family(random_datum(np.random.default_rng(5), basis), wgt, interval)
    need = 2 * np.pi / massfamily._spread(wgt, basis.eigenvalues).min()
    assert need > 1e9
    with pytest.raises(ConvergenceError) as err:
        spacetime_gram([fam])
    assert "did not converge by T = 51200" in str(err.value)
    assert "not every mode has dephased" in str(err.value)
    assert f"it needs T = 2 pi / min spread = {need:g}" in str(err.value)
    # a stall over dephased stages is the increment's, and does not blame dephasing
    wide = interval_weight(INTERVAL)
    fam = make_family(random_datum(np.random.default_rng(5), basis), wide, INTERVAL)
    with pytest.raises(ConvergenceError, match="did not converge by T = 400") as err:
        spacetime_gram([fam], tol=0.0, t_ceiling=400.0)
    assert "dephased" not in str(err.value)
    # masses whose squares underflow have no spread at all
    tiny = MassInterval(1e-170, 2e-170)
    fam = make_family(random_datum(np.random.default_rng(5), basis), interval_weight(tiny), tiny)
    assert not massfamily._spread(fam.weight, basis.eigenvalues).any()
    with pytest.raises(ConvergenceError, match="min spread rounds to 0, so no T dephases"):
        spacetime_gram([fam])


def test_non_finite_increment_raises_naming_the_stage(basis, monkeypatch):
    # a rule whose kernels are NaN stands in for an overflowing one
    def nan_rule(weight, lam, powers, period, nodes):
        return lambda t_lo, t_hi: np.full((2, lam.size, powers.size, powers.size), np.nan)

    fam = make_family(
        random_datum(np.random.default_rng(5), basis), interval_weight(INTERVAL), INTERVAL
    )
    monkeypatch.setattr(massfamily, "_uniform_rule", nan_rule)
    with pytest.raises(ConvergenceError, match=r"non-finite increment in stage \[200, 400\]"):
        spacetime_gram([fam])


def test_family_basis_is_its_base_datum_basis(basis):
    datum = random_datum(np.random.default_rng(2), basis)
    fam = make_family(datum, interval_weight(INTERVAL), INTERVAL)
    assert fam.basis is datum.basis is basis
    assert apply_T(fam).basis is basis


def _five_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def test_fast_len_is_the_next_five_smooth_integer():
    for n in range(1, 2001):
        assert massfamily._fast_len(n) == next(k for k in range(n, 2 * n + 1) if _five_smooth(k))


@pytest.mark.parametrize("nodes", [26, 250])  # 2 nodes - 1 = 51, 499 (prime)
def test_padded_stage_kernels_match_the_direct_double_sum(nodes):
    # the rule FFTs run at the padded lengths 54 and 500
    lam = dirichlet_basis(8, 10.0).eigenvalues
    weight = MassWeight(1.5, 0.2)
    powers = np.array([0, 1])
    period = 2 * np.pi * (nodes - 1) / massfamily._spread(weight, lam).max()
    stage = massfamily._uniform_rule(weight, lam, powers, period, nodes)
    step, lo = 2 * np.pi / period, weight.center - weight.half_width
    q = np.arange(nodes)
    om_lo = np.sqrt(lam + lo**2)[:, None]
    w = om_lo + step * q  # (N, Q)
    m = np.sqrt(lo**2 + step * q * (2 * om_lo + step * q))
    u = (step * w * weight.profile(m))[:, None, :] * m[:, None, :] ** powers[:, None]
    v = u / w[:, None, :]
    diff = step * (q[:, None] - q[None, :])  # w_q - w_q', exact on the grid

    def direct_sum(t_lo, t_hi, absolute=False):
        """O(Q^2) sums of u K(w_q -+ w_q') u'; with `absolute`, of |u| |K| |u'|,
        the rounding scale of either sum."""
        def kernel(x):
            safe = np.where(x == 0.0, 1.0, x)
            return np.where(
                x == 0.0, t_hi - t_lo, (np.sin(x * t_hi) - np.sin(x * t_lo)) / safe
            )

        near = kernel(diff)
        far = kernel(2 * om_lo[:, :, None] + step * (q[:, None] + q[None, :]))
        pairs = [(u, near + far), (v, near - far)]
        if absolute:
            pairs = [(np.abs(x), np.abs(near) + np.abs(far)) for x, _ in pairs]
        return np.stack([np.einsum("nkq,nqr,nlr->nkl", x, k, x) for x, k in pairs])

    for t_lo, t_hi in [(0.0, period / 4), (period / 8, period / 4)]:
        err = np.abs(stage(t_lo, t_hi) - direct_sum(t_lo, t_hi))
        assert np.all(err <= 1e-13 * direct_sum(t_lo, t_hi, absolute=True))
    # the [-T, T] kernels, far from cancellation, also match relatively
    total = direct_sum(0.0, period / 4)
    assert np.abs(stage(0.0, period / 4) - total).max() <= 1e-13 * np.abs(total).max()
