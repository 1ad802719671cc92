"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line with the measured numbers next to the required tolerance.

Tolerances are fixed here and nowhere else; the tests compute the measured
quantity first, record the line, then assert, so a failing criterion still
reports its numbers.
"""

import time

import numpy as np

from kgsig.dynamics import causal_fundamental, gm_form, propagate, time_window
from kgsig.lattice import dirichlet_basis
from kgsig.massfamily import (
    MassInterval,
    interval_weight,
    make_family,
    mass_decomposition_gram,
    spacetime_gram,
)
from kgsig.minkowski import cross_check_lattice
from kgsig.random_fields import Draws, random_datum, random_test_function
from kgsig.signature import (
    assemble,
    massless_limit,
    scalar_product,
    signature_analytic,
    signature_reconstruct,
)
from kgsig.state import build_state, pair_matchings, state_positivity_suite, two_point, wick_n_point
from kgsig.symplectic import symplectic

import pytest


@pytest.fixture(scope="module")
def basis16():
    return dirichlet_basis(16, 10.0)


def test_a1_mass_decomposition(basis16, criterion):
    started = time.monotonic()
    interval = MassInterval(1.0, 2.0)
    weight = interval_weight(interval)
    rng = np.random.default_rng(11)
    families = [
        make_family(random_datum(rng, basis16), weight, interval)
        for _ in range(5)
    ]
    gram, report = spacetime_gram(families, tol=1e-6)
    mass = mass_decomposition_gram(families)
    worst = 0.0
    pairs = 0
    for i in range(5):
        for j in range(i + 1, 5):
            rhs = mass[i, j]
            worst = max(worst, abs(gram[i, j] - rhs) / abs(rhs))
            pairs += 1
    elapsed = time.monotonic() - started
    ok = worst <= 1e-3 and pairs == 10 and report.converged and elapsed <= 120.0
    criterion(
        "A1 mass decomposition",
        ok,
        f"max rel err {worst:.3e} <= 1e-3 over {pairs} pairs, "
        f"T = {report.final_t:g}, {elapsed:.1f} s <= 120 s",
    )


def test_a2_signature_spectrum(basis16, criterion):
    sig = signature_analytic(1.0, basis16)
    dense = assemble(sig)
    vals = np.linalg.eigvals(dense)
    n = basis16.size
    n_minus = int(np.sum(np.abs(vals + np.pi) <= 1e-10))
    n_plus = int(np.sum(np.abs(vals - np.pi) <= 1e-10))
    eig_dev = float(
        np.abs(np.where(vals.real < 0, vals + np.pi, vals - np.pi)).max()
    )
    span_dev = 0.0
    for k in range(n):
        w = sig.frequencies[k]
        for sgn, target in ((1.0, -np.pi), (-1.0, np.pi)):
            u = np.zeros(2 * n)
            u[2 * k], u[2 * k + 1] = 1.0, sgn * w
            resid = np.linalg.norm(dense @ u - target * u) / np.linalg.norm(u)
            span_dev = max(span_dev, float(resid))
    ok = eig_dev <= 1e-10 and n_minus == n and n_plus == n and span_dev <= 1e-10
    criterion(
        "A2 signature spectrum",
        ok,
        f"eigenvalue dev {eig_dev:.3e} <= 1e-10, multiplicities "
        f"{n_minus}/{n_plus} = {n}/{n}, eigenspace dev {span_dev:.3e} <= 1e-10",
    )


def test_a3_dual_route_pairing(basis16, criterion):
    mass = 1.0

    def residuals(dt):
        rng = np.random.default_rng(13)
        times = time_window(-3.0, 3.0, dt)
        out = []
        for _ in range(10):
            f = random_test_function(rng, basis16, times)
            g = random_test_function(rng, basis16, times)
            lhs = gm_form(f, g, mass)
            rhs = symplectic(causal_fundamental(f, mass), causal_fundamental(g, mass))
            out.append((abs(lhs - rhs), max(1.0, abs(lhs))))
        return out

    coarse = residuals(0.05)
    fine = residuals(0.025)
    worst_rel = max(r / scale for r, scale in coarse)
    ratio = max(r for r, _ in coarse) / max(r for r, _ in fine)
    ok = worst_rel <= 1e-6 and ratio >= 3.0
    criterion(
        "A3 dual-route pairing",
        ok,
        f"max scaled residual {worst_rel:.3e} <= 1e-6 over 10 pairs, "
        f"dt-halving ratio {ratio:.1f} >= 3",
    )


def test_a4_state_properties(criterion):
    basis = dirichlet_basis(32, 10.0)
    state = build_state(1.0, basis)
    times = time_window(-3.0, 3.0, 0.05)
    suite = state_positivity_suite(
        state, random_test_function(Draws(5), basis, times, real=True, size=20)
    )
    rng = np.random.default_rng(17)
    im_worst = ccr_worst = 0.0
    for _ in range(5):
        f = random_test_function(rng, basis, times, real=True)
        g = random_test_function(rng, basis, times, real=True)
        w_fg = two_point(state, f, g)
        half_sym = 0.5 * symplectic(causal_fundamental(f, 1.0), causal_fundamental(g, 1.0))
        im_worst = max(im_worst, abs(w_fg.imag - half_sym))
        anti = w_fg - two_point(state, g, f)
        ccr_worst = max(ccr_worst, abs(anti - 1j * gm_form(f, g, 1.0)))
    ok = suite.min_eigenvalue >= -1e-8 and im_worst <= 1e-6 and ccr_worst <= 1e-6
    criterion(
        "A4 state properties",
        ok,
        f"Gram min eig {suite.min_eigenvalue:+.3e} >= -1e-8 (20 functions), "
        f"Im identity {im_worst:.3e} <= 1e-6, commutator {ccr_worst:.3e} <= 1e-6",
    )


def test_a5_massless_limit(basis16, criterion):
    _, table = massless_limit(basis16)
    decreasing = bool(np.all(np.diff(table.norms) < 0.0))
    within = bool(
        np.all(table.norms <= 2.0 * table.bounds)
        and np.all(table.mode_norms <= 2.0 * table.mode_bounds)
    )
    ok = decreasing and within
    criterion(
        "A5 massless limit",
        ok,
        f"norms {np.array2string(table.norms, precision=3)} strictly "
        f"decreasing = {decreasing}, within 2x of bound table = {within}",
    )


def test_a6_reconstruction(basis16, criterion):
    started = time.monotonic()
    mass = 1.5
    wide, tight = MassInterval(0.5, 2.5), MassInterval(0.9, 2.1)
    analytic = signature_analytic(mass, basis16)
    rec_w, _ = signature_reconstruct(mass, basis16, 0.05, tol=1e-3, interval=wide)
    rec_h, _ = signature_reconstruct(mass, basis16, 0.025, tol=1e-3, interval=wide)
    rec_t, _ = signature_reconstruct(mass, basis16, 0.05, tol=1e-3, interval=tight)
    dev = float(np.abs(rec_w.blocks - analytic.blocks).max())
    dev_half = float(np.abs(rec_h.blocks - analytic.blocks).max())
    cross = float(np.abs(rec_w.blocks - rec_t.blocks).max())
    elapsed = time.monotonic() - started
    ok = dev <= 1e-3 and dev_half < dev and cross <= 1e-3 and elapsed <= 300.0
    criterion(
        "A6 reconstruction",
        ok,
        f"deviation {dev:.3e} <= 1e-3 at width 0.05, {dev_half:.3e} at 0.025, "
        f"interval independence {cross:.3e} <= 1e-3, {elapsed:.0f} s <= 300 s",
    )


def test_a7_minkowski_cross_check(basis16, criterion):
    worst = 0.0
    for mass in (1.0, 0.25, 0.0):
        report = cross_check_lattice(mass, basis16)
        worst = max(worst, report.max_block_deviation)
    ok = worst <= 1e-14
    criterion(
        "A7 Minkowski cross-check",
        ok,
        f"max per-mode block deviation {worst:.3e} <= 1e-14 "
        f"over masses (1, 0.25, 0)",
    )


def test_a8_conservation(basis16, criterion):
    mass = 1.0
    sig = signature_analytic(mass, basis16)
    rng = np.random.default_rng(8)
    a, b = random_datum(rng, basis16), random_datum(rng, basis16)
    ref_sym = symplectic(a, b)
    ref_norm = scalar_product(sig, a, a)
    sym_drift = norm_drift = 0.0
    for t in np.linspace(0.0, 100.0, 11):
        at = propagate(a, float(t), mass)
        bt = propagate(b, float(t), mass)
        sym_drift = max(sym_drift, abs(symplectic(at, bt) - ref_sym) / abs(ref_sym))
        norm_drift = max(
            norm_drift, abs(scalar_product(sig, at, at) - ref_norm) / abs(ref_norm)
        )
    ok = sym_drift <= 1e-11 and norm_drift <= 1e-11
    criterion(
        "A8 conservation",
        ok,
        f"symplectic drift {sym_drift:.3e} <= 1e-11, norm drift "
        f"{norm_drift:.3e} <= 1e-11 over t in [0, 100]",
    )


def test_a9_wick_combinatorics(criterion):
    basis = dirichlet_basis(8, 10.0)
    state = build_state(1.0, basis)
    rng = np.random.default_rng(19)
    times = time_window(-3.0, 3.0, 0.05)
    fs = random_test_function(rng, basis, times, size=4)  # one (4, J, N) stack
    w = {
        (i, j): two_point(state, fs[i], fs[j])
        for i in range(4)
        for j in range(i + 1, 4)
    }
    direct = (
        w[0, 1] * w[2, 3] + w[0, 2] * w[1, 3] + w[0, 3] * w[1, 2]
    )
    four = wick_n_point(state, fs)
    odd = wick_n_point(state, fs[:3])
    counts = [len(pair_matchings(2 * n)) for n in (1, 2, 3, 4)]
    ok = four == direct and odd == 0j and counts == [1, 3, 15, 105]
    criterion(
        "A9 Wick combinatorics",
        ok,
        f"n=2 three-term exact ({abs(four - direct):.1e}), odd input -> "
        f"{odd}, matching counts {counts} = double factorials",
    )
