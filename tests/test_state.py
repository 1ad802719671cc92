"""Two-point function, positivity, commutation relations, Wick rule."""

import itertools
import tracemalloc

import numpy as np
import pytest

from kgsig.dynamics import causal_fundamental, oscillator_table, time_window
from kgsig.lattice import SINE_FFT_MIN_POINTS, dirichlet_basis
from kgsig.random_fields import random_test_function
from kgsig.state import (
    _project_hol,
    build_state,
    causal_data,
    pair_matchings,
    state_positivity_suite,
    two_point,
    two_point_matrix,
    wick_n_point,
    wick_terms,
)
from kgsig.symplectic import gm_form, symplectic

MASS = 1.0


@pytest.fixture(scope="module")
def basis():
    return dirichlet_basis(16, 10.0)


@pytest.fixture(scope="module")
def state(basis):
    return build_state(MASS, basis)


@pytest.fixture(scope="module")
def times():
    return time_window(-3.0, 3.0, 0.05)


def test_single_function_positivity(state, basis, times):
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = random_test_function(rng, basis, times, real=True)
        val = two_point(state, f, f)
        assert val.real > 0.0
        assert abs(val.imag) < 1e-13 * val.real


def test_gram_positive_semidefinite(state):
    report = state_positivity_suite(state, seed=0, trials=6)
    assert report.min_eigenvalue > -1e-10
    assert report.hermiticity_defect < 1e-13
    assert report.diag_imag_max < 1e-13


def test_imaginary_part_is_half_symplectic(state, basis, times):
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = random_test_function(rng, basis, times, real=True)
        g = random_test_function(rng, basis, times, real=True)
        lhs = two_point(state, f, g).imag
        rhs = 0.5 * symplectic(causal_fundamental(f, MASS), causal_fundamental(g, MASS))
        assert abs(lhs - rhs) < 1e-12
        assert abs(rhs.imag) < 1e-12


def test_antisymmetric_part_gives_commutator(state, basis, times):
    # the only genuinely independent route: the right side integrates the
    # causal solution over spacetime instead of pairing data at time zero
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = random_test_function(rng, basis, times, real=True)
        g = random_test_function(rng, basis, times, real=True)
        anti = two_point(state, f, g) - two_point(state, g, f)
        assert abs(anti - 1j * gm_form(f, g, MASS)) < 1e-6


def test_two_point_sesquilinear(state, basis, times):
    rng = np.random.default_rng(3)
    f = random_test_function(rng, basis, times)
    g = random_test_function(rng, basis, times)
    alpha, beta = 0.7 - 1.3j, -0.4 + 0.9j
    ref = two_point(state, f, g)
    scaled = two_point(state, f * alpha, g * beta)
    assert abs(scaled - np.conj(alpha) * beta * ref) < 1e-12 * abs(ref)
    tenfold = two_point(state, f * 10.0, f * 10.0)
    assert abs(tenfold - 100.0 * two_point(state, f, f)) < 1e-10 * abs(tenfold)


def test_two_point_rejects_foreign_basis(state, times):
    other = dirichlet_basis(8, 10.0)
    rng = np.random.default_rng(4)
    f = random_test_function(rng, other, times)
    with pytest.raises(ValueError, match="different basis"):
        two_point(state, f, f)


def reference_pair(state, f, g):
    """omega2(f, g) one pair at a time: two causal solves, no batching."""
    gf = causal_fundamental(f, state.mass)
    gg = causal_fundamental(g, state.mass)
    return 1j * symplectic(gf, _project_hol(state, gg))


def test_two_point_matrix_matches_pairwise_reference(state, basis, times):
    rng = np.random.default_rng(8)
    fs = [random_test_function(rng, basis, times, real=True) for _ in range(5)]
    fs += [random_test_function(rng, basis, times) for _ in range(5)]
    matrix = two_point_matrix(state, fs)
    assert matrix.shape == (10, 10)
    for i, f in enumerate(fs):
        for j, g in enumerate(fs):
            assert matrix[i, j] == reference_pair(state, f, g)
    for count in (2, 4, 6):
        assert sum(wick_terms(state, fs[:count]), 0j) == wick_n_point(state, fs[:count])


def test_two_point_matrix_rejects_foreign_basis_anywhere(state, basis, times):
    rng = np.random.default_rng(9)
    fs = [random_test_function(rng, basis, times) for _ in range(3)]
    # same parameters, distinct object: the basis check is by identity
    foreign = random_test_function(rng, dirichlet_basis(16, 10.0), times)
    for pos in range(4):
        with pytest.raises(ValueError, match="different basis"):
            two_point_matrix(state, fs[:pos] + [foreign] + fs[pos:])


@pytest.mark.parametrize("n", [64, 768])
def test_two_point_matrix_entries_do_not_depend_on_the_batch(n):
    # A9's exact four == direct compares batched entries with 2 x 2 ones;
    # n = 64 runs the sine table, n = 768 the FFT
    assert (n >= SINE_FFT_MIN_POINTS) == (n == 768)
    basis = dirichlet_basis(n, 10.0)
    state = build_state(MASS, basis)
    rng = np.random.default_rng(10)
    times = time_window(-3.0, 3.0, 0.05)
    fs = [random_test_function(rng, basis, times, real=k < 5) for k in range(10)]
    matrix = two_point_matrix(state, fs)
    for i, j in itertools.combinations(range(10), 2):
        pair = two_point_matrix(state, [fs[i], fs[j]])
        np.testing.assert_array_equal(pair, matrix[np.ix_([i, j], [i, j])])


def test_a_shared_oscillator_table_changes_no_bit_of_a_solve(state, basis, times):
    rng = np.random.default_rng(11)
    fs = [random_test_function(rng, basis, times) for _ in range(4)]
    table = oscillator_table(basis, times, MASS)
    for f, shared in zip(fs, causal_data(state, fs)):
        alone = causal_fundamental(f, MASS)
        for single in (shared, causal_fundamental(f, MASS, table)):
            np.testing.assert_array_equal(single.modes, alone.modes)


def test_causal_data_rejects_mixed_windows_and_empty_input(state, basis, times):
    rng = np.random.default_rng(12)
    f = random_test_function(rng, basis, times)
    # same node count, shifted nodes; then a different node count
    for other in (time_window(-2.0, 4.0, 0.05), time_window(-4.0, 4.0, 0.05)):
        g = random_test_function(rng, basis, other)
        with pytest.raises(ValueError, match="one shared time window"):
            two_point_matrix(state, [f, g])
    with pytest.raises(ValueError, match="one shared time window"):
        causal_data(state, [])


def test_two_point_matrix_memory_stays_near_one_source():
    # 40 sources of 241 nodes x 64 points, as in the bench state config;
    # holding every source's (J, N) modes at once would need at least 9.4 MiB
    basis = dirichlet_basis(64, 10.0)
    state = build_state(MASS, basis)
    rng = np.random.default_rng(13)
    times = time_window(-3.0, 3.0, 0.025)
    fs = [random_test_function(rng, basis, times, real=True) for _ in range(40)]
    source_bytes = fs[0].modes.nbytes
    two_point_matrix(state, fs[:2])  # builds the cached mode table
    tracemalloc.start()
    try:
        two_point_matrix(state, fs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert times.size == 241
    assert peak < 8 * source_bytes


def test_matching_counts():
    assert [len(pair_matchings(2 * n)) for n in range(5)] == [1, 1, 3, 15, 105]
    for matching in pair_matchings(6):
        firsts = [pair[0] for pair in matching]
        assert firsts == sorted(firsts)
        assert all(i < j for i, j in matching)
    with pytest.raises(ValueError, match="even"):
        pair_matchings(3)


def test_matchings_against_brute_force_enumeration():
    # independent oracle: filter all permutations down to the canonical form
    # (ordered pairs, increasing first members)
    from itertools import permutations

    brute = set()
    for p in permutations(range(6)):
        pairs = tuple((p[2 * k], p[2 * k + 1]) for k in range(3))
        if all(i < j for i, j in pairs) and pairs[0][0] < pairs[1][0] < pairs[2][0]:
            brute.add(pairs)
    assert brute == {tuple(m) for m in pair_matchings(6)}


def test_wick_two_point_reduction(state, basis, times):
    rng = np.random.default_rng(5)
    f, g = (random_test_function(rng, basis, times) for _ in range(2))
    assert wick_n_point(state, [f, g]) == two_point(state, f, g)


def test_wick_four_point_three_terms(state, basis, times):
    rng = np.random.default_rng(6)
    fs = [random_test_function(rng, basis, times) for _ in range(4)]
    direct = (
        two_point(state, fs[0], fs[1]) * two_point(state, fs[2], fs[3])
        + two_point(state, fs[0], fs[2]) * two_point(state, fs[1], fs[3])
        + two_point(state, fs[0], fs[3]) * two_point(state, fs[1], fs[2])
    )
    value = wick_n_point(state, fs)
    assert value == direct
    # the sum must not depend on the enumeration order of the matchings
    resummed = 0j
    for matching in reversed(pair_matchings(4)):
        term = 1 + 0j
        for i, j in matching:
            term *= two_point(state, fs[i], fs[j])
        resummed += term
    assert abs(resummed - value) < 1e-12 * abs(value)


def test_wick_odd_and_guard(state, basis, times):
    rng = np.random.default_rng(7)
    fs = [random_test_function(rng, basis, times) for _ in range(3)]
    assert wick_n_point(state, fs) == 0j
    assert wick_n_point(state, []) == 1 + 0j
    with pytest.raises(ValueError, match="more than 8"):
        wick_n_point(state, [fs[0]] * 10)
