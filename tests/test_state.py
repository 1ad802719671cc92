"""Two-point function, positivity, commutation relations, Wick rule."""

import itertools
import tracemalloc

import numpy as np
import pytest

from kgsig.dynamics import (
    SpacetimeTestFunction,
    apply_mode_blocks,
    causal_fundamental,
    time_window,
)
from kgsig.lattice import SINE_FFT_MIN_POINTS, dirichlet_basis
from kgsig.random_fields import Draws, random_test_function
from kgsig.state import (
    build_state,
    pair_matchings,
    pair_matrix,
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


def test_gram_positive_semidefinite(state, basis, times):
    fs = random_test_function(Draws(0), basis, times, real=True, size=6)
    report = state_positivity_suite(state, fs)
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
    return 1j * symplectic(gf, apply_mode_blocks(state.hol_blocks, gg))


def mixed_stack(rng, basis, times, count=5):
    """`count` real sources, then `count` complex ones, as one stack."""
    real = random_test_function(rng, basis, times, real=True, size=count)
    cplx = random_test_function(rng, basis, times, size=count)
    profiles = np.concatenate([real.profiles, cplx.profiles])
    return SpacetimeTestFunction(times, profiles, np.concatenate([real.shapes, cplx.shapes]), basis)


def test_two_point_matrix_matches_pairwise_reference(state, basis, times):
    rng = np.random.default_rng(8)
    fs = mixed_stack(rng, basis, times)
    matrix = two_point_matrix(state, fs)
    assert matrix.shape == (10, 10)
    for i in range(10):
        for j in range(10):
            assert matrix[i, j] == reference_pair(state, fs[i], fs[j])
            assert matrix[i, j] == two_point(state, fs[i], fs[j])
    for count in (2, 4, 6):
        assert sum(wick_terms(state, fs[:count]), 0j) == wick_n_point(state, fs[:count])


def test_two_point_matrix_rejects_foreign_basis_anywhere(state, basis, times):
    rng = np.random.default_rng(9)
    fs = random_test_function(rng, basis, times, size=3)
    # same parameters, distinct object: the basis check is by identity
    foreign = random_test_function(rng, dirichlet_basis(16, 10.0), times, size=3)
    calls = (
        lambda: two_point_matrix(state, foreign),
        lambda: two_point(state, fs[0], foreign[0]),
        lambda: two_point(state, foreign[0], fs[0]),
        lambda: wick_terms(state, foreign[:2]),
        lambda: wick_n_point(state, foreign[:2]),
    )
    for call in calls:
        with pytest.raises(ValueError, match="different basis"):
            call()


@pytest.mark.parametrize("n, length", [(16, 20.0), (8, 10.0)])
def test_pair_matrix_rejects_data_solved_on_another_basis(state, times, n, length):
    # paired with the state's projector blocks, data of another basis gave a
    # (3, 3) matrix at n = 16 and numpy's broadcast error at n = 8
    fs = random_test_function(Draws(19), dirichlet_basis(n, length), times, real=True, size=3)
    with pytest.raises(ValueError, match="test functions live on a different basis"):
        pair_matrix(state, causal_fundamental(fs, MASS))


@pytest.mark.parametrize("n", [64, 768])
def test_two_point_matrix_entries_do_not_depend_on_the_batch(n):
    # A9's exact four == direct compares batched entries with 2 x 2 ones;
    # n = 64 runs the sine table, n = 768 the FFT
    assert (n >= SINE_FFT_MIN_POINTS) == (n == 768)
    basis = dirichlet_basis(n, 10.0)
    state = build_state(MASS, basis)
    rng = np.random.default_rng(10)
    times = time_window(-3.0, 3.0, 0.05)
    fs = mixed_stack(rng, basis, times)
    matrix = two_point_matrix(state, fs)
    for i, j in itertools.combinations(range(10), 2):
        pair = two_point_matrix(state, fs[[i, j]])
        np.testing.assert_array_equal(pair, matrix[np.ix_([i, j], [i, j])])


def test_two_point_matrix_rejects_an_empty_stack_and_a_single_source(state, basis, times):
    fs = random_test_function(np.random.default_rng(12), basis, times, size=3)
    for bad in (fs[:0], fs[0], fs[None]):  # empty, one source, (1, 3, J, N)
        with pytest.raises(ValueError, match="stack of K >= 1"):
            two_point_matrix(state, bad)
        with pytest.raises(ValueError, match="stack of K >= 1"):
            pair_matrix(state, causal_fundamental(bad, MASS))


def test_two_point_matrix_memory_stays_near_one_source():
    # a stack of 40 sources on 241 nodes and 64 modes, as in the bench state
    # config: the solve contracts each source's (3, J) profiles with a (J, N)
    # table and makes no temporary of the stack's (40, J, N) size
    basis = dirichlet_basis(64, 10.0)
    state = build_state(MASS, basis)
    rng = np.random.default_rng(13)
    times = time_window(-3.0, 3.0, 0.025)
    fs = random_test_function(rng, basis, times, real=True, size=40)
    source_bytes = times.size * basis.size * np.dtype(float).itemsize
    two_point_matrix(state, fs[:2])  # builds the cached mode table
    tracemalloc.start()
    try:
        two_point_matrix(state, fs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fs.shape == (40,) and times.size == 241
    assert peak < 8 * source_bytes


def test_positivity_suite_memory_stays_near_one_source():
    # the bench state config, 40 sources of (241, 64) float64: the suite
    # solves them from their factors and builds no (40, 241, 64) stack
    basis = dirichlet_basis(64, 10.0)
    state = build_state(MASS, basis)
    times = time_window(-3.0, 3.0, 0.025)
    source_bytes = 241 * basis.size * np.dtype(float).itemsize
    # builds the cached mode table
    state_positivity_suite(state, random_test_function(Draws(0), basis, times, real=True, size=2))
    tracemalloc.start()
    try:  # the bound covers the draw as well as the solve
        fs = random_test_function(Draws(0), basis, times, real=True, size=40)
        report = state_positivity_suite(state, fs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.gram.shape == (40, 40)
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
    fs = random_test_function(rng, basis, times, size=2)
    assert wick_n_point(state, fs) == two_point(state, fs[0], fs[1])


def test_wick_four_point_three_terms(state, basis, times):
    rng = np.random.default_rng(6)
    fs = random_test_function(rng, basis, times, size=4)
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
    fs = random_test_function(rng, basis, times, size=3)
    assert wick_n_point(state, fs) == 0j
    assert wick_n_point(state, fs[:0]) == 1 + 0j
    for wick in (wick_n_point, wick_terms):  # the cap sits in wick_terms
        with pytest.raises(ValueError, match="more than 8"):
            wick(state, fs[[0] * 10])
    with pytest.raises(ValueError, match="stack of K"):
        wick_n_point(state, fs[0])  # one source, not a stack of J of them
