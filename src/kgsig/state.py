"""Projector state of the quantized field: two-point function and Wick rule.

The two-point function pairs causal solutions through the holomorphic
projector, omega2(f, g) = i sigma(G f, chi_hol G g). Its real part is a
positive semi-definite Gram form on test functions; the imaginary part is
half the symplectic pairing of the causal solutions, which encodes the
canonical commutation relations. Higher correlation functions follow from
the quasi-free (Wick) combinatorics: a sum over perfect matchings. Test
functions come as a (K,) stack of sources, each held as its terms' time
profiles and spatial shapes; the caller draws them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dynamics import CauchyDatum, SpacetimeTestFunction, apply_mode_blocks, causal_fundamental
from .lattice import SpectralBasis
from .signature import complex_structure, projectors, signature_analytic
from .symplectic import symplectic


class TwoPointEvaluator(NamedTuple):
    """The mass, basis, and holomorphic projector of the state."""

    mass: float
    basis: SpectralBasis
    hol_blocks: np.ndarray  # (N, 2, 2) complex


def build_state(mass: float, basis: SpectralBasis) -> TwoPointEvaluator:
    sig = signature_analytic(mass, basis)
    hol, _ = projectors(complex_structure(sig))
    return TwoPointEvaluator(mass=mass, basis=basis, hol_blocks=hol)


def _check_basis(state: TwoPointEvaluator, data: SpacetimeTestFunction | CauchyDatum) -> None:
    if data.basis is not state.basis:
        raise ValueError("test functions live on a different basis")


def _solve(state: TwoPointEvaluator, fs: SpacetimeTestFunction) -> CauchyDatum:
    """The t = 0 causal data G f of a source or a stack, on the state's basis."""
    _check_basis(state, fs)
    return causal_fundamental(fs, state.mass)


def two_point_matrix(state: TwoPointEvaluator, fs: SpacetimeTestFunction) -> np.ndarray:
    """(K, K) matrix of omega2(f_i, f_j) of a (K,) stack; both triangles
    are evaluated, so it is Hermitian only up to rounding."""
    return pair_matrix(state, _solve(state, fs))


def pair_matrix(state: TwoPointEvaluator, solved: CauchyDatum) -> np.ndarray:
    """`two_point_matrix` from the (K, 2, N) causal data G f_i: row i is
    i sigma(G f_i, chi_hol G f_j) over the stack, so entries do not depend on
    the batch, and one row at a time keeps the work at K x N."""
    _check_basis(state, solved)
    if solved.modes.ndim != 3 or not len(solved.modes):
        raise ValueError(f"need a stack of K >= 1 test functions, got {solved.modes.shape}")
    hol = apply_mode_blocks(state.hol_blocks, solved)
    return np.array([1j * symplectic(solved[i], hol) for i in range(len(solved.modes))])


def two_point(
    state: TwoPointEvaluator, f: SpacetimeTestFunction, g: SpacetimeTestFunction
) -> complex | np.ndarray:
    """omega2(f, g) = i sigma(G f, chi_hol G g) evaluated at time zero,
    broadcast over stacks."""
    hol_g = apply_mode_blocks(state.hol_blocks, _solve(state, g))
    return 1j * symplectic(_solve(state, f), hol_g)


def pair_matchings(count: int) -> list[list[tuple[int, int]]]:
    """Perfect matchings of range(count) in canonical order.

    The smallest unmatched index opens each pair, so every matching lists
    pairs (i, j) with i < j and increasing first members; there are
    (count - 1)!! of them.
    """
    if count % 2:
        raise ValueError("perfect matchings need an even count")

    def recurse(rest: list[int]) -> list[list[tuple[int, int]]]:
        if not rest:
            return [[]]
        first, tail = rest[0], rest[1:]
        return [
            [(first, partner)] + sub
            for k, partner in enumerate(tail)
            for sub in recurse(tail[:k] + tail[k + 1 :])
        ]

    return recurse(list(range(count)))


# the most arguments of a Wick product: 8 take 105 matchings, (K - 1)!! for K
WICK_ARGUMENTS_MAX = 8


def wick_terms(state: TwoPointEvaluator, fs: SpacetimeTestFunction) -> list[complex]:
    """Product of two-point factors of a (K,) stack, K even, for each
    matching in `pair_matchings` order; Python complex products overflow to
    inf without a warning. K > WICK_ARGUMENTS_MAX is rejected before any
    two-point factor is computed."""
    if math.prod(fs.shape) > WICK_ARGUMENTS_MAX:
        raise ValueError(
            f"more than {WICK_ARGUMENTS_MAX} arguments; pairing count grows as (2n-1)!!"
        )
    pairs = two_point_matrix(state, fs).tolist()
    return [
        math.prod((pairs[i][j] for i, j in matching), start=1 + 0j)
        for matching in pair_matchings(len(pairs))
    ]


def wick_n_point(state: TwoPointEvaluator, fs: SpacetimeTestFunction) -> complex:
    """Quasi-free n-point function of a (K,) stack: the sum over pairings
    of two-point factors, exactly 0 for odd K and 1 for K = 0; `wick_terms`
    rejects an even K > WICK_ARGUMENTS_MAX."""
    if len(fs.shape) != 1:
        raise ValueError(f"need a stack of K test functions, got stack shape {fs.shape}")
    count = fs.shape[0]
    if count % 2:
        return 0j
    if not count:
        return 1 + 0j
    return sum(wick_terms(state, fs), 0j)


class PositivityReport(NamedTuple):
    gram: np.ndarray
    eigenvalues: np.ndarray  # ascending, of the Hermitian part of gram
    min_eigenvalue: float
    hermiticity_defect: float
    diag_imag_max: float


def state_positivity_suite(state: TwoPointEvaluator, fs: SpacetimeTestFunction) -> PositivityReport:
    """Gram matrix of omega2 over a (K,) stack of test functions, solved from
    their factors like every source (no (K, J, N) array), with its spectrum
    and defects.

    Positive semi-definiteness of the Gram is the one-particle content of
    state positivity: for a = sum c_i f_i the expectation of a* a is
    c^dagger Gram c.
    """
    gram = two_point_matrix(state, fs)
    defect = float(np.abs(gram - gram.conj().T).max())
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    return PositivityReport(
        gram=gram,
        eigenvalues=eigs,
        min_eigenvalue=float(eigs.min()),
        hermiticity_defect=defect,
        diag_imag_max=float(np.abs(np.diag(gram).imag).max()),
    )
