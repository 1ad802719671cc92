"""Projector state of the quantized field: two-point function and Wick rule.

The two-point function pairs causal solutions through the holomorphic
projector, omega2(f, g) = i sigma(G f, chi_hol G g). Its real part is a
positive semi-definite Gram form on test functions; the imaginary part is
half the symplectic pairing of the causal solutions, which encodes the
canonical commutation relations. Higher correlation functions follow from
the quasi-free (Wick) combinatorics: a sum over perfect matchings. Every pair
value is an entry of `two_point_matrix`: one solve G f per function, one
chi_hol projection of the stack, one broadcast `symplectic` per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    CauchyDatum,
    SpacetimeTestFunction,
    apply_mode_blocks,
    causal_fundamental,
    oscillator_table,
    time_window,
)
from .lattice import SpectralBasis
from .random_fields import Draws, random_test_function
from .signature import complex_structure, projectors, signature_analytic
from .symplectic import symplectic


@dataclass(frozen=True)
class TwoPointEvaluator:
    """Immutable bundle of the mass, basis, and holomorphic projector."""

    mass: float
    basis: SpectralBasis
    hol_blocks: np.ndarray  # (N, 2, 2) complex


def build_state(mass: float, basis: SpectralBasis) -> TwoPointEvaluator:
    sig = signature_analytic(mass, basis)
    hol, _ = projectors(complex_structure(sig))
    return TwoPointEvaluator(mass=mass, basis=basis, hol_blocks=hol)


def _project_hol(state: TwoPointEvaluator, datum: CauchyDatum) -> CauchyDatum:
    return apply_mode_blocks(state.hol_blocks, datum)


def two_point_matrix(
    state: TwoPointEvaluator, fs: list[SpacetimeTestFunction]
) -> np.ndarray:
    """(K, K) matrix of omega2(f_i, f_j), one causal solve per f_i; both
    triangles are evaluated, so it is Hermitian only up to rounding."""
    return pair_matrix(state, causal_data(state, fs))


def causal_data(
    state: TwoPointEvaluator, fs: list[SpacetimeTestFunction]
) -> list[CauchyDatum]:
    """The t = 0 causal data G f_i, solved against one window's oscillator table."""
    if any(f.basis is not state.basis for f in fs):
        raise ValueError("test functions live on a different basis")
    if len({f.times.tobytes() for f in fs}) != 1:
        raise ValueError("need test functions on one shared time window")
    table = oscillator_table(state.basis, fs[0].times, state.mass)
    return [causal_fundamental(f, state.mass, table) for f in fs]


def pair_matrix(state: TwoPointEvaluator, solved: list[CauchyDatum]) -> np.ndarray:
    """`two_point_matrix` from the causal data G f_i: row i is i sigma(G f_i,
    chi_hol G f_j) over the stack, so entries do not depend on the batch, and
    one row at a time keeps the work at K x N."""
    hol = _project_hol(state, CauchyDatum(np.stack([g.modes for g in solved]), state.basis))
    return np.array([1j * symplectic(g, hol) for g in solved])


def two_point(
    state: TwoPointEvaluator, f: SpacetimeTestFunction, g: SpacetimeTestFunction
) -> complex:
    """omega2(f, g) = i sigma(G f, chi_hol G g) evaluated at time zero."""
    return complex(two_point_matrix(state, [f, g])[0, 1])


def pair_matchings(count: int) -> list[list[tuple[int, int]]]:
    """Perfect matchings of range(count) in canonical order.

    The smallest unmatched index opens each pair, so every matching lists
    pairs (i, j) with i < j and increasing first members; there are
    (count - 1)!! of them.
    """
    if count == 0:
        return [[]]
    if count % 2:
        raise ValueError("perfect matchings need an even count")
    items = list(range(count))

    def recurse(rest: list[int]) -> list[list[tuple[int, int]]]:
        if not rest:
            return [[]]
        first, tail = rest[0], rest[1:]
        out = []
        for k, partner in enumerate(tail):
            for sub in recurse(tail[:k] + tail[k + 1 :]):
                out.append([(first, partner)] + sub)
        return out

    return recurse(items)


def wick_terms(
    state: TwoPointEvaluator, fs: list[SpacetimeTestFunction]
) -> list[complex]:
    """Product of two-point factors for each matching, in `pair_matchings`
    order; an even argument count is required."""
    pairs = two_point_matrix(state, fs)
    return [
        complex(math.prod((pairs[i, j] for i, j in matching), start=1 + 0j))
        for matching in pair_matchings(len(fs))
    ]


def wick_n_point(
    state: TwoPointEvaluator, fs: list[SpacetimeTestFunction]
) -> complex:
    """Quasi-free n-point function: sum over pairings of two-point factors.

    Odd argument counts vanish identically and return exactly 0; more than
    eight arguments (105 pairings) are rejected.
    """
    if len(fs) % 2:
        return 0j
    if len(fs) > 8:
        raise ValueError("more than 8 arguments; pairing count grows as (2n-1)!!")
    if not fs:
        return 1 + 0j
    return sum(wick_terms(state, fs), 0j)


@dataclass(frozen=True)
class PositivityReport:
    gram: np.ndarray
    eigenvalues: np.ndarray  # ascending, of the Hermitian part of gram
    min_eigenvalue: float
    hermiticity_defect: float
    diag_imag_max: float


def state_positivity_suite(
    state: TwoPointEvaluator,
    seed: int = 0,
    trials: int = 20,
    t_span: float = 6.0,
    dt: float = 0.05,
) -> PositivityReport:
    """Gram matrix of omega2 over random real test functions.

    Positive semi-definiteness of the Gram is the one-particle content of
    state positivity: for a = sum c_i f_i the expectation of a* a is
    c^dagger Gram c.
    """
    rng = Draws(seed)
    times = time_window(-t_span / 2, t_span / 2, dt)
    funcs = [
        random_test_function(rng, state.basis, times, real=True)
        for _ in range(trials)
    ]
    gram = two_point_matrix(state, funcs)
    defect = float(np.abs(gram - gram.conj().T).max())
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    return PositivityReport(
        gram=gram,
        eigenvalues=eigs,
        min_eigenvalue=float(eigs.min()),
        hermiticity_defect=defect,
        diag_imag_max=float(np.abs(np.diag(gram).imag).max()),
    )
