"""Symplectic pairing of Cauchy data and the causal sesquilinear form.

sigma(a, b) = i * h * sum_x [conj(a.pi) b.phi + conj(a.phi) b.pi]

is sesquilinear (conjugate-linear on the left) and skew in the sense
sigma(a, b) = -conj(sigma(b, a)). The causal form pairs a source f against
the causally propagated field of g and, in the continuum, coincides with the
symplectic pairing of the two propagated solutions.
"""

from __future__ import annotations

import numpy as np

from .dynamics import (
    CauchyDatum,
    SpacetimeTestFunction,
    causal_fundamental,
    duhamel_modes,
    simpson_weights,
)
from .lattice import SpatialGrid


def symplectic(a: CauchyDatum, b: CauchyDatum, grid: SpatialGrid) -> complex:
    if a.phi.size != grid.num_points or b.phi.size != grid.num_points:
        raise ValueError("data do not live on this grid")
    return 1j * grid.spacing * np.sum(np.conj(a.pi) * b.phi + np.conj(a.phi) * b.pi)


def gm_form(f: SpacetimeTestFunction, g: SpacetimeTestFunction, mass: float) -> complex:
    """Spacetime quadrature of conj(f) * (causal field of g).

    The lattice sum is taken in mode space by Parseval (h sum_x conj(u) v =
    sum_n conj(u_n) v_n for the h-orthonormal sine modes) against the
    cumulative-Duhamel field of `duhamel_modes`, so it shares no quadrature
    route with `causal_fundamental`; comparing against
    symplectic(causal_fundamental(f), causal_fundamental(g)) is a genuine
    two-sided consistency check.
    """
    fg, gg = f.basis.grid, g.basis.grid
    if fg.num_points != gg.num_points or fg.spacing != gg.spacing:
        raise ValueError("sources must share a grid")
    if f.times.shape != g.times.shape or not np.allclose(f.times, g.times):
        raise ValueError("sources must share a time window")
    _, ret, adv = duhamel_modes(g, mass)
    per_node = np.sum(np.conj(f.mode_values()) * (ret - adv), axis=1)
    return complex(np.sum(simpson_weights(f.times) * per_node))


def gm_symplectic_side(
    f: SpacetimeTestFunction, g: SpacetimeTestFunction, mass: float
) -> complex:
    """sigma(G f, G g) evaluated on the t = 0 causal data."""
    a = causal_fundamental(f, mass)
    b = causal_fundamental(g, mass)
    return symplectic(a, b, f.basis.grid)
