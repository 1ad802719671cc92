"""Symplectic pairing of Cauchy data and the causal sesquilinear form.

sigma(a, b) = i * h * sum_x [conj(pi_a) phi_b + conj(phi_a) pi_b]
            = i * sum_n [conj(pi_a,n) phi_b,n + conj(phi_a,n) pi_b,n]

is sesquilinear (conjugate-linear on the left) and skew in the sense
sigma(a, b) = -conj(sigma(b, a)). The second form is Parseval for the
h-orthonormal sine modes (h sum_x conj(u) v = sum_n conj(u_n) v_n), and it is
the one evaluated, on the data's mode coefficients, entry by entry (numpy
broadcasting) for data with leading batch axes. The causal form pairs a
source f against the causally propagated field of g, both in mode space, and,
in the continuum, coincides with the symplectic pairing of the two solutions.
"""

from __future__ import annotations

import numpy as np

from .dynamics import CauchyDatum, SpacetimeTestFunction, retarded_pairing


def symplectic(a: CauchyDatum, b: CauchyDatum) -> complex | np.ndarray:
    """sigma(a, b); (..., 2, N) stacks give the broadcast array of pairings."""
    if a.basis is not b.basis:
        raise ValueError("data live on different bases")
    phi_a, pi_a = a.modes[..., 0, :], a.modes[..., 1, :]
    phi_b, pi_b = b.modes[..., 0, :], b.modes[..., 1, :]
    return 1j * np.sum(np.conj(pi_a) * phi_b + np.conj(phi_a) * pi_b, axis=-1)


def gm_form(
    f: SpacetimeTestFunction, g: SpacetimeTestFunction, mass: float
) -> complex | np.ndarray:
    """Spacetime quadrature of conj(f) * (causal field of g), broadcast over
    the stack axes of f and g.

    For the spacetime L^2 product S_adv is the adjoint of S_ret, <f, S_adv g>
    = <S_ret f, g>, so the form is <f, S_ret g> - conj(<g, S_ret f>): two
    forward Duhamel passes, one per source, and gm_form(g, f) is
    -conj(gm_form(f, g)) exactly (`dynamics.retarded_pairing` takes each
    pass, and checks that f and g share one basis object and equal time
    nodes). The causal field ret - adv of the Duhamel passes agrees with the
    field of `causal_fundamental`'s t = 0 data at even time nodes to
    rounding and differs at odd ones, where the cumulative Simpson rule takes
    a trailing parabola; the adjoint form differs from <f, (ret - adv) g> at
    quadrature order too. So comparing against
    symplectic(causal_fundamental(f), causal_fundamental(g)) checks the
    two routes at quadrature order.
    """
    return retarded_pairing(f, g, mass) - np.conj(retarded_pairing(g, f, mass))
