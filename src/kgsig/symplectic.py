"""Symplectic pairing of Cauchy data.

sigma(a, b) = i * h * sum_x [conj(pi_a) phi_b + conj(phi_a) pi_b]
            = i * sum_n [conj(pi_a,n) phi_b,n + conj(phi_a,n) pi_b,n]

is sesquilinear (conjugate-linear on the left) and skew in the sense
sigma(a, b) = -conj(sigma(b, a)). The second form is Parseval for the
h-orthonormal sine modes (h sum_x conj(u) v = sum_n conj(u_n) v_n), and it is
the one evaluated, on the data's mode coefficients, entry by entry (numpy
broadcasting) for data with leading batch axes. On the causal solutions of
two sources it is, in the continuum, their causal form `dynamics.gm_form`.
"""

from __future__ import annotations

import numpy as np

from .dynamics import CauchyDatum


def symplectic(a: CauchyDatum, b: CauchyDatum) -> complex | np.ndarray:
    """sigma(a, b); (..., 2, N) stacks give the broadcast array of pairings."""
    if a.basis is not b.basis:
        raise ValueError("data live on different bases")
    phi_a, pi_a = a.modes[..., 0, :], a.modes[..., 1, :]
    phi_b, pi_b = b.modes[..., 0, :], b.modes[..., 1, :]
    return 1j * np.sum(np.conj(pi_a) * phi_b + np.conj(phi_a) * pi_b, axis=-1)
