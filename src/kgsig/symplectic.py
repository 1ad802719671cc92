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

from .dynamics import CauchyDatum, SpacetimeTestFunction, _green_blocks, _green_field, simpson_weights


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

    The lattice sum is taken in mode space by Parseval (h sum_x conj(u) v =
    sum_n conj(u_n) v_n for the h-orthonormal sine modes), on f's mode
    coefficients against the cumulative-Duhamel fields of g, so it shares no
    quadrature route with `causal_fundamental`; comparing against
    symplectic(causal_fundamental(f), causal_fundamental(g)) is a genuine
    two-sided consistency check. The retarded field is held whole; the
    advanced one arrives in blocks of time rows in node order, each reduced
    at once to the per-node mode sums of conj(f) * (ret - adv), and the
    Simpson-weighted sum over all nodes is taken last. Time sits on axis -2
    of every operand, so the stack axes of f and g broadcast as they stand.
    """
    fg, gg = f.basis.grid, g.basis.grid
    if fg.num_points != gg.num_points or fg.spacing != gg.spacing:
        raise ValueError("sources must share a grid")
    if not np.array_equal(f.times, g.times):
        raise ValueError("sources must share a time window")
    # the retarded field, f and the per-node sums in the advanced pass's order
    ret, f_run = _green_field(g, mass, 1)[..., ::-1, :], f.modes[..., ::-1, :]
    dtype = np.result_type(f.modes, g.modes)
    per_node = np.empty(np.broadcast_shapes(f.modes.shape, g.modes.shape)[:-1], dtype)
    node_run = per_node[..., ::-1]
    for first, block in _green_blocks(g, mass, -1):
        nodes, adv = slice(first, first + len(block)), np.moveaxis(block, 0, -2)
        causal = np.subtract(ret[..., nodes, :], adv, out=adv)
        f_rows = f_run[..., nodes, :]
        conj = np.conj(f_rows) if np.iscomplexobj(f_rows) else f_rows  # no copy of a real f
        np.sum(conj * causal, axis=-1, out=node_run[..., nodes])
    return np.sum(simpson_weights(f.times) * per_node, axis=-1)
