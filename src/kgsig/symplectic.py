"""Symplectic pairing of Cauchy data and the causal sesquilinear form.

sigma(a, b) = i * h * sum_x [conj(pi_a) phi_b + conj(phi_a) pi_b]
            = i * sum_n [conj(pi_a,n) phi_b,n + conj(phi_a,n) pi_b,n]

is sesquilinear (conjugate-linear on the left) and skew in the sense
sigma(a, b) = -conj(sigma(b, a)). The second form is Parseval for the
h-orthonormal sine modes (h sum_x conj(u) v = sum_n conj(u_n) v_n), and it is
the one evaluated, on the data's mode coefficients, entry by entry (numpy
broadcasting) for data with leading batch axes. The causal form pairs a
source f against the causally propagated field of g, both in mode space, and,
in the continuum, coincides with the symplectic pairing of the two solutions;
it runs forward Duhamel passes only, the advanced part as the adjoint of the
retarded one.
"""

from __future__ import annotations

import numpy as np

from .dynamics import (
    CauchyDatum,
    SpacetimeTestFunction,
    _green_blocks,
    _source_rows,
    simpson_weights,
)


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
    -conj(gm_form(f, g)) exactly. The lattice sum is taken in mode space by
    Parseval (h sum_x conj(u) v = sum_n conj(u_n) v_n for the h-orthonormal
    sine modes). The causal field ret - adv of the Duhamel passes agrees
    with the field of `causal_fundamental`'s t = 0 data at even time nodes to
    rounding and differs at odd ones, where the cumulative Simpson rule takes
    a trailing parabola; the adjoint form differs from <f, (ret - adv) g> at
    quadrature order too. So comparing against
    symplectic(causal_fundamental(f), causal_fundamental(g)) checks the
    two routes at quadrature order.
    """
    fg, gg = f.basis.grid, g.basis.grid
    if fg.num_points != gg.num_points or fg.spacing != gg.spacing:
        raise ValueError("sources must share a grid")
    if not np.array_equal(f.times, g.times):
        raise ValueError("sources must share a time window")
    return _retarded_pairing(f, g, mass) - np.conj(_retarded_pairing(g, f, mass))


def _retarded_pairing(
    f: SpacetimeTestFunction, g: SpacetimeTestFunction, mass: float
) -> complex | np.ndarray:
    """<f, S_ret g>: each block of g's forward pass reduced at once to the
    per-node mode sums of conj(f) * S_ret g against f's rows at its nodes,
    then the Simpson-weighted sum over all nodes."""
    shape = np.broadcast_shapes(f.shape, g.shape) + f.times.shape
    per_node = np.empty(shape, np.result_type(f.dtype, g.dtype))
    for first, block in _green_blocks(g, mass, 1):
        nodes = slice(first, first + len(block))
        rows = _source_rows(f.profiles, f.shapes, nodes)
        conj = np.conj(rows, out=rows) if np.iscomplexobj(rows) else rows
        # time on axis -2 of both operands, so the stack axes broadcast
        product = np.multiply(conj, np.moveaxis(block, 0, -2), order="C")
        np.sum(product, axis=-1, out=per_node[..., nodes])
    return np.sum(simpson_weights(f.times) * per_node, axis=-1)
