"""Signature operator of the Klein-Gordon scalar product at fixed mass.

The scalar product on Cauchy data pairs a with S b through the symplectic
form, <a|b> = i sigma(a, S b), where S acts per spectral mode by the 2x2
block -pi [[0, 1/omega], [omega, 0]]. The blocks square to pi^2, so the
spectrum is {-pi, +pi} (`block_eigenvalues`, per block in closed form) with
positive/negative frequency eigenspaces (`projectors`), |S| is pi times the
identity, S^-1 = S / pi^2 (the Riesz identity sigma(a, b) = -i <a|S^-1 b>
acts with those blocks through `apply_mode_blocks`), and J = i S / pi is a
complex structure. Operators are compared mode by mode in a Sobolev-weighted
norm, `per_mode_distance`, whose maximum is the operator norm of the
difference.

The same operator is recovered numerically from the spacetime pairing of
mass families localized by a narrow weight (a Dirac-sequence limit): the
normalized per-mode kernels of the pairing solve for the blocks, and the
deviation from the analytic form is O(half_width^2).
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from .dynamics import CauchyDatum, apply_mode_blocks
from .lattice import SpatialGrid, SpectralBasis, omega, spectral_decompose
from .massfamily import (
    T_CEILING_DEFAULT,
    ConvergenceReport,
    MassInterval,
    MassWeight,
    adaptive_kernels,
    check_support,
)
from .symplectic import symplectic

_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])
# int_{-1}^{1} bump(x)^2 dx = 2 e^-1 (K_1(1) - K_0(1)); see signature_reconstruct
BUMP_SQUARED_INTEGRAL = 0.13308612084499427
BLOCK_TOL_DEFAULT = 1e-3  # signature_reconstruct's block tolerance (kgsig reconstruct's)


class SignatureOperator(NamedTuple):
    """Per-mode 2x2 blocks acting on (phi_n, pi_n) mode coefficients."""

    mass: float
    basis: SpectralBasis
    blocks: np.ndarray  # (N, 2, 2) real

    @property
    def frequencies(self) -> np.ndarray:
        return omega(self.basis.eigenvalues, self.mass)


def signature_analytic(mass: float, basis: SpectralBasis) -> SignatureOperator:
    """Blocks -pi [[0, 1/omega_n], [omega_n, 0]]; needs omega_n > 0."""
    if not mass >= 0.0:  # NaN fails
        raise ValueError("mass must be nonnegative")
    om = omega(basis.eigenvalues, mass)
    n = basis.size
    blocks = np.zeros((n, 2, 2))
    blocks[:, 0, 1] = -np.pi / om
    blocks[:, 1, 0] = -np.pi * om
    return SignatureOperator(mass=mass, basis=basis, blocks=blocks)


def apply_signature(sig: SignatureOperator, datum: CauchyDatum) -> CauchyDatum:
    if datum.basis is not sig.basis:
        raise ValueError("datum lives on a different basis")
    return apply_mode_blocks(sig.blocks, datum)


def scalar_product(
    sig: SignatureOperator, a: CauchyDatum, b: CauchyDatum
) -> complex:
    """<a|b> = i sigma(a, S b); positive definite for the analytic blocks."""
    return 1j * symplectic(a, apply_signature(sig, b))


def assemble(sig: SignatureOperator) -> np.ndarray:
    """Dense (2N, 2N) matrix on interleaved mode coefficients (phi_1, pi_1,
    ...), carrying the (N, 2, 2) blocks on its diagonal."""
    n = len(sig.blocks)
    full = np.zeros((2 * n, 2 * n), dtype=sig.blocks.dtype)
    full.reshape(n, 2, n, 2)[np.arange(n), :, np.arange(n), :] = sig.blocks
    return full


def block_eigenvalues(blocks: np.ndarray) -> np.ndarray:
    """Real parts of the eigenvalues of real (N, 2, 2) blocks, ascending: (N, 2).

    A block [[a, b], [c, d]] has characteristic polynomial
    x^2 - (a + d) x + (ad - bc) = (x - (a + d) / 2)^2 - (((a - d) / 2)^2 + bc),
    so its eigenvalues are (a + d) / 2 -+ sqrt(((a - d) / 2)^2 + bc). A
    negative discriminant gives a complex pair whose real part is the
    half-trace (a + d) / 2, twice; the max(..., 0) gives exactly that. Each
    block is first divided by the power of two at or above its largest
    entry, which is exact and keeps the squares and bc from overflowing or
    underflowing to 0. This equals np.sort(np.linalg.eigvals(blocks).real,
    axis=1) to rounding. For the analytic blocks a = d = 0 and bc = pi^2, so
    the values are -+pi.
    """
    scale = np.ldexp(1.0, np.frexp(np.abs(blocks).max(axis=(1, 2)))[1])
    a, b, c, d = (blocks.reshape(-1, 4) / scale[:, None]).T
    half_trace = 0.5 * (a + d)
    root = np.sqrt(np.maximum((0.5 * (a - d)) ** 2 + b * c, 0.0))
    return np.stack([half_trace - root, half_trace + root], axis=1) * scale[:, None]


def _check_block_square(blocks: np.ndarray, target: float, message: str) -> None:
    """Raise ValueError(message) unless every 2x2 block squares to target * Id."""
    square = np.einsum("nij,njk->nik", blocks, blocks)
    if not np.allclose(square, target * np.eye(2), rtol=1e-12, atol=1e-12):
        raise ValueError(message)


def complex_structure(sig: SignatureOperator) -> np.ndarray:
    """J = i |S|^-1 S as (N, 2, 2) complex blocks; |S| = pi Id, J^2 = -Id."""
    _check_block_square(
        sig.blocks, np.pi**2, "blocks do not square to pi^2; operator not invertible"
    )
    return 1j * sig.blocks / np.pi


def projectors(j_blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complementary idempotents (1 -+ iJ)/2; the first annihilates
    positive-frequency modes (1, omega), the second the (1, -omega) ones."""
    _check_block_square(j_blocks, -1.0, "complex structure does not square to -Id")
    ident = np.eye(2)
    hol = 0.5 * (ident - 1j * j_blocks)
    return hol, ident - hol


def sobolev_scale(basis: SpectralBasis) -> np.ndarray:
    """Mode weights sqrt(1 + lambda_n): field component measured in the
    first Sobolev norm, momentum in the plain one. This mass-independent
    metric keeps the high-mode tail of operator differences comparable to
    the per-mode decay bounds."""
    return np.sqrt(1.0 + basis.eigenvalues)


def per_mode_distance(a: SignatureOperator, b: SignatureOperator) -> np.ndarray:
    """Largest singular value of each Sobolev-weighted block difference.

    A real block [[p, q], [r, s]] is x times a rotation plus y times a
    reflection, x = hypot(p + s, q - r) / 2 and y = hypot(p - s, q + r) / 2;
    its Gram matrix (x^2 + y^2) Id + 2xy (a reflection) has eigenvalues
    (x -+ y)^2, so the norm is x + y. hypot keeps the form free of overflow.
    """
    if a.basis is not b.basis:
        raise ValueError("operators live on different bases")
    if np.iscomplexobj(a.blocks) or np.iscomplexobj(b.blocks):
        raise ValueError("signature blocks must be real")
    scale = sobolev_scale(a.basis)[:, None]
    weighted = a.blocks - b.blocks
    weighted[:, 0, :] *= scale
    weighted[:, :, 0] *= 1.0 / scale
    p, q, r, s = weighted.reshape(-1, 4).T
    return 0.5 * (np.hypot(p + s, q - r) + np.hypot(p - s, q + r))


class MasslessTable(NamedTuple):
    """Convergence table of ||S_m - S_0|| against the per-mode bounds."""

    masses: np.ndarray
    norms: np.ndarray  # (M,)
    bounds: np.ndarray  # (M,) max over modes of the per-mode bound
    mode_norms: np.ndarray  # (M, N)
    mode_bounds: np.ndarray  # (M, N)


def massless_bound(basis: SpectralBasis, mass: float) -> np.ndarray:
    """Per-mode bound pi m^2 max(1/(k^2 omega), 1/(k (k + omega)))."""
    k = np.sqrt(basis.eigenvalues)
    om = omega(basis.eigenvalues, mass)
    return np.pi * mass**2 * np.maximum(1.0 / (k**2 * om), 1.0 / (k * (k + om)))


MASSLESS_MASSES = (1.0, 0.5, 0.25, 0.125)  # the convergence table's masses
# the table needs m^2 to survive in omega^2 = lambda + m^2 for every mode; the
# rounding of the largest lambda may reach this share of the smallest m^2
MASSLIMIT_ROUNDING_SHARE = 1e-3


def check_massless_grid(grid: SpatialGrid) -> None:
    """Raise ValueError if (4 / h^2) eps, the rounding of the largest lambda,
    passes MASSLIMIT_ROUNDING_SHARE of the smallest m^2 (times h^2 here), or
    if `massless_bound` is not finite for a table mass."""
    m_min, h = min(MASSLESS_MASSES), grid.spacing
    if 4.0 * sys.float_info.epsilon > MASSLIMIT_ROUNDING_SHARE * m_min * m_min * h * h:
        raise ValueError(
            "grid spacing too fine for masslimit: the smallest table mass "
            f"m = {m_min:g} is lost to rounding in lambda + m^2"
        )
    basis = spectral_decompose(grid)
    for m in MASSLESS_MASSES:
        with np.errstate(over="ignore", divide="ignore"):  # an overflow is rejected
            finite = np.isfinite(massless_bound(basis, m)).all()
        if not finite:
            raise ValueError(
                "grid spacing too coarse for masslimit: the bound "
                f"pi m^2 max(1 / (k^2 omega), 1 / (k (k + omega))) overflows at m = {m:g}"
            )


def massless_limit(basis: SpectralBasis) -> tuple[SignatureOperator, MasslessTable]:
    """Limit operator at m = 0 plus the norm-convergence table over
    MASSLESS_MASSES; requires a strictly positive spectrum (no zero mode)
    and a grid that `check_massless_grid` accepts."""
    arr = np.array(MASSLESS_MASSES)
    if basis.eigenvalues[0] <= 0.0:
        raise ValueError("zero mode present; massless operator undefined")
    check_massless_grid(basis.grid)
    limit = signature_analytic(0.0, basis)
    mode_norms = np.empty((arr.size, basis.size))
    mode_bounds = np.empty_like(mode_norms)
    for i, m in enumerate(arr):
        mode_norms[i] = per_mode_distance(signature_analytic(m, basis), limit)
        mode_bounds[i] = massless_bound(basis, m)
    return limit, MasslessTable(
        masses=arr,
        norms=mode_norms.max(axis=1),
        bounds=mode_bounds.max(axis=1),
        mode_norms=mode_norms,
        mode_bounds=mode_bounds,
    )


def reconstruction_weight(
    mass: float, half_width: float, tol: float, interval: MassInterval | None = None
) -> MassWeight:
    """The localizing weight of `signature_reconstruct`, or ValueError.

    Checked in this order: the weight itself (a positive half-width, a
    support at positive mass), then, when an interval is given, that the
    support lies in its closure, then the rule that the O((half_width / m)^2)
    deviation fits tol.
    """
    weight = MassWeight(mass, half_width)  # so 0 < half_width < mass in the ratio
    if interval is not None:
        check_support(weight, interval)
    if not (half_width / mass) ** 2 <= 25.0 * tol:  # NaN fails
        raise ValueError("half-width too large for the requested tolerance "
                         f"(need (half_width / m)^2 <= 25 * {tol:g})")
    return weight


def signature_reconstruct(
    mass: float,
    basis: SpectralBasis,
    half_width: float,
    tol: float = BLOCK_TOL_DEFAULT,
    interval: MassInterval | None = None,
    t_ceiling: float = T_CEILING_DEFAULT,
) -> tuple[SignatureOperator, ConvergenceReport]:
    """Recover the signature blocks from the spacetime pairing, with the
    adaptive window's report.

    Unit data (v_n, 0) and (0, v_n) smeared by a weight of the given
    half_width at the mass pair only within mode n, to the power-0 kernels
    P_n = diag(g_cos[n], g_sin[n]); divided by the weight normalization
    int w^2 m' dm', these solve i sigma(e_i, S e_j) = P_ij for the blocks
    -FLIP P_n. The deviation from the analytic operator is O(half_width^2)
    once the adaptive time window has converged; the internal window
    tolerance is scaled below the requested block tolerance so truncation
    stays subdominant to localization. The weight and its preconditions come
    from `reconstruction_weight`, which raises ValueError before any kernel
    is built.

    The normalization needs no mass rule. With m' = mass + half_width x and
    w(m') = b(x), b the bump,
    int w^2 m' dm' = half_width int b(x)^2 (mass + half_width x) dx; the odd
    part drops, leaving mass * half_width * I, I = int_{-1}^{1}
    exp(-2 / (1 - x^2)) dx. In F(a) = int_{-1}^{1} exp(-a / (1 - x^2)) dx
    put x = tanh u: 1 / (1 - x^2) = cosh^2 u = (1 + cosh 2u) / 2, so
    F'(a) = -e^{-a/2} K_0(a/2). Since z e^{-z} (K_1(z) - K_0(z)) has
    derivative -e^{-z} K_0(z) and F vanishes as a grows,
    F(a) = a e^{-a/2} (K_1 - K_0)(a/2), and I = F(2) = 2 e^-1 (K_1(1) - K_0(1))
    = BUMP_SQUARED_INTEGRAL.
    """
    weight = reconstruction_weight(mass, half_width, tol, interval)
    norm2 = mass * half_width * BUMP_SQUARED_INTEGRAL

    g, report = adaptive_kernels(
        weight, basis.eigenvalues, np.array([0]), lambda g: g,
        tol=tol * norm2 * 1e-2, t_ceiling=t_ceiling,
    )
    pairs = g[:, :, 0, 0].T[:, :, None] * np.eye(2) / norm2  # (N, 2, 2) diagonal
    blocks = -_FLIP @ pairs
    return SignatureOperator(mass=mass, basis=basis, blocks=blocks), report
