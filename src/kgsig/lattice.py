"""Dirichlet lattice on an interval and the spectral basis of the discrete Laplacian.

The spatial domain is (0, L) sampled at N interior points x_i = i*h with
h = L/(N+1); Dirichlet walls sit at x = 0 and x = L. All inner products are
h-weighted, i.e. <u, v> = h * sum_i conj(u_i) v_i, so that lattice sums
approximate integrals over (0, L). The eigenpairs of the 3-point Laplacian
are the closed-form sine modes; the dense `laplacian` matrix is kept as the
reference they are checked against. Fields and mode coefficients convert into
each other only through `SpectralBasis.analyze` and `synthesize`, which act on
the last axis of any stack with one sine transform S (the DST-I, which is its
own inverse up to the factor h). Below `SINE_FFT_MIN_POINTS` grid points S is
a product with the symmetric mode table; from there on it is an odd
extension through `numpy.fft` (Numerical Recipes, section 12.4), and the
N x N table is never built unless something reads `SpectralBasis.vectors`.
"""

from __future__ import annotations

import operator
from functools import cached_property

import numpy as np


class SpatialGrid:
    """Interior points of a Dirichlet lattice on (0, length)."""

    __slots__ = ("num_points", "length", "spacing")

    def __init__(self, num_points: int, length: float) -> None:
        num_points = operator.index(num_points)  # TypeError for 2.5 or "4"
        if num_points < 1:
            raise ValueError("grid needs at least one interior point")
        if not length > 0.0:
            raise ValueError("grid length must be positive")
        self.num_points, self.length = num_points, length
        self.spacing = length / (num_points + 1)

    @property
    def points(self) -> np.ndarray:
        """Built on each read, so a grid that only checks n and l holds no array."""
        return self.spacing * np.arange(1, self.num_points + 1, dtype=float)


def laplacian(grid: SpatialGrid) -> np.ndarray:
    """Matrix of -d^2/dx^2 with Dirichlet walls: 3-point stencil, dense."""
    n, h = grid.num_points, grid.spacing
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


# Grid size from which `SpectralBasis` applies the sine transform through
# numpy.fft instead of the table; `analyze` serves the (3 S, N) profile stacks
# of S random sources. On 120 real rows (2-core Xeon, numpy 2.4.6, one BLAS
# thread), table / FFT per call: n = 256 0.40 / 5.0 ms, 400 0.90 / 4.4 ms, 500
# 1.3 / 4.2 ms, 700 2.0 / 4.9 ms, 766 3.1 / 1.9 ms: numpy.fft runs Bluestein's
# algorithm where N + 1 has a large prime factor. Only the FFT is batch-
# invariant: one (18, N) table product and six (3, N) ones differ by up to
# 1.5e-15 of the largest entry at n = 300, 500 and 767 (first seen at n = 236).
# The table stays below this size: with the FFT everywhere the outputs of
# state, green and wick move only at rounding, but each of them then imports
# numpy.fft, which costs 1.1-1.3 ms and raised the causal benchmark's peak
# RSS from 35.7-35.8 to 36.3-36.5 MiB (3 runs each).
SINE_FFT_MIN_POINTS = 768


class SpectralBasis:
    """Eigenpairs of the Dirichlet Laplacian on a grid.

    Eigenvalues are sorted ascending and strictly positive; mode k (k = 1..N)
    has lattice values sqrt(2/L) sin(k j pi / (N+1)) at x_j, orthonormal in
    the h-weighted inner product. The sine transform
    S(u)_k = sum_j u_j sqrt(2/L) sin(k j pi / (N+1))
    gives both directions: analyze(u) = h * S(u) and synthesize(c) = S(c), on
    the last axis of any stack. On grids of at least `SINE_FFT_MIN_POINTS`
    points S runs through numpy.fft; on smaller ones it is the product with
    `vectors`, which is also the reference the FFT path is tested against.
    """

    def __init__(self, grid: SpatialGrid, eigenvalues: np.ndarray) -> None:
        self.grid, self.eigenvalues = grid, eigenvalues

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    @cached_property
    def vectors(self) -> np.ndarray:
        """(N, N) mode table, column k-1 is mode k; built on first read.

        vectors[j, k] depends only on the product (j+1)(k+1), so the table
        is exactly symmetric (vectors == vectors.T bitwise) and the row-major
        product u @ V is S(u) on the last axis.
        """
        n = self.size
        k = np.arange(1, n + 1)
        # sin(r pi / (N+1)) has period 2(N+1) in the integer r = k*j: indexing
        # one table of 2(N+1) sines by (k*j) mod 2(N+1) is an exact reduction
        period = 2 * (n + 1)
        table = np.sqrt(2.0 / self.grid.length) * np.sin(
            np.arange(period) * np.pi / (n + 1)
        )
        return table[np.outer(k, k) % period]

    def analyze(self, u: np.ndarray) -> np.ndarray:
        """Mode coefficients c_n = <v_n, u>_h of lattice fields on the last axis."""
        return self.grid.spacing * self._sine(u)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Lattice fields sum_n c_n v_n from coefficients on the last axis.
        Inverse of analyze."""
        return self._sine(coeffs)

    def _sine(self, u: np.ndarray) -> np.ndarray:
        if self.size < SINE_FFT_MIN_POINTS:
            return u @ self.vectors
        return _sine_fft(u, self.grid.length)


def _sine_fft(u: np.ndarray, length: float) -> np.ndarray:
    """S(u) on the last axis from the FFT of the odd extension.

    With y = [0, u, 0, -u reversed] of length 2(N+1), fft(y)[k] =
    -2i sum_j u_j sin(k j pi / (N+1)) for k = 1..N. For real u that sum is
    -Im(rfft(y)[k]) / 2, which keeps real input real.
    """
    u = np.asarray(u)
    n = u.shape[-1]
    y = np.zeros(u.shape[:-1] + (2 * (n + 1),), dtype=np.result_type(u, float))
    y[..., 1 : n + 1] = u
    y[..., n + 2 :] = -u[..., ::-1]
    scale = np.sqrt(2.0 / length)
    if np.iscomplexobj(y):
        return (0.5j * scale) * np.fft.fft(y)[..., 1 : n + 1]
    return (-0.5 * scale) * np.fft.rfft(y)[..., 1 : n + 1].imag


def spectral_decompose(grid: SpatialGrid) -> SpectralBasis:
    """Closed-form eigenvalues of the Dirichlet Laplacian on the grid.

    lambda_k = (4/h^2) sin^2(k pi / (2(N+1))) for k = 1..N, ascending; the
    eigenvectors are the sine modes of `SpectralBasis`.
    """
    n, h = grid.num_points, grid.spacing
    k = np.arange(1, n + 1)
    evals = (4.0 / h**2) * np.sin(k * np.pi / (2 * (n + 1))) ** 2
    return SpectralBasis(grid=grid, eigenvalues=evals)


def dirichlet_basis(num_points: int, length: float) -> SpectralBasis:
    """Grid plus its Dirichlet eigenbasis in one step."""
    return spectral_decompose(SpatialGrid(num_points, length))


def omega(eigenvalue: float | np.ndarray, mass: float) -> float | np.ndarray:
    """Dispersion omega = sqrt(lambda + m^2); rejects the zero mode."""
    lam = np.asarray(eigenvalue, dtype=float)
    if not np.all(lam + mass**2 > 0.0):  # NaN fails
        raise ValueError("omega requires lambda + m^2 > 0")
    out = np.sqrt(lam + mass**2)
    return float(out) if out.ndim == 0 else out
