"""Dirichlet lattice on an interval and the spectral basis of the discrete Laplacian.

The spatial domain is (0, L) sampled at N interior points x_i = i*h with
h = L/(N+1); Dirichlet walls sit at x = 0 and x = L. All inner products are
h-weighted, i.e. <u, v> = h * sum_i conj(u_i) v_i, so that lattice sums
approximate integrals over (0, L). The eigenpairs of the 3-point Laplacian
are the closed-form sine modes; the dense `laplacian` matrix is kept as the
reference they are checked against. Fields and mode coefficients convert into
each other only through `SpectralBasis.analyze` and `synthesize`, which act on
the last axis of any stack through one symmetric sine table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SpatialGrid:
    """Interior points of a Dirichlet lattice on (0, length)."""

    num_points: int
    length: float
    spacing: float = field(init=False)
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_points < 1:
            raise ValueError("grid needs at least one interior point")
        if not self.length > 0.0:
            raise ValueError("grid length must be positive")
        h = self.length / (self.num_points + 1)
        object.__setattr__(self, "spacing", h)
        object.__setattr__(
            self, "points", h * np.arange(1, self.num_points + 1, dtype=float)
        )


def build_grid(num_points: int, length: float) -> SpatialGrid:
    return SpatialGrid(num_points=num_points, length=length)


def laplacian(grid: SpatialGrid) -> np.ndarray:
    """Matrix of -d^2/dx^2 with Dirichlet walls: 3-point stencil, dense."""
    n, h = grid.num_points, grid.spacing
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenpairs of the Dirichlet Laplacian on a grid.

    Columns of `vectors` are orthonormal in the h-weighted inner product;
    eigenvalues are sorted ascending and strictly positive. vectors[j, k]
    depends only on the product (j+1)(k+1), so the table is exactly symmetric
    (vectors == vectors.T bitwise) and one row-major product serves both
    directions: analyze(u) = h * (u @ V) and synthesize(c) = c @ V.
    """

    grid: SpatialGrid
    eigenvalues: np.ndarray
    vectors: np.ndarray  # (N, N), column n is the n-th mode

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def analyze(self, u: np.ndarray) -> np.ndarray:
        """Mode coefficients c_n = <v_n, u>_h of lattice fields on the last axis."""
        return self.grid.spacing * (u @ self.vectors)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Lattice fields sum_n c_n v_n from coefficients on the last axis.
        Inverse of analyze."""
        return coeffs @ self.vectors


def spectral_decompose(grid: SpatialGrid) -> SpectralBasis:
    """Closed-form eigenpairs of the Dirichlet Laplacian on the grid.

    For k, j = 1..N: lambda_k = (4/h^2) sin^2(k pi / (2(N+1))), ascending,
    and vectors[j-1, k-1] = sqrt(2/L) sin(k j pi / (N+1)), h-orthonormal.
    """
    n, h = grid.num_points, grid.spacing
    k = np.arange(1, n + 1)
    evals = (4.0 / h**2) * np.sin(k * np.pi / (2 * (n + 1))) ** 2
    # sin(r pi / (N+1)) has period 2(N+1) in the integer r = k*j: indexing
    # one table of 2(N+1) sines by (k*j) mod 2(N+1) is an exact reduction
    period = 2 * (n + 1)
    table = np.sqrt(2.0 / grid.length) * np.sin(np.arange(period) * np.pi / (n + 1))
    vecs = table[np.outer(k, k) % period]
    return SpectralBasis(grid=grid, eigenvalues=evals, vectors=vecs)


def dirichlet_basis(num_points: int, length: float) -> SpectralBasis:
    """Grid plus its Dirichlet eigenbasis in one step."""
    return spectral_decompose(build_grid(num_points, length))


def omega(eigenvalue: float | np.ndarray, mass: float) -> float | np.ndarray:
    """Dispersion omega = sqrt(lambda + m^2); rejects the zero mode."""
    lam = np.asarray(eigenvalue, dtype=float)
    if np.any(lam + mass**2 <= 0.0):
        raise ValueError("omega requires lambda + m^2 > 0")
    out = np.sqrt(lam + mass**2)
    return float(out) if out.ndim == 0 else out
