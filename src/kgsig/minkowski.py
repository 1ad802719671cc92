"""Closed-form Minkowski mode engine: an oracle independent of the lattice.

Works on finite superpositions of mass-shell modes with explicit amplitudes
for the upper (positive frequency) and lower shell. The continuous momentum
integrals become weighted mode sums carrying the continuum normalization
constants verbatim, so every coefficient is directly testable: symplectic
density i/(8 pi^2 omega), scalar product density 1/(8 pi omega), the
amplitude/Cauchy transform pair (1/4pi) [[1/omega, -1/omega], [1, 1]] and
2 pi [[omega, 1], [-omega, 1]], and the per-shell signature action -+pi.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .signature import block_eigenvalues, signature_analytic


class ModeSuperposition:
    """Finite weighted set of mass-shell modes with shell amplitudes.

    momenta: (M,) magnitudes in dimension 1, (M, d) vectors otherwise;
    amplitudes: (2, M) complex, row 0 the upper shell, row 1 the lower.
    """

    __slots__ = ("dimension", "momenta", "amplitudes", "weights", "mass")

    def __init__(
        self,
        dimension: int,
        momenta: np.ndarray,
        amplitudes: np.ndarray,
        weights: np.ndarray,
        mass: float,
    ) -> None:
        if dimension not in (1, 3):
            raise ValueError("dimension must be 1 or 3")
        momenta = np.asarray(momenta, dtype=float)
        if dimension == 1 and momenta.ndim != 1:
            raise ValueError("dimension-1 momenta are magnitudes, shape (M,)")
        if dimension == 3 and momenta.shape[1:] != (3,):
            raise ValueError("dimension-3 momenta need shape (M, 3)")
        amplitudes = np.asarray(amplitudes, dtype=complex)
        weights = np.asarray(weights, dtype=float)
        count = momenta.shape[0]
        if amplitudes.shape != (2, count):
            raise ValueError("amplitudes need shape (2, num_modes)")
        if weights.shape != (count,) or not np.all(weights > 0.0):  # NaN fails
            raise ValueError("weights must be positive, one per mode")
        if not mass >= 0.0:
            raise ValueError("mass must be nonnegative")
        flat = momenta.reshape(count, -1)
        if len({tuple(row) for row in flat}) != count:
            raise ValueError("momenta must be distinct")
        self.dimension, self.momenta, self.amplitudes = dimension, momenta, amplitudes
        self.weights, self.mass = weights, mass
        if np.any(self.frequencies <= 0.0):
            raise ValueError("massless zero-momentum mode has no frequency")

    @property
    def frequencies(self) -> np.ndarray:
        mags = np.abs(self.momenta) if self.dimension == 1 else np.linalg.norm(
            self.momenta, axis=1
        )
        return np.hypot(mags, self.mass)


def _check_compatible(a: ModeSuperposition, b: ModeSuperposition) -> None:
    if (
        a.dimension != b.dimension
        or a.mass != b.mass
        or a.momenta.shape != b.momenta.shape
        or not np.array_equal(a.momenta, b.momenta)
        or not np.array_equal(a.weights, b.weights)
    ):
        raise ValueError("superpositions live on different mode sets")


def mink_symplectic(a: ModeSuperposition, b: ModeSuperposition) -> complex:
    """Shell-antisymmetric pairing with density i / (8 pi^2 omega)."""
    _check_compatible(a, b)
    om = a.frequencies
    density = a.weights * 1j / (8.0 * np.pi**2 * om)
    terms = (
        np.conj(a.amplitudes[0]) * b.amplitudes[0]
        - np.conj(a.amplitudes[1]) * b.amplitudes[1]
    )
    return complex(np.sum(density * terms))


def mink_scalar_product(a: ModeSuperposition, b: ModeSuperposition) -> complex:
    """Shell-symmetric pairing with density 1 / (8 pi omega)."""
    _check_compatible(a, b)
    om = a.frequencies
    density = a.weights / (8.0 * np.pi * om)
    terms = (
        np.conj(a.amplitudes[0]) * b.amplitudes[0]
        + np.conj(a.amplitudes[1]) * b.amplitudes[1]
    )
    return complex(np.sum(density * terms))


def mink_signature_action(a: ModeSuperposition) -> ModeSuperposition:
    """Multiply the upper shell by -pi and the lower shell by +pi."""
    scaled = np.array([-np.pi, np.pi])[:, None] * a.amplitudes
    return ModeSuperposition(a.dimension, a.momenta, scaled, a.weights, a.mass)


def amplitude_to_cauchy(omega: np.ndarray) -> np.ndarray:
    """(2, 2) or (M, 2, 2) forward matrices (1/4pi) [[1/w, -1/w], [1, 1]]."""
    om = np.asarray(omega, dtype=float)
    out = np.empty(om.shape + (2, 2))
    out[..., 0, 0] = 1.0 / om
    out[..., 0, 1] = -1.0 / om
    out[..., 1, 0] = 1.0
    out[..., 1, 1] = 1.0
    return out / (4.0 * np.pi)


def cauchy_to_amplitude(omega: np.ndarray) -> np.ndarray:
    """Inverse matrices 2 pi [[w, 1], [-w, 1]]."""
    om = np.asarray(omega, dtype=float)
    out = np.empty(om.shape + (2, 2))
    out[..., 0, 0] = om
    out[..., 0, 1] = 1.0
    out[..., 1, 0] = -om
    out[..., 1, 1] = 1.0
    return 2.0 * np.pi * out


def mink_cauchy_inverse(
    pairs: np.ndarray, omega: np.ndarray
) -> np.ndarray:
    """Amplitudes (a_plus, a_minus) from per-mode Cauchy pairs."""
    pairs = np.asarray(pairs, dtype=complex)
    om = np.asarray(omega, dtype=float)
    if not np.all(om > 0.0):  # NaN fails
        raise ValueError("frequencies must be positive")
    mats = cauchy_to_amplitude(om)
    return np.einsum("mij,jm->im", mats, pairs)


def cauchy_signature_blocks(omega: np.ndarray) -> np.ndarray:
    """Signature in Cauchy variables via the transform chain.

    Conjugating the shell action diag(-pi, +pi) with the amplitude/Cauchy
    transforms; collapses to -pi [[0, 1/omega], [omega, 0]].
    """
    forward = amplitude_to_cauchy(omega)
    backward = cauchy_to_amplitude(omega)
    shell = np.diag([-np.pi, np.pi])
    return np.einsum("...ij,jk,...kl->...il", forward, shell, backward)


class CrossCheckReport(NamedTuple):
    max_block_deviation: float
    max_eigenvalue_deviation: float
    block_deviations: np.ndarray  # (N,) per-mode max entry deviation


def cross_check_lattice(mass: float, basis) -> CrossCheckReport:
    """Compare lattice signature blocks against the Minkowski closed form.

    Each lattice eigenvalue lambda_n is matched with the Minkowski mode at
    momentum magnitude sqrt(lambda_n); the Minkowski block is produced by the
    transform-conjugation route, independent of the lattice construction.
    The eigenvalues of each block are compared with -+pi through
    `signature.block_eigenvalues`, the closed form `kgsig signature` reports.
    """
    sig = signature_analytic(mass, basis)
    mink_blocks = cauchy_signature_blocks(sig.frequencies)
    block_devs = np.abs(mink_blocks - sig.blocks).max(axis=(1, 2))
    eigs = block_eigenvalues(mink_blocks)
    return CrossCheckReport(
        max_block_deviation=float(block_devs.max()),
        max_eigenvalue_deviation=float(np.abs(eigs - [-np.pi, np.pi]).max()),
        block_deviations=block_devs,
    )
