"""Seeded generators for Cauchy data and smooth spacetime test sources.

Test sources are built from C-infinity bumps in time and Gaussian profiles in
space. Spatial smoothness matters quantitatively: the Duhamel quadrature error
per mode scales like (omega_n * dt)^4, so sources need decaying high-mode
content for the stated dual-route tolerances to be meaningful. Real sources
stay real: their values are float64, so every transform of them is a real one.
Random Cauchy data are drawn directly as mode coefficients, with no transform.
"""

from __future__ import annotations

import numpy as np

from .dynamics import CauchyDatum, SpacetimeTestFunction
from .lattice import SpectralBasis


def bump(s: np.ndarray) -> np.ndarray:
    """exp(-1/(1-s^2)) on |s| < 1, zero outside; smooth on the whole line."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


def bump_profile(times: np.ndarray, center: float, half_width: float) -> np.ndarray:
    return bump((times - center) / half_width)


def random_datum(rng: np.random.Generator, basis: SpectralBasis) -> CauchyDatum:
    """Cauchy datum with standard complex normal mode coefficients."""
    n = basis.size
    coeffs = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    return CauchyDatum(coeffs, basis)


def random_test_function(
    rng: np.random.Generator,
    basis: SpectralBasis,
    times: np.ndarray,
    components: int = 3,
    real: bool = False,
) -> SpacetimeTestFunction:
    """Random smooth source supported strictly inside the time window.

    A sum of (time bump x carrier) x (Gaussian space profile) terms with
    random centers, widths, amplitudes and carrier frequencies.
    """
    t0, t1 = float(times[0]), float(times[-1])
    span = t1 - t0
    x = basis.grid.points
    length = basis.grid.length
    profiles = np.empty((components, times.size))
    shapes = np.empty((components, basis.size), dtype=float if real else complex)
    for k in range(components):
        center = rng.uniform(t0 + 0.30 * span, t1 - 0.30 * span)
        half_width = rng.uniform(0.15 * span, 0.25 * span)
        carrier = rng.uniform(0.0, 2.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        profiles[k] = bump_profile(times, center, half_width) * np.cos(
            carrier * times + phase
        )
        x0 = rng.uniform(0.25 * length, 0.75 * length)
        width = rng.uniform(0.10 * length, 0.20 * length)
        shape = np.exp(-((x - x0) ** 2) / (2.0 * width**2))
        if real:
            amp = rng.normal()
        else:
            amp = rng.normal() + 1j * rng.normal()
        shapes[k] = amp * shape
    values = profiles.T @ shapes  # (J, C) @ (C, N)
    return SpacetimeTestFunction(times=times, values=values, basis=basis)
