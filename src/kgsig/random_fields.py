"""Seeded generators for Cauchy data and smooth spacetime test sources.

Test sources are built from C-infinity bumps in time and Gaussian profiles in
space. Spatial smoothness matters quantitatively: the Duhamel quadrature error
per mode scales like (omega_n * dt)^4, so sources need decaying high-mode
content for the stated dual-route tolerances to be meaningful. One call draws
a source or a stack of them and analyzes all their spatial profiles at once,
a real stack by a real transform, so real sources stay float64. A source is
returned as its terms' factors, time profiles and analyzed spatial shapes,
and never as its (J, N) modes. Random Cauchy data are drawn directly as mode
coefficients, with no transform.

The draws are probes, so the exact random stream does not matter; what
matters is that a seed reproduces them. `Draws` takes them from the stdlib
Mersenne Twister, which `import numpy` has already loaded, so no command pays
for importing `numpy.random`. Python keeps `random.Random(seed).random()`
the same across versions, so a seed gives the same data on every Python.
An array of normals takes its uniforms from one `randbytes` call, which
relies on CPython's word order (see `Draws`).
The generators accept any object with `uniform(lo, hi)` and
`normal(size=None)`, a numpy `Generator` included.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .dynamics import CauchyDatum, SpacetimeTestFunction
from .lattice import SpectralBasis

COMPONENTS = 3  # terms of a random source


class Draws:
    """Seeded uniform and standard normal draws from `random.Random(seed)`.

    Normals come from Box-Muller on consecutive pairs of `random()` values,
    sqrt(-2 log1p(-u1)) cos(2 pi u2); since u1 < 1, the log's argument is
    never 0. Each normal consumes two values, whether drawn alone or in an
    array, so `normal(k)` agrees with k calls of `normal()` up to rounding.

    An array reads `randbytes(16 k)` as the 4k 32-bit words that 2k
    `random()` calls would take, in order, and forms each value as `random()`
    does, ((w0 >> 5) 2^26 + (w1 >> 6)) / 2^53, so values and the generator's
    next state are bit-identical; `test_bulk_normals_consume_the_single_draw_stream`
    pins both.
    """

    def __init__(self, seed: int):
        self._twister = random.Random(seed)

    def uniform(self, lo: float, hi: float) -> float:
        """One draw from [lo, hi); as in `random.uniform`, rounding may give hi."""
        return lo + (hi - lo) * self._twister.random()

    def normal(self, size=None):
        """A float, or an array of shape `size`, of standard normal draws."""
        if size is None:
            u1, u2 = self._twister.random(), self._twister.random()
            return math.sqrt(-2.0 * math.log1p(-u1)) * math.cos(2.0 * math.pi * u2)
        words = np.frombuffer(self._twister.randbytes(16 * int(np.prod(size))), "<u4")
        u = ((words[0::2] >> 5).astype(np.int64) << 26 | words[1::2] >> 6) * 2.0**-53
        normals = np.sqrt(-2.0 * np.log1p(-u[0::2])) * np.cos(2.0 * np.pi * u[1::2])
        return normals.reshape(size)


def bump(s: np.ndarray) -> np.ndarray:
    """exp(-1/(1-s^2)) on |s| < 1, zero outside; smooth on the whole line.

    Evaluated in the output array, on the entries inside only; the mask is
    the one other array the size of s."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    inside = np.abs(s, out=out) < 1.0
    out[...] = 0.0
    np.square(s, out=out, where=inside)
    np.subtract(1.0, out, out=out, where=inside)
    with np.errstate(divide="ignore", over="ignore"):  # s^2 may round to 1
        np.divide(-1.0, out, out=out, where=inside)
    return np.exp(out, out=out, where=inside)


def random_datum(rng: Draws, basis: SpectralBasis) -> CauchyDatum:
    """Cauchy datum with standard complex normal mode coefficients."""
    n = basis.size
    coeffs = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    return CauchyDatum(coeffs, basis)


def _source_factors(
    rng: Draws, basis: SpectralBasis, times: np.ndarray, real: bool, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (C count, J) time profiles and the (C count, N) analyzed spatial
    shapes of `count` random sources, term c of source k in row C k + c;
    per term the draws are center, half-width, carrier, phase, x0, width,
    amplitude."""
    t0, t1, length = float(times[0]), float(times[-1]), basis.grid.length
    span = t1 - t0
    bounds = [(t0 + 0.30 * span, t1 - 0.30 * span), (0.15 * span, 0.25 * span),  # time bump
              (0.0, 2.0), (0.0, 2.0 * np.pi),  # carrier frequency and phase
              (0.25 * length, 0.75 * length), (0.10 * length, 0.20 * length)]  # space
    params = np.empty((6, count * COMPONENTS))
    amps = np.empty(count * COMPONENTS, dtype=float if real else complex)
    for k in range(count * COMPONENTS):
        drawn = [rng.uniform(lo, hi) for lo, hi in bounds]
        drawn[-1] = 2.0 * drawn[-1] ** 2  # Python's pow: may round unlike numpy's square
        params[:, k] = drawn
        amps[k] = rng.normal() if real else rng.normal() + 1j * rng.normal()
    center, half_width, carrier, phase, x0, spread = params[:, :, None]
    # bump((t - center) / half_width) cos(carrier t + phase), one scratch array for both arguments
    scratch = np.subtract(times, center)
    profiles = bump(np.divide(scratch, half_width, out=scratch))
    wave = np.add(np.multiply(carrier, times, out=scratch), phase, out=scratch)
    profiles *= np.cos(wave, out=wave)
    shapes = amps[:, None] * np.exp(-((basis.grid.points - x0) ** 2) / spread)
    return profiles, basis.analyze(shapes)


def random_test_function(
    rng: Draws,
    basis: SpectralBasis,
    times: np.ndarray,
    real: bool = False,
    size: int | None = None,
) -> SpacetimeTestFunction:
    """Random smooth source supported strictly inside the time window, or the
    (size,) stack of the sources that `size` single calls would draw.
    The stack equals those draws exactly on the FFT path of the sine transform
    and on small grids; for real sources on the table path its shapes match
    only up to rounding (seed 7, six sources: 9.4e-17 of the largest entry at
    n = 300, 8.1e-16 at n = 500), because the table product is not
    batch-invariant.

    Each is a sum of COMPONENTS (time bump x carrier) x (Gaussian space
    profile) terms with random centers, widths, amplitudes and carrier
    frequencies, held as its terms' time profiles and analyzed shapes; no
    (J, N) array of modes is built.
    """
    count = 1 if size is None else size
    profiles, shapes = _source_factors(rng, basis, times, real, count)
    profiles = profiles.reshape(count, COMPONENTS, times.size)
    shapes = shapes.reshape(count, COMPONENTS, basis.size)
    if size is None:
        profiles, shapes = profiles[0], shapes[0]
    return SpacetimeTestFunction(times, profiles, shapes, basis)
