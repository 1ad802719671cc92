"""Hamiltonian Klein-Gordon dynamics on the lattice.

State variables are pairs Phi = (phi, pi) with pi = i * dphi/dt, evolving by
i dPhi/dt = H Phi. A `CauchyDatum` holds them as its (2, N) stack of sine-mode
coefficients (phi_n, pi_n), so propagation and every per-mode 2x2 block act on
it with no lattice transform. Per spectral mode the propagator is the exact
2x2 rotation

    U_n(t) = [[cos(w t), -i sin(w t)/w], [-i w sin(w t), cos(w t)]],

with w = sqrt(lambda_n + m^2), so the homogeneous evolution has no time-stepping
error. The retarded and advanced Green's operators come from one Duhamel pass
per source, `duhamel_modes`: one analysis and one cos/sin phase table feed a
forward and a backward cumulative Simpson quadrature in mode space, where
`green_residuals` also checks both fields, with no synthesize/analyze round
trip. `causal_fundamental` gets the t = 0 data of their difference, as mode
coefficients, from full-window moments against an `oscillator_table` that
sources on one window share. Spacetime sources and fields stay
lattice-valued; real sources stay real, and each of their lattice/mode
conversions is one `analyze`/`synthesize`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .lattice import SpectralBasis, omega

DT_DEFAULT = 0.05


@dataclass(frozen=True)
class CauchyDatum:
    """Instantaneous field data as mode coefficients: `modes` is the (2, N)
    stack of (phi_n, pi_n) against `basis`, pi = i*dphi/dt."""

    modes: np.ndarray
    basis: SpectralBasis

    def __post_init__(self) -> None:
        modes = np.asarray(self.modes, dtype=complex)
        if modes.shape != (2, self.basis.size):
            raise ValueError("modes must have shape (2, basis.size)")
        object.__setattr__(self, "modes", modes)

    def __add__(self, other: "CauchyDatum") -> "CauchyDatum":
        if other.basis is not self.basis:
            raise ValueError("data live on different bases")
        return CauchyDatum(self.modes + other.modes, self.basis)

    def __mul__(self, c: complex) -> "CauchyDatum":
        return CauchyDatum(c * self.modes, self.basis)

    __rmul__ = __mul__


def apply_mode_blocks(blocks: np.ndarray, datum: CauchyDatum) -> CauchyDatum:
    """Act with per-mode 2x2 blocks, shape (N, 2, 2), on (phi_n, pi_n)."""
    return CauchyDatum(np.einsum("nij,jn->in", blocks, datum.modes), datum.basis)


def propagate(datum: CauchyDatum, t: float, mass: float) -> CauchyDatum:
    """Evolve Cauchy data by the exact spectral propagator."""
    w = omega(datum.basis.eigenvalues, mass)  # rejects a zero mode
    c = datum.modes
    cos, sin = np.cos(w * t), np.sin(w * t)
    out = np.empty_like(c)
    out[0] = cos * c[0] - 1j * (sin / w) * c[1]
    out[1] = -1j * (w * sin) * c[0] + cos * c[1]
    return CauchyDatum(out, datum.basis)


def time_window(t_min: float, t_max: float, dt: float = DT_DEFAULT) -> np.ndarray:
    """Uniform time nodes covering [t_min, t_max].

    The node count is forced odd (even interval count) so composite Simpson
    applies cleanly; dt is shrunk slightly if needed to fit.
    """
    if not t_max > t_min:
        raise ValueError("empty time window")
    steps = int(np.ceil((t_max - t_min) / dt))
    if steps % 2 == 1:
        steps += 1
    steps = max(steps, 2)
    return np.linspace(t_min, t_max, steps + 1)


def simpson_weights(times: np.ndarray) -> np.ndarray:
    """Composite Simpson weights for an odd-length uniform node set."""
    n = times.size
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson weights need an odd number of nodes (>= 3)")
    dt = times[1] - times[0]
    if not np.abs(np.diff(times) - dt).max() <= 1e-9 * abs(dt):  # NaN fails
        raise ValueError("time nodes must be uniform")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dt / 3.0)


@dataclass(frozen=True)
class SpacetimeField:
    """Scalar field on (time node) x (lattice point); real values stay float64."""

    times: np.ndarray
    values: np.ndarray  # (J, N)
    basis: SpectralBasis

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values)
        values = values.astype(np.result_type(values, float), copy=False)
        if values.shape != (times.size, self.basis.size):
            raise ValueError("values must have shape (num_times, num_points)")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def mode_values(self) -> np.ndarray:
        """Coefficients against the spectral basis, shape (J, N)."""
        return self.basis.analyze(self.values)

    def __mul__(self, c: complex) -> "SpacetimeField":
        return replace(self, values=self.values * c)

    __rmul__ = __mul__


@dataclass(frozen=True)
class SpacetimeTestFunction(SpacetimeField):
    """Smooth source supported strictly inside its time window.

    The first and last time node must carry (numerically) vanishing values.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        simpson_weights(self.times)  # validates uniform odd-length node set
        scale = max(1.0, float(np.abs(self.values).max()))
        if (
            np.abs(self.values[0]).max() > 1e-12 * scale
            or np.abs(self.values[-1]).max() > 1e-12 * scale
        ):
            raise ValueError("window too small to contain the support of f")


def cumulative_simpson_nodes(y: np.ndarray, dt: float) -> np.ndarray:
    """Running composite Simpson integral along axis 0 (odd node count).

    Even-indexed nodes accumulate full Simpson pairs; odd-indexed nodes add
    the exact integral of the local interpolating parabola over the trailing
    subinterval. Complex-safe (scipy's cumulative_simpson is not).
    """
    j = y.shape[0]
    if j < 3 or j % 2 == 0:
        raise ValueError("cumulative Simpson needs an odd number of nodes (>= 3)")
    out = np.zeros_like(y)
    pairs = (dt / 3.0) * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    out[2::2] = np.cumsum(pairs, axis=0)
    out[1] = (dt / 12.0) * (5.0 * y[0] + 8.0 * y[1] - y[2])
    if j > 3:
        out[3::2] = out[2:-1:2] + (dt / 12.0) * (
            -y[1:-2:2] + 8.0 * y[2:-1:2] + 5.0 * y[3::2]
        )
    return out


def duhamel_modes(
    f: SpacetimeTestFunction, mass: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J, N) mode coefficients of f and of its retarded and advanced fields.

    sin(w(t - t')) = sin(wt)cos(wt') - cos(wt)sin(wt'), so both running
    Duhamel integrals are cumulative Simpson of the same cos/sin-weighted
    coefficients; the advanced one, over t' >= t, is the pass run backward
    from the future end of the window, negated.
    """
    w = omega(f.basis.eigenvalues, mass)
    src = f.mode_values()
    phase = w[None, :] * f.times[:, None]
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    cos_src, sin_src = cos_p * src, sin_p * src

    def green(step: int) -> np.ndarray:
        ccum = cumulative_simpson_nodes(cos_src[::step], f.dt)[::step]
        scum = cumulative_simpson_nodes(sin_src[::step], f.dt)[::step]
        return step * (sin_p * ccum - cos_p * scum) / w[None, :]

    return src, green(1), green(-1)


def _field(f: SpacetimeTestFunction, coeffs: np.ndarray) -> SpacetimeField:
    return SpacetimeField(times=f.times, values=f.basis.synthesize(coeffs), basis=f.basis)


def retarded_green(f: SpacetimeTestFunction, mass: float) -> SpacetimeField:
    """Solution of (d_t^2 - Lap + m^2) u = f supported toward the future."""
    return _field(f, duhamel_modes(f, mass)[1])


def advanced_green(f: SpacetimeTestFunction, mass: float) -> SpacetimeField:
    """Solution of the same equation supported toward the past."""
    return _field(f, duhamel_modes(f, mass)[2])


def oscillator_table(
    basis: SpectralBasis, times: np.ndarray, mass: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """w and the Simpson-weighted cos(w t), sin(w t), shape (J, N), on a window."""
    w = omega(basis.eigenvalues, mass)
    phase = w[None, :] * times[:, None]
    quad = simpson_weights(times)[:, None]
    return w, quad * np.cos(phase), quad * np.sin(phase)


def causal_fundamental(f: SpacetimeTestFunction, mass: float, table=None) -> CauchyDatum:
    """Cauchy data at t = 0 of (retarded - advanced) applied to f.

    The difference is a homogeneous solution, so it is fixed by its t = 0
    data; those data have the closed mode-wise form
        phi_n(0) = -S_n / w_n,   pi_n(0) = i C_n,
    with C_n, S_n the full-window cos/sin moments of f. This route shares no
    quadrature with the cumulative Duhamel fields. Sources on one window may
    share `table = oscillator_table(f.basis, f.times, mass)`, built once.
    """
    w, cos_table, sin_table = table or oscillator_table(f.basis, f.times, mass)
    coeffs = f.mode_values()  # (J, N)
    sin_int = np.sum(sin_table * coeffs, axis=0)
    cos_int = np.sum(cos_table * coeffs, axis=0)
    return CauchyDatum(np.stack([-sin_int / w, 1j * cos_int]), f.basis)


def causal_field(f: SpacetimeTestFunction, mass: float) -> SpacetimeField:
    """Spacetime field of (retarded - advanced) f over f's window."""
    _, ret, adv = duhamel_modes(f, mass)
    return _field(f, ret - adv)


def _mode_residual(
    coeffs: np.ndarray, src: np.ndarray, dt: float, w2: np.ndarray
) -> float:
    d2 = (coeffs[2:] - 2.0 * coeffs[1:-1] + coeffs[:-2]) / dt**2
    res = d2 + w2[None, :] * coeffs[1:-1] - src[1:-1]
    # mode coefficients carry the h-weighted norm already (Parseval)
    return float(np.sqrt(np.sum(np.abs(res) ** 2, axis=1)).max())


def kg_residual(u: SpacetimeField, f: SpacetimeTestFunction, mass: float) -> float:
    """Max norm of (D_t^2 - Lap + m^2) u - f over interior time nodes.

    D_t^2 is the central second difference; the Laplacian acts spectrally
    (lambda_n per mode), which is exact for the lattice operator.
    """
    w2 = u.basis.eigenvalues + mass**2
    return _mode_residual(u.mode_values(), f.mode_values(), u.dt, w2)


def green_residuals(f: SpacetimeTestFunction, mass: float) -> tuple[float, float]:
    """`kg_residual` of the retarded and advanced fields of f, taken on the
    mode coefficients of one `duhamel_modes` pass, so f is analyzed once."""
    src, ret, adv = duhamel_modes(f, mass)
    w2 = f.basis.eigenvalues + mass**2
    return _mode_residual(ret, src, f.dt, w2), _mode_residual(adv, src, f.dt, w2)
