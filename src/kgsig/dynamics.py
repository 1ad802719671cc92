"""Hamiltonian Klein-Gordon dynamics on the lattice.

State variables are pairs Phi = (phi, pi) with pi = i * dphi/dt, evolving by
i dPhi/dt = H Phi. A `CauchyDatum` holds them as its (2, N) stack of sine-mode
coefficients (phi_n, pi_n), so propagation and every per-mode 2x2 block act on
it with no lattice transform. Per spectral mode the propagator is the exact
2x2 rotation

    U_n(t) = [[cos(w t), -i sin(w t)/w], [-i w sin(w t), cos(w t)]],

with w = sqrt(lambda_n + m^2), so the homogeneous evolution has no time-stepping
error. Spacetime sources live in mode space too: a `SpacetimeTestFunction`
holds the (J, N) sine-mode coefficients of its values at J time nodes, real
for a real source, so no function here makes a lattice transform. Data and
sources may be stacks, (..., 2, N) and (..., J, N) on one window, indexed on
the leading axes; every function here acts on the last two. The retarded and
advanced fields S_ret f and S_adv f come from one Duhamel pass,
`duhamel_modes`, as bare (..., J, N) mode arrays on f's window: one cos/sin
phase table feeds a forward and a backward cumulative Simpson quadrature,
whose fields `green_residuals` also checks. Their difference is the causal
field G f; `causal_fundamental` gets its t = 0 data from moments. The
Duhamel pass and its residuals write into their own buffers (ufuncs with
`out=`) in the operations and order of the plain expressions, so results
keep their values bit for bit (an exact zero may differ in sign) while a
command, one process each, touches less new memory.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import SpectralBasis, omega


class CauchyDatum:
    """Instantaneous field data as mode coefficients: `modes` is the (2, N)
    stack of (phi_n, pi_n) against `basis`, pi = i*dphi/dt, or (..., 2, N)."""

    __slots__ = ("modes", "basis")

    def __init__(self, modes: np.ndarray, basis: SpectralBasis) -> None:
        modes = np.asarray(modes, dtype=complex)
        if modes.shape[-2:] != (2, basis.size):
            raise ValueError("modes must have shape (..., 2, basis.size)")
        self.modes, self.basis = modes, basis

    def __getitem__(self, index) -> "CauchyDatum":
        return CauchyDatum(self.modes[index], self.basis)

    def __add__(self, other: "CauchyDatum") -> "CauchyDatum":
        if other.basis is not self.basis:
            raise ValueError("data live on different bases")
        return CauchyDatum(self.modes + other.modes, self.basis)

    def __mul__(self, c: complex) -> "CauchyDatum":
        return CauchyDatum(c * self.modes, self.basis)

    __rmul__ = __mul__


def apply_mode_blocks(blocks: np.ndarray, datum: CauchyDatum) -> CauchyDatum:
    """Act with per-mode 2x2 blocks, shape (N, 2, 2), on (phi_n, pi_n)."""
    return CauchyDatum(np.einsum("nij,...jn->...in", blocks, datum.modes), datum.basis)


def propagate(datum: CauchyDatum, t: float, mass: float) -> CauchyDatum:
    """Evolve Cauchy data by the exact spectral propagator."""
    w = omega(datum.basis.eigenvalues, mass)  # rejects a zero mode
    phi, pi = datum.modes[..., 0, :], datum.modes[..., 1, :]
    cos, sin = np.cos(w * t), np.sin(w * t)
    out = np.empty_like(datum.modes)
    out[..., 0, :] = cos * phi - 1j * (sin / w) * pi
    out[..., 1, :] = -1j * (w * sin) * phi + cos * pi
    return CauchyDatum(out, datum.basis)


def time_window(t_min: float, t_max: float, dt: float) -> np.ndarray:
    """Uniform time nodes covering [t_min, t_max] at a step of at most dt.

    The node count is forced odd (even interval count) so composite Simpson
    applies cleanly; dt is shrunk slightly if needed to fit.
    """
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise ValueError("time window bounds must be finite")
    if not t_max > t_min:
        raise ValueError("empty time window")
    if not dt > 0.0:  # NaN fails
        raise ValueError("time step must be positive")
    steps = np.ceil((float(t_max) - float(t_min)) / float(dt))  # Python floats: inf, no warning
    if not steps < np.iinfo(np.intp).max:
        raise ValueError("time window holds more nodes than an array index can count")
    steps = int(steps)
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


def _check_support(peak, ends) -> None:
    """Reject a source whose peak |modes| is not finite, or whose largest
    |modes| at the window's end nodes, `ends`, exceeds 1e-12 max(1, peak);
    elementwise over arrays of sources."""
    if not np.isfinite(peak).all():
        raise ValueError("source modes must be finite")
    if not (ends <= 1e-12 * np.maximum(1.0, peak)).all():
        raise ValueError("window too small to contain the support of f")


class SpacetimeTestFunction:
    """Smooth source supported strictly inside its time window, as its (J, N)
    sine-mode coefficients per time node, or a (..., J, N) stack of sources;
    real coefficients stay float64.

    The first and last time node must carry (numerically) vanishing modes;
    each source is checked alone, with no temporary the size of the stack.
    Indexing and scaling build a new source, so the checks run again.
    """

    __slots__ = ("times", "modes", "basis")

    def __init__(self, times: np.ndarray, modes: np.ndarray, basis: SpectralBasis) -> None:
        times = np.asarray(times, dtype=float)
        modes = np.asarray(modes)
        modes = modes.astype(np.result_type(modes, float), copy=False)  # (..., J, N)
        if modes.shape[-2:] != (times.size, basis.size) or times.ndim != 1:
            raise ValueError("modes must have shape (..., num_times, basis.size)")
        simpson_weights(times)  # validates uniform odd-length node set
        for source in modes.reshape((-1,) + modes.shape[-2:]):
            if np.iscomplexobj(source):
                peak = np.abs(source).max() if np.isfinite(source).all() else np.inf
            else:  # NaN reaches both max and min, +inf max and -inf min
                peak = max(source.max(), -source.min())
            _check_support(peak, np.abs(source[[0, -1]]).max())
        self.times, self.modes, self.basis = times, modes, basis

    def __getitem__(self, index) -> "SpacetimeTestFunction":
        return SpacetimeTestFunction(self.times, self.modes[index], self.basis)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def __mul__(self, c: complex) -> "SpacetimeTestFunction":
        return SpacetimeTestFunction(self.times, self.modes * c, self.basis)

    __rmul__ = __mul__


def cumulative_simpson_nodes(y: np.ndarray, dt: float, out: np.ndarray | None = None) -> np.ndarray:
    """Running composite Simpson integral along axis -2 (odd node count).

    Even-indexed nodes accumulate full Simpson pairs; odd-indexed nodes add
    the exact integral of the local interpolating parabola over the trailing
    subinterval. Complex-safe (scipy's cumulative_simpson is not). The
    result goes into `out` (new if None), which must not overlap y, with no
    temporary the size of y: the even nodes serve as scratch for the odd
    ones until the pair sums fill them.
    """
    j = y.shape[-2]
    if j < 3 or j % 2 == 0:
        raise ValueError("cumulative Simpson needs an odd number of nodes (>= 3)")
    result = np.empty_like(y) if out is None else out
    y, out = np.moveaxis(y, -2, 0), np.moveaxis(result, -2, 0)  # views, time first
    # odd nodes 3, 5, ...: (dt / 12) (-y1 + 8 y2 + 5 y3) over the trailing subinterval
    parabolas, fives = out[3::2], out[4::2]
    np.multiply(8.0, y[2:-1:2], out=parabolas)
    np.subtract(parabolas, y[1:-2:2], out=parabolas)
    np.add(parabolas, np.multiply(5.0, y[3::2], out=fives), out=parabolas)
    np.multiply(dt / 12.0, parabolas, out=parabolas)
    # node 1: (dt / 12) (5 y0 + 8 y1 - y2)
    np.multiply(5.0, y[0], out=out[1])
    np.add(out[1], np.multiply(8.0, y[1], out=out[2]), out=out[1])
    np.subtract(out[1], y[2], out=out[1])
    np.multiply(dt / 12.0, out[1], out=out[1])
    # even nodes: running sum of the pairs (dt / 3) (y0 + 4 y1 + y2)
    pairs = out[2::2]
    np.multiply(4.0, y[1:-1:2], out=pairs)
    np.add(y[0:-2:2], pairs, out=pairs)
    np.add(pairs, y[2::2], out=pairs)
    np.multiply(dt / 3.0, pairs, out=pairs)
    np.cumsum(pairs, axis=0, out=pairs)
    np.add(out[2:-1:2], parabolas, out=parabolas)
    out[0] = 0.0
    return result


def duhamel_modes(f: SpacetimeTestFunction, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """(..., J, N) mode coefficients of the retarded and advanced fields of f.

    sin(w(t - t')) = sin(wt)cos(wt') - cos(wt)sin(wt'), so both running
    Duhamel integrals are cumulative Simpson of the same cos/sin-weighted
    coefficients; the advanced one, over t' >= t, is the pass run backward
    from the future end of the window, negated. The fields are built in
    their own two arrays, each direction's sin part in a spent one: the
    advanced field's array for the forward pass, the cos-weighted source
    for the backward pass once its cos part is in.
    """
    w = omega(f.basis.eigenvalues, mass)
    phase = w[None, :] * f.times[:, None]
    cos_p = np.cos(phase)
    sin_p = np.sin(phase, out=phase)
    cos_src, sin_src = cos_p * f.modes, sin_p * f.modes
    ret, adv = np.empty_like(cos_src), np.empty_like(cos_src)

    def green(step: int, field: np.ndarray, sin_part: np.ndarray) -> np.ndarray:
        cumulative_simpson_nodes(cos_src[..., ::step, :], f.dt, out=field[..., ::step, :])
        cumulative_simpson_nodes(sin_src[..., ::step, :], f.dt, out=sin_part[..., ::step, :])
        # step * (sin_p * ccum - cos_p * scum) / w, in place; rounding is
        # sign-symmetric, so for step -1 the difference taken the other way
        # is the negated one (an exact zero may differ in sign)
        np.multiply(sin_p, field, out=field)
        np.multiply(cos_p, sin_part, out=sin_part)
        first, second = (field, sin_part) if step == 1 else (sin_part, field)
        np.subtract(first, second, out=field)
        return np.divide(field, w, out=field)

    return green(1, ret, adv), green(-1, adv, cos_src)


def _causal_data(basis: SpectralBasis, times: np.ndarray, mass: float, moments) -> CauchyDatum:
    """Cauchy data at t = 0 of G f from f's full-window moments: `moments`
    contracts f with a Simpson-weighted (J, N) phase table, first the sin
    table, then the cos table built in the phase buffer, into (..., N)."""
    w = omega(basis.eigenvalues, mass)
    phase = w[None, :] * times[:, None]
    quad = simpson_weights(times)[:, None]
    sin_table = np.sin(phase)
    sin_int = moments(np.multiply(quad, sin_table, out=sin_table))
    cos_table = np.cos(phase, out=phase)
    cos_int = moments(np.multiply(quad, cos_table, out=cos_table))
    return CauchyDatum(np.stack([-sin_int / w, 1j * cos_int], axis=-2), basis)


def causal_fundamental(f: SpacetimeTestFunction, mass: float) -> CauchyDatum:
    """Cauchy data at t = 0 of (retarded - advanced) applied to f.

    The difference is a homogeneous solution, so it is fixed by its t = 0
    data; those data have the closed mode-wise form
        phi_n(0) = -S_n / w_n,   pi_n(0) = i C_n,
    with C_n, S_n the full-window cos/sin moments of f. This route shares no
    quadrature with the cumulative Duhamel fields. One Simpson-weighted phase
    table serves the whole stack, contracted with no stack-sized temporary.
    """
    return _causal_data(
        f.basis, f.times, mass, lambda table: np.einsum("jn,...jn->...n", table, f.modes)
    )


def kg_residual(modes: np.ndarray, f: SpacetimeTestFunction, mass: float) -> float | np.ndarray:
    """Max norm of (D_t^2 - Lap + m^2) u - f over interior time nodes, per
    field, for the (..., J, N) modes of u on f's own window and basis.

    D_t^2 is the central second difference; the Laplacian acts spectrally
    (lambda_n per mode), which is exact for the lattice operator.
    """
    c, w2 = np.moveaxis(modes, -2, 0), f.basis.eigenvalues + mass**2  # time first
    src = np.moveaxis(f.modes, -2, 0)[1:-1]
    # (c2 - 2 c1 + c0) / dt^2 + w2 c1 - src in one buffer; w2 c1 in the
    # magnitude buffer, whose first N floats per C-order row then take |res|
    res, mag = np.multiply(2.0, c[1:-1]), np.multiply(w2, c[1:-1], order="C")
    np.subtract(c[2:], res, out=res)
    np.add(res, c[:-2], out=res)
    np.divide(res, f.dt**2, out=res)
    np.add(res, mag, out=res)
    res = np.subtract(res, src, out=res if np.can_cast(src.dtype, res.dtype) else None)
    mag = np.abs(res, out=mag.view(float)[..., : w2.size])
    # mode coefficients carry the h-weighted norm already (Parseval)
    return np.sqrt(np.sum(np.square(mag, out=mag), axis=-1)).max(axis=0)


def green_residuals(f: SpacetimeTestFunction, mass: float) -> tuple[float, float]:
    """`kg_residual` of the retarded and advanced fields of f, both from one
    `duhamel_modes` pass."""
    ret, adv = duhamel_modes(f, mass)
    return kg_residual(ret, f, mass), kg_residual(adv, f, mass)
