"""Hamiltonian Klein-Gordon dynamics on the lattice.

State variables are pairs Phi = (phi, pi) with pi = i * dphi/dt, evolving by
i dPhi/dt = H Phi. A `CauchyDatum` holds them as its (2, N) stack of sine-mode
coefficients (phi_n, pi_n), so propagation and every per-mode 2x2 block act on
it with no lattice transform. Per spectral mode the propagator is the exact
2x2 rotation

    U_n(t) = [[cos(w t), -i sin(w t)/w], [-i w sin(w t), cos(w t)]],

with w = sqrt(lambda_n + m^2), so the homogeneous evolution has no time-stepping
error. Spacetime sources live in mode space too, as sums of terms: a
`SpacetimeTestFunction` holds each term's time profile at the J time nodes
and its spatial shape as N sine-mode coefficients, (C, J) and (C, N), and no
function here holds its (J, N) array of modes. Data and sources may be
stacks, (..., 2, N) and (..., C, J) with (..., C, N), indexed on the leading
axes; every function here acts per datum or source. The causal t = 0 data
take each term's full-window moments, one (C, J) @ (J, N) product per source
and phase table. The retarded and advanced fields S_ret f and S_adv f come
from one kernel, `_green_blocks`, a cumulative Simpson quadrature run forward
or backward in time over blocks of time rows, each holding its nodes in order
and carrying two rows of running integrals to the next, that yields the field
block by block, a few of `_BLOCK_VALUES` values per pass whatever the
window's length.
`green_residuals` and the causal form `gm_form`, <f, S_ret g> -
conj(<g, S_ret f>) from two forward passes, reduce the blocks as they arrive,
so no function holds a whole field; ret - adv is the causal field G f. The
blocked values take the operations, in the order, of the plain whole-window
expressions on the source's rows (the tests keep them as references), so
results keep their values bit for bit (an exact zero may differ in sign).
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import SpectralBasis, omega


# values in one block of time rows (rows x stack x modes): a Duhamel pass
# holds a cos and a sin block each of weighted source and of running
# integrals, and the phases, whatever the window's length
_BLOCK_VALUES = 1 << 13


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


class SpacetimeTestFunction:
    """Smooth source supported strictly inside its time window, as a sum of
    C terms profile_c(t) shape_c: the (C, J) real time profiles at the
    window's nodes and the (C, N) sine-mode coefficients of the spatial
    shapes, or (..., C, J) and (..., C, N) for a stack of sources; real
    shapes stay float64, and a complex source has complex shapes.

    Each term is checked alone, through its two factors: its peak |modes|
    must be finite, and its largest |modes| at the first and last node at
    most 1e-12 max(1, peak). Indexing (on the stack axes) and scaling build a
    new source, so the checks run again.
    """

    __slots__ = ("times", "profiles", "shapes", "basis")

    def __init__(
        self, times: np.ndarray, profiles: np.ndarray, shapes: np.ndarray, basis: SpectralBasis
    ) -> None:
        times, profiles = np.asarray(times, dtype=float), np.asarray(profiles)
        if np.iscomplexobj(profiles):
            raise ValueError("time profiles must be real")
        profiles, shapes = profiles.astype(float, copy=False), np.asarray(shapes)
        # contiguous, so that `_source_rows` may view complex shapes as floats
        shapes = np.ascontiguousarray(shapes, dtype=np.result_type(shapes, float))
        if (times.ndim != 1 or profiles.ndim < 2 or profiles.shape[-1] != times.size
                or shapes.shape != profiles.shape[:-1] + (basis.size,)):
            raise ValueError(
                "profiles and shapes must have shapes (..., C, num_times) and (..., C, basis.size)"
            )
        simpson_weights(times)  # validates uniform odd-length node set
        # per term: peak |modes|, then the largest |modes| at the end nodes
        scale = np.abs(shapes).max(axis=-1)
        with np.errstate(invalid="ignore", over="ignore"):  # 0 x inf, or an overflow: rejected
            peak = np.abs(profiles).max(axis=-1) * scale
        if not np.isfinite(peak).all():
            raise ValueError("source modes must be finite")
        ends = np.abs(profiles[..., [0, -1]]).max(axis=-1) * scale
        if not (ends <= 1e-12 * np.maximum(1.0, peak)).all():
            raise ValueError("window too small to contain the support of f")
        self.times, self.profiles, self.shapes, self.basis = times, profiles, shapes, basis

    def __getitem__(self, index) -> "SpacetimeTestFunction":
        key = (index if isinstance(index, tuple) else (index,)) + (slice(None),) * 2
        return SpacetimeTestFunction(self.times, self.profiles[key], self.shapes[key], self.basis)

    @property
    def shape(self) -> tuple[int, ...]:
        """The stack's shape, () for one source."""
        return self.profiles.shape[:-2]

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the source's modes, that of its shapes."""
        return self.shapes.dtype

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def __mul__(self, c: complex) -> "SpacetimeTestFunction":
        return SpacetimeTestFunction(self.times, self.profiles, self.shapes * c, self.basis)

    __rmul__ = __mul__


def _source_rows(profiles: np.ndarray, shapes: np.ndarray, nodes) -> np.ndarray:
    """The (..., rows, N) modes of the sources with these factors at the time
    nodes `nodes` of `profiles` (a slice): profile_c shape_c summed over the
    terms. einsum's loop runs over the terms for each row alike, so a row's
    values do not depend on which other rows are formed. A complex shape is
    taken as its real and imaginary parts side by side, so every product is
    real by real."""
    parts = shapes.view(float)  # (..., C, N or 2N)
    return np.einsum("...cj,...cn->...jn", profiles[..., nodes], parts).view(shapes.dtype)


def _green_blocks(f: SpacetimeTestFunction, mass: float, step: int):
    """The retarded (step 1) or advanced (step -1) field of f in blocks of
    time rows, in the order the pass runs (backward in time for step -1).

    Yields (first, block): block[k], shape (..., N), is the field at pass
    node first + k. The first block starts at node 0; each later one repeats
    the last two nodes of the block before, and the last ends at node J - 1.
    The next block overwrites the buffer.

    sin(w(t - t')) = sin(wt)cos(wt') - cos(wt)sin(wt'), so the running
    Duhamel integral is cumulative Simpson of the cos- and sin-weighted
    source; the advanced one, over t' >= t, is the pass run backward from
    the future end of the window, negated. Each block builds its rows of the
    phase table, source (`_source_rows`) and weighted source in node order,
    from the node before the one it continues at, so the trailing parabola
    after that node has its three nodes. It takes the sums of the tests'
    `reference_cumulative_simpson` on these rows, in that order, and carries
    its last two running values to the next block, so every value takes the
    operations, in the order, of one pass over the whole window. The field
    is written over the running integrals.
    """
    w = omega(f.basis.eigenvalues, mass)
    times, profiles = f.times[::step], f.profiles[..., ::step]  # in pass order
    nodes, stack, dt = len(times), f.shape, f.dt
    unit = (1,) * len(stack)
    pairs = max(1, _BLOCK_VALUES // max(1, 2 * w.size * math.prod(stack)))
    pairs = min(pairs, (nodes - 1) // 2)
    # cos and sin parts x a block's nodes: start - 1 ... start + 2 pairs
    shape = (2, 2 * pairs + 2, *stack, w.size)
    phases = np.empty((2, 2 * pairs + 2, *unit, w.size))
    weighted, running = np.empty(shape, f.dtype), np.empty(shape, f.dtype)
    carried = np.empty((2, 2, *stack, w.size), f.dtype)
    start = 0  # the even node the block continues the pass at
    while True:
        first, end = max(start - 1, 0), min(start + 2 * pairs, nodes - 1)
        span, rows = slice(first, end + 1), end + 1 - first
        cos_sin, phase = phases[:, :rows], phases[1, :rows]
        np.multiply(w, times[span].reshape(-1, *unit, 1), out=phase)
        np.cos(phase, out=cos_sin[0])
        np.sin(phase, out=phase)
        src = np.moveaxis(_source_rows(profiles, f.shapes, span), -2, 0)  # time first
        y = np.multiply(cos_sin, src, out=weighted[:, :rows])
        del src  # before the sums' temporaries
        out = running[:, :rows]
        if start == 0:  # node 1: (dt / 12) (5 y0 + 8 y1 - y2)
            out[:, 0] = 0.0
            out[:, 1] = (dt / 12.0) * (5.0 * y[:, 0] + 8.0 * y[:, 1] - y[:, 2])
            e, odd = 0, 3  # the rows of node start and of the first parabola
        else:  # nodes start - 1 and start hold the block before's last values
            out[:, :2] = carried
            e, odd = 1, 2
        # even nodes: running sum of the pairs (dt / 3) (y0 + 4 y1 + y2)
        out[:, e + 2::2] = (dt / 3.0) * (y[:, e:-2:2] + 4.0 * y[:, e + 1:-1:2] + y[:, e + 2::2])
        np.cumsum(out[:, odd - 1::2], axis=1, out=out[:, odd - 1::2])
        # odd nodes: (dt / 12) (-y1 + 8 y2 + 5 y3) over the trailing subinterval
        out[:, odd::2] = out[:, odd - 1:-1:2] + (dt / 12.0) * (
            -y[:, odd - 2:-2:2] + 8.0 * y[:, odd - 1:-1:2] + 5.0 * y[:, odd::2])
        carried[...] = out[:, -2:]
        # step * (sin_p * ccum - cos_p * scum) / w, in place; rounding is
        # sign-symmetric, so for step -1 the difference taken the other way
        # is the negated one (an exact zero may differ in sign)
        np.multiply(cos_sin[::-1], out, out=out)
        sin_part, cos_part = out
        np.subtract(*((sin_part, cos_part) if step == 1 else (cos_part, sin_part)), out=sin_part)
        yield first, np.divide(sin_part, w, out=sin_part)
        if end == nodes - 1:
            return
        start = end


def _retarded_pairing(
    f: SpacetimeTestFunction, g: SpacetimeTestFunction, mass: float
) -> complex | np.ndarray:
    """<f, S_ret g>, broadcast over the stack axes (see `gm_form`)."""
    if f.basis is not g.basis:
        raise ValueError("sources live on different bases")
    if not np.array_equal(f.times, g.times):
        raise ValueError("sources must share a time window")
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


def gm_form(
    f: SpacetimeTestFunction, g: SpacetimeTestFunction, mass: float
) -> complex | np.ndarray:
    """Spacetime quadrature of conj(f) * (causal field of g), broadcast over
    the stack axes of f and g, which must share one basis object and equal
    time nodes.

    S_adv is the adjoint of S_ret for the spacetime L^2 product, <f, S_adv g>
    = <S_ret f, g>, so the form is <f, S_ret g> - conj(<g, S_ret f>): two
    forward passes, each block reduced as it arrives to the per-node mode
    sums of conj(f) * S_ret g (Parseval), then Simpson-weighted, so no field
    is held whole, and gm_form(g, f) is -conj(gm_form(f, g)) exactly. The
    Duhamel field ret - adv agrees with that of `causal_fundamental`'s t = 0
    data at even time nodes to rounding and differs at odd ones (the
    cumulative Simpson rule's trailing parabola), and the adjoint form differs
    from <f, (ret - adv) g> at quadrature order too: the symplectic form of
    f's and g's `causal_fundamental` data checks this one at quadrature order.
    """
    return _retarded_pairing(f, g, mass) - np.conj(_retarded_pairing(g, f, mass))


def causal_fundamental(f: SpacetimeTestFunction, mass: float) -> CauchyDatum:
    """Cauchy data at t = 0 of (retarded - advanced) applied to f.

    The difference is a homogeneous solution, so it is fixed by its t = 0
    data; those data have the closed mode-wise form
        phi_n(0) = -S_n / w_n,   pi_n(0) = i C_n,
    with C_n, S_n the full-window cos/sin moments of f. Per term these are
    its shape times the moments of its time profile, so each Simpson-weighted
    (J, N) phase table, the sin table and then the cos table in the phase
    buffer, takes one (C, J) @ (J, N) product per source: numpy's stacked
    product runs one such product per source, so a source's data do not
    depend on the stack it is solved in. This route shares no cumulative
    quadrature with the Duhamel fields.
    """
    w = omega(f.basis.eigenvalues, mass)
    phase = w[None, :] * f.times[:, None]
    quad = simpson_weights(f.times)[:, None]

    def moments(table: np.ndarray) -> np.ndarray:
        return ((f.profiles @ table) * f.shapes).sum(axis=-2)

    sin_table = np.sin(phase)
    sin_int = moments(np.multiply(quad, sin_table, out=sin_table))
    cos_table = np.cos(phase, out=phase)
    cos_int = moments(np.multiply(quad, cos_table, out=cos_table))
    return CauchyDatum(np.stack([-sin_int / w, 1j * cos_int], axis=-2), f.basis)


def _residual_norms(before, at, after, src, w2, dt) -> np.ndarray:
    """Per node, the norm of (D_t^2 - Lap + m^2) u - f, from time-first
    (rows, ..., N) modes, all of one dtype, of u at the nodes (`at`) and just
    before and after them in time, and of f at the nodes; w2 = lambda_n + m^2."""
    # (c2 - 2 c1 + c0) / dt^2 + w2 c1 - src in one buffer; w2 c1 in the
    # magnitude buffer, whose first N floats per C-order row then take |res|
    res, mag = np.multiply(2.0, at), np.multiply(w2, at, order="C")
    np.subtract(after, res, out=res)
    np.add(res, before, out=res)
    np.divide(res, dt**2, out=res)
    np.add(res, mag, out=res)
    np.subtract(res, src, out=res)
    mag = np.abs(res, out=mag.view(float)[..., : w2.size])
    # mode coefficients carry the h-weighted norm already (Parseval); a norm
    # whose square overflows is inf
    with np.errstate(over="ignore"):
        return np.sqrt(np.sum(np.square(mag, out=mag), axis=-1))


def green_residuals(f: SpacetimeTestFunction, mass: float) -> tuple[float, float]:
    """Max norm of (D_t^2 - Lap + m^2) u - f over interior time nodes, per
    source, for the retarded and advanced fields u of f, each reduced block
    by block as its pass yields it. D_t^2 is the central second difference
    over a block's interior nodes, whose halo is the two nodes each block
    repeats from the one before, so every interior node of the window is
    taken; the Laplacian acts spectrally, exact for the lattice operator."""
    w2 = f.basis.eigenvalues + mass**2
    worst = []
    for step in (1, -1):
        profiles, peak = f.profiles[..., ::step], None  # in pass order
        for first, block in _green_blocks(f, mass, step):
            before, after = block[:-2], block[2:]
            if step == -1:  # the pass runs backward in time
                before, after = after, before
            src = _source_rows(profiles, f.shapes, slice(first + 1, first + len(block) - 1))
            src = np.moveaxis(src, -2, 0)  # time first
            norms = _residual_norms(before, block[1:-1], after, src, w2, f.dt).max(axis=0)
            peak = norms if peak is None else np.maximum(peak, norms)
        worst.append(peak)
        del block, before, after, src  # the pass's last block, before the next pass
    return worst[0], worst[1]
