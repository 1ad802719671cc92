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
from one kernel, `_green_blocks`: a cumulative Simpson quadrature of the
cos- and sin-weighted source, run forward or backward in time and yielding
the field in blocks of time rows in node order, each built from its own
rows of the phase table and of the source (`_source_rows`, which forms a
row the same way whatever block it falls in); consecutive blocks share two
nodes. A pass holds a few blocks of `_BLOCK_VALUES` values whatever the
window's length. Inside the kernel a block's nodes sit in an odd and an even
lane, so every Simpson step reads contiguous rows, and the last step writes
them back in node order. `green_residuals` and `symplectic.gm_form` reduce
the blocks as they arrive, so no function holds a whole field; ret - adv is
the causal field G f. The blocked values take the operations, in the order,
of the plain whole-window expressions on the source's rows (the tests keep
them as references), so results keep their values bit for bit (an exact
zero may differ in sign).
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import SpectralBasis, omega


# values in one block of time rows (rows x stack x modes): a Duhamel pass
# holds four blocks of weighted source, whatever the window's length
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


def _simpson_lanes(y: np.ndarray, out: np.ndarray, dt: float, carried: bool) -> None:
    """The running composite Simpson integral on node lanes, complex-safe
    (scipy's cumulative_simpson is not): y[0] holds the odd nodes and y[1]
    the even ones, rows on axis 1, row i holding nodes 2 i - 1 and 2 i of
    the run, so every step reads and writes contiguous rows. The result goes
    into `out`, in the same layout, which must not overlap y; the even lane
    serves as scratch for the odd one until the pair sums fill it. Without
    `carried`, node 0 is the window's first and node -1 is not read; with
    it, out[1][:, 0] already holds the running integral at node 0, and node
    1 takes the trailing parabola through node -1.
    """
    (odd, even), (odd_out, even_out) = y, out
    pairs = even.shape[1] - 1
    first = 1 if carried else 2  # the first odd row that takes the trailing parabola
    # odd nodes: (dt / 12) (-y1 + 8 y2 + 5 y3) over the trailing subinterval
    parabolas, fives = odd_out[:, first:], even_out[:, first:]
    np.multiply(8.0, even[:, first - 1:pairs], out=parabolas)
    np.subtract(parabolas, odd[:, first - 1:pairs], out=parabolas)
    np.add(parabolas, np.multiply(5.0, odd[:, first:], out=fives), out=parabolas)
    np.multiply(dt / 12.0, parabolas, out=parabolas)
    if not carried:  # node 1: (dt / 12) (5 y0 + 8 y1 - y2)
        node = odd_out[:, 1]
        np.multiply(5.0, even[:, 0], out=node)
        np.add(node, np.multiply(8.0, odd[:, 1], out=even_out[:, 1]), out=node)
        np.subtract(node, even[:, 1], out=node)
        np.multiply(dt / 12.0, node, out=node)
        even_out[:, 0] = 0.0
    # even nodes: running sum of the pairs (dt / 3) (y0 + 4 y1 + y2)
    sums = even_out[:, 1:]
    np.multiply(4.0, odd[:, 1:], out=sums)
    np.add(even[:, :pairs], sums, out=sums)
    np.add(sums, even[:, 1:], out=sums)
    np.multiply(dt / 3.0, sums, out=sums)
    running = even_out if carried else sums  # from row 0 when it carries a running value
    np.cumsum(running, axis=1, out=running)
    np.add(even_out[:, first - 1:pairs], parabolas, out=parabolas)


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
    the future end of the window, negated. Each block builds its own rows
    of the phase table, source (`_source_rows`) and weighted source, in an
    odd and an even lane of nodes (`_simpson_lanes`), and continues both
    running integrals from the last two weighted rows and running values of
    the block before, so every value takes the operations, in the order, of
    one pass over the whole window. The last step, the division by w, interleaves the lanes into
    node order.
    """
    w = omega(f.basis.eigenvalues, mass)
    times, profiles = f.times[::step], f.profiles[..., ::step]  # in pass order
    nodes, stack = len(times), f.shape
    unit = (1,) * len(stack)
    pairs = max(1, _BLOCK_VALUES // max(1, 2 * w.size * math.prod(stack)))
    pairs = min(pairs, (nodes - 1) // 2)
    # lanes of odd and even nodes x cos and sin parts x rows; zeros keep the
    # first block's missing node -1 finite
    shape = (2, 2, pairs + 1, *stack, w.size)
    weighted, running = np.empty(shape, f.dtype), np.zeros(shape, f.dtype)
    phases = np.zeros((2, 2, pairs + 1, *unit, w.size))
    carried = np.empty((2, 2, 2, *stack, w.size), f.dtype)  # the last weighted and running rows
    start = 0
    while True:
        rows = min(pairs, (nodes - 1 - start) // 2) + 1
        end = start + 2 * rows - 2  # the block's last node, an even one
        for q in (0, 1):
            held = 1 if start == 0 and q == 0 else 0  # the first lane row with a node
            new = 0 if start == 0 and q == 1 else 1  # the first lane row not carried over
            phase, at = phases[q, 1, held:rows], times[start - 1 + q + 2 * held:end + 1:2]
            np.multiply(w, at.reshape(-1, *unit, 1), out=phase)
            np.cos(phase, out=phases[q, 0, held:rows])
            np.sin(phase, out=phase)
            src = _source_rows(profiles, f.shapes, slice(start - 1 + q + 2 * new, end + 1, 2))
            src = np.moveaxis(src, -2, 0)  # time first
            np.multiply(phases[q, :, new:rows], src, out=weighted[q, :, new:rows])
        _simpson_lanes(weighted[:, :, :rows], running[:, :, :rows], f.dt, carried=start > 0)
        if end < nodes - 1:
            carried[0], carried[1] = weighted[:, :, rows - 1], running[:, :, rows - 1]
        # step * (sin_p * ccum - cos_p * scum) / w, in place up to the
        # division, which writes node order; rounding is sign-symmetric, so
        # for step -1 the difference taken the other way is the negated one
        # (an exact zero may differ in sign)
        lanes = running[:, :, :rows]
        np.multiply(phases[:, ::-1, :rows], lanes, out=lanes)
        sin_part, cos_part = lanes[:, 0], lanes[:, 1]
        np.subtract(*((sin_part, cos_part) if step == 1 else (cos_part, sin_part)), out=sin_part)
        # the weighted rows are carried, so their buffer takes the field in node order
        block = weighted.reshape(-1)[:sin_part.size].reshape(2 * rows, *stack, w.size)
        np.divide(sin_part, w, out=np.moveaxis(block.reshape(rows, 2, *stack, w.size), 1, 0))
        yield (0, block[1:]) if start == 0 else (start - 1, block)
        if end == nodes - 1:
            return
        start = end
        weighted[:, :, 0], running[:, :, 0] = carried


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
    # mode coefficients carry the h-weighted norm already (Parseval)
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
    return worst[0], worst[1]
