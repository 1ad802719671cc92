"""The whole-window expressions that the blocked Duhamel kernel
(`kgsig.dynamics._green_blocks`) is checked against, on a source's modes as
its passes form their rows. The kernel keeps every operation of these
expressions and its order, so the tests ask for agreement bit for bit, and
the physics tests take their retarded and advanced fields from here."""

import numpy as np

import kgsig.dynamics
from kgsig.lattice import omega


def modes_of(f):
    # the (..., J, N) modes of a source, from the rows its Duhamel passes form
    return kgsig.dynamics._source_rows(f.profiles, f.shapes, slice(None))


def reference_cumulative_simpson(y, dt):
    # running composite Simpson along axis -2: full pairs at even nodes, the
    # trailing parabola's integral at odd ones
    j = y.shape[-2]
    y = np.moveaxis(y, -2, 0)
    out = np.zeros_like(y)
    pairs = (dt / 3.0) * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    out[2::2] = np.cumsum(pairs, axis=0)
    out[1] = (dt / 12.0) * (5.0 * y[0] + 8.0 * y[1] - y[2])
    if j > 3:
        out[3::2] = out[2:-1:2] + (dt / 12.0) * (-y[1:-2:2] + 8.0 * y[2:-1:2] + 5.0 * y[3::2])
    return np.moveaxis(out, 0, -2)


def reference_duhamel_modes(f, mass):
    # the (..., J, N) retarded and advanced fields of f
    w = omega(f.basis.eigenvalues, mass)
    phase = w[None, :] * f.times[:, None]
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    cos_src, sin_src = cos_p * modes_of(f), sin_p * modes_of(f)

    def green(step):
        ccum = reference_cumulative_simpson(cos_src[..., ::step, :], f.dt)[..., ::step, :]
        scum = reference_cumulative_simpson(sin_src[..., ::step, :], f.dt)[..., ::step, :]
        return step * (sin_p * ccum - cos_p * scum) / w[None, :]

    return green(1), green(-1)


def reference_kg_residual(modes, f, mass):
    # max over interior nodes of the norm of (D_t^2 - Lap + m^2) u - f
    c, w2 = np.moveaxis(modes, -2, 0), f.basis.eigenvalues + mass**2
    src = np.moveaxis(modes_of(f), -2, 0)[1:-1]
    res = (c[2:] - 2.0 * c[1:-1] + c[:-2]) / f.dt**2 + w2 * c[1:-1] - src
    return np.sqrt(np.sum(np.abs(res) ** 2, axis=-1)).max(axis=0)
