"""Mass families of lattice solutions and the spacetime pairing over masses.

A family assigns to each mass node m_q the homogeneous solution with Cauchy
data (node scalar) * (base datum), where the node scalars are the values of a
smooth compactly supported mass weight (times m_q^k after k applications of
the mass operator T). The map p integrates the scalar field of the family
over mass against the measure m dm (Gauss-Legendre nodes), and the physical
inner product pairs p-images of families on one weight in L^2 over spacetime
on [-T, T], with T doubled until the increment falls below tolerance. Time
is integrated exactly: per mode the integrand is a finite sum of cos/sin
products over the mass nodes, whose integrals over the symmetric stage sets
are closed-form sinc kernels.
The pairing converges to the mass-integral side of the decomposition
identity, which `mass_decomposition_pairing` evaluates directly.

Two quadrature choices matter and are deliberate:

* Mass nodes live on the support of the weight. The integrand vanishes
  identically outside the support, so this equals the integral over any
  enclosing mass interval, and it is the only placement that stays accurate
  when the weight is a narrow localization bump.
* Tail stages of the adaptive time loop refresh the Gauss-Legendre rule with
  a node count proportional to (omega spread) * T. A fixed rule aliases the
  mass oscillation exp(i omega(m) t) once the total phase swing exceeds what
  the nodes resolve, turning increments into noise that never converges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import CauchyDatum, mode_data
from .lattice import SpectralBasis
from .random_fields import bump

MASS_NODES_DEFAULT = 200
T_MAX_DEFAULT = 200.0
TOL_DEFAULT = 1e-6
T_CEILING_DEFAULT = 51200.0
_KERNEL_BUDGET = 1 << 19  # elements per block of time-kernel rows
_ACTIVE_REL = 1e-12  # below this share of a family's largest mode: analysis noise
_SUPPORT_SLACK = 1e-12  # rounding allowed where a weight's support meets I


class ConvergenceError(RuntimeError):
    """Adaptive time doubling hit the ceiling before meeting tolerance."""


@dataclass(frozen=True)
class MassInterval:
    """Open mass interval I = (m_lo, m_hi) with 0 outside its closure."""

    m_lo: float
    m_hi: float

    def __post_init__(self) -> None:
        if not self.m_lo > 0.0:
            raise ValueError(
                "mass interval must satisfy 0 ∉ Ī (need m_lo > 0)"
            )
        if not self.m_hi > self.m_lo:
            raise ValueError("mass interval needs m_lo < m_hi")
        # a weight spanning I is built from the center and half-width; when
        # m_hi dwarfs m_lo, m_lo is lost to rounding there (1 + 1e16 == 1e16)
        lo, hi = self.center - self.half_width, self.center + self.half_width
        if not (
            0.0 < lo
            and self.m_lo - _SUPPORT_SLACK <= lo
            and hi <= self.m_hi + _SUPPORT_SLACK
        ):
            raise ValueError(
                "mass interval too wide: center +- half-width loses m_lo to rounding"
            )

    @property
    def center(self) -> float:
        return 0.5 * (self.m_lo + self.m_hi)

    @property
    def half_width(self) -> float:
        return 0.5 * (self.m_hi - self.m_lo)


@dataclass(frozen=True)
class MassWeight:
    """Smooth bump on [center - half_width, center + half_width].

    Carries its own Gauss-Legendre rule on the support; `values` are the
    bump samples at the nodes.
    """

    center: float
    half_width: float
    nodes: np.ndarray
    quad: np.ndarray
    values: np.ndarray

    def profile(self, m: np.ndarray) -> np.ndarray:
        return bump((np.asarray(m, dtype=float) - self.center) / self.half_width)

    def mass_moment(self, power: int = 1, squared: bool = False) -> float:
        """Integral of w(m) (or w(m)^2) times m^power over the support."""
        vals = self.values**2 if squared else self.values
        return float(np.sum(self.quad * vals * self.nodes**power))


def bump_weight(
    center: float, half_width: float, num_nodes: int = MASS_NODES_DEFAULT
) -> MassWeight:
    """Bump on [center - half_width, center + half_width] with a num_nodes-point
    Gauss-Legendre rule; also builds the finer rules of the time loop."""
    if not half_width > 0.0 or num_nodes < 2:
        raise ValueError("weight needs positive half_width and >= 2 nodes")
    x, w = np.polynomial.legendre.leggauss(num_nodes)
    return MassWeight(center, half_width, center + half_width * x, half_width * w, bump(x))


def interval_weight(
    interval: MassInterval, num_nodes: int = MASS_NODES_DEFAULT
) -> MassWeight:
    """Bump spanning the whole mass interval."""
    return bump_weight(interval.center, interval.half_width, num_nodes)


@dataclass(frozen=True)
class MassFamily:
    """Base Cauchy datum smeared over a mass interval by a weight.

    mass_power counts applications of the mass multiplication operator T, so
    the node scalars w(m_q) * m_q^mass_power can be evaluated exactly on any
    rule of the weight's support.
    """

    base: CauchyDatum
    basis: SpectralBasis
    weight: MassWeight
    mass_power: int = 0

    @property
    def node_scale(self) -> np.ndarray:
        """w(m_q) * m_q^mass_power at the weight's own nodes."""
        return self.weight.values * self.weight.nodes**self.mass_power


def make_family(
    datum: CauchyDatum,
    basis: SpectralBasis,
    weight: MassWeight,
    interval: MassInterval,
) -> MassFamily:
    if datum.phi.size != basis.size:
        raise ValueError("datum does not live on the basis grid")
    lo, hi = weight.center - weight.half_width, weight.center + weight.half_width
    if lo < interval.m_lo - _SUPPORT_SLACK or hi > interval.m_hi + _SUPPORT_SLACK:
        raise ValueError("weight support outside I")
    return MassFamily(base=datum, basis=basis, weight=weight)


def apply_T(family: MassFamily) -> MassFamily:
    """Multiplication by the mass: (T phi)_m = m phi_m, exact at the nodes."""
    return replace(family, mass_power=family.mass_power + 1)


def integrate_p(family: MassFamily, t: float) -> np.ndarray:
    """Scalar field of the mass integral (p phi)(t, .) on the lattice."""
    lam = family.basis.eigenvalues
    om = np.sqrt(lam[:, None] + family.weight.nodes[None, :] ** 2)
    u = family.weight.quad * family.weight.nodes * family.node_scale
    coeffs = mode_data(family.base, family.basis)
    phase = om * t
    p_modes = (np.cos(phase) @ u) * coeffs[0] - 1j * ((np.sin(phase) / om) @ u) * coeffs[1]
    return family.basis.synthesize(p_modes)


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    final_t: float
    last_increment: float
    stages: int


def _stage_rule(
    weight: MassWeight, lam_min: float, t_end: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nodes, quad, values) of a mass rule adequate for phase swings up to t_end.

    Gauss-Legendre with n nodes resolves exp(i K s) on [-1, 1] while
    K <~ 1.5 n; the swing here is half the omega spread times t_end, so
    n grows linearly in T with a safety margin. The weight's own rule serves
    while it has enough nodes.
    """
    lo, hi = weight.center - weight.half_width, weight.center + weight.half_width
    spread = np.sqrt(lam_min + hi**2) - np.sqrt(lam_min + lo**2)
    needed = int(np.ceil(spread * t_end / 2.4)) + 32
    if needed > weight.nodes.size:
        weight = bump_weight(weight.center, weight.half_width, needed)
    return weight.nodes, weight.quad, weight.values


def _time_kernels(w: np.ndarray, w_cols: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over [-t, t] of cos(w s) cos(w' s) and sin(w s) sin(w' s) / (w w').

    sin(d t) / d is written t sinc(d t / pi), exact at d = 0 (the diagonal).
    """
    near = t * np.sinc(np.subtract.outer(w, w_cols) * (t / np.pi))
    far = t * np.sinc(np.add.outer(w, w_cols) * (t / np.pi))
    return near + far, (near - far) / np.multiply.outer(w, w_cols)


def _stage_gram(
    families: list[MassFamily], modes: np.ndarray, active: np.ndarray, t_lo: float, t_hi: float
) -> np.ndarray:
    """Exact time integral of the pairing over [-t_hi, -t_lo] and [t_lo, t_hi].

    With t_lo = 0 the set is the whole window [-t_hi, t_hi]. The families
    share one weight, so both kernels of the stage use one mass rule. Per mode,
    p a_i(t) = sum_q u_iq [phi_i cos(w_q t) - i pi_i sin(w_q t) / w_q], so
    the stage is a quadratic form in the node vectors u_i with the kernels
    of `_time_kernels`; the cos * sin cross terms are odd in t and vanish on
    this symmetric set.
    """
    lam = families[0].basis.eigenvalues
    nodes, quad, values = _stage_rule(families[0].weight, lam[0], t_hi)
    u = np.stack([quad * nodes * values * nodes**f.mass_power for f in families])
    # Q grows like T, so one Q x Q kernel would take gigabytes near the
    # default ceiling; kernel rows are built in blocks of bounded size.
    rows = max(1, _KERNEL_BUDGET // nodes.size)

    out = np.zeros((len(families), len(families)), dtype=complex)
    for n in range(lam.size):
        idx = np.flatnonzero(active[:, n])
        if idx.size == 0:
            continue
        w = np.sqrt(lam[n] + nodes**2)
        u_n = u[idx]
        g_cos = g_sin = 0.0
        for start in range(0, w.size, rows):
            blk = slice(start, start + rows)
            cos_hi, sin_hi = _time_kernels(w[blk], w, t_hi)
            cos_lo, sin_lo = _time_kernels(w[blk], w, t_lo)
            g_cos = g_cos + u_n[:, blk] @ (cos_hi - cos_lo) @ u_n.T
            g_sin = g_sin + u_n[:, blk] @ (sin_hi - sin_lo) @ u_n.T
        phi, pi = modes[idx, 0, n], modes[idx, 1, n]
        out[np.ix_(idx, idx)] += (
            np.outer(phi.conj(), phi) * g_cos + np.outer(pi.conj(), pi) * g_sin
        )
    return out


def spacetime_gram(
    families: list[MassFamily],
    t_max: float = T_MAX_DEFAULT,
    tol: float = TOL_DEFAULT,
    t_ceiling: float = T_CEILING_DEFAULT,
) -> tuple[np.ndarray, ConvergenceReport]:
    """Matrix of spacetime inner products <p a_i | p a_j> over [-T, T].

    The families share one spectral basis and one mass weight. T doubles
    from t_max until the largest entrywise increment drops below tol
    (absolute); exceeding t_ceiling raises ConvergenceError. The result is
    Hermitian positive semidefinite by construction.

    No cancellation fools the stopping rule: an increment is the Gram matrix
    of the p-images over its stage set, hence positive semidefinite, so its
    largest entry is a diagonal tail mass int |p a_i|^2 (|inc_ij| <=
    sqrt(inc_ii inc_jj)). The tails decay fast because 0 is not in the closed
    mass interval: omega'(m) = m / omega > 0 on the support, so the phase of
    p a(t) is never stationary (the mass oscillation property).
    """
    if not families:
        raise ValueError("no families given")
    basis, weight = families[0].basis, families[0].weight
    for fam in families:
        if fam.basis is not basis:
            raise ValueError("families must share one spectral basis")
        if fam.weight is not weight:
            raise ValueError("families must share one mass weight")
    modes = np.stack([mode_data(f.base, f.basis) for f in families])
    magnitude = np.abs(modes).sum(axis=1)
    active = magnitude > _ACTIVE_REL * magnitude.max(axis=1, keepdims=True)

    total = _stage_gram(families, modes, active, 0.0, t_max)
    t_cur, stages = t_max, 1
    while True:
        inc = _stage_gram(families, modes, active, t_cur, 2 * t_cur)
        total += inc
        t_cur *= 2
        stages += 1
        worst = float(np.abs(inc).max())
        if worst < tol:
            return total, ConvergenceReport(
                converged=True, final_t=t_cur, last_increment=worst, stages=stages
            )
        if 2 * t_cur > t_ceiling:
            raise ConvergenceError(
                f"spacetime pairing did not converge by T = {t_cur:g} "
                f"(last increment {worst:.3e}, tol {tol:g})"
            )


def spacetime_inner(
    a: MassFamily,
    b: MassFamily,
    t_max: float = T_MAX_DEFAULT,
    tol: float = TOL_DEFAULT,
    t_ceiling: float = T_CEILING_DEFAULT,
) -> tuple[complex, ConvergenceReport]:
    """<p a | p b> over spacetime, conjugate-linear in the first argument."""
    gram, report = spacetime_gram([a, b], t_max=t_max, tol=tol, t_ceiling=t_ceiling)
    return complex(gram[0, 1]), report


def mass_decomposition_pairing(fa: MassFamily, fb: MassFamily) -> complex:
    """Mass-integral side of the decomposition identity.

    Evaluates the weighted integral of the fixed-mass scalar products,
    int scale_a(m) scale_b(m) <a|b>_m m dm, on the weight's base rule. The
    spacetime pairing of the same two families converges to this value as
    the time window grows.
    """
    if fa.basis is not fb.basis:
        raise ValueError("families must share one spectral basis")
    if fa.weight is not fb.weight:
        raise ValueError("families must share one mass weight")
    wq = fa.weight
    lam = fa.basis.eigenvalues
    ca, cb = mode_data(fa.base, fa.basis), mode_data(fb.base, fb.basis)
    om = np.sqrt(lam[:, None] + wq.nodes[None, :] ** 2)
    per_mass = np.pi * (
        om.T @ (np.conj(ca[0]) * cb[0]) + (1.0 / om.T) @ (np.conj(ca[1]) * cb[1])
    )
    u = wq.quad * wq.nodes * fa.node_scale * fb.node_scale
    return complex(np.sum(u * per_mass))
