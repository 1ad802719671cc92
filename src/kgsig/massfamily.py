"""Mass families of lattice solutions and the spacetime pairing over masses.

A family assigns to each mass node m_q the homogeneous solution with Cauchy
data (node scalar) * (base datum), where the node scalars are the values of a
smooth compactly supported mass weight (times m_q^k after k applications of
the mass operator T). The map p integrates the scalar field of the family
over mass against the measure m dm, and the physical inner product pairs
p-images of families on one weight in L^2 over spacetime on [-T, T], with T
doubled until the increment falls below tolerance. The pairing acts per mode:
time-integrated kernels of the weight, eigenvalue and stage alone, which a
Gram contracts once with the (2, N) mode stacks of the families' base data
(a family on an (S, 2, N) stack of data takes S rows).
A stage that ends before every mode has dephased over the window (T times
its omega spread below 2 pi) cannot stop the doubling: its increment is small
only because its window is short. T doubles from T_START past such stages
without building them.
The Gram converges to the mass-integral side of the decomposition identity,
`mass_decomposition_gram`: the same contraction of per-mode kernels, taken on
the weight's own rule with no time window. The doubling reports each stage in
a `StageRecord` and the run in a `ConvergenceReport`, both NamedTuples.

Two quadrature choices matter and are deliberate:

* The weight's own rule, used by `integrate_p` and `mass_decomposition_gram`,
  is the trapezoid rule on the 255 interior nodes of a uniform grid of 256
  intervals over its support. The bump vanishes to all orders at both ends,
  so this rule converges faster than any power (Trefethen and Weideman, SIAM
  Review 56 (2014) 385), and the integrand vanishes identically outside the
  support, so it equals the integral over any enclosing mass interval and
  stays accurate when the weight is a narrow localization bump. The
  reconstruction normalization int w^2 m dm needs no nodes: it has a closed
  form (`signature.signature_reconstruct`).
* The spacetime kernels take the mass integral per mode on a uniform omega
  grid of spacing 2 pi / P (m dm = omega d omega): for the bump this
  trapezoid rule converges faster than any power, its time kernels depend
  only on q -+ q', and its sum is P-periodic in t, so a rule serves times up
  to P / RULE_PERIOD_RATIO, where the aliased copies are negligible. Its
  FFTs run at the next 5-smooth length, never at a prime one.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from .dynamics import CauchyDatum
from .lattice import SpectralBasis
from .random_fields import bump

T_START = 200.0  # the doubling's windows are T = T_START 2^k
TOL_DEFAULT = 1e-6
T_CEILING_DEFAULT = 51200.0
RULE_PERIOD_RATIO = 4  # period of a Gram mass rule over the longest time it serves
RULE_NODES_MAX = 1 << 16  # per mode and rule; (1, 2) needs 31.8k at the default ceiling
# mode-nodes (modes x powers^2 x nodes) of one rule: massdecomp's peak RSS grows by
# ~200 B each (n = 64 to 256), so 1.6 GiB here, within config's 2 GiB suite cap
RULE_SIZE_MAX = 1 << 23
_SUPPORT_SLACK = 1e-12  # rounding, relative to m_hi, allowed where a weight's support meets I
# intervals of a weight's trapezoid rule: the bump vanishes to all orders at
# both ends of its support, so the rule converges faster than any power, and
# the mass pairing sits on its rounding plateau here (doubling moves it by ulps)
_INTERVALS = 256
_UNIT_NODES = np.linspace(-1.0, 1.0, _INTERVALS + 1)[1:-1]  # interior nodes
_UNIT_VALUES = bump(_UNIT_NODES)  # the bump there, shared by every weight
_UNIT_NODES.setflags(write=False)
_UNIT_VALUES.setflags(write=False)


class ConvergenceError(RuntimeError):
    """The adaptive time doubling stopped before an increment met tolerance:
    a window or rule cap was reached, or an increment was not finite."""


class MassInterval:
    """Open mass interval I = (m_lo, m_hi) with 0 outside its closure."""

    __slots__ = ("m_lo", "m_hi")

    def __init__(self, m_lo: float, m_hi: float) -> None:
        if not m_lo > 0.0:
            raise ValueError(
                "mass interval must satisfy 0 ∉ Ī (need m_lo > 0)"
            )
        if not m_hi > m_lo:
            raise ValueError("mass interval needs m_lo < m_hi")
        self.m_lo, self.m_hi = m_lo, m_hi
        # a weight spanning I is built from the center and half-width; when
        # m_hi dwarfs m_lo, m_lo is lost to rounding there (1 + 1e16 == 1e16)
        try:
            check_support(interval_weight(self), self)
        except ValueError:
            raise ValueError(
                "mass interval too wide: center +- half-width loses m_lo to rounding"
            ) from None


class MassWeight:
    """Smooth bump on [center - half_width, center + half_width], a support
    at positive mass.

    Carries the trapezoid rule on the interior nodes of a uniform grid of
    _INTERVALS intervals over its support: `nodes`, their common weight
    `quad` (a scalar) and the bump samples `values` there.
    """

    __slots__ = ("center", "half_width")

    def __init__(self, center: float, half_width: float) -> None:
        if not half_width > 0.0:
            raise ValueError("weight needs positive half_width")
        if not center - half_width > 0.0:  # 0 outside the support; NaN fails
            raise ValueError("weight support must stay at positive mass")
        self.center, self.half_width = center, half_width

    @property
    def nodes(self) -> np.ndarray:
        return self.center + self.half_width * _UNIT_NODES

    @property
    def quad(self) -> float:
        return self.half_width * 2 / _INTERVALS

    @property
    def values(self) -> np.ndarray:
        return _UNIT_VALUES

    def profile(self, m: np.ndarray) -> np.ndarray:
        return bump((np.asarray(m, dtype=float) - self.center) / self.half_width)

    def mass_moment(self, power: int = 1, squared: bool = False) -> float:
        """Integral of w(m) (or w(m)^2) times m^power over the support."""
        vals = self.values**2 if squared else self.values
        return float(np.sum(self.quad * vals * self.nodes**power))


def interval_weight(interval: MassInterval) -> MassWeight:
    """Bump spanning the whole mass interval, from its center and half-width."""
    lo, hi = interval.m_lo, interval.m_hi
    return MassWeight(0.5 * (lo + hi), 0.5 * (hi - lo))


class MassFamily:
    """Base Cauchy datum, or a stack of them, smeared over a mass interval by
    a weight.

    mass_power counts applications of the mass multiplication operator T, so
    the node scalars w(m_q) * m_q^mass_power can be evaluated exactly on any
    rule of the weight's support.
    """

    __slots__ = ("base", "weight", "mass_power")

    def __init__(self, base: CauchyDatum, weight: MassWeight, mass_power: int = 0) -> None:
        self.base, self.weight, self.mass_power = base, weight, mass_power

    @property
    def basis(self) -> SpectralBasis:
        return self.base.basis

    @property
    def node_scale(self) -> np.ndarray:
        """w(m_q) * m_q^mass_power at the weight's own nodes."""
        return self.weight.values * self.weight.nodes**self.mass_power


def check_support(weight: MassWeight, interval: MassInterval) -> None:
    """Raise ValueError unless the weight's support lies, up to rounding, in
    the closure of I."""
    lo, hi = weight.center - weight.half_width, weight.center + weight.half_width
    slack = _SUPPORT_SLACK * interval.m_hi
    if not (interval.m_lo - slack <= lo and hi <= interval.m_hi + slack):
        # shortest round-trip digits: a near miss does not print as a fit
        raise ValueError(f"weight support outside I: [{lo}, {hi}] is not in "
                         f"[{interval.m_lo}, {interval.m_hi}]")


def make_family(
    datum: CauchyDatum, weight: MassWeight, interval: MassInterval
) -> MassFamily:
    check_support(weight, interval)
    return MassFamily(base=datum, weight=weight)


def apply_T(family: MassFamily) -> MassFamily:
    """Multiplication by the mass: (T phi)_m = m phi_m, exact at the nodes."""
    return MassFamily(family.base, family.weight, family.mass_power + 1)


def integrate_p(family: MassFamily, t: float) -> np.ndarray:
    """(..., N) mode coefficients of the mass integral (p phi)(t, .), one row
    per datum of a stacked base; phi and pi are read from axis -2."""
    lam = family.basis.eigenvalues
    om = np.sqrt(lam[:, None] + family.weight.nodes[None, :] ** 2)
    u = family.weight.quad * family.weight.nodes * family.node_scale
    phi, pi = family.base.modes[..., 0, :], family.base.modes[..., 1, :]
    phase = om * t
    return (np.cos(phase) @ u) * phi - 1j * ((np.sin(phase) / om) @ u) * pi


class StageRecord(NamedTuple):
    """A doubling stage: its rule's period and widest-mode node count, its
    largest entry and its wall time (rule build included)."""

    t_lo: float
    t_hi: float
    period: float
    nodes: int
    increment: float
    seconds: float


class ConvergenceReport(NamedTuple):
    """The stages of a converged doubling; a stall raises ConvergenceError."""

    records: tuple[StageRecord, ...]

    @property
    def converged(self) -> bool:
        return True

    @property
    def final_t(self) -> float:
        return self.records[-1].t_hi

    @property
    def last_increment(self) -> float:
        return self.records[-1].increment

    @property
    def stages(self) -> int:  # windows: the first dephased [-T, T], then one per stage
        return len(self.records) + 1


def _spread(weight: MassWeight, lam: np.ndarray) -> np.ndarray:
    """Per-mode omega range sqrt(lam + hi^2) - sqrt(lam + lo^2) of the support,
    taken as (hi - lo)(hi + lo) / (sqrt(lam + hi^2) + sqrt(lam + lo^2)): the
    difference cancels when lam dwarfs hi^2."""
    lo, hi = weight.center - weight.half_width, weight.center + weight.half_width
    return (hi - lo) * (hi + lo) / (np.sqrt(lam + hi**2) + np.sqrt(lam + lo**2))


def _rule_nodes(weight: MassWeight, lam: np.ndarray, period: float) -> float:
    """Node count of the widest mode's rule (a float: inf on overflow)."""
    return float(np.ceil(_spread(weight, lam).max() * period / (2 * np.pi))) + 1


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c >= n: an FFT length that
    numpy.fft never sends through Bluestein's algorithm."""
    best = 1 << (n - 1).bit_length()  # the next power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _uniform_rule(
    weight: MassWeight, lam: np.ndarray, powers: np.ndarray, period: float, nodes: int
):
    """Stage function (t_lo, t_hi) -> per-mode kernels g = (g_cos, g_sin),
    (2, N, K, K) over the K `powers`, of the time integral over [-t_hi, -t_lo]
    and [t_lo, t_hi] ([-t_hi, t_hi] for t_lo = 0).

    Per mode, p a_i(t) = sum_q u_iq [phi_i cos(w_q t) - i pi_i sin(w_q t) / w_q];
    the cos sin terms are odd in t and vanish, the rest pairs node vectors
    with K(w_q - w_q') +- K(w_q + w_q'), K(x) = int_{t_lo}^{t_hi} cos(x s) ds.
    With the `nodes` w_q = w_lo + q step and u_kq = step w_q w(m_q) m_q^k per
    mass power k (w = 0 past the support), K(d step) meets the node
    correlations and K(2 w_lo + s step) the node convolutions, both built
    here once by FFT. The FFTs run at the 5-smooth length L >= 2 nodes - 1:
    linear correlations and convolutions of length-`nodes` vectors fit in
    any such L, so the padding is exact.
    """
    step, size, lo = 2 * np.pi / period, 2 * nodes - 1, weight.center - weight.half_width
    length = _fast_len(size)
    om_lo = np.sqrt(lam + lo**2)[:, None]
    dw = step * np.arange(nodes)  # omega - omega_lo
    m = np.sqrt(lo**2 + dw * (2 * om_lo + dw))  # sqrt(omega^2 - lambda), no cancellation
    u = (step * (om_lo + dw) * weight.profile(m))[:, None] * m[:, None] ** powers[:, None]
    spec = np.fft.rfft(np.stack([u, u / (om_lo + dw)[:, None]]), length)  # cos, sin parts
    a, b = spec[..., :, None, :], spec[..., None, :, :]
    # lag d at index d mod length: lags 0 .. nodes - 1, then 1 - nodes .. -1
    corr = np.fft.irfft(a * b.conj(), length)
    corr = np.concatenate([corr[..., :nodes], corr[..., length - nodes + 1 :]], axis=-1)
    # the far kernel enters the sin sin part with a minus sign
    sign = np.array([1.0, -1.0])[:, None, None, None, None]
    conv = np.fft.irfft(a * b, length)[..., :size] * sign

    def stage(t_lo: float, t_hi: float) -> np.ndarray:
        def kernel(x):
            return (np.sin(x * t_hi) - np.sin(x * t_lo)) / x

        half = kernel(step * np.arange(1, nodes))
        near = np.concatenate([[t_hi - t_lo], half, half[::-1]])
        # einsum, not a BLAS product: its sum order does not depend on threads
        return np.einsum("...s,s->...", corr, near) + np.einsum(
            "xnabs,ns->xnab", conv, kernel(2 * om_lo + step * np.arange(size))
        )

    return stage


def adaptive_kernels(
    weight: MassWeight, lam: np.ndarray, powers: np.ndarray, contract, tol, t_ceiling
) -> tuple[np.ndarray, ConvergenceReport]:
    """`contract` of the [-T, T] kernels of `_uniform_rule`, T doubled from
    T_START until the largest entry of a contracted increment is below tol
    (absolute). Stages [T, 2T] with 2T min_n spread_n < 2 pi are skipped
    unbuilt, so T stays on the grid T_START 2^k and every built stage ends
    dephased. A stage ending past t_ceiling or a rule above RULE_NODES_MAX
    or RULE_SIZE_MAX raises ConvergenceError before its rule is built, a
    non-finite increment after. Stage [T, 2T] runs on the rule of period
    RULE_PERIOD_RATIO * 2T; the result is one [-T, T] evaluation on the last
    rule (shorter periods would fold the slow tail back in). When the skip
    reaches t_ceiling, the error names the dephasing T."""
    records: list[StageRecord] = []
    narrowest = float(_spread(weight, lam).min())
    t_cur = T_START
    while 2 * t_cur <= t_ceiling and not 2 * t_cur * narrowest >= 2 * np.pi:
        t_cur *= 2
    while True:
        started, t_hi = time.perf_counter(), 2 * t_cur
        if t_hi > t_ceiling:
            stall = f"spacetime pairing did not converge by T = {t_cur:g} (tol {tol:g})"
            if not t_hi * narrowest >= 2 * np.pi:
                stall += "; not every mode has dephased by then: " + (
                    f"it needs T = 2 pi / min spread = {2 * np.pi / narrowest:g}"
                    if narrowest > 0
                    else "min spread rounds to 0, so no T dephases every mode"
                )
            break
        period = RULE_PERIOD_RATIO * t_hi
        nodes = _rule_nodes(weight, lam, period)
        if not nodes <= RULE_NODES_MAX:
            stall = (
                f"mass rule for T = {t_hi:g} needs {nodes:g} nodes per mode, "
                f"above the cap RULE_NODES_MAX = {RULE_NODES_MAX}"
            )
            break
        size = lam.size * powers.size**2 * nodes
        if not size <= RULE_SIZE_MAX:
            stall = (
                f"mass rule for T = {t_hi:g} needs {size:.0f} mode-nodes (modes x "
                f"powers^2 x nodes), above the cap RULE_SIZE_MAX = {RULE_SIZE_MAX}"
            )
            break
        rule = _uniform_rule(weight, lam, powers, period, int(nodes))
        worst = float(np.abs(contract(rule(t_cur, t_hi))).max())
        elapsed = time.perf_counter() - started
        records.append(StageRecord(t_cur, t_hi, period, int(nodes), worst, elapsed))
        if not np.isfinite(worst):
            stall = f"non-finite increment in stage [{t_cur:g}, {t_hi:g}]"
            break
        t_cur = t_hi
        if worst < tol:
            return contract(rule(0.0, t_cur)), ConvergenceReport(tuple(records))
    last = (
        f"[{r.t_lo:g}, {r.t_hi:g}] P = {r.period:g}, {r.nodes} nodes, "
        f"increment {r.increment:.3e}, {r.seconds:.3f} s"
        for r in records[-2:]
    )
    raise ConvergenceError("; ".join([stall, *last]))


def _family_stack(families: list[MassFamily]):
    """Eigenvalues, shared weight, distinct mass powers and the Gram contraction
    of per-mode (2, N, K, K) kernels with the families' (F, 2, N) mode stack,
    in which a family on a stacked base takes one row per datum; the
    families must share one spectral basis and one mass weight."""
    if not families:
        raise ValueError("no families given")
    basis, weight = families[0].basis, families[0].weight
    for fam in families:
        if fam.basis is not basis:
            raise ValueError("families must share one spectral basis")
        if fam.weight is not weight:
            raise ValueError("families must share one mass weight")
    modes = np.concatenate([f.base.modes.reshape(-1, 2, basis.size) for f in families])
    powers, index = np.unique([f.mass_power for f in families], return_inverse=True)
    row = np.repeat(index, [f.base.modes[..., 0, 0].size for f in families])

    def contract(g):
        return np.einsum("ixn,jxn,xnij->ij", modes.conj(), modes, g[:, :, row][:, :, :, row])

    return basis.eigenvalues, weight, powers, contract


def spacetime_gram(
    families: list[MassFamily],
    tol: float = TOL_DEFAULT,
    t_ceiling: float = T_CEILING_DEFAULT,
) -> tuple[np.ndarray, ConvergenceReport]:
    """Matrix of spacetime inner products <p a_i | p a_j> over [-T, T], one
    row and column per base datum: a family on an (S, 2, N) stack takes S.

    The families share one spectral basis and one mass weight; `tol` and the
    window are those of `adaptive_kernels`, whose per-mode kernels each stage
    contracts with the stacked mode data in one einsum. The result is
    Hermitian positive semidefinite by construction.

    No cancellation fools the stopping rule: an increment is the Gram matrix
    of the p-images over its stage set, hence positive semidefinite, so its
    largest entry is a diagonal tail mass int |p a_i|^2 (|inc_ij| <=
    sqrt(inc_ii inc_jj)). The tails decay fast because 0 is not in the closed
    mass interval: omega'(m) = m / omega > 0 on the support, so the phase of
    p a(t) is never stationary (the mass oscillation property).
    """
    lam, weight, powers, contract = _family_stack(families)
    return adaptive_kernels(weight, lam, powers, contract, tol, t_ceiling)


def _mass_kernels(weight: MassWeight, lam: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Per-mode kernels (2, N, K, K) of the mass integral on the weight's own
    rule, pi sum_q quad_q m_q w(m_q)^2 m_q^(k_a + k_b) (omega_nq, 1 / omega_nq):
    the T -> infinity limit of `_uniform_rule`'s [-T, T] kernels."""
    om = np.sqrt(lam[:, None] + weight.nodes**2)
    scale = weight.values * weight.nodes ** powers[:, None]  # (K, Q)
    return np.pi * np.einsum(
        "aq,bq,xnq->xnab", scale, weight.quad * weight.nodes * scale, np.stack([om, 1 / om])
    )


def mass_decomposition_gram(families: list[MassFamily]) -> np.ndarray:
    """Mass-integral side of the decomposition identity, one matrix.

    Entry (i, j) is the weighted integral of the fixed-mass scalar products,
    int scale_i(m) scale_j(m) <a_i|a_j>_m m dm, on the weight's own rule;
    the families are those of `spacetime_gram`, whose Gram converges to this
    one as the time window grows.
    """
    lam, weight, powers, contract = _family_stack(families)
    return contract(_mass_kernels(weight, lam, powers))
