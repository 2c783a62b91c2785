"""Backward equation controlling the truncated second moment of |F|^2.

Testing |F|^2 against a terminal observable and cancelling the generator of
its Ito evolution leads to the backward equation

    d zeta/d tau + (r/2) d zeta/dr + (r^2/4) d^2 zeta/dr^2 = 0,

for an observable zeta(tau, r) of r = |F|^2 in the logarithmic time
tau = ln lam2.  In the self-similar coordinates r = e^{tau/2} rhat,
zeta = rhat zhat, followed by sig = ln rhat, the equation becomes constant
coefficient,

    d zhat/d tau + (1/4) d zhat/d sig + (1/4) d^2 zhat/d sig^2 = 0,

whose backward semigroup evaluates the terminal data at displaced points:

    zhat(tau - s, sig) = E[ zhat(tau, sig + s/4 + sqrt(s/2) Z) ],  Z ~ N(0,1).

The terminal data is a C^2 ramp: 1 below ``sigma_hat``, a quintic smoothstep
down to 0 over one unit.  Two evolution paths are provided: a grid
convolution (``evolve``) for arbitrary profiles, and ``RampEvolution``, which
evaluates the evolved ramp and its first two derivatives together: a normal
tail plus the quintic integrated against the Gaussian over the unit ramp
window, in closed form from truncated Gaussian moments for narrow kernels and
by a window quadrature for wide ones, so it stays accurate for times-to-go in
the hundreds.  Combining the evolved observable with Monte Carlo samples of
|F|^2 bounds the mass of |F|^2 below a threshold far under its mean, which is
the non-equi-integrability mechanism.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .momentodes import envelope_constants
from .proxysde import truncated_second_moment
from .tensor2d import BULLET_OPNORM

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)
_SQRT_2PI = np.sqrt(2.0 * np.pi)
#: widest kernel evaluated in closed form: the moment sums cancel digits as the
#: kernel widens, so wider kernels use the window quadrature
_CLOSED_FORM_MAX_STD = 1.3

#: sharp derivative bounds of the quintic smoothstep ramp on its unit support
SMOOTHSTEP_D1_MAX = 15.0 / 8.0
SMOOTHSTEP_D2_MAX = 10.0 / np.sqrt(3.0)


def smoothstep(t: np.ndarray) -> np.ndarray:
    """C^2 ramp: 1 for t <= 0, 0 for t >= 1, quintic in between."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)


def smoothstep_d1(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    out = np.zeros_like(t)
    ti = t[inside]
    out[inside] = -(30.0 * ti ** 2 - 60.0 * ti ** 3 + 30.0 * ti ** 4)
    return out


def smoothstep_d2(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    out = np.zeros_like(t)
    ti = t[inside]
    out[inside] = -(60.0 * ti - 180.0 * ti ** 2 + 120.0 * ti ** 3)
    return out


#: points of the log-threshold grid, and how many kernel standard deviations
#: sqrt(tau/2) it reaches past the drift tau/4 on each side
N_SIGMA = 4001
SPAN_STD = 10.0


@dataclass(frozen=True)
class TailConfig:
    """Terminal time ``tau = ln lam2``, truncation location ``sigma_hat =
    ln rhat``, and the margin of the smallness regime."""

    tau: float
    sigma_hat: float
    regime_margin: float = 0.5

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")

    def grid(self) -> np.ndarray:
        reach = self.tau / 4.0 + SPAN_STD * np.sqrt(self.tau / 2.0)
        return np.linspace(self.sigma_hat - reach - 2.0,
                           self.sigma_hat + reach + 3.0, N_SIGMA)


@dataclass
class TailProfile:
    """One time slice of the observable on a uniform log-threshold grid."""

    sigma: np.ndarray
    values: np.ndarray


def terminal_zeta(cfg: TailConfig) -> TailProfile:
    """Terminal ramp profile at time-to-go zero."""
    grid = cfg.grid()
    return TailProfile(grid, smoothstep(grid - cfg.sigma_hat))


def evolve(profile: TailProfile, dtau: float) -> TailProfile:
    """Backward evolution by ``dtau``: discrete Gaussian convolution.

    The kernel weights terminal values at ``sig + dtau/4 + sqrt(dtau/2) Z``
    and is normalized on the grid, so the output range is contained in the
    input range (maximum principle) and composition is exact up to aliasing.
    Rejects grids that under-resolve the kernel (std < 2 spacings); pads by
    edge replication.
    """
    if not dtau > 0.0:
        raise ValueError("dtau must be positive")
    h = float(profile.sigma[1] - profile.sigma[0])
    std = np.sqrt(dtau / 2.0)
    if std < 2.0 * h:
        raise ValueError(
            f"kernel std {std:.3g} under-resolved by grid spacing {h:.3g}")
    reach = int(np.ceil((dtau / 4.0 + 10.0 * std) / h)) + 1
    offsets = np.arange(-reach, reach + 1) * h
    weights = np.exp(-0.5 * ((offsets - dtau / 4.0) / std) ** 2)
    weights /= weights.sum()
    padded = np.pad(profile.values, reach, mode="edge")
    out = np.convolve(padded, weights[::-1], mode="valid")
    return TailProfile(profile.sigma, out)


class RampEvolution:
    """The evolved ramp family: value, d1 and d2 in ``sig`` at a time-to-go.

    With c = sig + s/4 - sigma_hat and std = sqrt(s/2), the evolved value is
    the normal tail Phi(-c/std) plus the quintic q(t) = 1 - 10t^3 + 15t^4 - 6t^5
    integrated against N(c, std^2) over the unit window [0, 1]; the
    derivatives integrate q' and q'' (the ramp is C^1, so no boundary terms).
    For std <= 1.3 the window integrals are sums of the truncated Gaussian
    moments of t over the window, exact up to rounding.  Wider kernels, where
    the moment recurrence cancels digits, use a 48-node Gauss-Legendre rule
    on the window clipped to +-8 std, over which the integrand is smooth.
    """

    def __init__(self, sigma_hat: float):
        self.sigma_hat = sigma_hat

    def value(self, time_to_go: float, sig: np.ndarray) -> np.ndarray:
        return _like(self._evaluate(time_to_go, sig)[0], sig)

    def d1(self, time_to_go: float, sig: np.ndarray) -> np.ndarray:
        return _like(self._evaluate(time_to_go, sig)[1], sig)

    def d2(self, time_to_go: float, sig: np.ndarray) -> np.ndarray:
        return _like(self._evaluate(time_to_go, sig)[2], sig)

    def _evaluate(self, time_to_go: float, sig: np.ndarray):
        """(value, d1, d2) at the points ``sig``, as 1-d arrays."""
        sig = np.atleast_1d(np.asarray(sig, dtype=float))
        if time_to_go == 0.0:
            t = sig - self.sigma_hat
            return smoothstep(t), smoothstep_d1(t), smoothstep_d2(t)
        center = sig + time_to_go / 4.0
        std = np.sqrt(time_to_go / 2.0)
        plateau = ndtr((self.sigma_hat - center) / std)
        if std <= _CLOSED_FORM_MAX_STD:
            v, d1, d2 = _window_moments(center - self.sigma_hat, std)
        else:
            v, d1, d2 = self._window_quadrature(center, std)
        return plateau + v, d1, d2

    def _window_quadrature(self, center: np.ndarray, std: float):
        """int_0^1 fn(t) N(sigma_hat + t; center, std^2) dt for fn = q, q', q''."""
        lo = np.clip(center - 8.0 * std - self.sigma_hat, 0.0, 1.0)
        hi = np.clip(center + 8.0 * std - self.sigma_hat, 0.0, 1.0)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        t = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        w = half[:, None] * _GL_WEIGHTS[None, :]
        y = (self.sigma_hat + t - center[:, None]) / std
        dens = np.exp(-y ** 2 / 2.0) / _SQRT_2PI / std
        return tuple(np.sum(w * fn(t) * dens, axis=1)
                     for fn in (smoothstep, smoothstep_d1, smoothstep_d2))

    def observable_values(self, tau: float, tau_prime: float,
                          r: np.ndarray) -> np.ndarray:
        """zeta(tau', r) for the terminal time ``tau`` family."""
        r = np.asarray(r, dtype=float)
        rhat = r * np.exp(-0.5 * tau_prime)
        out = np.zeros_like(rhat)
        pos = rhat > 0.0
        out[pos] = rhat[pos] * self.value(tau - tau_prime, np.log(rhat[pos]))
        return out


def _like(out: np.ndarray, sig) -> np.ndarray | float:
    return out if np.ndim(sig) else float(out[0])


def _window_moments(c: np.ndarray, std: float):
    """int_0^1 fn(t) N(t; c, std^2) dt for fn = q, q', q'' in closed form.

    From the window moments T_k = int_0^1 t^k N(t; c, std^2) dt, which follow
    from integrating t^k (t - c) N by parts:
    T_{k+1} = c T_k + std^2 (k T_{k-1} - N(1) + [k = 0] N(0)).
    """
    a = -c / std
    b = (1.0 - c) / std
    n0 = np.exp(-0.5 * a * a) / _SQRT_2PI / std
    n1 = np.exp(-0.5 * b * b) / _SQRT_2PI / std
    # Phi(b) - Phi(a), taken as Phi(-a) - Phi(-b) in the upper tail
    upper = a > 0.0
    t = [ndtr(np.where(upper, -a, b)) - ndtr(np.where(upper, -b, a))]
    var = std * std
    t.append(c * t[0] + var * (n0 - n1))
    for k in range(1, 5):
        t.append(c * t[k] + var * (k * t[k - 1] - n1))
    return (t[0] - 10.0 * t[3] + 15.0 * t[4] - 6.0 * t[5],
            -30.0 * t[2] + 60.0 * t[3] - 30.0 * t[4],
            -60.0 * t[1] + 180.0 * t[2] - 120.0 * t[3])


def phi_upper_bound(cfg: TailConfig, tau_prime: float, sig: float) -> float:
    """Normal-tail majorant from replacing the ramp by a sharp cutoff."""
    s = cfg.tau - tau_prime
    if s <= 0.0:
        return 1.0
    return float(ndtr((cfg.sigma_hat + 1.0 - sig - s / 4.0) / np.sqrt(s / 2.0)))


def zeta_at_origin(cfg: TailConfig) -> float:
    """zeta(tau' = 0, r = 2) = 2 zhat(tau' = 0, ln 2): the initial-state term
    of the moment bound; small only when the truncation sits far enough below
    the self-similar scale."""
    ramp = RampEvolution(cfg.sigma_hat)
    return 2.0 * ramp.value(cfg.tau, np.log(2.0))


@dataclass(frozen=True)
class BoundTerms:
    i1: float
    i2: float
    tau: float


#: points of the front tau' grid of :func:`bound_terms` (its terminal layer
#: takes half as many), and of each scan for a supremum
N_TAU = 200
N_SCAN = 800


def _tau_grid(tau: float) -> np.ndarray:
    """Composite grid resolving the e^{-tau'/2} weight and the terminal layer."""
    front = np.linspace(0.0, min(tau, 50.0), N_TAU)
    back = np.linspace(max(0.0, tau - 5.0), tau, N_TAU // 2)
    return np.unique(np.concatenate([front, back, [tau]]))


def bound_terms(cfg: TailConfig) -> BoundTerms:
    """Estimate the two integral remainder terms of the moment bound.

    In the original coordinates,

        I1 = int_0^tau sup_r r |d^2 zeta/dr^2| dtau'
        I2 = int_0^tau e^{-tau'} sup_r |d zeta/dr| dtau'

    with r d^2 zeta/dr^2 = e^{-tau'/2} (d/dsig + 1) dzhat/dsig and
    d zeta/dr = e^{-tau'/2} (d/dsig + 1) zhat; the suprema are scanned over
    the region where the evolved ramp varies (to the left the profile is the
    constant 1, contributing exactly 1 to the second supremum).  Both are
    estimates: each supremum is the largest value on a scan of ``N_SCAN``
    points, and the tau' integrals are trapezoid sums.
    """
    ramp = RampEvolution(cfg.sigma_hat)
    taus = _tau_grid(cfg.tau)
    f1 = np.empty_like(taus)
    f2 = np.empty_like(taus)
    for i, tp in enumerate(taus):
        s = cfg.tau - tp
        std = np.sqrt(max(s, 1e-12) / 2.0)
        lo = cfg.sigma_hat - s / 4.0 - 8.0 * std - 1.0
        hi = cfg.sigma_hat + 1.0 - s / 4.0 + 8.0 * std + 1.0
        sig = np.linspace(lo, hi, N_SCAN)
        value, d1, d2 = ramp._evaluate(s, sig)
        m21 = np.max(np.abs(d2 + d1))
        m10 = max(np.max(np.abs(d1 + value)), 1.0)
        f1[i] = np.exp(-tp / 2.0) * m21
        f2[i] = np.exp(-1.5 * tp) * m10
    return BoundTerms(float(np.trapezoid(f1, taus)), float(np.trapezoid(f2, taus)), cfg.tau)


@functools.lru_cache(maxsize=16)
def _bound_terms_at(tau: float) -> BoundTerms:
    """:func:`bound_terms` at ``tau``.  Its scan windows move with sigma_hat
    and the suprema are translation invariant, so the terms depend on tau
    alone; they are evaluated once per tau, at sigma_hat = 0."""
    return bound_terms(TailConfig(tau, 0.0))


def relative_threshold(lambda2: float, margin: float) -> float:
    """Relative truncation ``r_rel = margin * sqrt(lam) * exp(-sqrt(2 ln lam))``
    of |F|^2 against its mean, lam = sqrt(lambda2); at unit margin it is the
    admissible scale of the smallness regime."""
    lam = np.sqrt(lambda2)
    return float(margin * np.sqrt(lam) * np.exp(-np.sqrt(2.0 * np.log(lam))))


def in_regime(cfg: TailConfig, lambda2: float) -> bool:
    """Whether the truncation exp(sigma_hat) lies within ``cfg.regime_margin``
    times the admissible scale at ``lambda2`` (the e^tau of ``cfg``)."""
    return bool(np.exp(cfg.sigma_hat) <= cfg.regime_margin * relative_threshold(lambda2, 1.0))


@dataclass
class TailReport:
    """All links of the truncated-moment chain, Monte Carlo and analytic."""

    eps: float
    tau: float
    ratio: float            # E[f2 1(f2 <= relative threshold * E f2)] / E f2
    lhs: float              # ratio * E f2 / lam
    e_zeta_mc: float
    z0: float
    i1: float
    i2: float
    rhs: float              # estimate: scanned suprema, trapezoid tau' integrals
    chain_ok: bool
    regime_ok: bool
    warnings: list = field(default_factory=list)


def verify_tail(samples_f2: np.ndarray, eps: float, lambda2: float,
                margin: float = 0.1) -> TailReport:
    """Check the full chain: truncated moment <= E zeta <= estimated bound.

    The left side is the Monte Carlo truncated second moment at the relative
    threshold built from ``margin``; the middle is the sampled expectation of
    the observable at terminal time; the right side combines the evolved
    initial value with the two remainder integrals, with explicit constants

        c1 = 1/2 sqrt(1 + kappa_c eps^2) + 2 kappa_bullet K3 eps^2,
        c2 = 1/2 K3,

    assembled from the determinant envelope and the corrector-moment bound.
    The right side is an estimate, not a certified bound: the remainder
    integrals of :func:`bound_terms` take their suprema from a fixed scan
    and integrate over tau' by the trapezoid rule.  A threshold outside the
    admissible smallness regime downgrades to a warning, not a failure.
    """
    samples_f2 = np.asarray(samples_f2, dtype=float)
    if samples_f2.size == 0:
        raise ValueError("empty sample set")
    lam = np.sqrt(lambda2)
    r_rel = relative_threshold(lambda2, margin)
    mean_f2 = float(samples_f2.mean())
    ratio = truncated_second_moment(samples_f2, r_rel)
    lhs = ratio * mean_f2 / lam
    # anchor the observable's plateau to the measured threshold so that
    # zeta(tau, r) >= (r/lam) 1(r <= threshold) holds pointwise
    cfg = TailConfig(float(np.log(lambda2)),
                     float(np.log(r_rel * mean_f2 / lam)))

    ramp = RampEvolution(cfg.sigma_hat)
    zeta_vals = ramp.observable_values(cfg.tau, cfg.tau, samples_f2)
    e_zeta = float(zeta_vals.mean())
    se_zeta = float(zeta_vals.std(ddof=1) / np.sqrt(zeta_vals.size))

    cst = envelope_constants(min(eps, 1.0))
    c1 = 0.5 * np.sqrt(1.0 + cst["kappa_c"] * eps ** 2) \
        + 2.0 * BULLET_OPNORM * cst["k3"] * eps ** 2
    c2 = 0.5 * cst["k3"]
    z0 = zeta_at_origin(cfg)
    terms = _bound_terms_at(cfg.tau)
    rhs = z0 + c1 * terms.i1 + c2 * eps ** 2 * terms.i2

    warnings = []
    regime_ok = in_regime(cfg, lambda2)
    if not regime_ok:
        warnings.append(
            f"truncation exp(sigma_hat) = {np.exp(cfg.sigma_hat):.3g} exceeds "
            f"{cfg.regime_margin} * admissible scale "
            f"{relative_threshold(lambda2, 1.0):.3g}")
    chain_ok = (lhs <= e_zeta + 3.0 * se_zeta + 1e-12) \
        and (e_zeta <= rhs + 3.0 * se_zeta + 1e-12)
    return TailReport(eps, cfg.tau, ratio, lhs, e_zeta, z0, terms.i1, terms.i2,
                      float(rhs), bool(chain_ok), regime_ok, warnings)
