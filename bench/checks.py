"""Output checks computed apart from the package.

Every check is a pure function of program outputs (and of the workload's
inputs) that returns a :class:`Check`.  Reference values come from this
file's own formulas: the closed form of E|phi/L|^2 through Dawson's
integral, a cumulative Simpson rule for E|F|^2, spectral derivatives taken
with NumPy's FFT, and the terminal tail observable written out by hand.
None of them calls into ``scalehom``.

Statistical tolerances are ``K_SE`` standard errors of the run itself plus,
for Monte Carlo moments, the Euler scheme's first-order weak bias, bounded
by ``WEAK_BIAS * dlam2 * |value|`` (see README.md for the sizing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.special import dawsn

#: standard errors allowed before a Monte Carlo estimate counts as wrong
K_SE = 5.0
#: relative weak bias per unit dlam2 allowed on top of the sampling error
WEAK_BIAS = 0.25


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    value: float
    limit: float

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        return f"[{status}] {self.name}: {self.value:.6g} (limit {self.limit:.6g})"


def _check(name: str, value, limit, ok) -> Check:
    return Check(name, bool(ok), float(value), float(limit))


# ---------------------------------------------------------------- closed forms

def a_resc_exact(y, eps: float) -> np.ndarray:
    """E|phi/L|^2 at lam2 = y from the closed form of its defining integral.

    ``sqrt(y) int_1^y e^{-k(y-u)} u^{-3/2} du`` with ``k = 2/eps^2``
    integrates by parts to Dawson's function D:
    ``-2/sqrt(y) + 2 e^{-k(y-1)} + 4 sqrt(k) (D(sqrt(k y)) - e^{-k(y-1)} D(sqrt(k)))``.
    """
    y = np.asarray(y, dtype=float)
    k = 2.0 / eps ** 2
    decay = np.exp(-k * (y - 1.0))
    inner = (-2.0 / np.sqrt(y) + 2.0 * decay
             + 4.0 * np.sqrt(k) * (dawsn(np.sqrt(k * y)) - decay * dawsn(np.sqrt(k))))
    return np.sqrt(y) * inner


def big_a_exact(x, eps: float, h: float = 1e-4) -> np.ndarray:
    """E|F|^2 = sqrt(x) (2 + 1/2 int_1^x a_resc(y) y^{-3/2} dy).

    Cumulative Simpson on a uniform grid of spacing about ``h``, far below
    the relaxation length eps^2/2 of a_resc.
    """
    x = np.asarray(x, dtype=float)
    n = int(np.ceil((x.max() - 1.0) / h))
    n += n % 2
    y = np.linspace(1.0, x.max(), n + 1)
    integral = cumulative_simpson(a_resc_exact(y, eps) / y ** 1.5, x=y, initial=0.0)
    return np.sqrt(x) * (2.0 + 0.5 * np.interp(x, y, integral))


def relative_threshold(lambda2: float, margin: float) -> float:
    """Relative truncation r_rel = margin sqrt(lam) exp(-sqrt(2 ln lam))."""
    lam = np.sqrt(lambda2)
    return float(margin * np.sqrt(lam) * np.exp(-np.sqrt(2.0 * np.log(lam))))


def truncated_fraction(f2: np.ndarray, r_rel: float) -> float:
    """Share of sum |F|^2 carried by samples at or below r_rel * mean."""
    below = f2[f2 <= r_rel * f2.mean()]
    return float(below.sum() / f2.sum())


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)


def tail_chain(f2: np.ndarray, lambda2: float, margin: float) -> tuple[float, float, float]:
    """Left side and sampled middle of the truncated-moment chain.

    At terminal time the observable is ``zeta(r) = rhat * ramp(ln rhat -
    sigma_hat)`` with ``rhat = r / lam`` and the ramp anchored at the
    measured threshold ``r_rel * mean / lam``.  Returns (lhs, E zeta, se).
    """
    lam = np.sqrt(lambda2)
    mean = float(f2.mean())
    r_rel = relative_threshold(lambda2, margin)
    lhs = truncated_fraction(f2, r_rel) * mean / lam
    sigma_hat = np.log(r_rel * mean / lam)
    rhat = f2 / lam
    zeta = np.zeros_like(rhat)
    pos = rhat > 0.0
    zeta[pos] = rhat[pos] * _smoothstep(np.log(rhat[pos]) - sigma_hat)
    return lhs, float(zeta.mean()), float(zeta.std(ddof=1) / np.sqrt(zeta.size))


# ---------------------------------------------------------------- spectral

def _derivatives(field: np.ndarray, box_len: float) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy) of a periodic grid field; x runs along axis 0."""
    n = field.shape[0]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=box_len / n)
    spec = np.fft.fft2(field)
    dx = np.fft.ifft2(1j * k[:, None] * spec).real
    dy = np.fft.ifft2(1j * k[None, :] * spec).real
    return dx, dy


def corrector_residual(psi: np.ndarray, phi: np.ndarray, xi, box_len: float) -> float:
    """Relative residual of lap phi + grad psi . J (xi + grad phi) = 0."""
    n = psi.shape[0]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=box_len / n)
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    lap = np.fft.ifft2(-k2 * np.fft.fft2(phi)).real
    px, py = _derivatives(psi, box_len)
    fx, fy = _derivatives(phi, box_len)
    forcing = py * xi[0] - px * xi[1]            # grad psi . J xi, J v = (-v1, v0)
    res = lap + forcing + py * fx - px * fy
    return float(np.linalg.norm(res) / np.linalg.norm(forcing))


def flux_lambda(psi: np.ndarray, phi: np.ndarray, xi, box_len: float) -> float:
    """xi . mean[(id + psi J)(xi + grad phi)] for a unit direction xi."""
    fx, fy = _derivatives(phi, box_len)
    v0, v1 = xi[0] + fx, xi[1] + fy
    flux0 = np.mean(v0 - psi * v1)
    flux1 = np.mean(v1 + psi * v0)
    return float(xi[0] * flux0 + xi[1] * flux1)


def max_divergence(b: np.ndarray, box_len: float) -> float:
    """max |div b| / max |b| for a drift sampled as (2, n, n)."""
    bx, _ = _derivatives(b[0], box_len)
    _, by = _derivatives(b[1], box_len)
    return float(np.max(np.abs(bx + by)) / max(float(np.max(np.abs(b))), 1e-300))


# ---------------------------------------------------------------- checks

def det_martingale(name: str, mean_det, se_det) -> Check:
    """E det F = 1 at every grid point: det F is a martingale of the scheme.

    The first point is the deterministic initial state and must be exactly 1.
    """
    mean_det, se_det = np.asarray(mean_det), np.asarray(se_det)
    z = np.abs(mean_det[1:] - 1.0) / se_det[1:]
    worst = max(float(np.max(z)), 0.0 if mean_det[0] == 1.0 else np.inf)
    return _check(f"{name}: max |E det - 1| / se", worst, K_SE, worst <= K_SE)


def matches_exact(name: str, mean, se, exact, dlam2: float) -> Check:
    """|MC - exact| within K_SE se plus the first-order weak bias."""
    mean, se, exact = np.asarray(mean), np.asarray(se), np.asarray(exact)
    slack = K_SE * se + WEAK_BIAS * dlam2 * np.abs(exact)
    excess = float(np.max(np.abs(mean - exact) / np.where(slack > 0, slack, 1e-300)))
    return _check(f"{name}: max |MC - exact| / (5 se + bias)", excess, 1.0, excess <= 1.0)


def jensen(name: str, second, fourth) -> Check:
    """fourth >= second^2 at every point (E X^2 >= (E X)^2)."""
    second, fourth = np.asarray(second), np.asarray(fourth)
    gap = float(np.min((fourth - second ** 2) / np.maximum(np.abs(fourth), 1e-300)))
    return _check(f"{name}: min (E X^2 - (E X)^2) / E X^2", gap, -1e-12, gap >= -1e-12)


def relative_close(name: str, value, reference, rtol: float) -> Check:
    value, reference = np.asarray(value, dtype=float), np.asarray(reference, dtype=float)
    dev = float(np.max(np.abs(value - reference) / np.maximum(np.abs(reference), 1e-300)))
    return _check(f"{name}: max relative deviation", dev, rtol, dev <= rtol)


def absolute_close(name: str, value, reference, atol: float) -> Check:
    dev = float(np.max(np.abs(np.asarray(value, dtype=float) - reference)))
    return _check(f"{name}: max absolute deviation", dev, atol, dev <= atol)


def intermittency(f2: float, f4: float) -> Check:
    ratio = f4 / f2 ** 2
    return _check("E|F|^4 / (E|F|^2)^2 at the last point", ratio, 2.0, ratio > 2.0)


def inside_envelope(mean, se, low, high, dlam2: float) -> Check:
    """low <= E|F|^4 <= high within K_SE se plus the weak bias, everywhere."""
    mean, se = np.asarray(mean), np.asarray(se)
    slack = K_SE * se + WEAK_BIAS * dlam2 * np.abs(mean)
    excess = float(np.max(np.maximum(low - mean, mean - high) / np.maximum(slack, 1e-300)))
    return _check("E|F|^4 outside envelope / (5 se + bias)", excess, 1.0, excess <= 1.0)


def chain_holds(margin: float, lhs: float, mid: float, se: float, rhs: float) -> Check:
    """lhs <= E zeta <= rhs, each link within 3 se of the sampled middle."""
    slack = 3.0 * se + 1e-12
    worst = max(lhs - mid, mid - rhs)
    return _check(f"tail chain at margin {margin:g}: max link violation",
                  worst, slack, worst <= slack)


def msd_free_slope(times, msd, se) -> Check:
    """Drift-free displacement: msd = 2 t per component within K_SE se."""
    z = float(np.max(np.abs(np.asarray(msd) - 2.0 * np.asarray(times)) / np.asarray(se)))
    return _check("drift-free max |msd - 2t| / se", z, K_SE, z <= K_SE)


def enhancement(name: str, times, total, total_se) -> Check:
    """Annealed total msd / 4t >= 1 within 3 se at the last sample time.

    The enhancement grows with time, so the last time carries the most
    signal; with few environments the cluster error is too rough to test
    every early time at a fixed multiple of it.
    """
    t, tot, se = float(times[-1]), float(total[-1]), float(total_se[-1])
    floor = (tot + 3.0 * se) / (4.0 * t)
    return _check(f"{name}: enhancement + 3 se at t = {t:g}", floor, 1.0, floor >= 1.0)


def trace_free(drivers) -> Check:
    """Field-mode drivers: the gradient increment is trace free pointwise.

    No drivers (none observed during the run) fails the check."""
    worst = max((float(np.abs(d.grad[0, 0] + d.grad[1, 1]).max() / np.abs(d.dpsi).max())
                 for d in drivers), default=np.inf)
    return _check("field drivers: max |tr grad| / max |dpsi|", worst, 1e-10, worst <= 1e-10)


def shell_variance_sd(n: int, box_len: float, ladder, eps: float) -> float:
    """Standard deviation of one sample's sum over shells of mean dpsi^2.

    A shell draws coefficients ``amp_k * fft(white noise)`` with
    ``amp_k^2`` proportional to ``w_k = 1/|k|^2`` on its lattice annulus, so
    by Parseval its lattice mean of dpsi^2 is a sum of independent
    exponentials, one per pair of modes (k, -k), and its variance is
    ``2 target^2 sum w_k^2 / (sum w_k)^2`` with ``target = eps^2 ln(l_hi/l_lo)``.
    Shells are independent, so the variances add.
    """
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=box_len / n)
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    var = 0.0
    for l_lo, l_hi in zip(ladder[:-1], ladder[1:]):
        w = 1.0 / k2[(k2 > 1.0 / l_hi ** 2) & (k2 <= 1.0 / l_lo ** 2)]
        var += 2.0 * (eps ** 2 * np.log(l_hi / l_lo)) ** 2 * np.sum(w ** 2) / np.sum(w) ** 2
    return float(np.sqrt(var))


def quadratic_variation(qv_dpsi: np.ndarray, expected: float, sd: float) -> Check:
    """Per-sample sums of the shell variances E dpsi^2 average to
    eps^2 ln l_max within K_SE standard errors computed from the lattice."""
    totals = qv_dpsi.sum(axis=1)
    z = abs(totals.mean() - expected) / (sd / np.sqrt(len(totals)))
    return _check("field quadratic variation: |sum E dpsi^2 - eps^2 ln l_max| / se",
                  z, K_SE, z <= K_SE)
