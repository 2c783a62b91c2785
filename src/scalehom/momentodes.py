"""Deterministic moment evolution across scales, exact integrals, envelopes.

With x the scale variable and L = exp((x-1)/eps^2), the tracked moments

    a = E|phi|^2,  b = E|phi|^4,  A = E|F|^2,  B = E|F|^4,
    C = E(det F)^2,  D = E det F

obey

    da/dx = (a/2 + L^2)/x               db/dx = (3b/2 + 4 L^2 a)/x
    dA/dx = (A/2 + a/(2 L^2))/x         dD/dx = 0
    dC/dx = q_adj/(L^2 x)
    dB/dx = (3B/2 - 2C)/x + (q_mix + 4 q_bul)/(L^2 x)

where the closure terms q_mix = E|phi|^2|F|^2 and the two Hessian-form
expectations q_bul, q_adj do not close on the tracked set.  The a, b, A
subsystem is closed and integrates explicitly; B and C take their closure
terms either from an interpolated Monte Carlo series ("mc" closure) or from
rigorous envelope bounds ("bound" closure, closure terms zero with a
certified tube around the trajectory).

Everything L-carrying is stored rescaled: a_resc = a/L^2, b_resc = b/L^4 and
closures per L^2, which keeps all quantities representable for ln L in the
hundreds.  Exact integrals are evaluated on exponent-shifted integrands

    a_resc = sqrt(x) int_1^x e^{-2(x-y)/eps^2} y^{-3/2} dy
    b_resc = 4 x^{3/2} int_1^x e^{-4(x-y)/eps^2} y^{-5/2} a_resc(y) dy
    A      = sqrt(x) (2 + 1/2 int_1^x a_resc(y) y^{-3/2} dy)

whose integrands are bounded by their values at y = x.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.integrate import solve_ivp

from .proxysde import MomentSeries
from .tensor2d import BULLET_OPNORM

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


class ClosureSource:
    """Supplier of the non-closing expectations (q_mix, q_bul, q_adj).

    ``mc`` mode linearly interpolates a Monte Carlo moment series (the
    closure terms are smooth, O(eps^2) corrections); ``bound`` mode returns
    zeros and defers control to :func:`envelope`.
    """

    def __init__(self, mode: str, xs: np.ndarray | None = None,
                 mix: np.ndarray | None = None, bul: np.ndarray | None = None,
                 adj: np.ndarray | None = None):
        if mode not in ("mc", "bound"):
            raise ValueError(f"unknown closure mode {mode!r}")
        self.mode = mode
        if mode == "mc":
            if xs is None or mix is None or bul is None or adj is None:
                raise ValueError("mc closure needs the interpolation tables")
            # Python-float copies: one bisect finds the interval for all three
            self._knots = np.asarray(xs, dtype=float).tolist()
            self._rows = list(zip(*(np.asarray(c, dtype=float).tolist()
                                    for c in (mix, bul, adj))))

    @classmethod
    def bound(cls) -> "ClosureSource":
        return cls("bound")

    @classmethod
    def from_series(cls, series: MomentSeries) -> "ClosureSource":
        return cls("mc", series.lambda2, series.column("closure_mix"),
                   series.column("closure_bullet"), series.column("closure_adj"))

    def terms(self, x: float) -> tuple[float, float, float]:
        if self.mode == "bound":
            return 0.0, 0.0, 0.0
        knots, x = self._knots, float(x)
        if not knots[0] - 1e-12 <= x <= knots[-1] * (1.0 + 1e-9):
            raise ValueError(f"closure data does not cover x = {x}")
        # np.interp's value, bit for bit: the end values outside the knots
        # and the knot value on a knot, else slope * (x - x_j) + f_j
        j = bisect.bisect_right(knots, x) - 1
        if j < 0 or j == len(knots) - 1 or knots[j] == x:
            return self._rows[max(j, 0)]
        x0, x1 = knots[j], knots[j + 1]
        return tuple((b - a) / (x1 - x0) * (x - x0) + a
                     for a, b in zip(self._rows[j], self._rows[j + 1]))


def rhs(x: float, m: np.ndarray, eps: float, closure: ClosureSource) -> np.ndarray:
    """Right-hand side on the rescaled state (a_resc, b_resc, A, B, C, D)."""
    a_r, b_r, big_a, big_b, det2, _ = m
    q_mix, q_bul, q_adj = closure.terms(x)
    two_over_eps2 = 2.0 / eps ** 2
    da = (0.5 * a_r + 1.0) / x - two_over_eps2 * a_r
    db = (1.5 * b_r + 4.0 * a_r) / x - 2.0 * two_over_eps2 * b_r
    d_a = (0.5 * big_a + 0.5 * a_r) / x
    d_b = (1.5 * big_b - 2.0 * det2) / x + (q_mix + 4.0 * q_bul) / x
    d_c = q_adj / x
    return np.array([da, db, d_a, d_b, d_c, 0.0])


@dataclass
class MomentTable:
    """Moment flow sampled on a grid (rescaled storage, see module docstring)."""

    eps: float
    x: np.ndarray
    a_resc: np.ndarray
    b_resc: np.ndarray
    big_a: np.ndarray
    big_b: np.ndarray
    det2: np.ndarray
    det: np.ndarray


def integrate_moments(eps: float, x_end: float, closure: ClosureSource,
                      x_eval: np.ndarray | None = None) -> MomentTable:
    """Adaptive embedded Runge-Kutta integration of the moment system."""
    if x_end <= 1.0:
        raise ValueError("x_end must exceed 1")
    if x_eval is None:
        x_eval = np.linspace(1.0, x_end, 201)
    y0 = np.array([0.0, 0.0, 2.0, 4.0, 1.0, 1.0])
    sol = solve_ivp(rhs, (1.0, x_end), y0, t_eval=x_eval, args=(eps, closure),
                    method="RK45", rtol=1e-10, atol=1e-14, max_step=x_end - 1.0)
    if not sol.success:
        raise FloatingPointError(f"moment integration failed: {sol.message}")
    return MomentTable(eps, sol.t, *sol.y)


def _shifted_quad(fn, upper: float) -> float:
    """Gauss-Legendre integral of fn(v) e^{-c v}-type integrands on [0, upper]."""
    v = 0.5 * upper * (_GL_NODES + 1.0)
    w = 0.5 * upper * _GL_WEIGHTS
    return float(np.sum(w * fn(v)))


def exact_a(x: float, eps: float) -> float:
    """Closed-form E|phi|^2 / L^2 via quadrature of the exponent-shifted integral."""
    if x < 1.0:
        raise ValueError("x must be >= 1")
    if x == 1.0:
        return 0.0
    upper = min(2.0 * (x - 1.0) / eps ** 2, 80.0)
    # v = 2 (x - y) / eps^2
    return np.sqrt(x) * 0.5 * eps ** 2 * _shifted_quad(
        lambda v: np.exp(-v) * (x - 0.5 * eps ** 2 * v) ** -1.5, upper)


def exact_b(x: float, eps: float) -> float:
    """Closed-form E|phi|^4 / L^4: nested exponent-shifted quadrature."""
    if x < 1.0:
        raise ValueError("x must be >= 1")
    if x == 1.0:
        return 0.0
    upper = min(4.0 * (x - 1.0) / eps ** 2, 80.0)

    def inner(v):
        ys = x - 0.25 * eps ** 2 * v
        return np.array([exact_a(y, eps) for y in np.atleast_1d(ys)])

    # v = 4 (x - y) / eps^2
    return 4.0 * x ** 1.5 * 0.25 * eps ** 2 * _shifted_quad(
        lambda v: np.exp(-v) * (x - 0.25 * eps ** 2 * v) ** -2.5 * inner(v), upper)


def exact_big_a(x: float, eps: float) -> float:
    """Closed-form E|F|^2 (no L factors; always directly representable)."""
    if x < 1.0:
        raise ValueError("x must be >= 1")
    if x == 1.0:
        return 2.0
    val, _ = integrate.quad(lambda y: exact_a(y, eps) * y ** -1.5, 1.0, x,
                            epsabs=1e-13, epsrel=1e-12, limit=200)
    return float(np.sqrt(x) * (2.0 + 0.5 * val))


def asymptotics(x: float, eps: float) -> dict[str, float]:
    """Large-scale limits: a ~ eps^2 L^2/2x, b ~ eps^4 L^4/2x^2 (returned
    rescaled), A ~ 2 sqrt(x), B ~ (8/3) x^{3/2} + 4/3."""
    return {
        "a_resc": eps ** 2 / (2.0 * x),
        "b_resc": eps ** 4 / (2.0 * x ** 2),
        "big_a": 2.0 * np.sqrt(x),
        "big_b": (8.0 / 3.0) * x ** 1.5 + 4.0 / 3.0,
    }


@lru_cache(maxsize=8)
def envelope_constants(eps: float = 1.0) -> dict[str, float]:
    """Explicit constants for the fourth-moment and determinant envelopes.

    Assembled from the sharp Hessian-form operator norm and the two
    pre-asymptotic quadrature constants

        K3 = int_0^inf (1+y)^{3/2} e^{-2y} dy,
        K7 = int_0^inf (1+y)^{7/2} e^{-2y} dy,

    which bound a_resc <= K3 eps^2 / x and b_resc <= 4 K3 K7 eps^4 / x^2
    for eps <= 1.  Chaining Cauchy-Schwarz on the closure terms through the
    flow gives, for every x >= 1,

        (B/x^{3/2})^{1/2} - 2      <= kappa_b  eps^2
        |C - 1|                    <= kappa_c  eps^2
        |(3B/2 - 2C)/x^{3/2} - 4|  <= kappa_bc eps^2.
    """
    k3, _ = integrate.quad(lambda y: (1 + y) ** 1.5 * np.exp(-2 * y), 0, np.inf)
    k7, _ = integrate.quad(lambda y: (1 + y) ** 3.5 * np.exp(-2 * y), 0, np.inf)
    root = np.sqrt(k3 * k7)
    m_b = (1.0 + 4.0 * BULLET_OPNORM) * 2.0 * root     # |dB closure| <= m_b eps^2 sqrt(B)/x^2
    m_c = 2.0 * BULLET_OPNORM * root                   # |dC/dx| <= m_c eps^2 sqrt(B)/x^2
    kappa_b = (2.0 / 7.0) * m_b                        # int x^{-11/4} = 4/7, halved in the sqrt chain
    kappa_c = 4.0 * m_c * (2.0 + kappa_b * eps ** 2)   # int x^{-5/4} = 4
    kappa_bc = (4.0 / 7.0) * (2.0 + kappa_b * eps ** 2) * (1.5 * m_b + 2.0 * m_c)
    return {"k3": k3, "k7": k7, "m_b": m_b, "m_c": m_c,
            "kappa_b": kappa_b, "kappa_c": kappa_c, "kappa_bc": kappa_bc,
            "a_resc_bound": k3, "b_resc_bound": 4.0 * k3 * k7}


@dataclass
class Envelope:
    eps: float
    x: np.ndarray
    b_low: np.ndarray
    b_high: np.ndarray
    c_low: np.ndarray
    c_high: np.ndarray
    constants: dict


def envelope(eps: float, x_end: float) -> Envelope:
    """Certified tube for B and C by integrating the bounding scalar flows.

    The upper branch drops the helpful -2C term and adds the closure bound,
    the lower branch does the opposite; at eps = 0 both collapse onto the
    closed-form solution (8/3) x^{3/2} + 4/3 with C = 1.
    """
    if x_end <= 1.0:
        raise ValueError("x_end must exceed 1")
    cst = envelope_constants(min(eps, 1.0))
    m_b, kappa_c = cst["m_b"], cst["kappa_c"]
    xs = np.linspace(1.0, x_end, 400)
    c_lo = max(1.0 - kappa_c * eps ** 2, 0.0)
    c_hi = 1.0 + kappa_c * eps ** 2

    def up(x, y):
        return [(1.5 * y[0] - 2.0 * c_lo) / x
                + m_b * eps ** 2 * max(y[0], 0.0) ** 0.5 / x ** 2]

    def down(x, y):
        return [(1.5 * y[0] - 2.0 * c_hi) / x
                - m_b * eps ** 2 * max(y[0], 0.0) ** 0.5 / x ** 2]

    hi = solve_ivp(up, (1.0, x_end), [4.0], t_eval=xs, rtol=1e-10, atol=1e-12)
    lo = solve_ivp(down, (1.0, x_end), [4.0], t_eval=xs, rtol=1e-10, atol=1e-12)
    if not (hi.success and lo.success):
        raise FloatingPointError("envelope integration failed")
    return Envelope(eps, xs, lo.y[0], hi.y[0], np.full_like(xs, c_lo),
                    np.full_like(xs, c_hi), dict(cst))
