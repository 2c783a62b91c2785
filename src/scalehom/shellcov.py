"""Joint single-point law of the driver triple (dphi, grad dphi, hess dphi).

A shell of the stream-function decomposition carries an independent Gaussian
increment whose spectrum is ``eps^2 / |k|^2`` on the annulus it occupies.  The
driver is obtained from that increment by the Helmholtz multiplier
``i (Jk)* / (lam |k|^2)``, so every component of the triple evaluated at one
point is a Gaussian whose covariance per unit scale time ``dlam2`` is a circle
average of a monomial in the wave direction, divided by ``lam2``:

* ``cov(dphi/L)``                entries  <(Jt)^c (Jt)^d> / lam2
* ``cov(grad)``                  entries  <t_a t_b (Jt)^c (Jt)^d> / lam2
* ``cov(L * hess)``              entries  <t_a t_b t_e t_f (Jt)^c (Jt)^d> / lam2
* ``cov(dphi/L, L * hess)``      entries  -<t_a t_b (Jt)^c (Jt)^d> / lam2

with mixed zeroth/first and first/second covariances vanishing by parity.
``L`` factors are kept in log form; the rescaled 12x12 matrix is free of
``L`` entirely, which is what makes exponentially large scale separations
representable.  Covariance construction is pure; sampling takes a caller
owned generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

#: directions of the driver law that sampling draws: the 12 components span
#: polynomials in the wave direction of degrees 1, 2 and 3 (2 + 3 + 4
#: functions), so the trace of the gradient and two Hessian combinations
#: carry no variance at any scale or step
RANK = 9

#: monomial table of the multiplier vector for the rescaled driver triple
#: (dphi/L, grad, L*hess): sign, power of t1, power of t2.
_MONOMIALS = (
    # dphi components (Jt)^c
    (-1, 0, 1), (+1, 1, 0),
    # grad components -t_a (Jt)^c, flat (c, a) row major
    (+1, 1, 1), (+1, 0, 2), (-1, 2, 0), (-1, 1, 1),
    # hessian components -t_a t_b (Jt)^c, flat (c, ab) with ab in {00, 01, 11}
    (+1, 2, 1), (+1, 1, 2), (+1, 0, 3), (-1, 3, 0), (-1, 2, 1), (-1, 1, 2),
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def angular_moment(p: int, q: int) -> float:
    """Average of ``t1^p t2^q`` over the unit circle, total degree <= 6.

    Zero for odd powers; for even powers ``(p-1)!! (q-1)!! / (p+q)!!``.
    """
    if p < 0 or q < 0 or p + q > 6:
        raise ValueError(f"angular moment degree {p}+{q} out of supported range")
    if p % 2 or q % 2:
        return 0.0

    def dfact(n: int) -> int:
        out = 1
        while n > 1:
            out *= n
            n -= 2
        return out

    return dfact(p - 1) * dfact(q - 1) / dfact(p + q)


@lru_cache(maxsize=1)
def unit_matrix() -> np.ndarray:
    """Per-unit-scale-time covariance of the rescaled triple at lam2 = 1."""
    n = len(_MONOMIALS)
    c = np.empty((n, n))
    for i, (si, pi, qi) in enumerate(_MONOMIALS):
        for j, (sj, pj, qj) in enumerate(_MONOMIALS):
            c[i, j] = si * sj * angular_moment(pi + pj, qi + qj)
    c.setflags(write=False)
    return c


@dataclass(frozen=True)
class DriverCovariance:
    """Covariance of the driver triple at one scale, per unit ``dlam2``, or
    a stack of them, one per step.

    The stored ``matrix``, 12x12 or a ``(..., 12, 12)`` stack, refers to the
    rescaled components ``(dphi/L, grad, L*hess)`` and is free of ``L``; no
    raw (``L``-carrying) block is formed.  ``lambda2`` names each matrix's
    scale in error messages, a scalar or an array of the stack's shape.
    """

    lambda2: float | np.ndarray
    matrix: np.ndarray
    _eig: tuple = field(repr=False, default=None)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (clamped at 0) and eigenvectors of every matrix, by
        one (batched) ``eigh``.

        Raises ``FloatingPointError`` naming the lam2 of the first matrix
        that is not PSD.
        """
        if self._eig is None:
            w, v = np.linalg.eigh(self.matrix)
            scale = w[..., -1]
            k, lam2 = self._first(w[..., 0] < -1e-12 * scale)
            if k is not None:
                raise FloatingPointError(
                    f"driver covariance not PSD: offending eigenvalue {w[k][0]:.3e} "
                    f"(largest {scale[k]:.3e}) at lam2 = {lam2}")
            object.__setattr__(self, "_eig", (np.clip(w, 0.0, None), v))
        return self._eig

    def factor(self) -> np.ndarray:
        """(..., 12, RANK) factor used for sampling: the eigenvectors of the
        RANK largest eigenvalues, scaled by their roots (clamped at 0).

        Raises ``FloatingPointError`` if a dropped eigenvalue exceeds 1e-12
        of the largest, i.e. if a law has more than RANK directions, naming
        the lam2 of the first such matrix.
        """
        w, v = self.eigensystem()
        dropped = w[..., -RANK - 1]
        k, lam2 = self._first(dropped > 1e-12 * w[..., -1])
        if k is not None:
            raise FloatingPointError(
                f"driver covariance above rank {RANK}: dropped eigenvalue "
                f"{dropped[k]:.3e} (largest {w[k][-1]:.3e}) at lam2 = {lam2}")
        return v[..., -RANK:] * np.sqrt(w[..., None, -RANK:])

    def _first(self, bad: np.ndarray):
        """Index of the first matrix flagged in ``bad`` and its lam2, or
        (None, None) if none is."""
        if not np.any(bad):
            return None, None
        k = np.unravel_index(np.argmax(bad), bad.shape)
        return k, float(np.broadcast_to(self.lambda2, bad.shape)[k])


def build_cov(lambda2: float) -> DriverCovariance:
    """Per-unit-``dlam2`` covariance of the rescaled driver triple (free of eps)."""
    if not lambda2 >= 1.0:
        raise ValueError("lambda2 must be >= 1")
    cov = DriverCovariance(lambda2, unit_matrix() / lambda2)
    cov.eigensystem()
    return cov


#: rows per product call: keeps M*N*K under OpenBLAS's threading threshold,
#: so the product runs on the caller's thread while other threads draw
ROW_BLOCK = 1024


def gaussian_from_factor(fac: np.ndarray, z: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Centred Gaussian rows with covariance ``fac @ fac.T`` from normals ``z``.

    The one place where standard normals become driver increments: row ``i``
    of ``out`` is ``fac @ z_i``, so (n, RANK) normals and the (12, RANK)
    :meth:`DriverCovariance.factor` give (n, 12) driver rows.  The product
    runs in row blocks of ``ROW_BLOCK``, bit-identical to ``z @ fac.T``; a
    lone last row joins the block before it, as a one-row product goes
    through gemv, which sums in another order.
    """
    out = np.empty((len(z), len(fac))) if out is None else out
    edges = [*range(0, max(len(z) - 1, 1), ROW_BLOCK), len(z)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        np.matmul(z[lo:hi], fac.T, out=out[lo:hi])
    return out


def components_to_fields(vec: np.ndarray) -> list:
    """Read sampled 12-vectors as the 11 increment planes of the Euler kernel.

    The planes are dphi^0, dphi^1, the gradient g00, g01, g10 and the Hessian
    components in ``tensor2d.HESS_SLOTS`` order, each of batch shape
    ``vec.shape[:-1]``; all but g00 are views into ``vec``.  The gradient is
    trace free, g11 = -g00 = -(v2 - v5)/2: the trace is a null direction of
    the law, which the rank-RANK factor leaves at rounding level.
    """
    v = np.moveaxis(vec, -1, 0)
    return [v[0], v[1], 0.5 * (v[2] - v[5]), v[3], v[4], *v[6:]]


def _edge_integral(x_edge: np.ndarray, span: np.ndarray, eps: float,
                   sign: float) -> np.ndarray:
    """``int e^{-2 d(s)/eps^2} / s ds`` with distance taken from one step edge,
    for each of the steps ``x_edge`` and ``span`` describe.

    ``sign = +1`` measures the decay from the right edge ``x_edge`` backwards
    (weight of the dphi reference), ``sign = -1`` from the left edge forwards
    (weight of the Hessian reference).  Substituting ``v = 2 d(s)/eps^2``
    keeps the integrand bounded for arbitrarily large ``span/eps^2``; the
    quadrature nodes run along a new last axis, which the sum reduces.
    """
    vmax = np.minimum(2.0 * span / eps ** 2, 60.0)[..., None]
    v = 0.5 * vmax * (_GL_NODES + 1.0)
    w = 0.5 * vmax * _GL_WEIGHTS
    s = x_edge[..., None] - sign * 0.5 * eps ** 2 * v
    return np.sum(w * np.exp(-v) / s, axis=-1) * eps ** 2 / 2.0


def step_covariance(x_lo, x_hi, eps: float, frozen_lambda2=None) -> DriverCovariance:
    """Exact covariance of the driver triple integrated over ``[x_lo, x_hi]``.

    Within a step the spectrum sweeps an annulus whose radial weight differs
    per block; freezing it at the left endpoint would bias the dphi variance
    by ``exp(2 dlam2/eps^2)``-type factors.  Here the radial integrals are
    done exactly, with the dphi block referenced to the scale at ``x_hi``
    (where the consumer reads it) and the Hessian block to ``x_lo`` (where it
    multiplies the state).  The result is the covariance of one whole-step
    increment, not a per-unit rate.

    With ``frozen_lambda2`` set, the 1/lam2 weight is frozen at that value
    across the step while the cutoff-scale weights stay exact; this
    reproduces the one-step law of the spectral field mode, whose shells
    apply a single multiplier scale (see :mod:`scalehom.fieldsim`).

    The edges (and ``frozen_lambda2``) may be arrays of steps, for instance
    ``x[:-1]`` and ``x[1:]`` of a grid: the result is then the stack of the
    steps' laws, each bit-identical to its own scalar call, assembled and
    factored by one batched ``eigh``.
    """
    x_lo, x_hi = np.broadcast_arrays(np.asarray(x_lo, dtype=float),
                                     np.asarray(x_hi, dtype=float))
    if not np.all((1.0 <= x_lo) & (x_lo < x_hi)):
        raise ValueError("need 1 <= x_lo < x_hi")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    span = x_hi - x_lo
    if frozen_lambda2 is not None:
        h = span / eps ** 2
        edge = 0.5 * eps ** 2 * -np.expm1(-2.0 * h) / frozen_lambda2
        i_dphi = i_hess = edge
        i_grad = span / frozen_lambda2
        i_cross = np.exp(-h) * i_grad
    else:
        i_dphi = _edge_integral(x_hi, span, eps, +1.0)
        i_grad = np.log(x_hi / x_lo)
        i_hess = _edge_integral(x_lo, span, eps, -1.0)
        i_cross = np.exp(-span / eps ** 2) * i_grad

    radial = np.empty((*x_lo.shape, 3, 3))
    radial[..., 0, 0] = i_dphi
    radial[..., 1, 1] = i_grad
    radial[..., 2, 2] = i_hess
    radial[..., 0, 1] = radial[..., 1, 0] = i_grad   # entries vanish by parity
    radial[..., 1, 2] = radial[..., 2, 1] = i_grad   # entries vanish by parity
    radial[..., 0, 2] = radial[..., 2, 0] = i_cross

    block = np.repeat([0, 1, 2], [2, 4, 6])
    mat = unit_matrix() * radial[..., block[:, None], block]
    cov = DriverCovariance(x_lo if x_lo.ndim else float(x_lo), mat)
    cov.eigensystem()
    return cov
