"""Periodic corrector problem for sampled stream functions.

For a stream function ``psi`` on the torus the coefficient field is
``a = id + psi J``; the corrector ``phi`` in direction ``xi`` solves

    div a (xi + grad phi) = 0,  zero-mean gradient,

which expands to the scalar form ``lap phi = -grad psi . J (xi + grad phi)``
since the skew part contributes only through the stream gradient.  lgmres
solves the preconditioned equation

    u + lap^{-1}(grad psi . J grad u) = lap^{-1}(-grad psi . J xi)

with the spectral inverse Laplacian on real FFTs (two forward and two
batched inverse calls per matvec).  One final check of the unpreconditioned
residual decides convergence; a damped fixed point takes over when the
Krylov iteration misses ``tol`` (large stream amplitudes).

From converged correctors in both coordinate directions the effective
diffusivity ``lambda = 1 + mean |grad phi|^2``, the flux representation
``lambda xi = mean a (xi + grad phi)``, and the Jacobian statistics of
``F = id + (grad phi^1; grad phi^2)`` follow; the identity
``mean |F|^2 = 2 lambda`` and the unit spatial mean of ``det F`` (a null
Lagrangian, exact on the torus) are the built-in cross-checks.

An ensemble runs its samples in order, each from its own counter-based
stream, and solves the two directions of a sample concurrently on
:func:`proxysde.draw_threads` threads; the results are the same for any
thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import LinearOperator, lgmres

from . import tensor2d
from .fieldsim import TorusGrid, sample_shell_field
from .proxysde import _map_units
from .rng import stream

#: derivative orders (a, b) of d_x^a d_y^b that make a gradient
GRAD = ((1, 0), (0, 1))
#: Krylov iterations per solve; the damped fixed point may take five times as many
_MAX_ITER = 400
#: relative thresholds r of the truncated second moments in ``JacobianStats``
R_SCHEDULE = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass
class CoefField:
    """Stream-function sample, held by its half spectrum (``rfft2`` layout),
    and the implied coefficient field id + psi J."""

    psi_hat: np.ndarray
    grid: TorusGrid
    eps: float
    l_max: float

    @cached_property
    def psi(self) -> np.ndarray:
        return self.grid.synthesize(self.psi_hat)

    def grad_psi(self) -> np.ndarray:
        return self.grid.derivatives(self.psi_hat, GRAD)

    def apply_a(self, v: np.ndarray) -> np.ndarray:
        """Pointwise a(v) = v + psi J v for a vector field v of shape (2,n,n)."""
        return np.stack([v[0] - self.psi * v[1], v[1] + self.psi * v[0]])


def sample_stream_function(grid: TorusGrid, eps: float, l_max: float,
                           rng: np.random.Generator) -> CoefField:
    """Band-limited stream function with spectrum eps^2/|k|^2 on [1/l_max, 1]."""
    shell = sample_shell_field(grid, 1.0, l_max, eps, rng)
    return CoefField(shell.coeffs, grid, eps, l_max)


@dataclass
class CorrectorSolution:
    """Converged corrector: potential, spectral gradient, solver diagnostics.

    ``iterations`` counts lgmres iterations; ``fallback_steps`` the damped
    fixed-point steps, 0 unless lgmres was skipped or missed ``tol``.
    ``residual_history``: true residual after lgmres, then per fixed-point step.
    """

    phi: np.ndarray
    grad: np.ndarray            # (2, n, n), zero mean by construction
    xi: np.ndarray
    residual_rel: float
    iterations: int
    fallback_steps: int
    residual_history: list = field(default_factory=list)


def solve_corrector(coef: CoefField, xi, tol: float = 1e-8,
                    use_krylov: bool = True) -> CorrectorSolution:
    """Solve the corrector problem in direction ``xi`` to relative residual ``tol``.

    lgmres solves the preconditioned equation u + lap^{-1}(grad psi . J grad u)
    = lap^{-1} rhs; ``tol`` bounds the residual of the unpreconditioned
    equation, checked once after the solve.  Raises ``FloatingPointError``
    with the residual history if neither the Krylov iteration nor the damped
    fixed-point fallback converges.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    xi = np.asarray(xi, dtype=float)
    grid = coef.grid
    n = grid.n
    if not np.all(np.isfinite(coef.psi_hat)):
        raise ValueError("coefficient field contains non-finite values")
    inv_k2 = grid.inv_k2()
    gpsi = coef.grad_psi()

    jxi = tensor2d.J @ xi
    rhs = -(gpsi[0] * jxi[0] + gpsi[1] * jxi[1])
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        zero = np.zeros((n, n))
        return CorrectorSolution(zero, np.zeros((2, n, n)), xi, 0.0, 0, 0)

    def advect(grad):
        return gpsi[1] * grad[0] - gpsi[0] * grad[1]   # grad psi . J grad phi

    def inv_lap(f):
        return -inv_k2 * np.fft.rfft2(f)

    def precond_op(u_flat):
        u = u_flat.reshape(n, n)
        grad = grid.derivatives(np.fft.rfft2(u), GRAD)
        return (u + grid.synthesize(inv_lap(advect(grad)))).ravel()

    def close(phi_hat):     # zero-mean phi, grad phi, advection, true residual
        phi_hat[0, 0] = 0.0
        fields = grid.derivatives(phi_hat, ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2)))
        grad = fields[1:3]
        adv = advect(grad)
        res = float(np.linalg.norm(fields[3] + fields[4] + adv - rhs) / rhs_norm)
        return fields[0], grad, adv, res

    phi_hat = np.zeros((n, n // 2 + 1), dtype=complex)
    iterations = fallback_steps = 0

    if use_krylov:
        op = LinearOperator((n * n, n * n), matvec=precond_op, dtype=float)

        def track(_):
            nonlocal iterations
            iterations += 1

        u, _ = lgmres(op, grid.synthesize(inv_lap(rhs)).ravel(), rtol=tol * 1e-2,
                      atol=0.0, maxiter=_MAX_ITER, callback=track)
        phi_hat = np.fft.rfft2(u.reshape(n, n))

    phi, grad, adv, res = close(phi_hat)
    history = [res]
    if res > tol:
        # damped fixed point on phi <- lap^{-1}(rhs - advect(phi))
        damp = 1.0 / (1.0 + float(np.max(np.abs(coef.psi))))
        for _ in range(_MAX_ITER * 5):
            fallback_steps += 1
            phi_hat = (1.0 - damp) * phi_hat + damp * inv_lap(rhs - adv)
            phi, grad, adv, res = close(phi_hat)
            history.append(res)
            if res <= tol:
                break
        else:
            raise FloatingPointError(
                f"corrector solve stalled at relative residual {res:.3e} "
                f"(tol {tol:.1e}); history tail {history[-5:]}")
    return CorrectorSolution(phi, grad, xi, res, iterations, fallback_steps, history)


def effective_lambda(sol: CorrectorSolution) -> float:
    """Diffusivity enhancement 1 + mean |grad phi|^2 (unit direction)."""
    return 1.0 + float(np.mean(np.sum(sol.grad ** 2, axis=0)))


def flux_lambda(sol: CorrectorSolution, coef: CoefField) -> np.ndarray:
    """Flux representation: the spatial mean of a (xi + grad phi)."""
    v = sol.grad.copy()
    v[0] += sol.xi[0]
    v[1] += sol.xi[1]
    return np.mean(coef.apply_a(v), axis=(1, 2))


def first_order_gradient_energy(coef: CoefField, xi) -> float:
    """Perturbation oracle: mean |grad lap^{-1}(grad psi . J xi)|^2.

    The linearized corrector keeps only the stream forcing; its ensemble
    gradient energy is (eps^2/2) ln l_max for a unit direction, so the full
    solve at small amplitude must land near this value.
    """
    jxi = tensor2d.J @ np.asarray(xi, dtype=float)
    gpsi = coef.grad_psi()
    rhs = -(gpsi[0] * jxi[0] + gpsi[1] * jxi[1])
    grad = coef.grid.derivatives(-coef.grid.inv_k2() * np.fft.rfft2(rhs), GRAD)
    return float(np.mean(np.sum(grad ** 2, axis=0)))


@dataclass
class JacobianStats:
    mean_f2: float
    mean_abs_det: float
    mean_det: float
    lambda_avg: float
    truncated: dict


def jacobian_stats(sol1: CorrectorSolution, sol2: CorrectorSolution) -> JacobianStats:
    """Spatial Jacobian statistics of F = id + (grad phi^1; grad phi^2) from
    the two coordinate correctors.

    ``truncated`` maps each relative threshold r in ``R_SCHEDULE`` to the
    fraction of the second moment carried by points with |F|^2 <= r mean |F|^2.
    """
    f = np.stack([sol1.grad, sol2.grad])
    f[0, 0] += 1.0
    f[1, 1] += 1.0
    f2 = np.sum(f * f, axis=(0, 1))
    det = f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0]
    mean_f2 = float(f2.mean())
    truncated = {float(r): float(f2[f2 <= r * mean_f2].sum() / f2.sum())
                 for r in R_SCHEDULE}
    lam = 0.5 * (effective_lambda(sol1) + effective_lambda(sol2))
    return JacobianStats(mean_f2, float(np.abs(det).mean()), float(det.mean()),
                         lam, truncated)


@dataclass
class CorrectorRun:
    """Ensemble summary over stream-function realizations."""

    eps: float
    l_max: float
    n: int
    lambdas: np.ndarray
    stats: list

    @property
    def lambda_mean(self) -> float:
        return float(self.lambdas.mean())

    @property
    def lambda_se(self) -> float:
        return float(self.lambdas.std(ddof=1) / np.sqrt(len(self.lambdas)))


def run_corrector_ensemble(eps: float, l_max: float, n: int, n_samples: int,
                           seed: int = 0, box_mult: float = 4.0,
                           tol: float = 1e-10) -> CorrectorRun:
    grid = TorusGrid.for_cutoff(l_max, n, box_mult)
    lambdas = np.empty(n_samples)
    stats = []
    for s in range(n_samples):
        coef = sample_stream_function(grid, eps, l_max, stream(seed, "corrector", s))
        coef.psi        # filled before the two solves share the sample
        sols = _map_units(lambda xi: solve_corrector(coef, xi, tol=tol),
                          ((1.0, 0.0), (0.0, 1.0)),
                          f"corrector sample {s}, direction {{}}")
        st = jacobian_stats(sols[0], sols[1])
        lambdas[s] = st.lambda_avg
        stats.append(st)
    return CorrectorRun(eps, l_max, n, lambdas, stats)
