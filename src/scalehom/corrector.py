"""Periodic corrector problem for sampled stream functions.

For a stream function ``psi`` on the torus the coefficient field is
``a = id + psi J``; the corrector ``phi`` in direction ``xi`` solves

    div a (xi + grad phi) = 0,  zero-mean gradient,

which expands to the scalar form ``lap phi = -grad psi . J (xi + grad phi)``
since the skew part contributes only through the stream gradient.  The solve
is a Krylov iteration on the preconditioned operator ``lap^{-1} A`` with the
spectral inverse Laplacian, falling back to a damped fixed point when the
Krylov iteration stagnates (large stream amplitudes).

From converged correctors in both coordinate directions the effective
diffusivity ``lambda = 1 + mean |grad phi|^2``, the flux representation
``lambda xi = mean a (xi + grad phi)``, and the Jacobian statistics of
``F = id + (grad phi^1; grad phi^2)`` follow; the identity
``mean |F|^2 = 2 lambda`` and the unit spatial mean of ``det F`` (a null
Lagrangian, exact on the torus) are the built-in cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, lgmres

from .fieldsim import TorusGrid, sample_shell_field

J = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass
class CoefField:
    """Stream-function sample and the implied coefficient field id + psi J."""

    psi: np.ndarray
    grid: TorusGrid
    eps: float
    l_max: float

    def grad_psi(self) -> np.ndarray:
        kx, ky, _ = self.grid.wavevectors()
        ph = np.fft.fft2(self.psi)
        return np.stack([np.fft.ifft2(1j * kx * ph).real,
                         np.fft.ifft2(1j * ky * ph).real])

    def apply_a(self, v: np.ndarray) -> np.ndarray:
        """Pointwise a(v) = v + psi J v for a vector field v of shape (2,n,n)."""
        return np.stack([v[0] - self.psi * v[1], v[1] + self.psi * v[0]])


def sample_stream_function(grid: TorusGrid, eps: float, l_max: float,
                           rng: np.random.Generator) -> CoefField:
    """Band-limited stream function with spectrum eps^2/|k|^2 on [1/l_max, 1]."""
    shell = sample_shell_field(grid, 1.0, l_max, eps, rng)
    return CoefField(shell.values, grid, eps, l_max)


@dataclass
class CorrectorSolution:
    """Converged corrector: potential, spectral gradient, solver diagnostics.

    ``iterations`` counts lgmres iterations; ``fallback_steps`` the damped
    fixed-point steps, 0 unless lgmres was skipped or missed ``tol``.
    """

    phi: np.ndarray
    grad: np.ndarray            # (2, n, n), zero mean by construction
    xi: np.ndarray
    residual_rel: float
    iterations: int
    fallback_steps: int
    residual_history: list = field(default_factory=list)


def _spectral_tools(grid: TorusGrid):
    kx, ky, k2 = grid.wavevectors()
    inv_k2 = np.zeros_like(k2)
    inv_k2[k2 > 0] = 1.0 / k2[k2 > 0]
    return kx, ky, k2, inv_k2


def solve_corrector(coef: CoefField, xi, tol: float = 1e-8,
                    max_iter: int = 400, use_krylov: bool = True) -> CorrectorSolution:
    """Solve the corrector problem in direction ``xi`` to relative residual ``tol``.

    Raises ``FloatingPointError`` with the residual history if neither the
    Krylov iteration nor the damped fixed-point fallback converges.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    xi = np.asarray(xi, dtype=float)
    grid = coef.grid
    n = grid.n
    kx, ky, k2, inv_k2 = _spectral_tools(grid)
    gpsi = coef.grad_psi()
    if not np.all(np.isfinite(coef.psi)):
        raise ValueError("coefficient field contains non-finite values")

    jxi = J @ xi
    rhs = -(gpsi[0] * jxi[0] + gpsi[1] * jxi[1])
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        zero = np.zeros((n, n))
        return CorrectorSolution(zero, np.zeros((2, n, n)), xi, 0.0, 0, 0)

    def advect(phi_flat):
        ph = np.fft.fft2(phi_flat.reshape(n, n))
        gx = np.fft.ifft2(1j * kx * ph).real
        gy = np.fft.ifft2(1j * ky * ph).real
        return (gpsi[1] * gx - gpsi[0] * gy).ravel()   # grad psi . J grad phi

    def apply_op(phi_flat):
        ph = np.fft.fft2(phi_flat.reshape(n, n))
        lap = np.fft.ifft2(-k2 * ph).real
        return lap.ravel() + advect(phi_flat)

    def precond(r_flat):
        rh = np.fft.fft2(r_flat.reshape(n, n))
        return np.fft.ifft2(-inv_k2 * rh).real.ravel()

    history: list[float] = []
    phi_flat = np.zeros(n * n)
    iterations = fallback_steps = 0

    if use_krylov:
        op = LinearOperator((n * n, n * n), matvec=apply_op)
        pre = LinearOperator((n * n, n * n), matvec=precond)

        def track(xk):
            history.append(float(np.linalg.norm(apply_op(xk) - rhs.ravel()) / rhs_norm))

        phi_flat, _ = lgmres(op, rhs.ravel(), M=pre, rtol=tol * 1e-2,
                             atol=0.0, maxiter=max_iter, callback=track)
        iterations = len(history)

    res = float(np.linalg.norm(apply_op(phi_flat) - rhs.ravel()) / rhs_norm)
    if res > tol:
        # damped fixed point on phi <- lap^{-1}(rhs - advect(phi))
        damp = 1.0 / (1.0 + float(np.max(np.abs(coef.psi))))
        for _ in range(max_iter * 5):
            fallback_steps += 1
            update = precond(rhs.ravel() - advect(phi_flat))
            phi_flat = (1.0 - damp) * phi_flat + damp * update
            res = float(np.linalg.norm(apply_op(phi_flat) - rhs.ravel()) / rhs_norm)
            history.append(res)
            if res <= tol:
                break
        else:
            raise FloatingPointError(
                f"corrector solve stalled at relative residual {res:.3e} "
                f"(tol {tol:.1e}); history tail {history[-5:]}")

    phi = phi_flat.reshape(n, n)
    ph = np.fft.fft2(phi)
    ph[0, 0] = 0.0
    phi = np.fft.ifft2(ph).real
    grad = np.stack([np.fft.ifft2(1j * kx * ph).real,
                     np.fft.ifft2(1j * ky * ph).real])
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
    xi = np.asarray(xi, dtype=float)
    _, _, k2, inv_k2 = _spectral_tools(coef.grid)
    gpsi = coef.grad_psi()
    jxi = J @ xi
    rhs = -(gpsi[0] * jxi[0] + gpsi[1] * jxi[1])
    ph = -inv_k2 * np.fft.fft2(rhs)
    energy = np.sum(k2 * np.abs(ph) ** 2) / coef.grid.n ** 4
    return float(energy)


@dataclass
class JacobianStats:
    mean_f2: float
    mean_abs_det: float
    mean_det: float
    lambda_avg: float
    truncated: dict

    @property
    def det_to_f2(self) -> float:
        return self.mean_abs_det / self.mean_f2


def jacobian_field(sol1: CorrectorSolution, sol2: CorrectorSolution) -> np.ndarray:
    """F = id + (grad phi^1; grad phi^2) as a (2, 2, n, n) grid."""
    f = np.stack([sol1.grad, sol2.grad])
    f[0, 0] += 1.0
    f[1, 1] += 1.0
    return f


def jacobian_stats(sol1: CorrectorSolution, sol2: CorrectorSolution,
                   r_schedule=(0.25, 0.5, 1.0, 2.0, 4.0)) -> JacobianStats:
    """Spatial Jacobian statistics from the two coordinate correctors.

    ``truncated`` maps each relative threshold r to the fraction of the
    second moment carried by points with |F|^2 <= r mean |F|^2.
    """
    f = jacobian_field(sol1, sol2)
    f2 = np.sum(f * f, axis=(0, 1))
    det = f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0]
    mean_f2 = float(f2.mean())
    truncated = {float(r): float(f2[f2 <= r * mean_f2].sum() / f2.sum())
                 for r in r_schedule}
    lam = 0.5 * (effective_lambda(sol1) + effective_lambda(sol2))
    return JacobianStats(mean_f2, float(np.abs(det).mean()), float(det.mean()),
                         lam, truncated)


def save_jacobian_snapshot(path, sol1: CorrectorSolution, sol2: CorrectorSolution,
                           coef: CoefField) -> None:
    """Store the Jacobian field in the shared binary snapshot layout.

    The corrector pair is packed as a field state (phi components, then the
    four Jacobian planes) with the diffusivity's scale variable as metadata,
    so field-mode tooling can read it back.
    """
    from .fieldsim import FieldState, save_snapshot
    state = FieldState(np.stack([sol1.phi, sol2.phi]),
                       jacobian_field(sol1, sol2),
                       1.0 + coef.eps ** 2 * np.log(coef.l_max))
    save_snapshot(path, state, coef.grid.box_len)


def upsample(coef: CoefField, factor: int) -> CoefField:
    """Spectral zero-padding: the same band-limited realization on a finer grid."""
    if factor < 1 or factor & (factor - 1):
        raise ValueError("factor must be a power of two")
    n = coef.grid.n
    m = n * factor
    src = np.fft.fftshift(np.fft.fft2(coef.psi))
    dst = np.zeros((m, m), dtype=complex)
    lo = (m - n) // 2
    dst[lo:lo + n, lo:lo + n] = src
    psi = np.fft.ifft2(np.fft.ifftshift(dst)).real * factor ** 2
    return CoefField(psi, TorusGrid(m, coef.grid.box_len), coef.eps, coef.l_max)


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
    from .rng import stream
    grid = TorusGrid.for_cutoff(l_max, n, box_mult)
    lambdas = np.empty(n_samples)
    stats = []
    for s in range(n_samples):
        coef = sample_stream_function(grid, eps, l_max, stream(seed, "corrector", s))
        sols = [solve_corrector(coef, xi, tol=tol) for xi in (np.array([1.0, 0.0]),
                                                              np.array([0.0, 1.0]))]
        st = jacobian_stats(sols[0], sols[1])
        lambdas[s] = st.lambda_avg
        stats.append(st)
    return CorrectorRun(eps, l_max, n, lambdas, stats)
