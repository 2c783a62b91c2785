"""Spatially resolved shell fields and field-mode proxy evolution on a torus.

Desk-scale counterpart of the single-point Monte Carlo: stream-function
increments are synthesized spectrally per shell (annulus ``1/l_hi < |k| <=
1/l_lo`` with spectrum ``eps^2/|k|^2``, renormalized so the lattice variance
matches the continuum ``eps^2 ln(l_hi/l_lo)`` exactly), driver fields are
obtained through the Helmholtz multiplier ``i (Jk)*/(lam |k|^2)`` and its
derivative multipliers, and the corrector pair (phi, F) is advanced by the
same pointwise Euler kernel as the trajectory integrator, here in raw variables
(field mode targets moderate cutoff scales where L^2 is representable).

Shells are geometric in the cutoff scale with ratio 2^(1/4), i.e. uniform in
the scale variable lam2; each shell uses the log-midpoint scale in its
multipliers, which removes the leading finite-shell-width bias from the
quadratic-variation estimates.  Spectra are real-FFT half spectra, and
``TorusGrid.derivatives`` serves this module, the corrector and the particle
drift.  The drift's cutoffs confine each shell to an annulus, so most columns
of a half spectrum are zero: a shell is stored as its occupied band, the
first m columns of the half spectrum, whose missing columns are zero by
definition, and the transforms run on the occupied columns only (FFT
pruning, Markel 1971), read from the data, and give the values of the full
transforms bit for bit.  FFT work is pure and every sample owns a
counter-based stream, so the samples of an ensemble run on
:func:`proxysde.draw_threads` threads, each writing only its own rows, and the
results are the same for any thread count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .proxysde import _initial_planes, _map_units, euler_update, increment_planes, \
    moment_planes
from .rng import stream

_MAGIC = b"SHOM"
_I_POW = (1.0, 1j, -1.0, -1j)


@dataclass(frozen=True)
class TorusGrid:
    """Periodic n x n grid on a square of side ``box_len`` (n a power of two)."""

    n: int
    box_len: float

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two")
        if not self.box_len > 0.0:
            raise ValueError("box_len must be positive")

    @property
    def spacing(self) -> float:
        return self.box_len / self.n

    def half_wavevectors(self) -> tuple[np.ndarray, np.ndarray]:
        """kx (n, 1) and ky (1, n/2 + 1) of the half spectrum (rfft2 layout);
        both Nyquist wavenumbers are -pi/h, as in the fft2 layout."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
        return k[:, None], k[None, :self.n // 2 + 1]

    def inv_k2(self) -> np.ndarray:
        """1/|k|^2 on the half spectrum, 0 at k = 0 (minus the inverse Laplacian)."""
        kx, ky = self.half_wavevectors()
        k2 = kx * kx + ky * ky
        k2[0, 0] = np.inf
        return 1.0 / k2

    def synthesize(self, spectra: np.ndarray) -> np.ndarray:
        """Grid values of one half spectrum or a stack of them (irfft2); a
        spectrum narrower than n/2 + 1 columns is zero beyond them."""
        return self._inverse(spectra[..., :_occupied(spectra)], in_place=False)

    def derivatives(self, coeffs: np.ndarray, orders) -> np.ndarray:
        """Fields d_x^a d_y^b f for (a, b) in ``orders``, stacked, from the half
        spectrum ``coeffs`` of f (one, or one per order; zero beyond its
        columns), by one batched inverse transform of the occupied columns.

        Each multiplier (i kx)^a (i ky)^b acts by its Hermitian part, as the
        real part of an fft2 derivative does: irfft2 takes it on the first and
        last columns, and the Nyquist row between them is zeroed for odd a.
        Multipliers are formed on the occupied columns of ``coeffs`` only.
        """
        kx, ky = self.half_wavevectors()
        m = _occupied(coeffs)
        ky = ky[:, :m]
        coeffs = np.broadcast_to(coeffs[..., :m], (len(orders), kx.size, m))
        band = np.empty(coeffs.shape, dtype=complex)
        for j, (a, b) in enumerate(orders):
            np.multiply(coeffs[j], kx ** a, out=band[j])
            band[j] *= _I_POW[(a + b) % 4] * ky ** b
            if a % 2:
                band[j, self.n // 2, 1:self.n // 2] = 0.0
        return self._inverse(band, in_place=True)

    def _inverse(self, band: np.ndarray, in_place: bool) -> np.ndarray:
        """irfft2, bit for bit, of half spectra whose columns beyond ``band``'s
        (..., n, m) are zero: the column pass runs on the band alone (in place
        on it if ``in_place``), and the row pass pads the missing columns with
        zeros itself.  An empty band makes zero fields without a transform."""
        if band.shape[-1] == 0:
            return np.zeros(band.shape[:-1] + (self.n,))
        band = np.fft.ifft(band, axis=-2, out=band if in_place else None)
        return np.fft.irfft(band, n=self.n, axis=-1)

    @classmethod
    def for_cutoff(cls, l_max: float, n: int, box_mult: float = 4.0) -> "TorusGrid":
        """Box holding ``box_mult`` wavelengths of the largest cutoff scale."""
        return cls(n, box_mult * 2.0 * np.pi * l_max)


def _occupied(spectra: np.ndarray) -> int:
    """1 + the index of the last column of ``spectra`` (..., n, w) that holds
    a nonzero entry; 0 for an all-zero spectrum."""
    if np.any(spectra[..., -1] != 0.0):     # all of w, found without a scan
        return spectra.shape[-1]
    cols = np.flatnonzero(np.any(spectra != 0.0, axis=tuple(range(spectra.ndim - 1))))
    return int(cols[-1]) + 1 if cols.size else 0


#: rows of white noise drawn and row-transformed at a time by
#: :func:`sample_shell_field`, so no (n, n) noise or full spectrum is held
_NOISE_ROWS = 128


@dataclass
class ShellField:
    """Gaussian stream function supported on an annulus of the half spectrum:
    one shell increment, or a whole band-limited stream function."""

    grid: TorusGrid
    coeffs: np.ndarray          # (n, m) occupied band of the rfft2 half spectrum

    @cached_property
    def psi(self) -> np.ndarray:
        return self.grid.synthesize(self.coeffs)


def sample_shell_field(grid: TorusGrid, l_lo: float, l_hi: float, eps: float,
                       rng: np.random.Generator) -> ShellField:
    """Gaussian shell increment with exactly calibrated lattice variance.

    Spectral weights proportional to ``1/|k|^2`` on the annulus
    ``1/l_hi < |k| <= 1/l_lo``; the proportionality constant is fixed so the
    lattice-sum variance equals the continuum value ``eps^2 ln(l_hi/l_lo)``
    (coarse annuli would otherwise bias the variance at the ten-percent
    level).  The coefficients are the band of the half spectrum that holds
    the annulus: its first m columns, those with ky <= 1/l_lo.  Raises when
    the annulus captures no lattice modes.
    """
    if not 1.0 <= l_lo < l_hi:
        raise ValueError("need 1 <= l_lo < l_hi")
    n = grid.n
    kx, ky = grid.half_wavevectors()
    # |ky| grows along the half spectrum, so the annulus lies in its first m columns
    m = int(np.count_nonzero(ky * ky <= 1.0 / l_lo ** 2))
    k2 = kx * kx + ky[:, :m] * ky[:, :m]
    mask = (k2 > 1.0 / l_hi ** 2) & (k2 <= 1.0 / l_lo ** 2)
    if not mask.any():
        raise ValueError(
            f"no lattice modes in shell annulus ({1.0 / l_hi:.4g}, {1.0 / l_lo:.4g}] "
            f"with mode spacing {2.0 * np.pi / grid.box_len:.4g}")
    # full width, so that the lattice sums add in the order of the full spectrum
    inv_k2 = np.zeros((n, ky.size))
    inv_k2[:, :m] = np.where(mask, 1.0 / np.where(mask, k2, 1.0), 0.0)
    del k2, mask
    # interior columns of the half spectrum stand for themselves and their mirrors
    lattice = 2.0 * inv_k2.sum() - inv_k2[:, 0].sum() - inv_k2[:, -1].sum()
    calib = eps ** 2 * np.log(l_hi / l_lo) * n ** 2 / lattice
    amp = inv_k2[:, :m] * calib
    np.sqrt(amp, out=amp)
    del inv_k2
    # rfft2 of one (n, n) white-noise draw, its row pass in blocks of rows
    # drawn in turn from the same generator, its column pass on the band only
    band = np.empty((n, m), dtype=complex)
    for r in range(0, n, _NOISE_ROWS):
        rows = band[r:r + _NOISE_ROWS]
        rows[...] = np.fft.rfft(rng.standard_normal((len(rows), n)))[:, :m]
    np.fft.fft(band, axis=0, out=band)
    band *= amp
    return ShellField(grid, band)


@dataclass
class DriverFields:
    """Raw driver grids for one shell: increment dpsi and the triple."""

    dpsi: np.ndarray            # (n, n)
    dphi: np.ndarray            # (2, n, n)
    grad: np.ndarray            # (2, 2, n, n), grad[c, a] = d_a dphi^c
    hess: np.ndarray            # (2, 2, 2, n, n), symmetric in (a, b)
    grad_dpsi: np.ndarray       # (2, n, n), for quadratic-variation checks
    dlambda2: float


#: derivative orders (a, b) of the driver base field that the triple needs
_BASE_ORDERS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))


def driver_fields(shell: ShellField, lam2: float, dlambda2: float) -> DriverFields:
    """Driver triple from one shell increment at multiplier scale ``lam2``:
    dphi = J grad base = (-d_y base, d_x base), base = hat(dpsi) / (lam |k|^2)."""
    grid = shell.grid
    dpsi, *grad_dpsi = grid.derivatives(shell.coeffs, ((0, 0), (1, 0), (0, 1)))
    base = shell.coeffs * grid.inv_k2()[:, :shell.coeffs.shape[-1]] / np.sqrt(lam2)
    d = dict(zip(_BASE_ORDERS, grid.derivatives(base, _BASE_ORDERS)))
    dphi = np.array([-d[0, 1], d[1, 0]])
    grad = np.array([[-d[1, 1], -d[0, 2]], [d[2, 0], d[1, 1]]])
    hess = np.array([[[-d[2, 1], -d[1, 2]], [-d[1, 2], -d[0, 3]]],
                     [[d[3, 0], d[2, 1]], [d[2, 1], d[1, 2]]]])
    return DriverFields(dpsi, dphi, grad, hess, np.array(grad_dpsi), dlambda2)


@dataclass
class FieldState:
    """Raw corrector pair on the grid; starts at (0, id)."""

    phi: np.ndarray             # (2, n, n)
    f: np.ndarray               # (2, 2, n, n)
    lambda2: float

    @classmethod
    def initial(cls, grid: TorusGrid) -> "FieldState":
        return cls(*_initial_planes(grid.n, grid.n), 1.0)


#: grid rows per call of the Euler kernel in field mode, so that its ~50
#: elementwise passes run over planes that stay in cache
_ROW_BLOCK = 32


def step_fields(state: FieldState, drv: DriverFields) -> FieldState:
    """Pointwise Euler update: :func:`proxysde.euler_update` on the grid planes
    in raw variables (no damping), on copies of the state, in blocks of
    ``_ROW_BLOCK`` rows."""
    phi, f = state.phi.copy(), state.f.copy()
    inc = increment_planes(drv.dphi, drv.grad, drv.hess)
    for r in range(0, phi.shape[1], _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        euler_update(phi[:, rows], f[:, :, rows], [p[rows] for p in inc])
    if not np.all(np.isfinite(f)):
        loc = [int(v) for v in np.argwhere(~np.isfinite(f))[0]]
        raise FloatingPointError(
            f"non-finite Jacobian component ({loc[0]}, {loc[1]}) at grid node "
            f"({loc[2]}, {loc[3]}), lam2 = {state.lambda2 + drv.dlambda2}")
    return FieldState(phi, f, state.lambda2 + drv.dlambda2)


@dataclass(frozen=True)
class FieldConfig:
    eps: float
    l_max: float
    n: int
    box_mult: float = 4.0
    n_samples: int = 16
    seed: int = 0
    #: cutoff ratio of consecutive shells, uniform steps in lam2
    shell_ratio: ClassVar[float] = 2.0 ** 0.25

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")

    def shells(self) -> np.ndarray:
        """Geometric cutoff ladder 1 = l_0 < ... <= l_max (uniform in lam2)."""
        n_shells = int(round(np.log(self.l_max) / np.log(self.shell_ratio)))
        if n_shells < 1:
            raise ValueError("l_max too small for one shell")
        return self.shell_ratio ** np.arange(n_shells + 1)

    def grid(self) -> TorusGrid:
        return TorusGrid.for_cutoff(self.l_max, self.n, self.box_mult)


@dataclass
class FieldRunResult:
    config: FieldConfig
    lambda2: np.ndarray                  # grid points, shells + 1 values
    moment_samples: np.ndarray           # (n_samples, n_points, 9) spatial means
    qv_dpsi: np.ndarray                  # (n_samples, n_shells) mean dpsi^2
    qv_grad_dpsi: np.ndarray             # (n_samples, n_shells) mean |grad dpsi|^2
    qv_hess_contraction: np.ndarray      # (n_samples, n_shells)
    l_mids: np.ndarray
    final_state: FieldState | None = None

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Ensemble means and standard errors of the tracked moments."""
        mean = self.moment_samples.mean(axis=0)
        se = self.moment_samples.std(axis=0, ddof=1) / np.sqrt(len(self.moment_samples))
        return mean, se


def run_field_ensemble(cfg: FieldConfig, keep_final: bool = False) -> FieldRunResult:
    """Evolve ``n_samples`` independent field realizations through all shells."""
    grid = cfg.grid()
    ladder = cfg.shells()
    n_shells = len(ladder) - 1
    lam2_pts = 1.0 + cfg.eps ** 2 * np.log(ladder)
    l_mids = np.sqrt(ladder[:-1] * ladder[1:])
    lam2_mids = 1.0 + cfg.eps ** 2 * np.log(l_mids)

    moment_samples = np.empty((cfg.n_samples, n_shells + 1, 9))
    qv_dpsi = np.empty((cfg.n_samples, n_shells))
    qv_grad = np.empty((cfg.n_samples, n_shells))
    qv_hess = np.empty((cfg.n_samples, n_shells))

    def run_sample(s):
        buf = np.empty((9, cfg.n * cfg.n))
        state = FieldState.initial(grid)
        moment_samples[s, 0] = _spatial_moments(state, cfg.eps, buf)
        for j in range(n_shells):
            rng = stream(cfg.seed, "field-sim", s, counter=j)
            shell = sample_shell_field(grid, ladder[j], ladder[j + 1], cfg.eps, rng)
            drv = driver_fields(shell, lam2_mids[j], lam2_pts[j + 1] - lam2_pts[j])
            qv_dpsi[s, j] = np.mean(drv.dpsi ** 2)
            qv_grad[s, j] = np.mean(np.sum(drv.grad_dpsi ** 2, axis=0))
            qv_hess[s, j] = np.mean(np.sum(drv.hess[:, :, 0] ** 2, axis=(0, 1)))
            state = step_fields(state, drv)
            state.lambda2 = lam2_pts[j + 1]
            moment_samples[s, j + 1] = _spatial_moments(state, cfg.eps, buf)
        return state if keep_final and s == 0 else None

    final_state = _map_units(run_sample, range(cfg.n_samples), "field sample {}")[0]
    return FieldRunResult(cfg, lam2_pts, moment_samples, qv_dpsi, qv_grad,
                          qv_hess, l_mids, final_state)


def _spatial_moments(state: FieldState, eps: float, buf: np.ndarray) -> np.ndarray:
    """Spatial means of the nine tracked quantities, corrector rescaled by L."""
    ln_l = (state.lambda2 - 1.0) / eps ** 2
    return moment_planes(state.phi * np.exp(-ln_l), state.f, buf).mean(axis=1)


@dataclass
class QvReport:
    """Empirical quadratic-variation summary over a completed run."""

    accumulated_dpsi: float          # should equal lam2_max - 1
    expected_dpsi: float
    derivative_ratios: np.ndarray    # per shell, should be 1
    hess_contraction_ratios: np.ndarray   # per shell, should be 1/2 |xdot|^2

    def ok(self) -> bool:
        """Accumulated variance within 5% of the expected, and every shell's
        ratios within 10% of their targets."""
        return (abs(self.accumulated_dpsi / self.expected_dpsi - 1.0) < 0.05
                and np.all(np.abs(self.derivative_ratios - 1.0) < 0.10)
                and np.all(np.abs(self.hess_contraction_ratios - 0.5) < 0.05))


def empirical_qv(result: FieldRunResult) -> QvReport:
    """Check the scale-time normalization and the derivative weights.

    Per shell, the increment variance is the scale-time step; one gradient
    costs a factor of the midpoint cutoff scale; the Hessian contraction
    summed over the first two slots at fixed direction equals half the
    squared direction norm after removing the scale weights.
    """
    cfg = result.config
    n_shells = len(result.l_mids)
    if n_shells < 8:
        raise ValueError(f"need at least 8 shells, run has {n_shells}")
    dlam2 = np.diff(result.lambda2)
    lam2_mids = 1.0 + cfg.eps ** 2 * np.log(result.l_mids)
    acc = float(result.qv_dpsi.mean(axis=0).sum())
    deriv = result.qv_grad_dpsi.mean(axis=0) * result.l_mids ** 2 \
        / result.qv_dpsi.mean(axis=0)
    hessc = result.qv_hess_contraction.mean(axis=0) \
        * result.l_mids ** 2 * lam2_mids / dlam2
    return QvReport(acc, float(result.lambda2[-1] - 1.0), deriv, hessc)


def snapshot_bytes(state: FieldState, box_len: float) -> bytes:
    """Flat binary field snapshot: header (n, box_len, lam2, components),
    then row-major float64 planes (phi first, then F)."""
    comps = np.concatenate([state.phi, state.f.reshape(4, *state.f.shape[2:])])
    return _MAGIC + struct.pack("<iddi", state.phi.shape[1], box_len, state.lambda2,
                                comps.shape[0]) + comps.astype("<f8").tobytes()


def load_snapshot(path) -> tuple[FieldState, float]:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a field snapshot")
        n, box_len, lam2, n_comp = struct.unpack("<iddi", fh.read(24))
        comps = np.fromfile(fh, dtype="<f8", count=n_comp * n * n)
    comps = comps.reshape(n_comp, n, n)
    return FieldState(comps[:2], comps[2:].reshape(2, 2, n, n), lam2), box_len
