"""Acceptance suite: one callable per criterion, shared heavy runs, reports.

Each criterion function returns a :class:`CriterionResult` whose ``details``
map quantity names to a :class:`Check` (a value and the threshold it must be
within) or to a reported value.  A criterion passes when it holds at least
one check and every check is within its threshold, and the suite passes
when every criterion passes.  The heavy Monte Carlo ensembles of
``ENSEMBLES`` are memoized so criteria can share them.  Statistical criteria
use fixed seeds; they compare fluctuating estimators against few-sigma
bands, so the suite is deterministic for the shipped configuration.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache, wraps

import numpy as np

from . import corrector, fieldsim, kolmogorov, momentodes, particle, proxysde, \
    shellcov, tensor2d
from .rng import stream

#: root seed of the shipped acceptance configuration
SEED = 11

#: a checked quantity: its value and the threshold it must be within, an
#: upper bound or a closed ``(lo, hi)`` window
Check = namedtuple("Check", "value threshold")


def _within(value, threshold) -> bool:
    """Whether ``value`` is within ``threshold``; a NaN value never is."""
    if isinstance(threshold, (tuple, list)):
        lo, hi = threshold
        return bool(lo <= value <= hi)
    return bool(value <= threshold)


@dataclass
class CriterionResult:
    name: str
    runtime_s: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """At least one :class:`Check`, and every check within its threshold;
        reported values never decide."""
        checks = [v for v in self.details.values() if isinstance(v, Check)]
        return bool(checks) and all(_within(*c) for c in checks)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.runtime_s:.1f}s)"

    def payload(self) -> dict:
        out = {key: {"value": val.value, "threshold": val.threshold,
                     "pass": _within(*val)} if isinstance(val, Check)
               else {"value": val}
               for key, val in self.details.items()}
        out["pass"] = self.passed
        out["runtime_s"] = self.runtime_s
        return out


def _timed(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        name, details = fn(*args, **kwargs)
        return CriterionResult(name, time.perf_counter() - t0, details)
    return wrapper


#: the proxy-SDE ensembles that criteria share: criterion 3's Monte Carlo
#: against the moment flow, the small-amplitude deep run of criteria 5 and 6,
#: and criterion 7's tail run
ENSEMBLES = {
    "mc_ode": proxysde.SdeConfig(eps=0.2, lambda2_max=4.0, n_steps=400,
                                 n_traj=100_000, seed=SEED),
    "deep": proxysde.SdeConfig(eps=0.1, lambda2_max=25.0, n_steps=2400,
                               n_traj=100_000, seed=SEED + 6, record_stride=4),
    "tail": proxysde.SdeConfig(eps=0.2, lambda2_max=25.0, n_steps=2400,
                               n_traj=100_000, seed=SEED + 7, record_stride=8,
                               snapshot_points=(9.0, 16.0, 25.0)),
}


@lru_cache(maxsize=None)
def _ensemble(name: str) -> proxysde.EnsembleResult:
    return proxysde.run_ensemble(ENSEMBLES[name])


@_timed
def criterion_1_algebra():
    """Exact form tables and all contraction identities at 1e-12."""
    ok = True
    details = {}
    for m in range(4):
        for n in range(4):
            v = tensor2d.diamond(tensor2d.ENDO_BASIS[m], tensor2d.ENDO_BASIS[n])
            expect = tensor2d.DIAMOND_DIAG[m] if m == n else 0.0
            ok &= v == expect
    for m in range(6):
        for n in range(6):
            v = tensor2d.bullet(tensor2d.TRI_BASIS[m], tensor2d.TRI_BASIS[n])
            expect = tensor2d.BULLET_DIAG[m] if m == n else 0.0
            ok &= v == expect
    details["basis_tables_exact"] = Check(0.0 if ok else 1.0, 0.0)
    rep = tensor2d.contract_identities(stream(SEED, "accept-algebra"), 10_000)
    details["contraction_max_dev"] = Check(rep["max_abs_deviation"], 1e-12)
    details["aux_pair_total_dev"] = Check(rep["aux_pair_total"], 1e-12)
    return "algebra suite", details


@_timed
def criterion_2_covariance():
    """Spectral covariance reproduces both forms; cross block vs quadrature."""
    lam2 = 1.7
    cov = shellcov.build_cov(lam2)
    c11, c22r, c02 = cov.matrix[2:6, 2:6], cov.matrix[6:12, 6:12], cov.matrix[:2, 6:12]
    rng = stream(SEED, "accept-cov")
    dev_d = 0.0
    for _ in range(100):
        g = rng.standard_normal((2, 2))
        w = np.array([g[a, c] for (c, a) in [(0, 0), (0, 1), (1, 0), (1, 1)]])
        dev_d = max(dev_d, abs(w @ c11 @ w - tensor2d.diamond(g) / lam2))
    dev_b = 0.0
    for _ in range(100):
        t = tensor2d.sym_last_two(rng.standard_normal((2, 2, 2)))
        w = np.array([t[s] for s in tensor2d.HESS_SLOTS]) * [1, 2, 1, 1, 2, 1]
        dev_b = max(dev_b, abs(w @ c22r @ w - tensor2d.bullet(t) / lam2))

    # annulus-quadrature oracle for the cross block
    from scipy import integrate
    r_mid, delta = 0.37, 1e-4
    rs = np.linspace(r_mid * np.exp(-delta / 2), r_mid * np.exp(delta / 2), 41)
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    tt = np.stack([np.cos(th), np.sin(th)])
    jt = tensor2d.J @ tt
    radial = integrate.simpson(1.0 / rs, x=rs)
    dev_c = 0.0
    for c in range(2):
        for col, (d, a, b) in enumerate(tensor2d.HESS_SLOTS):
            ang = np.mean(tt[a] * tt[b] * jt[c] * jt[d])
            dev_c = max(dev_c, abs(c02[c, col] + ang * radial / (lam2 * delta)))

    eig = np.linalg.eigvalsh(cov.matrix)
    details = {
        "diamond_form_dev": Check(dev_d, 1e-12),
        "bullet_form_dev": Check(dev_b, 1e-12),
        "cross_block_vs_quadrature": Check(dev_c, 1e-8),
        "min_eigenvalue": Check(float(-eig[0]), 1e-12),
    }
    return "covariance consistency", details


@_timed
def criterion_3_mc_vs_ode():
    """Ensemble moments against the closed moment flow at eight checkpoints."""
    s = _ensemble("mc_ode").series
    closure = momentodes.ClosureSource.from_series(s)
    table = momentodes.integrate_moments(0.2, 4.0, closure, x_eval=s.lambda2)
    worst = 0.0
    for x in np.linspace(1.0, 4.0, 9)[1:]:
        i = int(np.argmin(np.abs(s.lambda2 - x)))
        for name, ode in (("phi2_resc", table.a_resc), ("f2", table.big_a),
                          ("f4", table.big_b), ("det2", table.det2)):
            z = abs(s.column(name)[i] - ode[i]) / s.se(name)[i]
            worst = max(worst, float(z))
    z_det = float(np.max(np.abs(s.column("det")[1:] - 1.0) / s.se("det")[1:]))
    details = {"worst_checkpoint_z": Check(worst, 3.0),
               "worst_det_z": Check(z_det, 3.0)}
    return "mc vs ode", details


@_timed
def criterion_4_exact_asymptotics():
    """Closed-form integrals inside their deep-separation windows."""
    x, eps = 1.25, 0.05     # ln L = 100
    asym = momentodes.asymptotics(x, eps)
    ra = momentodes.exact_a(x, eps) / asym["a_resc"]
    rb = momentodes.exact_b(x, eps) / asym["b_resc"]
    rA = momentodes.exact_big_a(x, eps) / asym["big_a"]
    details = {"a_ratio": Check(ra, (0.98, 1.02)),
               "b_ratio": Check(rb, (0.95, 1.05)),
               "A_ratio": Check(rA, (0.99, 1.01))}
    return "exact-integral asymptotics", details


@_timed
def criterion_5_fourth_moment():
    """Fourth-moment flow against its envelope constant and limit curve."""
    s = _ensemble("deep").series
    closure = momentodes.ClosureSource.from_series(s)
    table = momentodes.integrate_moments(0.1, 25.0, closure, x_eval=s.lambda2)
    combo = (1.5 * table.big_b - 2.0 * table.det2) / table.x ** 1.5
    dev = float(np.max(np.abs(combo - 4.0)))
    kappa_b = momentodes.envelope_constants(1.0)["kappa_b"]
    ratio = float(table.big_b[-1] / momentodes.asymptotics(25.0, 0.1)["big_b"])
    details = {"combo_dev": Check(dev, 2.0 * kappa_b * 0.01),
               "B_over_limit": Check(ratio, (0.9, 1.1))}
    return "fourth-moment asymptotic", details


@_timed
def criterion_6_det_concentration():
    """Determinant variance against the certified envelope width."""
    row = _ensemble("deep").series.at(25.0)
    var = row["det2"] - 2.0 * row["det"] + 1.0
    kappa_c = momentodes.envelope_constants(1.0)["kappa_c"]
    return "determinant concentration", {"det_variance": Check(var, 2.0 * kappa_c * 0.01)}


@_timed
def criterion_7_tail():
    """Truncated second moment: smallness, trend, and the analytic chain."""
    res = _ensemble("tail")
    ratios = []
    for lam2 in (9.0, 16.0, 25.0):
        ratios.append(proxysde.truncated_second_moment(
            res.snapshots[lam2]["f2"], kolmogorov.relative_threshold(lam2, 0.1)))
    rep = kolmogorov.verify_tail(res.snapshots[25.0]["f2"], eps=0.2,
                                 lambda2=25.0, margin=0.1)
    # at the stated margin the truncation sits below the determinant floor
    # and the chain is trivial; the unit-margin diagnostic exercises it with
    # genuinely nonzero truncated mass (outside the smallness regime, so it
    # carries a warning but the inequalities still must hold)
    rep_wide = kolmogorov.verify_tail(res.snapshots[25.0]["f2"], eps=0.2,
                                      lambda2=25.0, margin=1.0)
    monotone = bool(np.all(np.diff(ratios) <= 1e-12))
    details = {"ratio_at_25": Check(ratios[-1], 0.3),
               "ratios": tuple(ratios),
               "monotone_nonincreasing": Check(0.0 if monotone else 1.0, 0.0),
               "chain_lhs": rep.lhs, "chain_mid": rep.e_zeta_mc,
               "chain_rhs": rep.rhs,
               "chain_holds": Check(0.0 if rep.chain_ok else 1.0, 0.0),
               "wide_margin_ratio": rep_wide.ratio,
               "wide_margin_chain": Check(0.0 if rep_wide.chain_ok else 1.0, 0.0)}
    return "non-equi-integrability", details


@_timed
def criterion_8_kolmogorov():
    """Kernel semigroup, majorant, and remainder-term scaling."""
    cfg = kolmogorov.TailConfig(tau=6.0, sigma_hat=-1.0)
    prof = kolmogorov.terminal_zeta(cfg)
    two = kolmogorov.evolve(kolmogorov.evolve(prof, 2.0), 3.0)
    one = kolmogorov.evolve(prof, 5.0)
    semi = float(np.max(np.abs(two.values - one.values)))
    ramp = kolmogorov.RampEvolution(cfg.sigma_hat)
    viol = 0.0
    for tp in (0.0, 2.0, 4.0):
        vals = ramp.value(cfg.tau - tp, prof.sigma)
        bound = np.array([kolmogorov.phi_upper_bound(cfg, tp, s) for s in prof.sigma])
        viol = max(viol, float(np.max(vals - bound)))
    scaled = [kolmogorov.bound_terms(kolmogorov.TailConfig(t, 0.0)).i1 * np.sqrt(t)
              for t in (4.0, 25.0, 100.0, 400.0)]
    details = {"semigroup_dev": Check(semi, 1e-9),
               "phi_bound_violation": Check(viol, 1e-10),
               "max_i1_sqrt_tau": Check(float(np.max(scaled)), 5.0)}
    return "kolmogorov solver", details


@_timed
def criterion_9_field_mode():
    """Field-mode checks: calibration, local relations, point-mode match."""
    eps = float(np.sqrt(1.5 / np.log(32.0)))   # lam2 reaches 2.5 at l_max = 32
    cfg = fieldsim.FieldConfig(eps=eps, l_max=32.0, n=256, n_samples=24,
                               seed=SEED + 2)
    res = fieldsim.run_field_ensemble(cfg)
    grid = cfg.grid()

    # whole-band stream variance
    vals = [np.mean(fieldsim.sample_shell_field(
        grid, 1.0, 32.0, eps, stream(SEED + 3, "accept-band", i)).psi ** 2)
        for i in range(40)]
    var_ratio = float(np.mean(vals) / (eps ** 2 * np.log(32.0)))

    qv = fieldsim.empirical_qv(res)
    acc_ratio = qv.accumulated_dpsi / qv.expected_dpsi

    # pointwise local relations on one sampled shell
    sh = fieldsim.sample_shell_field(grid, 2.0, 2.0 * 2 ** 0.25, eps,
                                     stream(SEED + 4, "accept-rel"))
    lam2 = 1.0 + eps ** 2 * np.log(2.0 * 2 ** 0.125)
    drv = fieldsim.driver_fields(sh, lam2, 0.01)
    scale = float(np.abs(drv.dpsi).max())
    trace_dev = float(np.abs(drv.grad[0, 0] + drv.grad[1, 1]).max()) / scale
    skew = np.sqrt(lam2) * (drv.grad[0, 1] - drv.grad[1, 0]) - drv.dpsi
    skew_dev = float(np.abs(skew).max()) / scale

    n_steps = len(res.lambda2) - 1
    pcfg = proxysde.SdeConfig(eps=eps, lambda2_max=float(res.lambda2[-1]),
                              n_steps=n_steps, n_traj=100_000, seed=SEED + 5,
                              record_stride=n_steps,
                              lambda2_weighting="midpoint-frozen")
    ps = proxysde.run_ensemble(pcfg).series
    fmean, fse = res.moments()
    worst = 0.0
    for j, name in enumerate(proxysde.MOMENT_NAMES[:6]):
        z = abs(fmean[-1, j] - ps.column(name)[-1]) / np.hypot(
            fse[-1, j], ps.se(name)[-1])
        worst = max(worst, float(z))

    details = {"band_variance_ratio": Check(var_ratio, (0.95, 1.05)),
               "accumulated_qv_ratio": Check(acc_ratio, (0.95, 1.05)),
               "trace_relation_dev": Check(trace_dev, 1e-10),
               "skew_relation_dev": Check(skew_dev, 1e-10),
               "worst_moment_z": Check(worst, 3.0)}
    return "field-mode checks", details


@_timed
def criterion_10_corrector():
    """Corrector ensemble: identities and the perturbative window."""
    run = corrector.run_corrector_ensemble(0.05, 32.0, 512, n_samples=20,
                                           seed=SEED + 8)
    lam_min = float(run.lambdas.min())
    f2_dev = max(abs(st.mean_f2 - 2.0 * st.lambda_avg) for st in run.stats)
    det_dev = max(abs(st.mean_det - 1.0) for st in run.stats)
    target = 0.5 * 0.05 ** 2 * np.log(32.0)
    window = float(np.mean(run.lambdas - 1.0) / target)
    details = {"lambda_min": Check(-(lam_min - 1.0), 0.0),
               "frobenius_identity_dev": Check(f2_dev, 1e-8),
               "det_mean_dev": Check(det_dev, 1e-8),
               "perturbative_ratio": Check(window, (0.8, 1.2))}
    return "corrector", details


@_timed
def criterion_11_particle():
    """Displacement slopes, enhancement direction, infrared monotonicity."""
    grid = fieldsim.TorusGrid(32, 20.0)
    est0 = particle.euler_maruyama(particle.DriftField.zero(grid), 0.1, 20.0,
                                   1_000_000, stream(SEED + 9, "accept-b0"))
    slope_dev = float(np.max(np.abs(est0.msd[:, -1] / est0.times[-1] - 2.0))) / 2.0

    times = particle.default_sample_times(0.1, 250.0)
    lo = particle.annealed_msd(0.4, 16.0, 512, 0.1, 250.0, n_envs=12,
                               paths_per_env=8192, seed=SEED + 10,
                               sample_times=times)
    hi = particle.annealed_msd(0.4, 64.0, 2048, 0.1, 250.0, n_envs=12,
                               paths_per_env=8192, seed=SEED + 11,
                               sample_times=times)
    enh = lo.total / (4.0 * times)
    enh_floor = float(np.min(enh + 3.0 * lo.total_se / (4.0 * times)))
    ratio, se, t_cmp = particle.msd_growth_ratio(lo, hi, 16.0)
    details = {"slope_rel_dev": Check(slope_dev, 0.01),
               "enhancement_floor": Check(-(enh_floor - 1.0), 0.0),
               "ratio_minus_one_with_slack": Check(-(ratio - 1.0 + 3.0 * se), 0.0),
               "ratio": ratio, "ratio_se": se, "compare_time": t_cmp}
    return "particle", details


ALL_CRITERIA = (
    criterion_1_algebra, criterion_2_covariance, criterion_3_mc_vs_ode,
    criterion_4_exact_asymptotics, criterion_5_fourth_moment,
    criterion_6_det_concentration, criterion_7_tail, criterion_8_kolmogorov,
    criterion_9_field_mode, criterion_10_corrector, criterion_11_particle,
)


def run_all(verbose: bool = True) -> list[CriterionResult]:
    """Every criterion in order."""
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        if verbose:
            print(res.line())
    return results
