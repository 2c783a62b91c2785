"""Backward-equation machinery: kernel, bounds, and the sample-based chain."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scalehom import kolmogorov as ko
from scalehom import proxysde


@pytest.fixture(scope="module")
def base_profile():
    cfg = ko.TailConfig(tau=6.0, sigma_hat=-1.0)
    return cfg, ko.terminal_zeta(cfg)


class TestTerminalData:
    def test_plateau_and_tail(self, base_profile):
        cfg, prof = base_profile
        ramp = ko.RampEvolution(cfg.sigma_hat)
        assert ramp.value(0.0, cfg.sigma_hat - 1.0) == 1.0
        assert ramp.value(0.0, cfg.sigma_hat + 2.0) == 0.0
        assert ramp.value(0.0, cfg.sigma_hat + 0.5) == pytest.approx(0.5)

    def test_values_in_unit_interval(self, base_profile):
        _, prof = base_profile
        assert prof.values.min() >= 0.0 and prof.values.max() <= 1.0

    def test_second_derivative_bound(self):
        t = np.linspace(-0.5, 1.5, 200_001)
        d2 = ko.smoothstep_d2(t)
        assert np.max(np.abs(d2)) <= ko.SMOOTHSTEP_D2_MAX + 1e-9
        assert ko.SMOOTHSTEP_D2_MAX <= 60.0
        d1 = ko.smoothstep_d1(t)
        assert np.max(np.abs(d1)) <= ko.SMOOTHSTEP_D1_MAX + 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ko.TailConfig(tau=-1.0, sigma_hat=0.0)


class TestEvolve:
    def test_constant_profile_preserved(self, base_profile):
        _, prof = base_profile
        flat = ko.TailProfile(prof.sigma, np.ones_like(prof.values))
        out = ko.evolve(flat, 1.0)
        assert np.allclose(out.values, 1.0, atol=1e-14)

    def test_step_function_displacement(self, base_profile):
        # sharp cutoff data evolves to the normal tail centered s/4 below the
        # cutoff; the half-height point therefore sits at the shifted center
        _, prof = base_profile
        c, s = -1.0, 1.5
        stepdata = ko.TailProfile(prof.sigma, (prof.sigma < c).astype(float))
        out = ko.evolve(stepdata, s)
        oracle = [ko.phi_upper_bound(ko.TailConfig(s, c - 1.0), 0.0, x)
                  for x in prof.sigma]
        # kernel sampling against a jump costs one order in the spacing
        assert np.max(np.abs(out.values - oracle)) < 5e-3
        half = np.interp(c - s / 4.0, prof.sigma, out.values)
        assert half == pytest.approx(0.5, abs=5e-3)

    def test_semigroup(self, base_profile):
        _, prof = base_profile
        a = ko.evolve(ko.evolve(prof, 2.0), 3.0)
        b = ko.evolve(prof, 5.0)
        assert np.max(np.abs(a.values - b.values)) < 1e-9

    def test_maximum_principle_and_monotonicity(self, base_profile):
        _, prof = base_profile
        out = ko.evolve(prof, 2.5)
        assert out.values.min() >= prof.values.min() - 1e-9
        assert out.values.max() <= prof.values.max() + 1e-9
        assert np.all(np.diff(out.values) <= 1e-12)

    def test_total_variation_non_increasing(self, base_profile):
        _, prof = base_profile
        rng = np.random.default_rng(0)
        wiggly = np.clip(prof.values + 0.05 * np.sin(7 * prof.sigma), 0, 1)
        before = np.sum(np.abs(np.diff(wiggly)))
        out = ko.evolve(ko.TailProfile(prof.sigma, wiggly), 1.0)
        assert np.sum(np.abs(np.diff(out.values))) <= before + 1e-9

    def test_under_resolved_kernel_rejected(self, base_profile):
        _, prof = base_profile
        with pytest.raises(ValueError, match="under-resolved"):
            ko.evolve(prof, 1e-6)

    def test_matches_analytic_kernel_quadrature(self, base_profile):
        cfg, prof = base_profile
        out = ko.evolve(prof, 4.0)
        ramp = ko.RampEvolution(cfg.sigma_hat)
        assert np.max(np.abs(out.values - ramp.value(4.0, prof.sigma))) < 1e-8

    def test_kernel_solves_constant_coefficient_equation(self):
        # substitute the kernel solution into the backward equation by
        # finite differences: d/ds zhat = (1/4)(d/dsig + d^2/dsig^2) zhat
        ramp = ko.RampEvolution(0.0)
        s0, ds, h = 2.0, 1e-4, 1e-3
        for sig in (-1.0, 0.2, 0.9, 2.0):
            dt = (ramp.value(s0 + ds, sig) - ramp.value(s0 - ds, sig)) / (2 * ds)
            d1 = (ramp.value(s0, sig + h) - ramp.value(s0, sig - h)) / (2 * h)
            d2 = (ramp.value(s0, sig + h) - 2 * ramp.value(s0, sig)
                  + ramp.value(s0, sig - h)) / h ** 2
            assert dt == pytest.approx(0.25 * (d1 + d2), abs=1e-5)

    def test_observable_coordinates(self, base_profile):
        cfg, prof = base_profile
        # r = e^{tau'/2 + sig}; on the plateau zeta = r / lam with lam = e^{tau/2}
        r = np.exp(0.5 * cfg.tau + prof.sigma)
        zeta = ko.RampEvolution(cfg.sigma_hat).observable_values(cfg.tau, cfg.tau, r)
        lam = np.exp(cfg.tau / 2.0)
        plateau = prof.sigma <= cfg.sigma_hat
        assert np.allclose(zeta[plateau], r[plateau] / lam, rtol=1e-12)


_REF_NODES, _REF_WEIGHTS = np.polynomial.legendre.leggauss(200)


def _reference_ramp(sigma_hat, s, sig):
    """(value, d1, d2) of the evolved ramp by a 200-node rule on the unit
    window clipped to +-8 kernel standard deviations, plus the normal tail."""
    c = sig + s / 4.0 - sigma_hat
    std = math.sqrt(s / 2.0)
    lo, hi = np.clip(c - 8.0 * std, 0.0, 1.0), np.clip(c + 8.0 * std, 0.0, 1.0)
    t = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _REF_NODES
    w = 0.5 * (hi - lo)[:, None] * _REF_WEIGHTS
    w = w * np.exp(-0.5 * ((t - c[:, None]) / std) ** 2) / (std * math.sqrt(2.0 * math.pi))
    tail = np.array([0.5 * math.erfc(x / (std * math.sqrt(2.0))) for x in c])
    return (tail + np.sum(w * (1.0 - 10.0 * t ** 3 + 15.0 * t ** 4 - 6.0 * t ** 5), axis=1),
            np.sum(w * (-30.0 * t ** 2 + 60.0 * t ** 3 - 30.0 * t ** 4), axis=1),
            np.sum(w * (-60.0 * t + 180.0 * t ** 2 - 120.0 * t ** 3), axis=1))


class TestRampEvolution:
    @pytest.mark.parametrize("s", [1e-6, 0.01, 0.5, math.log(25.0), 25.0, 100.0, 400.0])
    def test_matches_reference_quadrature(self, s):
        # over the scan window of bound_terms, on both sides of the switch
        # from the closed form to the window quadrature
        sigma_hat = -1.0
        std = math.sqrt(s / 2.0)
        sig = np.linspace(sigma_hat - s / 4.0 - 8.0 * std - 1.0,
                          sigma_hat + 1.0 - s / 4.0 + 8.0 * std + 1.0, 800)
        ramp = ko.RampEvolution(sigma_hat)
        got = (ramp.value(s, sig), ramp.d1(s, sig), ramp.d2(s, sig))
        for g, r in zip(got, _reference_ramp(sigma_hat, s, sig)):
            assert np.max(np.abs(g - r)) <= 1e-12

    def test_scalar_points_give_floats(self):
        ramp = ko.RampEvolution(0.0)
        for s in (0.0, 1.0, 25.0):
            assert isinstance(ramp.value(s, 0.3), float)
            assert ramp.d1(s, 0.3) == ramp.d1(s, np.array([0.3]))[0]


class TestPhiBound:
    def test_majorizes_profile_everywhere(self, base_profile):
        cfg, prof = base_profile
        ramp = ko.RampEvolution(cfg.sigma_hat)
        for tp in (0.0, 2.0, 5.0):
            vals = ramp.value(cfg.tau - tp, prof.sigma)
            bound = np.array([ko.phi_upper_bound(cfg, tp, s) for s in prof.sigma])
            assert np.all(vals <= bound + 1e-10)

    def test_origin_value_regimes(self):
        # far-below truncation: tiny evolved value; above-scale: order one
        low = ko.zeta_at_origin(ko.TailConfig(16.0, 4.0 - 3.0 * 4.0))
        assert low <= 0.01
        from scipy.stats import norm
        high = ko.zeta_at_origin(ko.TailConfig(16.0, 4.0 + 4.0))
        assert high >= 2.0 * norm.cdf(1.0 - np.log(2.0)) * 0.9

    def test_vanishes_for_long_horizons(self):
        vals = [ko.zeta_at_origin(ko.TailConfig(tau, -1.0)) for tau in (4.0, 64.0, 400.0)]
        assert np.all(np.diff(vals) < 0) and vals[-1] < 1e-6


class TestBoundTerms:
    def test_long_horizon_rates(self):
        terms = ko.bound_terms(ko.TailConfig(tau=100.0, sigma_hat=0.0))
        assert terms.i1 <= 10.0 / np.sqrt(100.0)
        assert terms.i2 <= 10.0

    def test_scaled_first_term_bounded(self):
        vals = [ko.bound_terms(ko.TailConfig(tau=t, sigma_hat=0.0)).i1 * np.sqrt(t)
                for t in (4.0, 25.0, 100.0, 400.0)]
        assert max(vals) < 5.0

    def test_grid_refinement_insensitive(self, monkeypatch):
        cfg = ko.TailConfig(tau=25.0, sigma_hat=-1.0)
        a = ko.bound_terms(cfg)
        monkeypatch.setattr(ko, "N_TAU", 2 * ko.N_TAU)
        monkeypatch.setattr(ko, "N_SCAN", 2 * ko.N_SCAN)
        b = ko.bound_terms(cfg)
        assert abs(a.i1 / b.i1 - 1.0) < 0.01
        assert abs(a.i2 / b.i2 - 1.0) < 0.01


class TestCoordinateChanges:
    def test_explicit_scheme_in_original_coordinates(self):
        # march the backward equation in (tau', r) with a small explicit
        # stencil and compare against the kernel solution
        tau, sigma_hat, span = 1.0, -0.5, 0.3
        ramp = ko.RampEvolution(sigma_hat)
        r = np.linspace(0.02, 8.0, 799)
        zeta = ramp.observable_values(tau, tau, r)
        dr = r[1] - r[0]
        dt = 0.4 * dr ** 2 / (r[-1] ** 2 / 2.0)
        steps = int(np.ceil(span / dt))
        dt = span / steps
        for _ in range(steps):
            z_r = np.gradient(zeta, dr)
            z_rr = np.zeros_like(zeta)
            z_rr[1:-1] = (zeta[2:] - 2 * zeta[1:-1] + zeta[:-2]) / dr ** 2
            zeta = zeta + dt * (0.5 * r * z_r + 0.25 * r ** 2 * z_rr)
        exact = ramp.observable_values(tau, tau - span, r)
        interior = slice(60, -60)
        assert np.max(np.abs(zeta[interior] - exact[interior])) < 2e-3


@pytest.fixture(scope="module")
def run_samples():
    cfg = proxysde.SdeConfig(eps=0.2, lambda2_max=9.0, n_steps=800,
                             n_traj=30_000, seed=13, snapshot_points=(9.0,),
                             record_stride=50)
    res = proxysde.run_ensemble(cfg)
    return res.snapshots[9.0]["f2"]


class TestVerifyTail:
    def test_chain_holds(self, run_samples):
        rep = ko.verify_tail(run_samples, eps=0.2, lambda2=9.0, margin=0.1)
        assert rep.chain_ok and rep.regime_ok
        assert rep.ratio <= 0.3
        assert rep.lhs <= rep.rhs

    def test_wide_margin_raises_regime_warning(self, run_samples):
        rep = ko.verify_tail(run_samples, eps=0.2, lambda2=9.0, margin=1.0)
        assert not rep.regime_ok and rep.warnings

    def test_vanishing_threshold(self, run_samples):
        rep = ko.verify_tail(run_samples, eps=0.2, lambda2=9.0, margin=1e-12)
        assert rep.ratio == 0.0 and rep.lhs == 0.0
        assert rep.rhs > 0.0

    def test_zero_amplitude_branch(self):
        # frozen dynamics: every sample equals |id|^2 = 2
        rep = ko.verify_tail(np.full(5000, 2.0), eps=0.0, lambda2=9.0, margin=0.1)
        assert rep.ratio == 0.0
        assert rep.chain_ok

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ko.verify_tail(np.array([]), eps=0.2, lambda2=9.0)

    def test_bound_terms_once_per_tau(self, monkeypatch):
        # the remainder integrals depend on tau only: two margins at one
        # lambda2 share one bound_terms evaluation and its values
        orig, taus = ko.bound_terms, []

        def counting(cfg, *args, **kwargs):
            taus.append(cfg.tau)
            return orig(cfg, *args, **kwargs)

        monkeypatch.setattr(ko, "bound_terms", counting)
        ko._bound_terms_at.cache_clear()
        f2 = 10.0 * np.random.default_rng(7).lognormal(-0.5, 1.0, 5_000)
        narrow = ko.verify_tail(f2, eps=0.2, lambda2=16.0, margin=0.1)
        wide = ko.verify_tail(f2, eps=0.2, lambda2=16.0, margin=1.0)
        assert taus == [np.log(16.0)]
        assert (narrow.i1, narrow.i2) == (wide.i1, wide.i2)

    @pytest.mark.parametrize("margin, pinned, verdicts", [
        (0.1, (1.1078868372978419, 0.6614809831690601, 0.005094895314451847,
               0.7184822927404231), (True, True)),
        (1.0, (1.1078868372978419, 0.6614809831690601, 0.314623193385175,
               1.028010590811146), (True, False)),
    ])
    def test_pinned_chain(self, margin, pinned, verdicts):
        # values from the kernel-quadrature evaluator this module used before
        # the closed form; a seeded lognormal sample stands in for |F|^2
        f2 = 10.0 * np.random.default_rng(20240419).lognormal(-0.5, 1.0, 20_000)
        rep = ko.verify_tail(f2, eps=0.2, lambda2=25.0, margin=margin)
        assert (rep.i1, rep.i2, rep.z0, rep.rhs) == pytest.approx(pinned, rel=1e-10, abs=0.0)
        assert (rep.chain_ok, rep.regime_ok) == verdicts


def test_relative_threshold_formula():
    lam = 5.0
    assert ko.relative_threshold(25.0, 0.1) == \
        0.1 * np.sqrt(lam) * np.exp(-np.sqrt(2.0 * np.log(lam)))


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, scalehom; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
