"""Moment flow vs exact quadratures, asymptotic windows, and envelopes."""

import numpy as np
import pytest
from scipy import integrate

from scalehom import momentodes as mo
from scalehom import proxysde

BOUND = mo.ClosureSource.bound()


@pytest.fixture(scope="module")
def mc_series():
    cfg = proxysde.SdeConfig(eps=0.2, lambda2_max=4.0, n_steps=200,
                             n_traj=50_000, seed=21)
    return proxysde.run_ensemble(cfg).series


class TestRhs:
    def test_values_at_unit_scale(self):
        y = np.array([0.0, 0.0, 2.0, 4.0, 1.0, 1.0])
        d = mo.rhs(1.0, y, 1.0, BOUND)
        assert d[0] == 1.0      # second corrector moment starts at unit rate
        assert d[2] == 1.0      # E|F|^2 rate (A/2 + a/2)/x
        assert d[3] == 4.0      # E|F|^4 rate (3B/2 - 2C)/x
        assert d[5] == 0.0

    def test_det_expectation_never_moves(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = np.abs(rng.standard_normal(6)) + 0.1
            assert mo.rhs(float(rng.uniform(1, 30)), y, 0.3, BOUND)[5] == 0.0

    def test_missing_closure_data_rejected(self):
        clo = mo.ClosureSource("mc", np.array([1.0, 2.0]), np.zeros(2),
                               np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="cover"):
            mo.rhs(3.0, np.ones(6), 0.3, clo)


class TestExactIntegrals:
    def test_values_at_start(self):
        assert mo.exact_a(1.0, 0.3) == 0.0
        assert mo.exact_b(1.0, 0.3) == 0.0
        assert mo.exact_big_a(1.0, 0.3) == 2.0

    def test_regression_baseline(self):
        # frozen adaptive-quadrature oracle values for eps = 1, x = 2
        # E|phi|^2 = L^2 a_resc with L^2 = e^{2 (x - 1) / eps^2}
        assert mo.exact_a(2.0, 1.0) * np.exp(2.0) == pytest.approx(
            2.2429639767069434, rel=1e-12)
        assert mo.exact_a(2.0, 1.0) == pytest.approx(0.3035521650771534, rel=1e-12)

    def test_oracle_quadrature_cross_check(self):
        for (x, eps) in [(2.0, 1.0), (1.5, 0.5), (3.0, 0.8)]:
            oracle, _ = integrate.quad(
                lambda y: np.exp(-2.0 * (x - y) / eps ** 2) * y ** -1.5, 1.0, x,
                epsabs=1e-14, epsrel=1e-13)
            assert mo.exact_a(x, eps) == pytest.approx(np.sqrt(x) * oracle, rel=1e-11)

    def test_b_oracle_cross_check(self):
        x, eps = 1.8, 0.7

        def inner(y):
            v, _ = integrate.quad(lambda z: np.exp(2 * (z - 1) / eps ** 2) * z ** -1.5,
                                  1.0, y, epsabs=1e-14)
            return v

        raw, _ = integrate.quad(
            lambda y: np.exp(2 * (y - 1) / eps ** 2) * y ** -2.0 * inner(y), 1.0, x,
            epsabs=1e-13)
        oracle = 4.0 * x ** 1.5 * raw * np.exp(-4.0 * (x - 1.0) / eps ** 2)
        assert mo.exact_b(x, eps) == pytest.approx(oracle, rel=1e-9)


class TestIntegration:
    def test_matches_exact_a_at_unit_amplitude(self):
        t = mo.integrate_moments(1.0, 2.0, BOUND, x_eval=[2.0])
        assert t.a_resc[0] == pytest.approx(mo.exact_a(2.0, 1.0), rel=1e-6)
        assert t.b_resc[0] == pytest.approx(mo.exact_b(2.0, 1.0), rel=1e-6)
        assert t.big_a[0] == pytest.approx(mo.exact_big_a(2.0, 1.0), rel=1e-6)

    def test_matches_exact_in_stiff_regime(self):
        t = mo.integrate_moments(0.05, 1.25, BOUND, x_eval=[1.25])
        assert t.a_resc[0] == pytest.approx(mo.exact_a(1.25, 0.05), rel=1e-6)
        assert t.big_a[0] == pytest.approx(mo.exact_big_a(1.25, 0.05), rel=1e-6)

    def test_det_identically_one(self):
        t = mo.integrate_moments(0.4, 6.0, BOUND)
        assert np.all(t.det == 1.0)

    def test_preasymptotic_bound_holds_along_flow(self):
        cst = mo.envelope_constants(1.0)
        for eps in (0.1, 0.5, 1.0):
            t = mo.integrate_moments(eps, 8.0, BOUND)
            assert np.all(t.a_resc <= cst["a_resc_bound"] * eps ** 2 / t.x + 1e-12)
            assert np.all(t.b_resc <= cst["b_resc_bound"] * eps ** 4 / t.x ** 2 + 1e-12)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            mo.integrate_moments(0.3, 1.0, BOUND)


class TestAsymptotics:
    def test_second_moment_limit_value(self):
        assert mo.asymptotics(4.0, 0.1)["big_a"] == 4.0

    def test_fourth_moment_limit_at_start_matches_identity(self):
        assert mo.asymptotics(1.0, 0.1)["big_b"] == pytest.approx(4.0)

    def test_fourth_corrector_moment_is_twice_squared_second(self):
        a = mo.asymptotics(3.0, 0.2)
        assert a["b_resc"] == pytest.approx(2.0 * a["a_resc"] ** 2)

    def test_exact_integrals_enter_asymptotic_window(self):
        # deep scale separation: lnL = 100 at eps = 0.05, i.e. x = 1.25
        x, eps = 1.25, 0.05
        asym = mo.asymptotics(x, eps)
        assert 0.98 <= mo.exact_a(x, eps) / asym["a_resc"] <= 1.02
        assert 0.95 <= mo.exact_b(x, eps) / asym["b_resc"] <= 1.05
        assert 0.99 <= mo.exact_big_a(x, eps) / asym["big_a"] <= 1.01

    def test_monotone_approach_in_scale_separation(self):
        # at fixed eps the second-corrector-moment ratio converges to 1 while
        # the E|F|^2 ratio saturates monotonically at 1 + O(eps^2); both stay
        # well inside the 5% window at deep scale separation
        eps = 0.1
        ratios_a, ratios_big = [], []
        for ln_l in (10.0 / eps ** 2, 100.0 / eps ** 2, 400.0 / eps ** 2):
            x = 1.0 + eps ** 2 * ln_l
            ratios_a.append(mo.exact_a(x, eps) / mo.asymptotics(x, eps)["a_resc"])
            ratios_big.append(mo.exact_big_a(x, eps) / mo.asymptotics(x, eps)["big_a"])
        gaps_a = np.abs(np.array(ratios_a) - 1.0)
        assert np.all(np.diff(gaps_a) < 0) and gaps_a[-1] < 0.05
        assert np.all(np.diff(ratios_big) > 0)
        assert np.all(np.abs(np.array(ratios_big) - 1.0) < 0.05)


class TestEnvelope:
    def test_zero_amplitude_collapse(self):
        env = mo.envelope(0.0, 5.0)
        exact = (8.0 / 3.0) * env.x ** 1.5 + 4.0 / 3.0     # the eps = 0 quartic curve
        assert np.allclose(env.b_high, exact, rtol=1e-8)
        assert np.allclose(env.b_low, exact, rtol=1e-8)
        assert np.all(env.c_low == 1.0) and np.all(env.c_high == 1.0)
        assert exact[0] == 4.0

    def test_det_tube_width(self):
        env = mo.envelope(0.1, 5.0)
        kappa_c = env.constants["kappa_c"]
        assert np.allclose(env.c_high - 1.0, kappa_c * 0.01)

    def test_contains_mc_closure_trajectory(self, mc_series):
        closure = mo.ClosureSource.from_series(mc_series)
        table = mo.integrate_moments(0.2, 4.0, closure, x_eval=mc_series.lambda2)
        env = mo.envelope(0.2, 4.0)
        b_lo, b_hi, c_lo, c_hi = (np.interp(table.x, env.x, edge) for edge in
                                  (env.b_low, env.b_high, env.c_low, env.c_high))
        assert np.all((b_lo <= table.big_b) & (table.big_b <= b_hi)
                      & (c_lo <= table.det2) & (table.det2 <= c_hi))

    def test_adj_closure_respects_operator_norm_rate(self, mc_series):
        # |dC/dx| = q_adj/x <= m_c eps^2 sqrt(B)/x^2 along the Monte Carlo run
        cst = mo.envelope_constants(1.0)
        q_adj = mc_series.column("closure_adj")
        big_b = mc_series.column("f4")
        x = mc_series.lambda2
        assert np.all(q_adj <= cst["m_c"] * 0.04 * np.sqrt(big_b) / x + 1e-9)


class TestMomentVector:
    def test_initial(self):
        # the flow starts from phi = 0, F = id: (a, b, A, B, C, D) = (0, 0, 2, 4, 1, 1)
        t = mo.integrate_moments(0.3, 2.0, BOUND, x_eval=[1.0, 2.0])
        start = [col[0] for col in (t.a_resc, t.b_resc, t.big_a, t.big_b, t.det2, t.det)]
        assert start == [0.0, 0.0, 2.0, 4.0, 1.0, 1.0]


class TestClosureSource:
    def test_bound_mode_zero_terms(self):
        assert BOUND.terms(17.0) == (0.0, 0.0, 0.0)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            mo.ClosureSource("magic")
        with pytest.raises(ValueError):
            mo.ClosureSource("mc")

    def test_mc_terms_equal_np_interp(self):
        # at random points, on every knot, at both ends and just inside the
        # tolerated overshoot past either end
        rng = np.random.default_rng(9)
        xs = np.sort(np.concatenate([[1.0, 25.0], rng.uniform(1.0, 25.0, 398)]))
        cols = [rng.standard_normal(400) * 10.0 ** rng.uniform(-8, 3, 400)
                for _ in range(3)]
        clo = mo.ClosureSource("mc", xs, *cols)
        pts = np.concatenate([rng.uniform(1.0, 25.0, 20_000), xs,
                              [1.0 - 5e-13, 25.0 * (1 + 5e-10), np.nextafter(25.0, 0.0),
                               np.nextafter(1.0, 2.0)]])
        for x in pts:
            assert clo.terms(x) == tuple(float(np.interp(x, xs, c)) for c in cols), x
        for x in (1.0 - 1e-9, 25.0 * (1 + 1e-8), np.nan):
            with pytest.raises(ValueError, match="cover"):
                clo.terms(x)
