"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines as
they complete; the heavy Monte Carlo ensembles are shared between criteria
through module-level memoization.
"""

import math

import numpy as np

from scalehom import acceptance, proxysde
from scalehom.acceptance import Check, CriterionResult

#: the checked quantities of each criterion, as ``accept.json`` reports them;
#: every other detail is a reported value that does not decide the verdict
CHECK_KEYS = {
    "algebra suite": {"basis_tables_exact", "contraction_max_dev",
                      "aux_pair_total_dev"},
    "covariance consistency": {"diamond_form_dev", "bullet_form_dev",
                               "cross_block_vs_quadrature", "min_eigenvalue"},
    "mc vs ode": {"worst_checkpoint_z", "worst_det_z"},
    "exact-integral asymptotics": {"a_ratio", "b_ratio", "A_ratio"},
    "fourth-moment asymptotic": {"combo_dev", "B_over_limit"},
    "determinant concentration": {"det_variance"},
    "non-equi-integrability": {"ratio_at_25", "monotone_nonincreasing",
                               "chain_holds", "wide_margin_chain"},
    "kolmogorov solver": {"semigroup_dev", "phi_bound_violation",
                          "max_i1_sqrt_tau"},
    "field-mode checks": {"band_variance_ratio", "accumulated_qv_ratio",
                          "trace_relation_dev", "skew_relation_dev",
                          "worst_moment_z"},
    "corrector": {"lambda_min", "frobenius_identity_dev", "det_mean_dev",
                  "perturbative_ratio"},
    "particle": {"slope_rel_dev", "enhancement_floor",
                 "ratio_minus_one_with_slack"},
}


def _check(result):
    print(result.line())
    checks = {key: val for key, val in result.details.items()
              if isinstance(val, Check)}
    for key, (value, threshold) in checks.items():
        print(f"    {key}: value={value:.6g} threshold={threshold}")
    assert set(checks) == CHECK_KEYS[result.name]
    assert result.passed, result.details


def test_check_keys_cover_the_gate():
    assert len(CHECK_KEYS) == len(acceptance.ALL_CRITERIA) == 11
    assert sum(map(len, CHECK_KEYS.values())) == 34


def test_verdict_needs_a_check():
    assert not CriterionResult("empty", 0.0).passed
    res = CriterionResult("reported only", 0.0, {"ratio": 1.0, "pair": (0.0, 1.0)})
    assert not res.passed
    assert res.payload()["pass"] is False


def test_nan_value_fails():
    for threshold in (1.0, (0.0, 1.0)):
        res = CriterionResult("nan", 0.0, {"ok": Check(0.5, 1.0),
                                           "bad": Check(math.nan, threshold)})
        assert not res.passed
        out = res.payload()
        assert out["bad"]["pass"] is False and out["ok"]["pass"] is True
        assert out["pass"] is False


def test_window_threshold():
    window = (0.9, 1.1)
    for value, inside in ((0.9, True), (1.0, True), (1.1, True),
                          (0.89, False), (1.11, False)):
        res = CriterionResult("window", 0.0, {"ratio": Check(value, window)})
        assert res.passed is inside
        assert res.payload()["ratio"] == {"value": value, "threshold": window,
                                          "pass": inside}


def test_reported_values_never_decide():
    # a plain pair is a reported value, however it compares
    passing = CriterionResult("p", 0.0, {"dev": Check(0.0, 1e-12), "ratio": 1e9,
                                         "pair": (5.0, 1.0), "nan": math.nan})
    assert passing.passed
    assert passing.payload()["pair"] == {"value": (5.0, 1.0)}
    failing = CriterionResult("f", 0.0, {"dev": Check(1.0, 1e-12), "ratio": 0.0,
                                         "pair": (0.0, 1.0)})
    assert not failing.passed


def test_criterion_01_algebra_suite():
    res = acceptance.criterion_1_algebra()
    _check(res)
    assert res.runtime_s < 1.0


def test_criterion_02_covariance_consistency():
    res = acceptance.criterion_2_covariance()
    _check(res)
    assert res.runtime_s < 1.0


def test_criterion_03_mc_vs_ode():
    res = acceptance.criterion_3_mc_vs_ode()
    _check(res)
    assert res.runtime_s < 120.0


def test_criterion_04_exact_integral_asymptotics():
    res = acceptance.criterion_4_exact_asymptotics()
    _check(res)
    assert res.runtime_s < 1.0


def test_criterion_05_fourth_moment_asymptotic():
    res = acceptance.criterion_5_fourth_moment()
    _check(res)
    assert res.runtime_s < 300.0


def test_criterion_06_determinant_concentration():
    res = acceptance.criterion_6_det_concentration()
    _check(res)
    assert res.runtime_s < 300.0


def test_criterion_07_non_equi_integrability():
    res = acceptance.criterion_7_tail()
    _check(res)
    assert res.runtime_s < 600.0


def test_criterion_08_kolmogorov_solver():
    res = acceptance.criterion_8_kolmogorov()
    _check(res)
    assert res.runtime_s < 30.0


def test_criterion_09_field_mode_checks():
    res = acceptance.criterion_9_field_mode()
    _check(res)
    assert res.runtime_s < 300.0


def test_criterion_10_corrector():
    res = acceptance.criterion_10_corrector()
    _check(res)
    assert res.runtime_s < 600.0


def test_criterion_11_particle():
    res = acceptance.criterion_11_particle()
    _check(res)
    assert res.runtime_s < 600.0


def test_intermittency_peak_bulk_separation():
    # normalized |F|^2 develops a bulk well below its mean: the median-to-mean
    # ratio decreases across scales (frozen Monte Carlo oracle values:
    # 0.79, 0.69, 0.61, 0.56 at lam2 = 4, 9, 16, 25 for eps = 0.2)
    res = acceptance._ensemble("tail")   # criterion 7's cached run
    medians = []
    for lam2 in (9.0, 16.0, 25.0):
        f2 = res.snapshots[lam2]["f2"]
        medians.append(np.median(f2) / f2.mean())
    assert np.all(np.diff(medians) < 0.0)
    assert medians[-1] < 0.65
    # fourth-vs-second moment blowup at the deep end (intermittency signature)
    row = res.series.at(25.0)
    assert row["f4"] / row["f2"] ** 2 > 2.0
