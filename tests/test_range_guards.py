"""Range guards reject NaN: each is written as ``if not x > bound: raise``,
since a NaN compares false both ways and ``if x <= bound: raise`` lets it
through."""

import threading

import numpy as np
import pytest

from scalehom import corrector, fieldsim, kolmogorov, momentodes, proxysde, shellcov

NAN = float("nan")


def _zero_stream():
    grid = fieldsim.TorusGrid(64, 40.0)
    return fieldsim.ShellField(grid, np.fft.rfft2(np.zeros((64, 64))))


#: (case, call with one NaN argument, message of the guard it must trip)
GUARDED = [
    ("solve_corrector tol", lambda: corrector.solve_corrector(
        _zero_stream(), np.array([1.0, 0.0]), tol=NAN), "tol must be positive"),
    ("TorusGrid box_len", lambda: fieldsim.TorusGrid(64, NAN), "box_len must be positive"),
    ("FieldConfig eps", lambda: fieldsim.FieldConfig(eps=NAN, l_max=4.0, n=64),
     "eps must be positive"),
    ("TailConfig tau", lambda: kolmogorov.TailConfig(tau=NAN, sigma_hat=-1.0),
     "tau must be positive"),
    ("evolve dtau", lambda: kolmogorov.evolve(kolmogorov.terminal_zeta(
        kolmogorov.TailConfig(tau=1.0, sigma_hat=-1.0)), NAN), "dtau must be positive"),
    ("verify_tail lambda2", lambda: kolmogorov.verify_tail(np.ones(8), 0.2, NAN),
     "tau must be positive"),
    ("integrate_moments x_end", lambda: momentodes.integrate_moments(
        0.2, NAN, momentodes.ClosureSource.bound()), "x_end must exceed 1"),
    ("exact_a x", lambda: momentodes.exact_a(NAN, 0.2), "x must be >= 1"),
    ("exact_b x", lambda: momentodes.exact_b(NAN, 0.2), "x must be >= 1"),
    ("exact_big_a x", lambda: momentodes.exact_big_a(NAN, 0.2), "x must be >= 1"),
    ("envelope x_end", lambda: momentodes.envelope(0.2, NAN), "x_end must exceed 1"),
    ("SdeConfig lambda2_max", lambda: proxysde.SdeConfig(
        eps=0.2, lambda2_max=NAN, n_steps=4, n_traj=4), "lambda2_max must exceed 1"),
    ("SdeConfig eps", lambda: proxysde.SdeConfig(
        eps=NAN, lambda2_max=2.0, n_steps=4, n_traj=4), "eps must be positive"),
    ("build_cov lambda2", lambda: shellcov.build_cov(NAN), "lambda2 must be >= 1"),
    ("step_covariance eps", lambda: shellcov.step_covariance(1.0, 1.5, NAN),
     "eps must be positive"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in GUARDED],
                         ids=[c[0] for c in GUARDED])
def test_nan_trips_the_range_guard(call, message):
    # past its guard, a NaN x_end never ends the adaptive integration, so the
    # call runs on a thread that is given a minute
    raised = []

    def target():
        with pytest.raises(ValueError, match=message) as info:
            call()
        raised.append(info)
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(60.0)
    assert not thread.is_alive(), "the call neither returned nor raised"
    assert raised
