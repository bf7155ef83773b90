import math

import numpy as np
import pytest

from contraprox.bench import BENCH_LSE_LIPSCHITZ2, build_instance, run_method
from contraprox.objectives import (CompositeObjective, LogSumExpOracle,
                                   QuadraticOracle, SolverError)
from contraprox.tensor_steps import InnerLoopError

# Iterations and final (oracle_f, oracle_g, oracle_h, matvec) of every method
# name at eps = 1e-7, as the trace's last row records them.  cn builds a
# Hessian only at the base of a step, so the point that stops it costs none:
# its oracle_h is its iteration count.
EXPECTED = {
    "quadratic": {
        "gm": (149, (297, 149, 0, 446)),
        "agm": (98, (99, 98, 0, 197)),
        "ppa": (476, (4267, 2134, 0, 6400)),
        "cptm-p1": (144, (830, 685, 0, 830)),
    },
    "lse": {
        "cn": (57, (58, 58, 57, 0)),
        "acn": (31, (63, 63, 31, 0)),
        "cptm-p2": (25, (94, 68, 43, 0)),
    },
}


def _instance(problem):
    if problem == "quadratic":
        return build_instance("quadratic", 20, 0, q=1e-2)
    return build_instance("lse", 20, 0, mu=1.0, lipschitz_order2=BENCH_LSE_LIPSCHITZ2)


@pytest.mark.parametrize("problem", sorted(EXPECTED))
def test_run_method_dispatches_every_name(problem):
    obj = _instance(problem)
    for name, (iterations, counters) in EXPECTED[problem].items():
        tr = run_method(name, obj, 1e-7)
        assert tr.status == "converged"
        assert tr.header["method"] == name
        assert tr.header["cap"] == 5000
        assert (tr.iterations, tuple(tr.final.counters.values())) == (iterations, counters)


@pytest.mark.parametrize("problem", sorted(EXPECTED))
def test_one_driver_caps_every_method(problem):
    obj = _instance(problem)
    for name in EXPECTED[problem]:
        with pytest.raises(SolverError) as info:
            run_method(name, obj, 1e-12, cap_outer=2)
        assert str(info.value).startswith(f"{name} exhausted 2 iterations")


@pytest.mark.parametrize("name", ["cpm-p1", "newton"])
def test_run_method_rejects_unknown_names(name):
    with pytest.raises(ValueError):
        run_method(name, _instance("quadratic"), 1e-7)


def test_cptm_p2_charges_one_hessian_per_inner_step():
    # the start point and the exit point of each inner loop get first-order
    # data only; the Hessian is built at the base of every step taken
    tr = run_method("cptm-p2", _instance("lse"), 1e-7)
    steps = 0
    for rec in tr.records:
        steps += rec.t_inner
        assert rec.counters["oracle_h"] == steps


def test_cn_charges_one_hessian_per_step():
    # x_k gets first-order data; its Hessian is built only once a step starts there
    tr = run_method("cn", _instance("lse"), 1e-7)
    for k, rec in enumerate(tr.records):
        assert rec.counters["oracle_h"] == k


def test_acn_charges_one_hessian_per_step():
    # each step takes first-order data and a Hessian at the look-ahead point,
    # then first-order data at x_k; x_0 gets the first-order query too
    tr = run_method("acn", _instance("lse"), 1e-7)
    for k, rec in enumerate(tr.records):
        assert rec.counters["oracle_h"] == k
        assert rec.counters["oracle_f"] == rec.counters["oracle_g"] == 2 * k + 1


class _PoisonedAfterFive:
    """Every query after the 5th returns NaN in its value, gradient or Hessian."""

    def __init__(self, part, *args):
        super().__init__(*args)
        self.part = part
        self.queries = 0

    def _poison(self, v, g):
        self.queries += 1
        if self.queries > 5 and self.part == "value":
            v = math.nan
        if self.queries > 5 and self.part == "grad" and g is not None:
            g = np.full_like(g, math.nan)
        return v, g

    def value(self, x):
        return self._poison(super().value(x), None)[0]

    def grad(self, x):
        return self._poison(0.0, super().grad(x))[1]

    def value_and_grad(self, x):
        return self._poison(*super().value_and_grad(x))

    def taylor_data(self, x, order):
        return self._poison(*super().taylor_data(x, order))

    def hess(self, x):
        H = super().hess(x)
        return np.full_like(H, math.nan) if self.part == "hess" and self.queries > 5 else H


class _PoisonedQuadratic(_PoisonedAfterFive, QuadraticOracle):
    pass


class _PoisonedLogSumExp(_PoisonedAfterFive, LogSumExpOracle):
    pass


def _with_smooth(obj, smooth):
    return CompositeObjective(smooth, obj.simple, obj.metric, obj.fstar, obj.xstar,
                              dict(obj.descriptor))


_NON_FINITE_CASES = (
    [(part, name) for part in ("value", "grad") for name in EXPECTED["quadratic"]]
    + [(part, name) for part in ("value", "grad", "hess") for name in EXPECTED["lse"]]
    + [("L1/10", name) for name in ("gm", "agm", "ppa")])


@pytest.mark.parametrize("fault, name", _NON_FINITE_CASES)
def test_non_finite_run_ends_in_a_solver_error(fault, name):
    # at the bench cap these runs spun to "exhausted 200000 iterations
    # (residual nan)", blamed the Lipschitz estimate, or raised a ValueError
    # that the CLI reported as a usage error
    if name in EXPECTED["quadratic"]:
        obj = build_instance("quadratic", 20, 0, q=1e-4)
        f = obj.smooth
        if fault == "L1/10":
            smooth = QuadraticOracle(f.matrix, f.rhs, lam_max=f.lipschitz[1] / 10)
        else:
            smooth = _PoisonedQuadratic(fault, f.matrix, f.rhs, f.lipschitz[1])
    else:
        obj = build_instance("lse", 20, 0, mu=1.0, lipschitz_order2=BENCH_LSE_LIPSCHITZ2)
        f = obj.smooth
        smooth = _PoisonedLogSumExp(fault, f.data, f.shift, f.mu, f.lipschitz[2])
    # a diverging run overflows on its way to NaN
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="non-finite") as err:
            run_method(name, _with_smooth(obj, smooth), 1e-7, cap_outer=200000)
    assert not isinstance(err.value, InnerLoopError)
