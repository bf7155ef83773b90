import json
import math

import numpy as np
import pytest
import scipy.optimize

from contraprox.bregman import PowerProx
from contraprox.metric import Metric
from contraprox.objectives import (LogSumExpOracle, PowerRegularizer,
                                   alpha_for_condition_ratio, attach_reference,
                                   lse_instance, power_regularizer_component,
                                   quadratic_instance, reference_optimum,
                                   sigmoid_spectrum)


def _central_difference(fn, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


class TestQuadratic:
    def test_sigmoid_spectrum_n2(self):
        lam = sigmoid_spectrum(2, 1.0)
        assert lam[0] == pytest.approx(1.0 / (1.0 + math.e), rel=1e-12)
        assert lam[1] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), rel=1e-12)

    def test_eigenvalues_match_spectrum(self):
        obj = quadratic_instance(20, 2.5, 3)
        lam = np.linalg.eigvalsh(obj.smooth.matrix)
        np.testing.assert_allclose(lam, sigmoid_spectrum(20, 2.5), atol=1e-8)

    def test_condition_ratio_solve(self):
        # the spectrum's ratio is exactly e^-alpha, so alpha is -ln q to the bit
        for q in (0.9, 1e-1, 1e-2, 1e-4, 1e-8, 1e-30):
            alpha = alpha_for_condition_ratio(q)
            assert alpha == -math.log(q)
            lam = sigmoid_spectrum(50, alpha)
            assert lam[0] / lam[-1] == pytest.approx(q, rel=1e-12)
        for q in (math.exp(-80.0), 1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match="condition ratio q must lie in"):
                alpha_for_condition_ratio(q)

    def test_gradient_matches_finite_differences(self):
        obj = quadratic_instance(8, 1.5, 0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(8)
            fd = _central_difference(obj.smooth.value, x)
            np.testing.assert_allclose(obj.smooth.grad(x), fd, rtol=1e-5, atol=1e-7)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            quadratic_instance(1, 1.0, 0)

    def test_lipschitz_is_top_eigenvalue(self):
        obj = quadratic_instance(12, 2.0, 0)
        assert obj.smooth.lipschitz[1] == pytest.approx(
            float(np.linalg.eigvalsh(obj.smooth.matrix).max()), rel=1e-10)

    def test_fstar_closed_form(self):
        obj = quadratic_instance(10, 2.0, 1)
        b = obj.smooth.rhs
        expect = -0.5 * float(b @ np.linalg.solve(obj.smooth.matrix, b))
        assert obj.fstar == pytest.approx(expect, rel=1e-12)

    def test_determinism(self):
        a = quadratic_instance(10, 2.0, 5)
        b = quadratic_instance(10, 2.0, 5)
        np.testing.assert_array_equal(a.smooth.matrix, b.smooth.matrix)
        np.testing.assert_array_equal(a.smooth.rhs, b.smooth.rhs)


class TestLogSumExp:
    def test_value_at_zero_with_zero_shift(self):
        n, mu = 5, 0.7
        rng = np.random.default_rng(0)
        A = rng.uniform(-1, 1, (6 * n, n))
        oracle = LogSumExpOracle(A, np.zeros(6 * n), mu, 1.0)
        assert oracle.value(np.zeros(n)) == pytest.approx(mu * math.log(6 * n), rel=1e-12)

    def test_gradient_at_zero_with_zero_shift(self):
        n = 4
        rng = np.random.default_rng(1)
        A = rng.uniform(-1, 1, (6 * n, n))
        oracle = LogSumExpOracle(A, np.zeros(6 * n), 1.0, 1.0)
        np.testing.assert_allclose(oracle.grad(np.zeros(n)), A.mean(axis=0), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        obj = lse_instance(6, 0.5, 2, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal(6) * 0.5
            fd = _central_difference(obj.smooth.value, x)
            np.testing.assert_allclose(obj.smooth.grad(x), fd, rtol=1e-5, atol=1e-7)

    def test_hessian_symmetric_psd(self):
        obj = lse_instance(5, 1.0, 4, 1.0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            H = obj.smooth.hess(rng.standard_normal(5))
            np.testing.assert_allclose(H, H.T, atol=1e-12)
            assert np.linalg.eigvalsh(H).min() >= -1e-10

    def test_hessian_matches_finite_differences(self):
        obj = lse_instance(4, 0.8, 6, 1.0)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(4) * 0.3
        H = obj.smooth.hess(x)
        for i in range(4):
            e = np.zeros(4)
            e[i] = 1e-5
            col = (obj.smooth.grad(x + e) - obj.smooth.grad(x - e)) / 2e-5
            np.testing.assert_allclose(H[:, i], col, rtol=1e-4, atol=1e-6)

    def test_hessian_bounded_by_inverse_mu_in_metric(self):
        # lambda_max(B^{-1} H) <= 1/mu since H <= (1/mu) * B
        for mu in (1.0, 0.25):
            obj = lse_instance(6, mu, 8, 1.0)
            rng = np.random.default_rng(9)
            Binv = np.linalg.inv(obj.metric.matrix)
            for _ in range(5):
                H = obj.smooth.hess(rng.standard_normal(6))
                top = np.linalg.eigvals(Binv @ H).real.max()
                assert top <= 1.0 / mu + 1e-8

    def test_hessian_is_one_exactly_symmetric_formula(self):
        obj = lse_instance(20, 1.0, 0, 1.0)
        smooth = obj.smooth
        rng = np.random.default_rng(3)
        for _ in range(4):
            x = 0.5 * rng.standard_normal(20)
            H = smooth.hess(x)
            assert np.array_equal(H, H.T)
            # the cached path, after a first-order query at x, gives the same bits
            smooth.taylor_data(x, 1)
            assert np.array_equal(H, smooth.hess(x))
            # the gemm form A^T diag(pi) A - g g^T, rounded differently
            u = (smooth.data @ x - smooth.shift) / smooth.mu
            pi = np.exp(u - u.max())
            pi /= pi.sum()
            g = smooth.data.T @ pi
            gemm = ((smooth.data.T * pi) @ smooth.data - np.outer(g, g)) / smooth.mu
            assert np.abs(H - gemm).max() <= 1e-12 * np.abs(gemm).max()

    def test_hessian_reuses_the_last_first_order_query(self, monkeypatch):
        smooth = lse_instance(20, 1.0, 0, 1.0).smooth

        def fresh_hessian(z):
            return lse_instance(20, 1.0, 0, 1.0).smooth.hess(z)

        rng = np.random.default_rng(4)
        x, y = 0.5 * rng.standard_normal(20), 0.5 * rng.standard_normal(20)
        smooth.taylor_data(x, 1)
        weights, at = smooth._weights, []
        monkeypatch.setattr(smooth, "_weights", lambda z: at.append(z) or weights(z))
        assert np.array_equal(smooth.hess(x), fresh_hessian(x))
        assert at == []
        # a Hessian elsewhere is computed afresh, to the same bits
        assert np.array_equal(smooth.hess(y), fresh_hessian(y))
        assert len(at) == 1
        c = smooth.counters
        assert (c.value, c.grad, c.hess) == (1, 1, 2)
        # the cache holds copies: the caller may overwrite its gradient and x
        smooth.taylor_data(x, 1)[1][:] = 0.0
        assert np.array_equal(smooth.hess(x), fresh_hessian(x))
        x[0] += 1.0
        assert np.array_equal(smooth.hess(x), fresh_hessian(x))

    def test_metric_is_gram_of_rows(self):
        obj = lse_instance(5, 1.0, 3, 1.0)
        A = obj.smooth.data
        np.testing.assert_allclose(obj.metric.matrix, A.T @ A, rtol=1e-12)

    def test_convex_along_segments(self):
        obj = lse_instance(5, 0.5, 10, 1.0)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            mid = obj.smooth.value(0.5 * (x + y))
            assert mid <= 0.5 * obj.smooth.value(x) + 0.5 * obj.smooth.value(y) + 1e-12

    def test_m_is_six_n(self):
        obj = lse_instance(7, 1.0, 0, 1.0)
        assert obj.smooth.data.shape == (42, 7)

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            lse_instance(5, 0.0, 0, 1.0)


class TestCounters:
    def test_quadratic_counts(self):
        obj = quadratic_instance(6, 1.0, 0).fresh()
        x = np.zeros(6)
        obj.smooth.value(x)
        assert obj.counters.value == 1 and obj.counters.matvec == 1
        obj.smooth.grad(x)
        assert obj.counters.grad == 1 and obj.counters.matvec == 2
        obj.smooth.value_and_grad(x)
        # combined query costs a single application of A
        assert obj.counters.matvec == 3
        assert obj.counters.value == 2 and obj.counters.grad == 2
        obj.smooth.hess(x)
        assert obj.counters.hess == 1

    def test_lse_counts(self):
        obj = lse_instance(4, 1.0, 0, 1.0).fresh()
        x = np.zeros(4)
        obj.smooth.taylor_data(x, 1)
        obj.smooth.hess(x)
        c = obj.counters
        assert (c.value, c.grad, c.hess) == (1, 1, 1)

    @pytest.mark.parametrize("make", [lambda: quadratic_instance(4, 1.0, 0),
                                      lambda: lse_instance(4, 1.0, 0, 1.0)])
    def test_taylor_data_serves_order_one_only(self, make):
        obj = make().fresh()
        for order in (0, 2):
            with pytest.raises(ValueError, match="order 1 only"):
                obj.smooth.taylor_data(np.zeros(4), order)
        c = obj.counters
        assert (c.value, c.grad, c.hess) == (0, 0, 0)

    def test_fresh_isolates_runs(self):
        obj = quadratic_instance(6, 1.0, 0)
        a = obj.fresh()
        b = obj.fresh()
        a.smooth.value(np.zeros(6))
        assert b.counters.value == 0
        assert a.smooth.matrix is b.smooth.matrix


class TestPowerRegularizer:
    def test_values_and_modulus(self):
        prox = PowerProx(1, np.zeros(3), Metric.identity(3))
        psi = power_regularizer_component(1.0, prox)
        x = np.array([3.0, 0.0, 4.0])
        assert psi.value(x) == pytest.approx(12.5)
        assert psi.modulus == 1.0
        np.testing.assert_allclose(psi.subgrad(x), x)

    def test_strong_convexity_equality(self):
        # psi = sigma*d makes the relative strong-convexity inequality tight
        rng = np.random.default_rng(12)
        prox = PowerProx(2, np.zeros(4), Metric.identity(4))
        psi = power_regularizer_component(0.3, prox)
        for _ in range(10):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            lhs = psi.value(y) - psi.value(x) - float(psi.subgrad(x) @ (y - x))
            assert lhs == pytest.approx(psi.modulus * prox.divergence(x, y),
                                        rel=1e-10, abs=1e-12)

    def test_rejects_zero_sigma(self):
        prox = PowerProx(1, np.zeros(2), Metric.identity(2))
        with pytest.raises(ValueError):
            power_regularizer_component(0.0, prox)


class TestReferenceOptimum:
    def test_quadratic_closed_form(self):
        obj = quadratic_instance(8, 1.5, 2)
        x, f = reference_optimum(obj)
        np.testing.assert_allclose(
            x, np.linalg.solve(obj.smooth.matrix, obj.smooth.rhs), rtol=1e-10)
        assert f == pytest.approx(obj.fstar, rel=1e-12)

    def test_one_dimensional_quadratic(self):
        from contraprox.objectives import (CompositeObjective, QuadraticOracle,
                                           ZeroComponent)
        obj = CompositeObjective(QuadraticOracle(np.array([[1.0]]), np.zeros(1), 1.0),
                                 ZeroComponent(1), Metric.identity(1))
        x, f = reference_optimum(obj)
        assert abs(x[0]) < 1e-12 and abs(f) < 1e-15

    def test_lse_two_solver_agreement(self):
        obj = lse_instance(5, 1.0, 1, 1.0)
        x1, f1 = reference_optimum(obj)
        # independent second solver
        res = scipy.optimize.minimize(
            obj.smooth.value, np.zeros(5), jac=obj.smooth.grad,
            hess=obj.smooth.hess, method="trust-exact",
            options={"gtol": 1e-12, "maxiter": 500})
        assert f1 == pytest.approx(res.fun, abs=1e-10)

    def test_attach_reference_caches(self):
        obj = lse_instance(4, 1.0, 2, 1.0)
        attach_reference(obj)
        assert obj.fstar is not None and "fstar" in obj.descriptor
        gn = obj.metric.dual_norm(obj.smooth.grad(obj.xstar))
        assert gn <= 1e-11

    def test_newton_reference_allows_round_off(self):
        # without a round-off allowance in its Armijo test the reference
        # Newton stalled here between 1e-12 and 1e-11 and ran out its cap
        obj = attach_reference(lse_instance(200, 1.0, 1004, 1.0))
        assert obj.metric.dual_norm(obj.smooth.grad(obj.xstar)) <= 1e-12
        assert obj.fstar == pytest.approx(7.146944334743955, rel=1e-14)

    def test_ill_conditioned_newton_step_does_not_warn(self):
        # scipy.linalg.solve(assume_a="pos") warns LinAlgWarning ("ill-conditioned
        # matrix") on this instance's Newton steps, an error under the warning filter
        obj = attach_reference(lse_instance(20, 0.01, 2, 1.0))
        assert obj.metric.dual_norm(obj.smooth.grad(obj.xstar)) <= 1e-12

    def test_newton_reference_raises_when_no_step_decreases(self):
        from contraprox.objectives import (CompositeObjective, SmoothOracle,
                                           SolverError, ZeroComponent)

        class Plateau(SmoothOracle):
            # f = 0 at the start and 1 everywhere else: every trial fails
            dim = 2

            def value(self, x):
                return 0.0 if not np.any(x) else 1.0

            def grad(self, x):
                return np.ones(2)

            def hess(self, x):
                return np.eye(2)

        obj = CompositeObjective(Plateau(), ZeroComponent(2), Metric.identity(2))
        with pytest.raises(SolverError, match="line search failed"):
            reference_optimum(obj)

    def test_newton_reference_raises_when_the_jittered_hessian_fails_too(self):
        from contraprox.objectives import (CompositeObjective, SmoothOracle,
                                           SolverError, ZeroComponent)

        class Saddle(SmoothOracle):
            # f = (x_0^2 - x_1^2)/2 + x_0 + x_1: no jitter up to 1e-5 makes H definite
            dim = 2

            def value(self, x):
                return 0.5 * (x[0] ** 2 - x[1] ** 2) + x[0] + x[1]

            def grad(self, x):
                return np.array([x[0] + 1.0, 1.0 - x[1]])

            def hess(self, x):
                return np.diag([1.0, -1.0])

        obj = CompositeObjective(Saddle(), ZeroComponent(2), Metric.identity(2))
        with pytest.raises(SolverError, match="reference Newton could not factor the Hessian "
                                              "at dual gradient norm 1.414e"):
            reference_optimum(obj)

    def test_newton_reference_names_the_norm_it_reached_at_its_cap(self):
        # slow damped progress at mu = 1e-5, not a round-off floor, so the cap stays
        from contraprox.bench import build_instance
        from contraprox.objectives import REFERENCE_CAP, SolverError

        reached = r"at dual gradient norm \d\.\d{3}e[-+]\d\d "
        with pytest.raises(SolverError, match=f"exceeded {REFERENCE_CAP} iterations {reached}"):
            build_instance("lse", 20, 0, mu=1e-5)

    def test_a_small_mu_lse_instance_builds(self):
        # its reference Newton factors a Hessian only after more than one jittered retry
        from contraprox.bench import build_instance

        obj = build_instance("lse", 6, 0, mu=1e-4)
        assert obj.metric.dual_norm(obj.smooth.grad(obj.xstar)) <= 1e-12

    def test_composite_quadratic_plus_power(self):
        obj = quadratic_instance(6, 1.5, 3)
        prox = PowerProx(1, np.zeros(6), obj.metric)
        comp = obj.with_simple(PowerRegularizer(0.2, prox))
        x, f = reference_optimum(comp)
        expect = np.linalg.solve(obj.smooth.matrix + 0.2 * np.eye(6), obj.smooth.rhs)
        np.testing.assert_allclose(x, expect, rtol=1e-10)


def test_descriptor_round_trip():
    obj = lse_instance(5, 0.5, 9, 1.0)
    blob = json.dumps(obj.descriptor, sort_keys=True)
    desc = json.loads(blob)
    rebuilt = lse_instance(desc["n"], desc["mu"], desc["seed"],
                           lipschitz_order2=desc["lipschitz_order2"])
    np.testing.assert_array_equal(rebuilt.smooth.data, obj.smooth.data)
    np.testing.assert_array_equal(rebuilt.smooth.shift, obj.smooth.shift)
