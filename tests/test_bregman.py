import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contraprox.bregman import PowerProx, ProxFunction, power_coefficients, power_hessian
from contraprox.metric import Metric


def _uniform_floor(d, x, y):
    """sigma/(p+1) * ||x - y||^{p+1}, the certified floor under the divergence."""
    r = d.metric.norm(np.asarray(x, float) - np.asarray(y, float))
    return d.uniform_constant / (d.order + 1) * r ** (d.order + 1)


def test_power_value_order1():
    d = PowerProx(1, np.zeros(2), Metric.identity(2))
    assert d.value(np.array([3.0, 4.0])) == pytest.approx(12.5, abs=1e-14)


def test_power_value_order2():
    d = PowerProx(2, np.zeros(2), Metric.identity(2))
    assert d.value(np.array([1.0, 0.0])) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_value_zero_at_center():
    d = PowerProx(3, np.array([1.0, -2.0]), Metric.identity(2))
    assert d.value(np.array([1.0, -2.0])) == 0.0


def test_gradient_order1_is_metric_apply():
    d = PowerProx(1, np.zeros(2), Metric.identity(2))
    np.testing.assert_allclose(d.gradient(np.array([2.0, 1.0])), [2.0, 1.0])


def test_gradient_order2_unit_vector():
    d = PowerProx(2, np.zeros(2), Metric.identity(2))
    np.testing.assert_allclose(d.gradient(np.array([1.0, 0.0])), [1.0, 0.0])


def test_gradient_at_center_no_zero_power():
    # order 1 short-circuits; higher orders vanish smoothly
    for p in (1, 2, 3):
        d = PowerProx(p, np.ones(3), Metric.identity(3))
        np.testing.assert_allclose(d.gradient(np.ones(3)), np.zeros(3))


def _central_difference(fn, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for p in (1, 2):
        for _ in range(5):
            n = rng.integers(2, 6)
            G = rng.standard_normal((n, n))
            metric = Metric(G @ G.T + n * np.eye(n))
            d = PowerProx(p, rng.standard_normal(n), metric)
            x = rng.standard_normal(n) + 0.5
            fd = _central_difference(d.value, x)
            np.testing.assert_allclose(d.gradient(x), fd, rtol=1e-6, atol=1e-8)


def test_power_hessian_is_the_jacobian_of_the_gradient():
    # power_coefficients is the one formula for the Hessian the Newton step assembles
    rng = np.random.default_rng(4)
    for p in (1, 2, 3):
        for _ in range(5):
            n = rng.integers(2, 6)
            G = rng.standard_normal((n, n))
            metric = Metric(G @ G.T + n * np.eye(n))
            d = PowerProx(p, rng.standard_normal(n), metric)
            x = rng.standard_normal(n) + 0.5
            fd = np.array([_central_difference(lambda z: d.gradient(z)[i], x)
                           for i in range(n)])
            np.testing.assert_allclose(power_hessian(metric, x - d.center, p), fd,
                                       rtol=1e-6, atol=1e-8)


def test_power_coefficients_at_the_center():
    assert power_coefficients(0.0, 1) == (1.0, 0.0)
    assert power_coefficients(0.0, 2) == (0.0, 0.0)
    assert power_coefficients(2.0, 2) == (2.0, 0.5)


def test_divergence_zero_iff_equal():
    rng = np.random.default_rng(4)
    d = PowerProx(2, np.zeros(3), Metric.identity(3))
    x = rng.standard_normal(3)
    assert d.divergence(x, x) == 0.0
    y = x + 0.1
    assert d.divergence(x, y) > 1e-12


def test_divergence_order1_is_half_squared_distance():
    d = PowerProx(1, np.zeros(2), Metric.identity(2))
    val = d.divergence(np.zeros(2), np.array([3.0, 4.0]))
    assert val == pytest.approx(12.5, rel=1e-14)


def test_divergence_order2_hand_value():
    d = PowerProx(2, np.zeros(2), Metric.identity(2))
    # d(y)-d(x)-<grad d(x), y-x> = 1/3 - 1/3 - (-1) = 1
    val = d.divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert val == pytest.approx(1.0, rel=1e-14)


def test_uniform_lower_bound_hand_value():
    d = PowerProx(2, np.zeros(2), Metric.identity(2))
    x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    bound = _uniform_floor(d, x, y)
    assert bound == pytest.approx((1.0 / 6.0) * np.sqrt(2.0) ** 3, rel=1e-12)
    assert d.divergence(x, y) >= bound


def test_uniform_bound_equality_order1():
    rng = np.random.default_rng(5)
    d = PowerProx(1, np.zeros(4), Metric.identity(4))
    for _ in range(10):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert d.divergence(x, y) == pytest.approx(_uniform_floor(d, x, y), rel=1e-12)


def test_uniform_bound_random_pairs():
    rng = np.random.default_rng(6)
    for p in (1, 2, 3):
        for _ in range(20):
            n = rng.integers(2, 6)
            G = rng.standard_normal((n, n))
            metric = Metric(G @ G.T + n * np.eye(n))
            d = PowerProx(p, rng.standard_normal(n), metric)
            x, y = rng.standard_normal(n) * 2, rng.standard_normal(n) * 2
            assert d.divergence(x, y) >= _uniform_floor(d, x, y) - 1e-12


class _FunctionProx(ProxFunction):
    """A distance generator on R^n given by its value and gradient functions."""

    def __init__(self, value_fn, gradient_fn, n):
        self.value = value_fn
        self.gradient = gradient_fn
        self.center = np.zeros(n)


def test_additivity_of_divergences():
    # nonnegative combination of a power prox and a quadratic
    rng = np.random.default_rng(7)
    metric = Metric.identity(3)
    d1 = PowerProx(2, np.zeros(3), metric)
    d2 = PowerProx(1, np.ones(3), metric)
    a1, a2 = 0.7, 2.5
    combo = _FunctionProx(
        lambda x: a1 * d1.value(x) + a2 * d2.value(x),
        lambda x: a1 * d1.gradient(x) + a2 * d2.gradient(x), 3)
    for _ in range(10):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        expect = a1 * d1.divergence(x, y) + a2 * d2.divergence(x, y)
        assert combo.divergence(x, y) == pytest.approx(expect, rel=1e-10, abs=1e-12)


def test_linear_functions_have_zero_divergence():
    rng = np.random.default_rng(8)
    g = rng.standard_normal(4)
    # a linear function is convex but not strictly convex: its divergence is 0
    linear = _FunctionProx(lambda x: 3.0 + float(g @ x), lambda x: g, 4)
    for _ in range(5):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert linear.divergence(x, y) == pytest.approx(0.0, abs=1e-12)


def test_power_constant_is_two_to_one_minus_p():
    for p in (1, 2, 3, 4):
        d = PowerProx(p, np.zeros(2), Metric.identity(2))
        assert d.uniform_constant == pytest.approx(2.0 ** (1 - p))


def test_rejects_bad_order():
    with pytest.raises(ValueError):
        PowerProx(0, np.zeros(2), Metric.identity(2))


def test_divergence_refuses_a_point_of_another_dimension():
    d = PowerProx(2, np.zeros(3), Metric.identity(3))
    # a (1,) point broadcasts against a (3,) one, so only a shape check catches it
    for x, y in ((np.ones(3), np.ones(2)), (np.ones(2), np.ones(3)), (np.ones(3), np.ones(4)),
                 (np.ones(3), np.ones(1)), (np.ones(1), np.ones(3)), (np.ones((1, 3)), np.ones(3))):
        with pytest.raises(ValueError, match="shape"):
            d.divergence(x, y)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), order=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       spread=st.floats(1e-3, 1e2))
def test_divergence_is_nonnegative_and_obeys_the_three_point_identity(n, order, seed, spread):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    metric = Metric(G @ G.T + 0.1 * np.eye(n))
    d = PowerProx(order, rng.standard_normal(n), metric)
    points = [d.center + spread * rng.standard_normal(n) for _ in range(3)]
    grads = [d.gradient(p) for p in points]
    scale = sum(abs(d.value(p)) + np.abs(g).sum() * spread * n for p, g in zip(points, grads)) + 1.0
    for i, j in ((0, 1), (1, 2), (0, 2), (2, 0)):
        # convexity, before the clip of tiny negative round-off to 0
        raw = d.value(points[j]) - d.value(points[i]) - float(grads[i] @ (points[j] - points[i]))
        assert raw >= -1e-12 * scale
        assert d.divergence(points[i], points[j]) >= 0.0
    # beta(x; z) = beta(x; y) + beta(y; z) + <grad d(y) - grad d(x), z - y>
    (x, y, z), (gx, gy, _) = points, grads
    rhs = d.divergence(x, y) + d.divergence(y, z) + float((gy - gx) @ (z - y))
    assert d.divergence(x, z) == pytest.approx(rhs, rel=0, abs=1e-12 * scale)
