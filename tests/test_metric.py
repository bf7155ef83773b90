import math

import numpy as np
import pytest

from contraprox.metric import Metric


def test_euclidean_norm_identity():
    m = Metric.identity(2)
    assert m.norm(np.array([3.0, 4.0])) == pytest.approx(5.0, abs=1e-14)


def test_norm_zero_vector():
    m = Metric.identity(2)
    assert m.norm(np.zeros(2)) == 0.0


def test_dual_norm_self_dual_identity():
    m = Metric.identity(2)
    assert m.dual_norm(np.array([3.0, 4.0])) == pytest.approx(5.0, abs=1e-14)


def test_cauchy_schwarz_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(2, 8)
        m = Metric.identity(n)
        s = rng.standard_normal(n) * 10
        x = rng.standard_normal(n) * 10
        assert abs(s.dot(x)) <= m.dual_norm(s) * m.norm(x) + 1e-10


def test_duality_consistency():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = rng.integers(1, 9)
        m = Metric.identity(n)
        x = rng.standard_normal(n)
        assert m.dual_norm(m.apply(x)) == m.norm(x)


def test_norm_homogeneity_and_triangle():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = rng.integers(2, 7)
        m = Metric.identity(n)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        t = rng.uniform(-5, 5)
        assert m.norm(t * x) == pytest.approx(abs(t) * m.norm(x), rel=1e-12, abs=1e-13)
        assert m.norm(x + y) <= m.norm(x) + m.norm(y) + 1e-12
        assert m.dual_norm(x + y) <= m.dual_norm(x) + m.dual_norm(y) + 1e-12


def test_solve_inverts_apply():
    rng = np.random.default_rng(10)
    m = Metric.identity(5)
    x = rng.standard_normal(5)
    np.testing.assert_array_equal(m.solve(m.apply(x)), x)


def test_dimension_mismatch():
    m = Metric.identity(3)
    with pytest.raises(ValueError, match="dimension"):
        m.norm(np.ones(2))


@pytest.mark.parametrize("n", [0, -1, 2.0, True, np.eye(2)], ids=["0", "-1", "float", "bool",
                                                                  "matrix"])
def test_identity_refuses_what_is_not_a_dimension(n):
    with pytest.raises(ValueError, match="dimension must be an int >= 1"):
        Metric.identity(n)


def test_the_geometry_stores_no_matrix():
    # identity is the one constructor, and a metric keeps its dimension only
    m = Metric.identity(np.int64(200))
    assert vars(m) == {"dim": 200, "_shape": (200,)} and m.is_identity
    with pytest.raises(TypeError):
        Metric(np.eye(3))


def test_argument_check_converts_and_rejects_as_before():
    # a float64 ndarray skips the conversion; anything else still goes through it
    metric = Metric.identity(3)
    want = metric.norm(np.array([1.0, 2.0, 3.0]))
    for x in ([1.0, 2.0, 3.0], [1, 2, 3], np.array([1, 2, 3]), np.array([1, 2, 3], np.float32)):
        assert metric.norm(x) == want
        assert metric.apply(x).dtype == metric.solve(x).dtype == np.float64
    for bad in (np.ones((3, 1)), np.ones(4), [1.0, 2.0]):
        for op in (metric.apply, metric.solve, metric.norm, metric.dual_norm,
                   metric.dewhiten_dual):
            with pytest.raises(ValueError, match="dimension mismatch"):
                op(bad)


@pytest.mark.parametrize("n", [3, 50])
def test_dot_forms_are_bitwise_the_matmul_forms(n):
    # the norms take sqrt(x.x) with ndarray.dot, and the maps return the checked
    # vector itself, so none may move a bit against the expressions they replace
    rng = np.random.default_rng(13)
    m = Metric.identity(n)
    for _ in range(100):
        x = rng.standard_normal(n)
        assert m.norm(x) == m.dual_norm(x) == math.sqrt(x @ x) == float(np.linalg.norm(x))
        for op in (m.apply, m.solve, m.dewhiten_dual):
            assert op(x) is x
