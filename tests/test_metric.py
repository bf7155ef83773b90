import math

import numpy as np
import pytest
import scipy.linalg

from contraprox.metric import Metric


def test_euclidean_norm_identity():
    m = Metric.identity(2)
    assert m.norm(np.array([3.0, 4.0])) == pytest.approx(5.0, abs=1e-14)


def test_norm_zero_vector():
    m = Metric(np.array([[4.0, 1.0], [1.0, 2.0]]))
    assert m.norm(np.zeros(2)) == 0.0


def test_diag_metric_norm():
    m = Metric(np.diag([4.0, 1.0]))
    assert m.norm(np.array([1.0, 1.0])) == pytest.approx(np.sqrt(5.0), rel=1e-14)


def test_dual_norm_self_dual_identity():
    m = Metric.identity(2)
    assert m.dual_norm(np.array([3.0, 4.0])) == pytest.approx(5.0, abs=1e-14)


def test_dual_norm_diag():
    m = Metric(np.diag([4.0, 1.0]))
    assert m.dual_norm(np.array([1.0, 0.0])) == pytest.approx(0.5, rel=1e-14)
    assert m.dual_norm(np.zeros(2)) == 0.0


def _random_spd(rng, n):
    G = rng.standard_normal((n, n))
    return G @ G.T + n * np.eye(n)


def test_cauchy_schwarz_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(2, 8)
        m = Metric(_random_spd(rng, n))
        s = rng.standard_normal(n) * 10
        x = rng.standard_normal(n) * 10
        assert abs(s.dot(x)) <= m.dual_norm(s) * m.norm(x) + 1e-10


def test_duality_consistency():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = rng.integers(1, 9)
        m = Metric(_random_spd(rng, n))
        x = rng.standard_normal(n)
        assert m.dual_norm(m.apply(x)) == pytest.approx(m.norm(x), rel=1e-12, abs=1e-12)


def test_norm_homogeneity_and_triangle():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = rng.integers(2, 7)
        m = Metric(_random_spd(rng, n))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        t = rng.uniform(-5, 5)
        assert m.norm(t * x) == pytest.approx(abs(t) * m.norm(x), rel=1e-12, abs=1e-13)
        assert m.norm(x + y) <= m.norm(x) + m.norm(y) + 1e-12
        assert m.dual_norm(x + y) <= m.dual_norm(x) + m.dual_norm(y) + 1e-12


def test_solve_inverts_apply():
    rng = np.random.default_rng(10)
    m = Metric(_random_spd(rng, 5))
    x = rng.standard_normal(5)
    np.testing.assert_allclose(m.solve(m.apply(x)), x, rtol=1e-10, atol=1e-12)


def test_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        Metric(np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_rejects_indefinite():
    with pytest.raises(ValueError, match="positive definite"):
        Metric(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_rejects_singular():
    with pytest.raises(ValueError, match="positive definite"):
        Metric(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_dimension_mismatch():
    m = Metric.identity(3)
    with pytest.raises(ValueError, match="dimension"):
        m.norm(np.ones(2))


def test_direct_lapack_paths_equal_the_scipy_expressions():
    # the solves call trtrs and the norms take sqrt(w.w) directly; neither may
    # move a bit against the scipy and numpy expressions they replace
    rng = np.random.default_rng(11)
    for n in range(1, 10):
        for _ in range(5):
            m = Metric(_random_spd(rng, n))
            L = m.chol()
            s = rng.standard_normal(n) * 10
            y = scipy.linalg.solve_triangular(L, s, lower=True)
            np.testing.assert_array_equal(m.dewhiten_dual(s), y)
            np.testing.assert_array_equal(m.solve(s),
                                          scipy.linalg.solve_triangular(L.T, y, lower=False))
            assert m.dual_norm(s) == float(np.linalg.norm(y))
            assert m.norm(s) == float(np.linalg.norm(L.T @ s))
            eye = Metric.identity(n)
            assert eye.norm(s) == eye.dual_norm(s) == float(np.linalg.norm(s))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vectors_are_rejected(bad):
    m = Metric(_random_spd(np.random.default_rng(12), 4))
    s = np.ones(4)
    s[2] = bad
    for op in (m.solve, m.dual_norm, m.dewhiten_dual):
        with pytest.raises(ValueError, match="infs or NaNs"):
            op(s)


@pytest.mark.parametrize("metric", [Metric.identity(3), Metric(np.diag([4.0, 1.0, 2.0]))],
                         ids=["identity", "B"])
def test_argument_check_converts_and_rejects_as_before(metric):
    # a float64 ndarray skips the conversion; anything else still goes through it
    want = metric.norm(np.array([1.0, 2.0, 3.0]))
    for x in ([1.0, 2.0, 3.0], [1, 2, 3], np.array([1, 2, 3]), np.array([1, 2, 3], np.float32)):
        assert metric.norm(x) == want
        assert metric.apply(x).dtype == metric.solve(x).dtype == np.float64
    for bad in (np.ones((3, 1)), np.ones(4), [1.0, 2.0]):
        for op in (metric.apply, metric.solve, metric.norm, metric.dual_norm):
            with pytest.raises(ValueError, match="dimension mismatch"):
                op(bad)
    if not metric.is_identity:
        with pytest.raises(ValueError, match="infs or NaNs"):
            metric.dual_norm(np.array([1.0, np.nan, 0.0]))


@pytest.mark.parametrize("n", [3, 50])
def test_dot_forms_are_bitwise_the_matmul_forms(n):
    rng = np.random.default_rng(13)
    m = Metric(_random_spd(rng, n))
    L = m.chol()
    for _ in range(100):
        x = rng.standard_normal(n)
        w = L.T @ x
        y = scipy.linalg.solve_triangular(L, x, lower=True)
        assert m.apply(x).tobytes() == (m.matrix @ x).tobytes()
        assert m.norm(x) == math.sqrt(w @ w)
        assert m.dual_norm(x) == math.sqrt(y @ y)
        assert m.solve(x).tobytes() == scipy.linalg.solve_triangular(L.T, y, lower=False).tobytes()
