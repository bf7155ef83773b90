"""Primal/dual geometry induced by a symmetric positive-definite operator.

Every solver here measures primal vectors with ||x|| = <Bx, x>^(1/2) and
gradients (dual vectors) with ||s||_* = <s, B^{-1}s>^(1/2).  The operator is
factorized once at construction; B^{-1} is never formed explicitly, because
dual-norm evaluations dominate the inner stopping tests.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def pairing(s, x):
    """Value <s, x> of a dual vector at a primal point (plain dot product)."""
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    if s.shape != x.shape:
        raise ValueError(f"dimension mismatch: {s.shape} vs {x.shape}")
    return float(np.dot(s, x))


class Metric:
    """Symmetric positive-definite operator B with a cached Cholesky factor.

    Immutable after construction; safe to share read-only across solver runs.
    Positive definiteness is verified by attempting the factorization, so a
    bad operator fails here rather than in the middle of a run.
    """

    def __init__(self, matrix):
        B = np.asarray(matrix, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError(f"metric operator must be square, got shape {B.shape}")
        if B.shape[0] < 1:
            raise ValueError("metric operator must be at least 1x1")
        if not np.all(np.isfinite(B)):
            raise ValueError("metric operator has non-finite entries")
        scale = max(float(np.abs(B).max()), 1.0)
        if float(np.abs(B - B.T).max()) > 1e-12 * scale:
            raise ValueError("metric operator is not symmetric (relative tol 1e-12)")
        B = 0.5 * (B + B.T)
        try:
            L = np.linalg.cholesky(B)
        except np.linalg.LinAlgError as exc:
            raise ValueError("metric operator is not positive definite") from exc
        self.matrix = B
        self.dim = B.shape[0]
        self._L = L
        self._identity = bool(np.array_equal(B, np.eye(self.dim)))

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    @property
    def is_identity(self):
        return self._identity

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"dimension mismatch: expected ({self.dim},), got {x.shape}")
        return x

    def apply(self, x):
        """B x (maps a primal vector to a dual one)."""
        x = self._check(x)
        if self._identity:
            return x
        return self.matrix @ x

    def solve(self, s):
        """B^{-1} s via the cached factorization."""
        s = self._check(s)
        if self._identity:
            return s
        y = scipy.linalg.solve_triangular(self._L, s, lower=True)
        return scipy.linalg.solve_triangular(self._L.T, y, lower=False)

    def norm(self, x):
        """Primal norm <Bx, x>^(1/2)."""
        x = self._check(x)
        if self._identity:
            return float(np.linalg.norm(x))
        return float(np.linalg.norm(self._L.T @ x))

    def dual_norm(self, s):
        """Dual norm <s, B^{-1}s>^(1/2), the exact supremum of <s,h> over ||h|| <= 1."""
        s = self._check(s)
        if self._identity:
            return float(np.linalg.norm(s))
        return float(np.linalg.norm(scipy.linalg.solve_triangular(self._L, s, lower=True)))

    def dewhiten_dual(self, s):
        """L^{-1} s: isometry from the dual space to plain Euclidean coordinates."""
        s = self._check(s)
        if self._identity:
            return s
        return scipy.linalg.solve_triangular(self._L, s, lower=True)

    def chol(self):
        """Lower Cholesky factor of B (read-only use)."""
        return self._L
