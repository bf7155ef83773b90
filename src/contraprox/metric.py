"""Primal/dual geometry induced by a symmetric positive-definite operator.

Every solver here measures primal vectors with ||x|| = <Bx, x>^(1/2) and
gradients (dual vectors) with ||s||_* = <s, B^{-1}s>^(1/2).  The operator is
factorized once at construction; B^{-1} is never formed explicitly, because
dual-norm evaluations dominate the inner stopping tests.  :func:`cholesky_solve`
is both Newton loops' Hessian solve, and the one retry of a failed factorization.

Triangular solves call LAPACK ``trtrs`` directly: on n <= 200 vectors scipy's
wrapper costs more than the solve.  Argument checks stay; L is checked once.
Products call ``ndarray.dot``, which rounds as ``@`` does at about 1 us less per
vector call under numpy 2.4; the check converts only what is not a float64
ndarray; and the norm multiplies by L's transposed view, since a C-ordered copy
of L^T would take another gemv kernel and change the rounding of B-metric traces.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

_FLOAT = np.dtype(float)
_potrf, _potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))


def cholesky_solve(H, g, refill=None):
    """H^{-1} g as ``cho_solve(cho_factor(H), g)`` computes it, by potrf/potrs directly.

    Reads H's upper triangle.  A C-ordered H is copied, not changed; an F-ordered
    one is factored in place, so ``refill()`` writes it afresh and returns it.  A
    failed factorization is retried on H + jitter*I, jitter = 1e-12 (1 + |tr H|/n)
    and then ten times the last, up to 8 factorizations before ``LinAlgError``."""
    H = np.asarray_chkfinite(H)
    refill = refill or (H if H.flags.c_contiguous else H.copy()).copy
    for k in range(8):
        c, info = _potrf(H, lower=False, clean=False, overwrite_a=not H.flags.c_contiguous)
        if info <= 0:
            break
        H = refill()
        jitter = 10.0 * jitter if k else 1e-12 * (1.0 + abs(float(np.trace(H))) / len(H))
        H[np.diag_indices_from(H)] += jitter
    else:
        raise scipy.linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
    if info == 0:
        x, info = _potrs(np.asarray_chkfinite(c), np.asarray_chkfinite(g), lower=False)
    if info:
        raise ValueError(f"LAPACK reported an illegal value in argument {-info}")
    return x


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
        self._shape = (self.dim,)
        self._L = L
        self._trtrs, = scipy.linalg.get_lapack_funcs(("trtrs",), (L,))
        self._identity = bool(np.array_equal(B, np.eye(self.dim)))

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    @property
    def is_identity(self):
        return self._identity

    def _check(self, x):
        if type(x) is not np.ndarray or x.dtype is not _FLOAT:
            x = np.asarray(x, dtype=float)
        if x.shape != self._shape:
            raise ValueError(f"dimension mismatch: expected ({self.dim},), got {x.shape}")
        return x

    def _trisolve(self, v, trans):
        """L^{-1} v (trans=1) or L^{-T} v (trans=0), as trtrs on the F-ordered L^T."""
        w, info = self._trtrs(self._L.T, np.asarray_chkfinite(v), lower=False, trans=trans)
        if info:
            raise scipy.linalg.LinAlgError(f"trtrs failed with info {info}")
        return w

    def apply(self, x):
        """B x (maps a primal vector to a dual one)."""
        x = self._check(x)
        if self._identity:
            return x
        return self.matrix.dot(x)

    def solve(self, s):
        """B^{-1} s via the cached factorization."""
        s = self._check(s)
        if self._identity:
            return s
        return self._trisolve(self._trisolve(s, 1), 0)

    def norm(self, x):
        """Primal norm <Bx, x>^(1/2)."""
        x = self._check(x)
        w = x if self._identity else self._L.T.dot(x)
        return math.sqrt(w.dot(w))

    def dual_norm(self, s):
        """Dual norm <s, B^{-1}s>^(1/2), the exact supremum of <s,h> over ||h|| <= 1."""
        s = self._check(s)
        w = s if self._identity else self._trisolve(s, 1)
        return math.sqrt(w.dot(w))

    def dewhiten_dual(self, s):
        """L^{-1} s: isometry from the dual space to plain Euclidean coordinates."""
        s = self._check(s)
        if self._identity:
            return s
        return self._trisolve(s, 1)

    def chol(self):
        """Lower Cholesky factor of B (read-only use)."""
        return self._L
