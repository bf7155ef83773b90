"""Euclidean geometry of R^n, and the Cholesky solve of the Newton loops.

Every solver here measures primal vectors with ||x|| = <x, x>^(1/2) and
gradients (dual vectors) with ||s||_* = <s, s>^(1/2).  An instance whose norm
the paper takes from an operator B = LL^T is whitened once when it is built
(z = L^T x is an isometry, see ``objectives.lse_instance``), so B = I here:
``apply``, ``solve`` and ``dewhiten_dual`` return the checked vector itself.
:func:`cholesky_solve` is both Newton loops' Hessian solve, and the one retry of
a failed factorization.

Norms call ``ndarray.dot``, which rounds as ``@`` does at about 1 us less per
vector call under numpy 2.4, and the check converts only what is not a float64
ndarray.
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
    """The Euclidean geometry of R^dim, made by :meth:`identity`; stores no matrix.

    Each operation checks that its argument is a vector of the dimension.
    ``is_identity`` is always true: it names the geometry, B = I.
    """

    is_identity = True

    @classmethod
    def identity(cls, n):
        """The geometry of R^n, n >= 1."""
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"the dimension must be an int >= 1, not {n!r}")
        metric = cls.__new__(cls)
        metric.dim, metric._shape = int(n), (int(n),)
        return metric

    def _check(self, x):
        """x as a float64 vector of the dimension; ``ValueError`` if it is not one."""
        if type(x) is not np.ndarray or x.dtype is not _FLOAT:
            x = np.asarray(x, dtype=float)
        if x.shape != self._shape:
            raise ValueError(f"dimension mismatch: expected ({self.dim},), got {x.shape}")
        return x

    # B x (primal to dual), B^{-1} s (dual to primal) and L^{-1} s (dual to plain
    # Euclidean coordinates) are each the checked vector itself
    apply = solve = dewhiten_dual = _check

    def norm(self, x):
        """<x, x>^(1/2), the primal norm; as ``dual_norm`` the exact supremum of <x, h>
        over ||h|| <= 1."""
        x = self._check(x)
        return math.sqrt(x.dot(x))

    dual_norm = norm
