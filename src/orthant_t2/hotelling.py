"""T-squared and R-squared for an arbitrary multidimensional sample.

A sample is an n x d matrix X whose rows are the observations. With
nu = (1, ..., 1)^T and P the orthogonal projector onto the column span of X,

    n R^2 = nu^T P nu,      T^2 = R^2 / (1 - R^2)   (infinite iff R^2 = 1).

Both come from one thin SVD U diag(s) V^T of the column-equilibrated sample
X_e (each column scaled to max |entry| = 1, all-zero columns dropped), so no
entry over- or underflows and rescaling a column moves the answer only by
rounding. Singular values at or below max(n, d) * eps * s_max count as zero,
the rule of np.linalg.matrix_rank. Then n R^2 = |diag(s)^-1 V^T X_e^T nu|^2,
a length-rank vector computed from the column sums, and P = U U^T is formed
only where a caller needs it. The regularized definitions

    T2_eps = xbar (C + eps I)^-1 xbar^T,   R2_eps = xbar (S + eps I)^-1 xbar^T

with S = X^T X / n and C = S - xbar^T xbar converge monotonically to the same
quantities as eps decreases to 0 and satisfy T2 R2 = T2 - R2 for every eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# R^2 within this of 1 is reported as exactly 1 (and T^2 as infinity).
_R2_ONE_TOL = 1e-12


@dataclass(frozen=True)
class ProjectionSummary:
    rank: int
    r_squared: float
    t_squared: float  # math.inf when r_squared == 1
    nu_projection: float


def as_sample_matrix(X) -> np.ndarray:
    """Validate and coerce to an n x d float matrix (1-d input is one column)."""
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DomainError(f"sample must be a nonempty n x d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("sample entries must all be finite")
    return arr


def _thin_svd(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(U, s, V^T) of the column-equilibrated X cut to its rank, and X_e^T nu."""
    n, d = X.shape
    peak = np.max(np.abs(X), axis=0)
    nonzero = peak > 0.0
    Xe = X[:, nonzero] / peak[nonzero]
    U, s, Vt = np.linalg.svd(Xe, full_matrices=False)
    keep = s > max(n, d) * np.finfo(float).eps * s.max(initial=0.0)
    return U[:, keep], s[keep], Vt[keep], Xe.sum(axis=0)


def projector(X) -> tuple[np.ndarray, int]:
    """Orthogonal projector onto the column span of X, with its rank (n x n)."""
    U, s, _, _ = _thin_svd(as_sample_matrix(X))
    return U @ U.T, s.size


def r_squared(X) -> ProjectionSummary:
    """R^2, T^2 and the rank from the thin SVD, without forming P."""
    X = as_sample_matrix(X)
    n = X.shape[0]
    _, s, Vt, colsum = _thin_svd(X)
    coef = (Vt @ colsum) / s
    nu_proj = float(coef @ coef)
    r2 = min(nu_proj / n, 1.0)
    if r2 >= 1.0 - _R2_ONE_TOL:
        r2 = 1.0
        t2 = math.inf
    else:
        t2 = r2 / (1.0 - r2)
    return ProjectionSummary(rank=s.size, r_squared=r2, t_squared=t2, nu_projection=nu_proj)


def r_squared_signed(X, signs) -> float:
    """eps^T P eps / n for a fixed sign pattern eps in {-1, +1}^n.

    This is the quantity whose distribution over uniform signs matches n R^2
    under orthant symmetry.
    """
    X = as_sample_matrix(X)
    e = np.asarray(signs, dtype=float).ravel()
    n = X.shape[0]
    if e.shape[0] != n or not np.all(np.abs(e) == 1.0):
        raise DomainError("signs must be a length-n vector of +/-1")
    P, _ = projector(X)
    return float(e @ P @ e) / n


def regularized(X, eps: float) -> tuple[float, float]:
    """(T2_eps, R2_eps) from the ridge-regularized covariance and second-moment matrices."""
    X = as_sample_matrix(X)
    eps = float(eps)
    if not eps > 0.0:
        raise DomainError(f"regularization eps must be positive, got {eps!r}")
    n, d = X.shape
    xbar = X.mean(axis=0)
    S = X.T @ X / n
    C = S - np.outer(xbar, xbar)
    eye = np.eye(d)
    t2 = float(xbar @ np.linalg.solve(C + eps * eye, xbar))
    r2 = float(xbar @ np.linalg.solve(S + eps * eye, xbar))
    return t2, r2
