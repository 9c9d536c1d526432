"""Conservative inference for the sign-symmetry model.

Under the orthant symmetry condition, P(sqrt(n) R >= u) <= Q_d(u)
< (2e^3/9) P(chi_d >= u) for every sample, so both right-hand sides are valid
p-value bounds. On the critical-value side, with x_d(delta) the chi_d upper
quantile and c = 2e^3/9, the guaranteed critical value sits inside the chain

    x_d(delta) < x_d(delta/c) < z_delta = x_d(delta) + log(c) / (x_d(delta) - (d-1)/x_d(delta)),

valid whenever d >= 1 and delta <= 0.5 (which force x_d(delta) > sqrt(d-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import chi_kernel as ck
from . import hotelling
from .errors import DomainError
from .extremal_bounds import SHARP_CONSTANT, q_bound


@dataclass(frozen=True)
class TestReport:
    """p-value bounds for one sample; rank is attached by run_test."""

    d: float
    n: int
    statistic_u: float
    p_upper_Q: float
    p_upper_eaton: float
    chi_p: float
    rank: int | None = None
    r_squared: float | None = None
    t_squared: float | None = None


@dataclass(frozen=True)
class QuantileTriple:
    delta: float
    d: float
    x_delta: float
    x_delta_over_c: float
    z_delta: float


def p_value_bound(d: float, n: int, r2: float) -> TestReport:
    """Both conservative p-value bounds at u = sqrt(n * r2)."""
    d = float(d)
    if d <= 0.0:
        raise DomainError(f"dimension must be positive, got {d!r}")
    if n != int(n) or n < 1:
        raise DomainError(f"sample size must be a positive integer, got {n!r}")
    r2 = float(r2)
    if not 0.0 <= r2 <= 1.0:
        raise DomainError(f"r2 must lie in [0, 1], got {r2!r}")
    u = math.sqrt(n * r2)
    rep = q_bound(d, u)
    return TestReport(
        d=d,
        n=int(n),
        statistic_u=u,
        p_upper_Q=min(1.0, rep.q_value),
        p_upper_eaton=min(1.0, rep.eaton_bound),
        chi_p=rep.chi_tail,
    )


def critical_chain(d: float, delta: float) -> QuantileTriple:
    """Quantile chain x_delta < x_(delta/c) < z_delta for d >= 1 and delta <= 0.5."""
    d = float(d)
    if not d >= 1.0:
        raise DomainError(f"dimension must satisfy d >= 1, got {d!r}")
    delta = float(delta)
    if not 0.0 < delta <= 0.5:
        raise DomainError(f"level must satisfy 0 < delta <= 0.5, got {delta!r}")
    x = ck.quantile(d, delta)
    xc = ck.quantile(d, delta / SHARP_CONSTANT)
    denom = x - (d - 1.0) / x
    if not (x > math.sqrt(d - 1.0) and denom > 0.0):
        raise ArithmeticError(f"quantile x_delta = {x!r} did not clear sqrt(d-1) at d={d!r}")
    z = x + math.log(SHARP_CONSTANT) / denom
    if not x < xc < z:
        raise ArithmeticError(f"critical value chain violated: {x!r}, {xc!r}, {z!r}")
    return QuantileTriple(delta=delta, d=d, x_delta=x, x_delta_over_c=xc, z_delta=z)


def conservativeness_table(delta: float, dims: list[float]) -> list[QuantileTriple]:
    """One quantile triple per dimension, in the given order."""
    return [critical_chain(d, delta) for d in dims]


def run_test(X, dim: float | None = None) -> TestReport:
    """Full pipeline: thin SVD, R^2, then both p-value bounds.

    Bounds use the declared dimension (default: the number of columns); the
    numerically observed rank of the thin SVD is reported alongside so
    callers can flag disagreement.
    """
    X = hotelling.as_sample_matrix(X)
    n, d_cols = X.shape
    d = float(dim) if dim is not None else float(d_cols)
    summary = hotelling.r_squared(X)
    base = p_value_bound(d, n, summary.r_squared)
    return replace(base, rank=summary.rank, r_squared=summary.r_squared, t_squared=summary.t_squared)
