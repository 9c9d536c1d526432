"""Checks of the program's answers against references computed apart from it.

Each ``check_*`` function returns a list of problems; an empty list means the
answer passed. References never reuse the program's code: R^2 and rank come
from numpy least squares and SVD on the column-equilibrated sample, chi tails
and quantiles from mpmath's regularized incomplete gamma, gamma3 from mpmath
quadrature, and sign distributions from brute-force enumeration.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np

from gen import PRINTED_TABLE, SHARP, mu_ref

#: Values below this are treated as underflowed zeros in orderings.
TINY = 1e-300
#: Below this Q a cubic point counts as "deep": there gamma3(t*) has fallen
#: under the program's 1e-300 underflow floor and its log-space twins run.
DEEP_Q = 1e-295
#: Largest |R^2 - reference| accepted; observed error at column ratio 1e4 is < 1e-9.
R2_TOL = 2e-8
#: Relative tolerance on chi tails against mpmath.
CHI_TOL = 1e-9
#: Relative tolerance on Lambda against an mpmath quadrature of W.
LAMBDA_TOL = 1e-6
#: Relative tolerance of P(chi_d >= x) = delta at a computed quantile.
QUANTILE_TOL = 1e-8

mpmath.mp.dps = 20


def chi_sf(r: float, u: float) -> mpmath.mpf:
    """P(chi_r >= u) by mpmath's regularized upper incomplete gamma."""
    if u <= 0.0:
        return mpmath.mpf(1)
    return mpmath.gammainc(mpmath.mpf(r) / 2, mpmath.mpf(u) ** 2 / 2, mpmath.inf, regularized=True)


def _close(got: float, want, rel: float, floor: float = TINY) -> bool:
    return abs(mpmath.mpf(got) - want) <= rel * abs(want) + floor


def _leq(a: float, b: float, rel: float = 1e-12) -> bool:
    return a <= b * (1.0 + rel) + TINY


# ---------------------------------------------------------------------------
# samples


def equilibrate(X: np.ndarray) -> np.ndarray:
    """Columns scaled to max |entry| = 1 (exact for any magnitude, no squares)."""
    peak = np.max(np.abs(X), axis=0)
    peak[peak == 0.0] = 1.0
    return X / peak


def reference_r2_rank(X: np.ndarray) -> tuple[float, int]:
    """R^2 by a least-squares fit of the all-ones vector (no Gram matrix) and the rank."""
    Xe = equilibrate(X)
    n = Xe.shape[0]
    beta, *_ = np.linalg.lstsq(Xe, np.ones(n), rcond=None)
    fit = Xe @ beta
    return float(fit @ fit) / n, int(np.linalg.matrix_rank(Xe))


def check_pvalues(d: float, u: float, chi_p: float, p_q: float, p_eaton: float) -> list[str]:
    problems = []
    want = chi_sf(d, u)
    if not _close(chi_p, want, CHI_TOL):
        problems.append(f"chi_p {chi_p!r} vs mpmath {mpmath.nstr(want, 12)}")
    if not (_leq(chi_p, p_q) and _leq(p_q, p_eaton)):
        problems.append(f"order chi_p <= p_Q <= p_eaton broken: {chi_p!r}, {p_q!r}, {p_eaton!r}")
    if not _close(p_eaton, min(mpmath.mpf(1), SHARP * want), 1e-9):
        problems.append(f"p_eaton {p_eaton!r} is not min(1, c chi_p)")
    return problems


def check_sample(X: np.ndarray, rep, r2_ref: float, rank_ref: int) -> list[str]:
    """A run_test report against lstsq R^2, SVD rank and mpmath chi tails."""
    n, d = X.shape
    problems = []
    if rep.n != n or rep.d != d:
        problems.append(f"shape ({rep.n}, {rep.d}) reported for {n}x{d}")
    if rep.rank != rank_ref:
        problems.append(f"rank {rep.rank} vs {rank_ref}")
    if not abs(rep.r_squared - r2_ref) <= R2_TOL:
        problems.append(f"R^2 {rep.r_squared!r} vs lstsq {r2_ref!r}")
    if not math.isclose(rep.statistic_u, math.sqrt(n * rep.r_squared), rel_tol=1e-12):
        problems.append(f"u {rep.statistic_u!r} is not sqrt(n R^2)")
    return problems + check_pvalues(d, rep.statistic_u, rep.chi_p, rep.p_upper_Q, rep.p_upper_eaton)


def check_rescaled(r2: float, r2_rescaled: float) -> list[str]:
    if abs(r2 - r2_rescaled) <= R2_TOL:
        return []
    return [f"R^2 changed under column rescaling: {r2!r} -> {r2_rescaled!r}"]


# ---------------------------------------------------------------------------
# bounds


def expected_region(r: float, u: float) -> str:
    if u <= math.sqrt(r):
        return "UNIT"
    return "QUADRATIC" if u < mu_ref(r) else "CUBIC"


def check_bound(r: float, u: float, rep, chi_ref=None) -> list[str]:
    """Region, branch value, orderings and the sharp-constant bounds of one BoundReport.

    chi_ref (mpmath P(chi_r >= u)) is optional, so callers can check the tail
    against mpmath on a subsample only.
    """
    problems = []
    region = expected_region(r, u)
    if rep.region != region:
        problems.append(f"region {rep.region} vs {region}")
    if region == "UNIT" and rep.q_value != 1.0:
        problems.append(f"UNIT Q {rep.q_value!r} != 1")
    if region == "QUADRATIC" and not math.isclose(rep.q_value, r / (u * u), rel_tol=1e-14):
        problems.append(f"QUADRATIC Q {rep.q_value!r} != r/u^2")
    if chi_ref is not None and not _close(rep.chi_tail, chi_ref, CHI_TOL):
        problems.append(f"chi tail {rep.chi_tail!r} vs mpmath {mpmath.nstr(chi_ref, 12)}")
    if not math.isclose(rep.eaton_bound, SHARP * rep.chi_tail, rel_tol=1e-15, abs_tol=TINY):
        problems.append(f"Eaton bound {rep.eaton_bound!r} != c P(chi >= u)")
    if not (_leq(rep.chi_tail, rep.q_value) and _leq(rep.q_value, rep.eaton_bound)):
        problems.append(f"order P <= Q <= cP broken: {rep.chi_tail!r}, {rep.q_value!r}, {rep.eaton_bound!r}")
    if not 1.0 - 1e-12 <= rep.lambda_ratio < SHARP:
        problems.append(f"Lambda {rep.lambda_ratio!r} outside [1, 2e^3/9)")
    if region == "CUBIC" and not (rep.lambda_envelope is not None and rep.lambda_ratio < rep.lambda_envelope):
        problems.append(f"Lambda {rep.lambda_ratio!r} not below envelope {rep.lambda_envelope!r}")
    return problems


def check_monotone(r: float, us: list[float], qs: list[float]) -> list[str]:
    """Q_r non-increasing in u along one degree (us sorted)."""
    for (ua, qa), (ub, qb) in zip(zip(us, qs), zip(us[1:], qs[1:])):
        if not _leq(qb, qa):
            return [f"Q_{r:g} increases from u={ua!r} ({qa!r}) to u={ub!r} ({qb!r})"]
    return []


def gamma3_quad(r: float, t: float) -> mpmath.mpf:
    """integral over s > t of (s-t)^3 s^(r-1) exp(-s^2/2), by mpmath quadrature (t >= 0).

    With s = t + a w and exp(-t^2/2) taken out, the integrand decays like
    exp(-w) whatever the shift, which keeps the quadrature accurate deep in the tail.
    """
    r, t = mpmath.mpf(r), mpmath.mpf(t)
    a = 1 / (t + mpmath.sqrt(r) + 1)
    f = lambda w: w**3 * (t + a * w) ** (r - 1) * mpmath.exp(-t * a * w - (a * w) ** 2 / 2)  # noqa: E731
    return a**4 * mpmath.exp(-t * t / 2) * mpmath.quad(f, [0, 1, 4, 16, 64, 256, mpmath.inf])


def w_quad(r: float, u: float, t: float) -> mpmath.mpf:
    """C_r gamma3(t) / (u - t)^3 with gamma3 by quadrature."""
    log_c = -((mpmath.mpf(r) / 2 - 1) * mpmath.log(2) + mpmath.loggamma(mpmath.mpf(r) / 2))
    return mpmath.exp(log_c) * gamma3_quad(r, t) / (mpmath.mpf(u) - t) ** 3


def check_minimizer(r: float, u: float, t_star: float, lambda_ratio: float) -> list[str]:
    """t* minimizes W(t) = C_r gamma3(t)/(u-t)^3, and Lambda = W(t*) / P(chi_r >= u)."""
    h = 1e-4 * max(1.0, u - t_star)
    problems = []
    w0 = w_quad(r, u, t_star)
    for t in (t_star - h, t_star + h):
        if t >= 0.0 and w_quad(r, u, t) < w0 * (1 - mpmath.mpf(1e-14)):
            problems.append(f"t*={t_star!r} does not minimize W at (r={r!r}, u={u!r}): W({t!r}) is smaller")
    want = w0 / chi_sf(r, u)
    if not _close(lambda_ratio, want, LAMBDA_TOL, 0.0):
        problems.append(f"Lambda {lambda_ratio!r} vs quadrature {mpmath.nstr(want, 12)}")
    return problems


# ---------------------------------------------------------------------------
# critical values


def check_chain(d: float, delta: float, trip) -> list[str]:
    """x < x_c < z, the quantiles against mpmath, z by its formula, and the printed rows."""
    x, xc, z = trip.x_delta, trip.x_delta_over_c, trip.z_delta
    problems = []
    if not x < xc < z:
        problems.append(f"chain out of order at d={d!r}, delta={delta!r}: {x!r}, {xc!r}, {z!r}")
    for q, level in ((x, delta), (xc, delta / SHARP)):
        if not _close(level, chi_sf(d, q), QUANTILE_TOL, 0.0):
            problems.append(f"P(chi_{d:g} >= {q!r}) = {mpmath.nstr(chi_sf(d, q), 12)}, wanted {level!r}")
    want_z = x + math.log(SHARP) / (x - (d - 1.0) / x)
    if not math.isclose(z, want_z, rel_tol=1e-12):
        problems.append(f"z {z!r} vs x + log(c)/(x - (d-1)/x) = {want_z!r}")
    return problems + check_printed_row(d, delta, (x, xc, z))


def check_printed_row(d: float, delta: float, row, tol: float = 0.01) -> list[str]:
    if delta != 0.05 or d not in PRINTED_TABLE:
        return []
    printed = PRINTED_TABLE[int(d)]
    if all(abs(a - b) <= tol + 1e-9 for a, b in zip(row, printed)):
        return []
    return [f"d={d:g} row {tuple(row)} vs printed {printed}"]


def quantile_ref(d: float, delta: float) -> float:
    """The chi_d upper quantile by bisection on the mpmath tail."""
    lo, hi = mpmath.mpf(0), mpmath.mpf(math.sqrt(d) + math.sqrt(-2.0 * math.log(delta)) + 2.0)
    for _ in range(60):
        mid = (lo + hi) / 2
        if chi_sf(d, mid) > delta:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


# ---------------------------------------------------------------------------
# sign enumerations


def _moments(dist) -> tuple[float, float]:
    """E X and E X^2 from the counts (numpy pairwise sums: millions of atoms)."""
    w = np.asarray(dist.counts, dtype=float) / float(dist.denom)
    s = np.asarray(dist.support, dtype=float)
    return float(w @ s), float(w @ (s * s))


def check_counts(n: int, dist) -> list[str]:
    total = int(np.asarray(dist.counts, dtype=np.int64).sum())
    if total != 2**n or dist.denom != 2**n:
        return [f"counts sum to {total} over denominator {dist.denom}, wanted 2^{n} = {2**n}"]
    return []


def _same_multiset(dist, values: np.ndarray, tol: float = 1e-9) -> list[str]:
    expanded = np.repeat(np.asarray(dist.support, dtype=float), np.asarray(dist.counts, dtype=np.int64))
    if expanded.shape != values.shape:
        return [f"{expanded.size} atoms with multiplicity, brute force has {values.size}"]
    gap = float(np.max(np.abs(np.sort(expanded) - np.sort(values))))
    return [] if gap <= tol else [f"distribution differs from brute force by {gap:.3e}"]


def check_linear(x: np.ndarray, dist) -> list[str]:
    """Counts sum to 2^n, E S^2 = |x|^2, and for n <= 10 the brute-force law."""
    n = x.shape[0]
    problems = check_counts(n, dist)
    mean, second = _moments(dist)
    if not (abs(mean) <= 1e-9 and math.isclose(second, float(x @ x), rel_tol=1e-9)):
        problems.append(f"E S = {mean!r}, E S^2 = {second!r}, wanted 0 and {float(x @ x)!r}")
    if n <= 10:
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        problems += _same_multiset(dist, signs @ x)
    return problems


def check_quadratic(P: np.ndarray, dist) -> list[str]:
    """Counts sum to 2^n, E eps'P eps = rank, and for n <= 10 the brute-force law."""
    n = P.shape[0]
    rank = int(np.linalg.matrix_rank(P))
    problems = check_counts(n, dist)
    mean, _ = _moments(dist)
    if abs(mean - rank) > 1e-9 * n:
        problems.append(f"E eps'P eps = {mean!r}, wanted rank {rank}")
    if n <= 10:
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        problems += _same_multiset(dist, np.einsum("ki,ij,kj->k", signs, P, signs))
    return problems


def check_suite(name: str, checks: list[dict]) -> list[str]:
    return [f"suite {name}: check {c['check']} failed ({c['detail']})" for c in checks if not c["passed"]]
