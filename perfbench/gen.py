"""Seeded inputs for the four benchmark workloads.

Every function here is a pure function of its arguments: the same seed and
round index give bit-identical inputs, and the program under test only ever
sees what these functions return. The fault slices (``fault_samples``,
``fault_bound_points``) do not depend on the seed at all, so they fail the
same way in every run until the program is mended.
"""

from __future__ import annotations

import math

import numpy as np

#: 2 e^3 / 9, the sharp constant of the paper, computed here independently.
SHARP = 2.0 * math.exp(3.0) / 9.0

#: The delta = 0.05 critical-value table as printed in the paper:
#: d -> (x_delta, x_delta_over_c, z_delta).
PRINTED_TABLE = {
    1: (1.96, 2.54, 2.72),
    2: (2.45, 3.00, 3.18),
    5: (3.33, 3.85, 4.03),
    10: (4.28, 4.78, 4.97),
    20: (5.61, 6.10, 6.28),
    50: (8.22, 8.69, 8.88),
}

# Independent random streams, one per workload.
_SAMPLE, _GRID, _ORACLE, _CLI = 1, 2, 3, 4
_FAULT_SEED = 20070101


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *(int(s) for s in stream)])


def mu_ref(r: float) -> float:
    """E chi_r^3 / E chi_r^2, where the cubic branch of Q_r starts."""
    m1 = math.sqrt(2.0) * math.exp(math.lgamma(0.5 * (r + 1.0)) - math.lgamma(0.5 * r))
    return (r + 1.0) * m1 / r


def underflow_shift(r: float) -> float:
    """The t at which gamma3_r(t) ~ 6 t^(r-5) exp(-t^2/2) falls to 1e-300.

    Past it the program switches to its log-space twins ("deep" cubic points).
    """
    t = 10.0
    for _ in range(60):
        t = math.sqrt(max(2.0 * ((r - 5.0) * math.log(t) + math.log(6.0) + 300.0 * math.log(10.0)), 1.0))
    return t


def cubic_u_range(r: float) -> tuple[float, float]:
    """u range of plain cubic points: from mu_r to well before the underflow switch.

    The margin grows with r because the switch happens earlier than
    ``underflow_shift`` at large r (cancellation in the binomial form of
    gamma3); a thin band around the switch raises ZeroDivisionError (fault F3).
    """
    return mu_ref(r), underflow_shift(r) - 0.06 * r - 4.0


def deep_u_range(r: float) -> tuple[float, float]:
    t = underflow_shift(r)
    return t + 4.0, t + 24.0


# ---------------------------------------------------------------------------
# sample_pipeline


def _stratified_ints(lo: float, hi: float, k: int) -> list[int]:
    return [int(round(v)) for v in np.geomspace(lo, hi, k)]


def sample_plan() -> list[tuple[int, int, str]]:
    """The fixed shapes of one round: (n, d, kind), kind in null/shift/deep/wide.

    Tall samples take n from 200 to 8000 with d from 2 to 50, most of them
    small; wide ones have d >= n, so they are rank-deficient with R^2 = 1.
    Shapes are fixed so that every round costs the same; only the values
    come from the seed. Wide samples keep d >= n + 2: square ones are often
    ill-conditioned enough that the program loses a column (fault F1), which
    would make failures depend on the seed; the fault slice holds one instead.
    """
    plan = []
    small_d = [2, 3, 5, 8, 10, 15, 20, 30, 50, 4]
    for i, n in enumerate(_stratified_ints(200, 990, 30)):
        plan.append((n, small_d[i % len(small_d)], "shift" if i % 3 == 2 else "null"))
    medium = zip(_stratified_ints(1000, 2900, 10), [5, 20, 2, 50, 10, 30, 3, 15, 8, 2])
    for i, (n, d) in enumerate(medium):
        plan.append((n, d, "deep" if i == 9 else ("shift" if i in (3, 6) else "null")))
    plan += [(3000, 20, "null"), (5000, 5, "deep"), (8000, 20, "shift")]
    for j, n in enumerate(_stratified_ints(20, 400, 12)):
        plan.append((n, n + 2 + (n * j) // 11, "wide"))
    return plan


def _scales(rng: np.random.Generator, d: int) -> np.ndarray:
    """Column scales spread over four decades (ratio up to 1e4)."""
    return 10.0 ** rng.uniform(-2.0, 2.0, d)


def _noise(rng: np.random.Generator, n: int, d: int, family: int) -> np.ndarray:
    if family == 0:
        return rng.standard_normal((n, d))
    if family == 1:
        return rng.standard_t(3.0, (n, d))
    if family == 2:
        return rng.uniform(-1.0, 1.0, (n, d))
    return rng.laplace(0.0, 1.0, (n, d))


def _shifted(rng: np.random.Generator, n: int, d: int, u_target: float) -> np.ndarray:
    # For rows N(m, I), n R^2 ~ n |m|^2 / (1 + |m|^2); pick |m| so sqrt(n R^2) ~ u_target.
    r2 = min(u_target * u_target / n, 0.95)
    direction = rng.standard_normal(d)
    m = direction / np.linalg.norm(direction) * math.sqrt(r2 / (1.0 - r2))
    return rng.standard_normal((n, d)) + m


def make_sample(seed: int, round_idx: int, index: int, n: int, d: int, kind: str) -> np.ndarray:
    rng = rng_for(seed, _SAMPLE, round_idx, index)
    if kind == "wide":
        X = rng.standard_normal((n, d))
    elif kind == "null":
        # sign-symmetric: rows of any law (mean and mixing included) times random signs
        Z = _noise(rng, n, d, index % 4) + 0.5 * rng.standard_normal(d)
        Z = Z @ (np.eye(d) + 0.3 * rng.standard_normal((d, d)) / math.sqrt(d))
        X = Z * rng.choice([-1.0, 1.0], size=(n, 1))
    elif kind == "shift":
        lo, hi = mu_ref(d) + 1.0, min(cubic_u_range(d)[1] - 6.0, 0.9 * math.sqrt(n))
        X = _shifted(rng, n, d, float(rng.uniform(lo, max(lo, hi))))
    elif kind == "deep":
        lo, hi = deep_u_range(d)
        X = _shifted(rng, n, d, float(rng.uniform(lo + 2.0, min(hi, 0.9 * math.sqrt(n)))))
    else:
        raise ValueError(f"unknown sample kind {kind!r}")
    return X * _scales(rng, d)


def fault_samples() -> list[tuple[str, str, np.ndarray]]:
    """(fault, label, X) samples the program gets wrong today, independent of the seed.

    F1: rank is cut on the Gram matrix, so a column scaled 1e-7 against the
    others is dropped without an error, as is one column of an
    ill-conditioned square sample with column ratio below 1e4; a whole sample
    scaled by 1e+-200 gives rank 0 and R^2 = 0, and entries near 1e200 make
    eigh raise.
    F2: d = 300 samples on the cubic branch overflow in tail_q.
    """
    rng = rng_for(_FAULT_SEED, _SAMPLE)
    Z = rng.standard_normal((500, 4))
    Z[:, 3] += 1.5
    tiny_col = Z * np.array([1.0, 1.0, 1.0, 1e-7])
    X3 = np.array([[1.0, 2.0], [3.0, -1.0], [5.0, 1.0]])
    huge = rng.standard_normal((50, 3)) * 1e200
    out = [
        ("F1", "500x4 column ratio 1e7", tiny_col),
        ("F1", "3x2 times 1e200", X3 * 1e200),
        ("F1", "3x2 times 1e-200", X3 * 1e-200),
        ("F1", "50x3 entries near 1e200", huge),
        ("F1", "20x20 square, column ratio below 1e4", make_sample(_FAULT_SEED, 0, 1266, 20, 20, "wide")),
    ]
    for n, offset in ((600, 3.0), (900, 6.0)):
        out.append(("F2", f"{n}x300 shifted mean", _shifted(rng, n, 300, mu_ref(300.0) + offset)))
    return out


# ---------------------------------------------------------------------------
# bound_grid

GRID_DEGREES = 24
CHAIN_POINTS = 24


def bound_points(seed: int) -> list[tuple[float, float]]:
    """(r, u) points of the grid, sorted by u within each r.

    One non-integer r per log-bin of [0.5, 250]; per r two UNIT, two
    QUADRATIC, six plain CUBIC and two deep CUBIC points.
    """
    rng = rng_for(seed, _GRID)
    edges = np.log(np.geomspace(0.5, 250.0, GRID_DEGREES + 1))
    points = []
    for r in np.exp(rng.uniform(edges[:-1], edges[1:])):
        r = float(r)
        sr, m = math.sqrt(r), mu_ref(r)
        us = [
            *rng.uniform(0.0, sr, 2),
            *rng.uniform(sr, m, 2),
            *rng.uniform(*cubic_u_range(r), 6),
            *rng.uniform(*deep_u_range(r), 2),
        ]
        points += [(r, float(u)) for u in sorted(us)]
    return points


def chain_points(seed: int) -> list[tuple[float, float]]:
    """(d, delta) points: d log-stratified on [1, 5000], delta on [1e-12, 0.5],
    plus the printed table's delta = 0.05 rows."""
    rng = rng_for(seed, _GRID, 1)
    d_edges = np.log(np.geomspace(1.0, 5000.0, CHAIN_POINTS + 1))
    l_edges = np.log(np.geomspace(1e-12, 0.5, CHAIN_POINTS + 1))
    ds = np.exp(rng.uniform(d_edges[:-1], d_edges[1:]))
    deltas = np.exp(rng.permutation(rng.uniform(l_edges[:-1], l_edges[1:])))
    pts = [(float(d), float(delta)) for d, delta in zip(ds, deltas)]
    return pts + [(float(d), 0.05) for d in PRINTED_TABLE]


def fault_bound_points() -> list[tuple[str, float, float]]:
    """(fault, r, u) cubic points that raise today, independent of the seed.

    F2: tail_q overflows for r >= 300 (brentq sign error at r = 299).
    F3: at the underflow switch of gamma3, the binomial form leaves a
    nonzero gamma3 with a zero gamma3', and mu_of_t divides by zero.
    """
    return [
        ("F2", 299.0, mu_ref(299.0) + 1.0),
        ("F2", 300.0, mu_ref(300.0) + 2.0),
        ("F2", 400.0, mu_ref(400.0) + 5.0),
        ("F2", 1000.0, mu_ref(1000.0) + 10.0),
        ("F3", 80.0, 42.0),
    ]


# ---------------------------------------------------------------------------
# oracle_verify

LARGE_LINEAR_N = (22, 23)
LARGE_QUADRATIC_N = (19, 20)
#: Sizes of the small enumerations of one round (n <= 10, checked by brute force).
SMALL_LINEAR_N = (4, 5, 6, 7, 8, 8, 9, 9, 10, 10)
SMALL_QUADRATIC_N = (3, 4, 5, 6, 7, 8, 8, 9, 10, 10)


def unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def projector(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    p = q @ q.T
    return 0.5 * (p + p.T)


def oracle_targets(seed: int, round_idx: int) -> dict:
    """Targets of one round: large and small linear vectors and projectors.

    Sizes and ranks are fixed, so every round does the same work; the seed
    gives the values. One small vector has equal coefficients, whose sums tie
    heavily and so exercise the atom merge.
    """
    rng = rng_for(seed, _ORACLE, round_idx)
    small_lin = [unit_vector(rng, n) for n in SMALL_LINEAR_N[:-1]]
    small_lin.append(np.full(SMALL_LINEAR_N[-1], 1.0 / math.sqrt(SMALL_LINEAR_N[-1])))
    return {
        "large_linear": [unit_vector(rng, n) for n in LARGE_LINEAR_N],
        "large_quadratic": [projector(rng, n, n // 3) for n in LARGE_QUADRATIC_N],
        "small_linear": small_lin,
        "small_quadratic": [projector(rng, n, 1 + i % n) for i, n in enumerate(SMALL_QUADRATIC_N)],
    }


# ---------------------------------------------------------------------------
# cli_cold


def cli_samples(seed: int) -> dict[str, np.ndarray]:
    """The two CSV samples of cli_cold: a ~200x5 null and a ~5000x20 shifted one."""
    return {
        "small": make_sample(seed, 0, 0, 200, 5, "null"),
        "big": make_sample(seed, 0, 1, 5000, 20, "shift"),
    }


def cli_args(seed: int, round_idx: int) -> dict:
    """Arguments of one round's critval, qbound and table commands."""
    rng = rng_for(seed, _CLI, round_idx)
    r_text = float(rng.uniform(1.0, 40.0))
    r_json = float(rng.uniform(0.5, 200.0))
    lo, hi = cubic_u_range(r_json)
    return {
        "critval_text": (float(np.exp(rng.uniform(0.0, math.log(5000.0)))), float(np.exp(rng.uniform(math.log(1e-12), math.log(0.5))))),
        "critval_json": (float(rng.uniform(1.0, 100.0)), float(np.exp(rng.uniform(math.log(1e-6), math.log(0.5))))),
        "qbound_text": (r_text, float(rng.uniform(*cubic_u_range(r_text)))),
        "qbound_json": (r_json, float(rng.uniform(0.0, hi))),
        "table_json": (float(np.exp(rng.uniform(math.log(1e-9), math.log(0.5)))), sorted(float(round(d, 3)) for d in np.exp(rng.uniform(0.0, math.log(3000.0), 5)))),
    }
