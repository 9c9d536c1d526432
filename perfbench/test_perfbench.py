"""Tests of the benchmark itself: pure generators, checkers that catch wrong answers, spans.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import orthant_t2  # noqa: E402
import orthant_t2.cli  # noqa: E402,F401
import refcheck  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- the input generator is a pure function of its seed ----------------------


def test_samples_depend_only_on_seed():
    for i, (n, d, kind) in enumerate(gen.sample_plan()[::7]):
        a = gen.make_sample(5, 1, i, n, d, kind)
        assert np.array_equal(a, gen.make_sample(5, 1, i, n, d, kind))
        assert not np.array_equal(a, gen.make_sample(6, 1, i, n, d, kind))


def test_grids_targets_and_cli_args_depend_only_on_seed():
    assert gen.bound_points(3) == gen.bound_points(3) != gen.bound_points(4)
    assert gen.chain_points(3) == gen.chain_points(3) != gen.chain_points(4)
    assert gen.cli_args(3, 0) == gen.cli_args(3, 0) != gen.cli_args(4, 0)
    a, b = gen.oracle_targets(3, 0), gen.oracle_targets(3, 0)
    for key in a:
        assert all(np.array_equal(x, y) for x, y in zip(a[key], b[key]))
    assert not np.array_equal(a["large_linear"][0], gen.oracle_targets(4, 0)["large_linear"][0])


def test_fault_slices_do_not_depend_on_seed():
    first = gen.fault_samples()
    assert all(np.array_equal(x[2], y[2]) for x, y in zip(first, gen.fault_samples()))
    assert gen.fault_bound_points() == gen.fault_bound_points()


def test_grid_covers_every_region_in_the_designed_shares():
    regions = [refcheck.expected_region(r, u) for r, u in gen.bound_points(1)]
    assert regions.count("UNIT") == regions.count("QUADRATIC") == 2 * gen.GRID_DEGREES
    assert regions.count("CUBIC") == 8 * gen.GRID_DEGREES


# -- every checker rejects a corrupted answer ----------------------------------


def _sample():
    return gen.make_sample(1, 0, 3, 300, 4, "null")


def test_sample_check_passes_the_program_and_rejects_r2_off_by_1e_6():
    X = _sample()
    rep = orthant_t2.run_test(X)
    r2, rank = refcheck.reference_r2_rank(X)
    assert refcheck.check_sample(X, rep, r2, rank) == []
    r2_bad = rep.r_squared + 1e-6
    bad = dataclasses.replace(rep, r_squared=r2_bad, statistic_u=math.sqrt(X.shape[0] * r2_bad))
    assert any("R^2" in p for p in refcheck.check_sample(X, bad, r2, rank))
    assert refcheck.check_sample(X, dataclasses.replace(rep, rank=rep.rank - 1), r2, rank)
    assert refcheck.check_rescaled(rep.r_squared, r2_bad)


def test_sample_check_rejects_wrong_p_values():
    X = _sample()
    rep = orthant_t2.run_test(X)
    r2, rank = refcheck.reference_r2_rank(X)
    assert refcheck.check_sample(X, dataclasses.replace(rep, chi_p=rep.chi_p * (1 + 1e-6)), r2, rank)
    assert refcheck.check_sample(X, dataclasses.replace(rep, p_upper_Q=rep.p_upper_eaton * 1.01), r2, rank)


def test_bound_check_rejects_lambda_at_the_sharp_constant():
    for r, u in ((5.0, 4.0), (2.0, 45.0), (5.0, 1.0), (5.0, 2.3)):
        rep = orthant_t2.q_bound(r, u)
        assert refcheck.check_bound(r, u, rep, refcheck.chi_sf(r, u)) == []
        assert refcheck.check_bound(r, u, dataclasses.replace(rep, lambda_ratio=gen.SHARP), None)
    rep = orthant_t2.q_bound(5.0, 4.0)
    assert refcheck.check_bound(5.0, 4.0, dataclasses.replace(rep, region="QUADRATIC"), None)
    assert refcheck.check_bound(5.0, 4.0, dataclasses.replace(rep, chi_tail=rep.chi_tail * (1 + 1e-7)), refcheck.chi_sf(5.0, 4.0))
    assert refcheck.check_bound(5.0, 4.0, dataclasses.replace(rep, lambda_envelope=rep.lambda_ratio), None)


def test_monotone_check_rejects_an_increase():
    assert refcheck.check_monotone(3.0, [1.0, 2.0, 3.0], [1.0, 0.5, 0.2]) == []
    assert refcheck.check_monotone(3.0, [1.0, 2.0, 3.0], [1.0, 0.5, 0.6])


def test_minimizer_check_rejects_a_shifted_root():
    r, u = 3.5, 6.0
    t = orthant_t2.mu_inverse(r, u)
    lam = orthant_t2.q_bound(r, u).lambda_ratio
    assert refcheck.check_minimizer(r, u, t, lam) == []
    assert refcheck.check_minimizer(r, u, t + 0.01, lam)
    assert refcheck.check_minimizer(r, u, t, lam * (1 + 1e-5))


@pytest.mark.parametrize("r, t", [(4.5, 2.0), (2.0, 41.0), (0.5, 36.9), (200.0, 30.0)])
def test_gamma3_quadrature_matches_closed_form(r, t):
    import mpmath

    quad = refcheck.gamma3_quad(r, t)
    with mpmath.workdps(80):  # the binomial form cancels; enough digits make it exact
        r, t = mpmath.mpf(r), mpmath.mpf(t)
        q = [2 ** ((r + k) / 2 - 1) * mpmath.gammainc((r + k) / 2, t * t / 2) for k in range(4)]
        closed = q[3] - 3 * t * q[2] + 3 * t * t * q[1] - t**3 * q[0]
        assert abs(quad / closed - 1) < 1e-15


def test_chain_check_rejects_a_chain_out_of_order():
    trip = orthant_t2.critical_chain(10.0, 0.05)
    assert refcheck.check_chain(10.0, 0.05, trip) == []
    swapped = dataclasses.replace(trip, x_delta_over_c=trip.z_delta, z_delta=trip.x_delta_over_c)
    assert any("out of order" in p for p in refcheck.check_chain(10.0, 0.05, swapped))
    assert refcheck.check_chain(10.0, 0.05, dataclasses.replace(trip, x_delta=trip.x_delta + 1e-6))
    assert refcheck.check_chain(10.0, 0.05, dataclasses.replace(trip, z_delta=trip.z_delta + 0.02))


def test_quantile_reference():
    assert abs(refcheck.quantile_ref(1.0, 0.05) - 1.959963984540054) < 1e-12


def _off_by_one(dist):
    counts = dist.counts.copy()
    counts[0] += 1
    return SimpleNamespace(support=dist.support, counts=counts, denom=dist.denom)


def test_enumeration_checks_reject_a_count_off_by_one():
    rng = gen.rng_for(0, 9)
    x = gen.unit_vector(rng, 7)
    dist = orthant_t2.exact_linear_distribution(x)
    assert refcheck.check_linear(x, dist) == []
    assert any("counts sum" in p for p in refcheck.check_linear(x, _off_by_one(dist)))
    P = gen.projector(rng, 6, 2)
    qdist = orthant_t2.exact_quadratic_distribution(P)
    assert refcheck.check_quadratic(P, qdist) == []
    assert any("counts sum" in p for p in refcheck.check_quadratic(P, _off_by_one(qdist)))


def test_enumeration_checks_reject_a_moved_atom():
    x = gen.unit_vector(gen.rng_for(0, 10), 6)
    dist = orthant_t2.exact_linear_distribution(x)
    support = dist.support.copy()
    support[-1] += 1e-6
    moved = SimpleNamespace(support=support, counts=dist.counts, denom=dist.denom)
    assert any("brute force" in p for p in refcheck.check_linear(x, moved))


def test_suite_check_rejects_a_failed_check():
    assert refcheck.check_suite("t", [{"check": "a", "passed": True, "detail": ""}]) == []
    assert refcheck.check_suite("t", [{"check": "a", "passed": False, "detail": "x"}])


def test_cli_table_text_check_rejects_a_wrong_cell():
    good = "d 1 2 5 10 20 50\nx_delta 1.96 2.45 3.33 4.28 5.61 8.22\nx_delta_over_c 2.54 3.00 3.85 4.78 6.10 8.69\nz_delta 2.72 3.18 4.03 4.97 6.28 8.88\n"
    assert workloads._check_table_text(good) == []
    assert workloads._check_table_text(good.replace("4.97", "4.99"))


# -- spans ----------------------------------------------------------------------


def test_tracer_wraps_imported_names_and_derives_self_time():
    tracer = spans.Tracer()
    spans.install(tracer, orthant_t2)
    assert orthant_t2.symmetry_test.q_bound is orthant_t2.extremal_bounds.q_bound
    tracer.active = True
    with tracer.span("op.test"):
        orthant_t2.p_value_bound(5.0, 100, 0.2)
    orthant_t2.critical_chain(3.0, 0.1)
    tracer.active = False
    orthant_t2.q_bound(2.0, 9.0)  # inactive: no span
    s = tracer.summary()["by_name"]
    assert s["op.test"]["calls"] == 1
    assert s["symmetry_test.p_value_bound"]["calls"] == 1
    assert s["extremal_bounds.q_bound.cubic"]["calls"] == 1
    assert s["chi_kernel.quantile"]["calls"] == 2
    pv = s["symmetry_test.p_value_bound"]
    assert 0 < pv["self_ns"] < pv["incl_ns"]
    pairs = tracer.summary()["pairs"]
    assert pairs["chi_kernel.quantile>chi_kernel.log_survival"] >= 10
    assert sum(v["calls"] for v in s.values()) == tracer.summary()["spans"]


@pytest.mark.parametrize("argv", [["--workload", "nope", "--seed", "1"], ["--seed", "1"]])
def test_run_rejects_bad_arguments(argv):
    import run

    with pytest.raises(SystemExit):
        run.main(argv)
