import math

import numpy as np
import pytest

from orthant_t2 import chi_kernel as ck
from orthant_t2.errors import DomainError
from orthant_t2.extremal_bounds import SHARP_CONSTANT, q_bound
from orthant_t2.symmetry_test import (
    conservativeness_table,
    critical_chain,
    p_value_bound,
    run_test,
)

# published reference values at delta = 0.05: (x_delta, x_delta_over_c, z_delta)
REFERENCE = {
    1: (1.96, 2.54, 2.72),
    2: (2.45, 3.00, 3.18),
    5: (3.33, 3.85, 4.03),
    10: (4.28, 4.78, 4.97),
    20: (5.61, 6.10, 6.28),
    50: (8.22, 8.69, 8.88),
}


class TestPValueBound:
    def test_zero_statistic(self):
        rep = p_value_bound(3.0, 10, 0.0)
        assert rep.statistic_u == 0.0
        assert rep.p_upper_Q == 1.0
        assert rep.p_upper_eaton == 1.0

    def test_anchored_at_normal_quantile(self):
        u = 1.96
        rep = p_value_bound(1.0, 100, u * u / 100.0)
        assert rep.statistic_u == pytest.approx(u, rel=1e-12)
        assert rep.chi_p == pytest.approx(0.05, abs=1e-4)
        assert rep.p_upper_Q == pytest.approx(q_bound(1.0, u).q_value, rel=1e-12)
        assert rep.p_upper_eaton == pytest.approx(min(1.0, SHARP_CONSTANT * rep.chi_p), rel=1e-12)

    def test_q_bound_never_exceeds_eaton(self):
        for d in (1.0, 2.0, 7.0):
            for n in (5, 40):
                for r2 in (0.0, 0.05, 0.3, 0.9, 1.0):
                    rep = p_value_bound(d, n, r2)
                    assert rep.p_upper_Q <= rep.p_upper_eaton + 1e-12

    def test_p_bound_nonincreasing_in_statistic(self):
        for d in (1.0, 3.0, 10.0):
            values = [p_value_bound(d, 50, r2).p_upper_Q for r2 in np.linspace(0.0, 1.0, 60)]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            p_value_bound(2.0, 10, 1.5)
        with pytest.raises(DomainError):
            p_value_bound(2.0, 0, 0.5)
        with pytest.raises(DomainError):
            p_value_bound(-1.0, 10, 0.5)


class TestCriticalChain:
    def test_reference_rows(self):
        for d, (x, xc, z) in REFERENCE.items():
            trip = critical_chain(float(d), 0.05)
            assert trip.x_delta == pytest.approx(x, abs=0.01)
            assert trip.x_delta_over_c == pytest.approx(xc, abs=0.01)
            assert trip.z_delta == pytest.approx(z, abs=0.01)

    def test_chain_ordering_grid(self):
        for d in range(1, 51):
            for delta in (0.5, 0.1, 0.05, 0.01, 0.001):
                trip = critical_chain(float(d), delta)
                assert trip.x_delta > math.sqrt(d - 1.0)
                assert trip.x_delta < trip.x_delta_over_c < trip.z_delta

    def test_z_definition_identity(self):
        for d in (1.0, 7.0, 50.0):
            trip = critical_chain(d, 0.05)
            lhs = (trip.z_delta - trip.x_delta) * (trip.x_delta - (d - 1.0) / trip.x_delta)
            assert lhs == pytest.approx(math.log(SHARP_CONSTANT), abs=1e-12)

    def test_level_above_half_rejected(self):
        with pytest.raises(DomainError):
            critical_chain(2.0, 0.6)
        with pytest.raises(DomainError):
            critical_chain(2.0, 0.0)
        with pytest.raises(DomainError):
            critical_chain(0.5, 0.5)

    def test_gap_shrinks_as_level_drops(self):
        for d in (1.0, 5.0):
            gaps = []
            for delta in (0.05, 0.01, 1e-3, 1e-4, 1e-6):
                trip = critical_chain(d, delta)
                gaps.append(trip.x_delta_over_c - trip.x_delta)
            assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestConservativenessTable:
    def test_all_18_entries(self):
        dims = sorted(REFERENCE)
        rows = conservativeness_table(0.05, [float(d) for d in dims])
        for row, d in zip(rows, dims):
            for got, want in zip((row.x_delta, row.x_delta_over_c, row.z_delta), REFERENCE[d]):
                assert abs(got - want) <= 0.01

    def test_large_dimension_offset(self):
        x = ck.quantile(5000.0, 0.05)
        assert x - math.sqrt(5000.0) == pytest.approx(1.16, abs=0.05)

    def test_z_minus_x_monotone_in_dimension(self):
        rows = conservativeness_table(0.05, [1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
        gaps = [row.z_delta - row.x_delta for row in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestRunTest:
    def test_centered_sample_gives_unit_p(self):
        X = np.array([[1.0, 2.0], [-1.0, -2.0]])
        rep = run_test(X)
        assert rep.statistic_u == 0.0
        assert rep.p_upper_Q == 1.0

    def test_single_observation(self):
        rep = run_test(np.array([[3.5]]))
        assert rep.r_squared == 1.0
        assert math.isinf(rep.t_squared)
        assert rep.statistic_u == pytest.approx(1.0, rel=1e-12)
        assert rep.p_upper_Q == pytest.approx(q_bound(1.0, 1.0).q_value, rel=1e-12)

    def test_random_sample(self):
        rng = np.random.Generator(np.random.PCG64(31))
        X = rng.normal(size=(30, 2))
        rep = run_test(X)
        assert 0.0 < rep.p_upper_Q <= 1.0
        assert rep.p_upper_Q <= rep.p_upper_eaton + 1e-12
        assert rep.rank == 2
        assert rep.d == 2.0

    def test_declared_dimension_overrides(self):
        rng = np.random.Generator(np.random.PCG64(32))
        X = rng.normal(size=(20, 3))
        rep = run_test(X, dim=5.0)
        assert rep.d == 5.0
        assert rep.rank == 3
