import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthant_t2 import hotelling as ht
from orthant_t2.errors import DomainError
from orthant_t2.symmetry_test import run_test


class TestProjector:
    def test_single_column(self):
        x = np.array([1.0, 2.0, 2.0])
        P, rank = ht.projector(x)
        assert rank == 1
        assert np.allclose(P, np.outer(x, x) / 9.0, atol=1e-14)
        assert np.trace(P) == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_columns(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        P, rank = ht.projector(X)
        assert rank == 2
        assert np.allclose(P, X @ X.T, atol=1e-14)

    def test_random_full_rank(self):
        rng = np.random.Generator(np.random.PCG64(5))
        X = rng.normal(size=(6, 3))
        P, rank = ht.projector(X)
        assert rank == 3
        assert np.trace(P) == pytest.approx(3.0, abs=1e-10)
        assert np.max(np.abs(P @ P - P)) <= 1e-10
        assert np.max(np.abs(P - P.T)) <= 1e-12

    def test_wide_sample(self):
        rng = np.random.Generator(np.random.PCG64(6))
        X = rng.normal(size=(4, 9))
        P, rank = ht.projector(X)
        assert rank == 4
        assert np.allclose(P, np.eye(4), atol=1e-10)

    def test_rank_deficient(self):
        x = np.array([1.0, -1.0, 0.5])
        X = np.column_stack([x, 2.0 * x, -x])
        P, rank = ht.projector(X)
        assert rank == 1
        assert np.max(np.abs(P @ P - P)) <= 1e-12

    def test_zero_matrix(self):
        P, rank = ht.projector(np.zeros((3, 2)))
        assert rank == 0
        assert np.all(P == 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            ht.projector(np.array([[1.0, math.nan]]))


class TestRSquared:
    def test_single_observation(self):
        s = ht.r_squared(np.array([[5.0]]))
        assert s.r_squared == 1.0
        assert math.isinf(s.t_squared)
        assert s.nu_projection == pytest.approx(1.0, abs=1e-12)

    def test_centered_columns(self):
        # columns orthogonal to the all-ones vector force R^2 = 0
        rng = np.random.Generator(np.random.PCG64(7))
        X = rng.normal(size=(10, 3))
        X -= X.mean(axis=0)
        s = ht.r_squared(X)
        assert s.r_squared == pytest.approx(0.0, abs=1e-12)
        assert s.t_squared == pytest.approx(0.0, abs=1e-12)

    def test_two_point_antithetic(self):
        s = ht.r_squared(np.array([1.0, -1.0]))
        assert s.r_squared == pytest.approx(0.0, abs=1e-14)

    def test_invariant_under_column_mixing(self):
        rng = np.random.Generator(np.random.PCG64(8))
        X = rng.normal(size=(12, 3))
        B = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        assert abs(np.linalg.det(B)) > 1e-6
        a = ht.r_squared(X).r_squared
        b = ht.r_squared(X @ B).r_squared
        assert a == pytest.approx(b, abs=1e-9)

    def test_range(self):
        rng = np.random.Generator(np.random.PCG64(9))
        for _ in range(20):
            X = rng.normal(size=(rng.integers(1, 15), rng.integers(1, 5)))
            s = ht.r_squared(X)
            assert 0.0 <= s.r_squared <= 1.0
            if s.r_squared < 1.0:
                assert s.t_squared == pytest.approx(s.r_squared / (1.0 - s.r_squared), rel=1e-12)


class TestRSquaredSigned:
    def test_matches_quadratic_form(self):
        rng = np.random.Generator(np.random.PCG64(10))
        X = rng.normal(size=(8, 3))
        P, _ = ht.projector(X)
        for _ in range(10):
            signs = rng.integers(0, 2, size=8) * 2.0 - 1.0
            assert ht.r_squared_signed(X, signs) == float(signs @ P @ signs) / 8.0

    def test_all_plus_recovers_r_squared(self):
        rng = np.random.Generator(np.random.PCG64(11))
        X = rng.normal(size=(9, 2))
        assert ht.r_squared_signed(X, np.ones(9)) == pytest.approx(ht.r_squared(X).r_squared, abs=1e-12)

    def test_bad_signs(self):
        with pytest.raises(DomainError):
            ht.r_squared_signed(np.eye(3), [1.0, 0.5, -1.0])

    def test_sign_flipped_sample_matches_signed_form(self):
        # flipping rows of X and projecting the all-ones vector is the same
        # as projecting the sign vector through the original projector
        rng = np.random.Generator(np.random.PCG64(15))
        X = rng.normal(size=(7, 2))
        for _ in range(8):
            signs = rng.integers(0, 2, size=7) * 2.0 - 1.0
            flipped = ht.r_squared(signs[:, None] * X).r_squared
            assert flipped == pytest.approx(ht.r_squared_signed(X, signs), abs=1e-12)


class TestRegularized:
    def test_product_identity(self):
        rng = np.random.Generator(np.random.PCG64(12))
        for _ in range(10):
            X = rng.normal(size=(rng.integers(3, 25), rng.integers(1, 5)))
            for eps in (1e-2, 1e-4, 1e-6):
                t2, r2 = ht.regularized(X, eps)
                assert t2 * r2 == pytest.approx(t2 - r2, rel=1e-8, abs=1e-12)

    def test_monotone_convergence_to_projector_value(self):
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(5):
            X = rng.normal(size=(20, 3))
            limit = ht.r_squared(X).r_squared
            prev = -math.inf
            for k in range(1, 9):
                _, r2 = ht.regularized(X, 10.0 ** (-k))
                assert r2 >= prev - 1e-12
                prev = r2
            assert prev == pytest.approx(limit, abs=1e-6)

    def test_t2_limit(self):
        rng = np.random.Generator(np.random.PCG64(14))
        X = rng.normal(size=(30, 2))
        s = ht.r_squared(X)
        t2, _ = ht.regularized(X, 1e-10)
        assert t2 == pytest.approx(s.r_squared / (1.0 - s.r_squared), rel=1e-6)

    def test_nonpositive_eps_rejected(self):
        for bad in (0.0, -1e-3):
            with pytest.raises(DomainError):
                ht.regularized(np.eye(2), bad)


def _equilibrated_reference(X):
    """(R^2, rank) from lstsq and matrix_rank on X with columns scaled to max |entry| = 1."""
    peak = np.max(np.abs(X), axis=0)
    peak[peak == 0.0] = 1.0
    Xe = X / peak
    beta, *_ = np.linalg.lstsq(Xe, np.ones(X.shape[0]), rcond=None)
    fit = Xe @ beta
    return float(fit @ fit) / X.shape[0], int(np.linalg.matrix_rank(Xe))


def _tiny_column_sample():
    Z = np.random.default_rng(21).standard_normal((500, 4))
    Z[:, 3] += 1.5
    return Z * np.array([1.0, 1.0, 1.0, 1e-7])


def _spread_square_sample():
    rng = np.random.default_rng(8)
    return rng.standard_normal((20, 20)) * 10.0 ** rng.uniform(-2.0, 2.0, 20)


_THREE_BY_TWO = np.array([[1.0, 2.0], [3.0, -1.0], [5.0, 1.0]])


class TestScaleSafety:
    @pytest.mark.parametrize(
        "X",
        [
            _tiny_column_sample(),
            _THREE_BY_TWO * 1e200,
            _THREE_BY_TWO * 1e-200,
            np.random.default_rng(22).standard_normal((50, 3)) * 1e200,
            _spread_square_sample(),
        ],
        ids=["500x4-column-1e-7", "3x2-times-1e200", "3x2-times-1e-200", "50x3-near-1e200", "20x20-scales-1e4"],
    )
    def test_matches_equilibrated_lstsq(self, X):
        r2_ref, rank_ref = _equilibrated_reference(X)
        s = ht.r_squared(X)
        assert s.rank == rank_ref
        assert abs(s.r_squared - r2_ref) <= 1e-10

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 30),
        d=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        exponents=st.lists(st.integers(-200, 200), min_size=8, max_size=8),
    )
    def test_column_rescaling_invariance(self, n, d, seed, exponents):
        X = np.random.default_rng(seed).standard_normal((n, d))
        base = ht.r_squared(X)
        scaled = ht.r_squared(X * 10.0 ** np.array(exponents[:d], dtype=float))
        assert scaled.rank == base.rank
        assert abs(scaled.r_squared - base.r_squared) <= 1e-12

    def test_run_test_memory_is_linear_in_n(self):
        X = np.random.default_rng(23).standard_normal((200_000, 3))
        tracemalloc.start()
        try:
            run_test(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6
