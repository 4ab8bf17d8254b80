import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmilp.stats import (DeltaMetric, _member_tables, build_lof_context, build_mahalanobis,
                          knn, lof, mahalanobis_distance, nearest_ref, q1_surrogate,
                          sample_reference_set)

from _oracles import lof_bruteforce, q1_bruteforce, wdist


def line_ctx():
    """Members 0, 1, 2 on a line, unit scale: d1 = 1 everywhere, lrd1 = 1."""
    metric = DeltaMetric(scales=np.array([1.0]))
    return build_lof_context(np.array([[0.0], [1.0], [2.0]]), metric)


class TestDeltaMetric:
    def test_mad_scale_frozen(self):
        x = np.array([[0.0], [1.0], [2.0], [4.0], [10.0]])
        m = DeltaMetric.from_matrix(x)
        assert m.scales[0] == 2.0  # median 2, |dev| = [2,1,0,2,8], MAD 2

    def test_mad_zero_falls_back_to_std(self):
        x = np.array([[0.0], [0.0], [0.0], [1.0]])
        m = DeltaMetric.from_matrix(x)
        assert m.scales[0] == pytest.approx(math.sqrt(0.1875))  # population std

    def test_constant_column_scale_one(self):
        x = np.full((4, 1), 5.0)
        assert DeltaMetric.from_matrix(x).scales[0] == 1.0

    def test_weighted_l1(self):
        m = DeltaMetric(scales=np.array([2.0, 1.0]))
        assert m.delta_rows([0.0, 0.0], [[2.0, 3.0]]) == pytest.approx([4.0])
        assert m.delta_rows([2.0, 3.0], [[0.0, 0.0]]) == pytest.approx([4.0])

    def test_delta_rows_matches_delta(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 3))
        m = DeltaMetric.from_matrix(x)
        u = rng.normal(size=3)
        rows = m.delta_rows(u, x)
        for i in range(6):
            assert rows[i] == pytest.approx(wdist(u, x[i], m.scales))


class TestMahalanobis:
    def test_diagonal_frozen(self):
        x = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 3.0], [0.0, -3.0]])
        ctx = build_mahalanobis(x)
        # Sigma = diag(2, 4.5), regularized by eps = 1e-6 * trace / D
        var = np.array([2.0, 4.5]) + 1e-6 * 6.5 / 2
        sigma = np.linalg.inv(ctx.sigma_inv)
        assert sigma.diagonal() - [2.0, 4.5] == pytest.approx([1e-6 * 6.5 / 2] * 2)
        assert np.allclose(sigma, np.diag(var))
        assert np.allclose(ctx.chol_u, np.diag(1.0 / np.sqrt(var)))
        a = np.array([1.0, 1.0])
        assert mahalanobis_distance(ctx, np.zeros(2), a) == pytest.approx(
            math.sqrt(1 / var[0] + 1 / var[1]))
        assert np.abs(ctx.chol_u @ a).sum() == pytest.approx(
            1 / math.sqrt(var[0]) + 1 / math.sqrt(var[1]))

    def test_factor_is_upper_triangular_with_correct_product(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 5)) @ rng.normal(size=(5, 5))
        ctx = build_mahalanobis(x)
        assert np.allclose(ctx.chol_u, np.triu(ctx.chol_u))
        assert np.allclose(ctx.chol_u.T @ ctx.chol_u, ctx.sigma_inv, atol=1e-10)

    def test_default_eps_rule(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 4))
        centered = x - x.mean(axis=0)
        sigma = centered.T @ centered / 30
        ctx = build_mahalanobis(x)
        eps = 1e-6 * np.trace(sigma) / 4
        regularized = np.linalg.inv(ctx.sigma_inv)
        assert (regularized - sigma).diagonal() == pytest.approx([eps] * 4)
        assert np.allclose(regularized, sigma + eps * np.eye(4))

    def test_md_l2_equals_quadratic_form(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 4))
        ctx = build_mahalanobis(x)
        u, v = rng.normal(size=4), rng.normal(size=4)
        assert np.linalg.norm(ctx.chol_u @ (v - u)) == pytest.approx(
            mahalanobis_distance(ctx, u, v), abs=1e-12)

    def test_l1_upper_bounds_l2(self):
        # the linear objective's distance term never undercuts the exact one
        rng = np.random.default_rng(4)
        x = rng.normal(size=(25, 4))
        ctx = build_mahalanobis(x)
        for _ in range(10):
            u, v = rng.normal(size=4), rng.normal(size=4)
            assert np.abs(ctx.chol_u @ (v - u)).sum() >= mahalanobis_distance(ctx, u, v) - 1e-12

    def test_singular_data_still_factorizes(self):
        # one-hot style block: columns sum to 1, covariance is singular
        rng = np.random.default_rng(5)
        groups = rng.integers(0, 3, size=30)
        x = np.zeros((30, 3))
        x[np.arange(30), groups] = 1.0
        ctx = build_mahalanobis(x)
        assert np.isfinite(ctx.chol_u).all()

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            build_mahalanobis(np.ones((1, 3)))


class TestKnn:
    def test_basic_order(self):
        metric = DeltaMetric(scales=np.array([1.0]))
        x = np.array([[0.0], [1.0], [3.0]])
        idx, dists = knn(metric, np.array([2.2]), x, k=2)
        assert list(idx) == [2, 1]
        assert np.allclose(dists, [0.8, 1.2])

    def test_tie_breaks_by_index(self):
        metric = DeltaMetric(scales=np.array([1.0]))
        x = np.array([[0.0], [2.0], [4.0]])
        idx, _ = knn(metric, np.array([2.0]), x, k=2)
        assert list(idx) == [0, 2]  # both at distance 2, member at 0 excluded

    def test_excludes_coincident_rows(self):
        metric = DeltaMetric(scales=np.array([1.0]))
        x = np.array([[0.0], [1.0], [2.0]])
        idx, dists = knn(metric, np.array([1.0]), x, k=2)
        assert list(idx) == [0, 2] and np.allclose(dists, [1.0, 1.0])

    def test_k_out_of_range(self):
        metric = DeltaMetric(scales=np.array([1.0]))
        x = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            knn(metric, np.array([0.0]), x, k=2)


class TestLofTables:
    def test_line_tables_frozen(self):
        ctx = line_ctx()
        assert np.allclose(ctx.d1, [1.0, 1.0, 1.0])
        assert np.allclose(ctx.lrd1, [1.0, 1.0, 1.0])

    def test_duplicate_members_rejected(self):
        metric = DeltaMetric(scales=np.array([1.0]))
        with pytest.raises(ValueError):
            build_lof_context(np.array([[0.0], [0.0], [1.0]]), metric)

    def test_needs_two_members(self):
        metric = DeltaMetric(scales=np.array([1.0]))
        with pytest.raises(ValueError):
            build_lof_context(np.array([[0.0]]), metric)

    def test_member_tables_break_ties_by_index(self):
        # on a lattice most neighbors tie; every member's k nearest other
        # points are taken by (distance, index)
        metric = DeltaMetric(scales=np.array([1.0, 1.0]))
        x = np.array([[i % 7, i // 7] for i in range(49)], dtype=float)
        ctx = build_lof_context(x, metric)
        for k in (1, 4, 8, 12):
            dk, _, neigh = _member_tables(ctx, k)
            for n in range(len(x)):
                want = sorted((m for m in range(len(x)) if m != n),
                              key=lambda m: (wdist(x[n], x[m], metric.scales), m))[:k]
                assert list(neigh[n]) == want
                assert dk[n] == wdist(x[n], x[want[-1]], metric.scales)

    def test_nearest_ref_allows_coincident(self):
        ctx = line_ctx()
        j, d = nearest_ref(ctx, np.array([1.0]))
        assert j == 1 and d == 0.0


class TestLofValues:
    def test_inlier_query_is_one(self):
        assert lof(line_ctx(), np.array([0.25]), k=1) == pytest.approx(1.0)

    def test_outlier_query_k1(self):
        assert lof(line_ctx(), np.array([3.5]), k=1) == pytest.approx(1.5)

    def test_outlier_query_k2_frozen(self):
        # hand computation: lrd2 members = [2/3, 1/2, 2/3], query lrd = 4/9
        assert lof(line_ctx(), np.array([3.5]), k=2) == pytest.approx(21 / 16)

    @pytest.mark.parametrize("k", [0, 3, 4])
    def test_k_out_of_range(self, k):
        # three reference points have at most two other neighbors
        with pytest.raises(ValueError, match=f"k={k} out of range for 3"):
            lof(line_ctx(), np.array([0.5]), k)

    def test_q1_frozen_values(self):
        ctx = line_ctx()
        assert q1_surrogate(ctx, np.array([0.25])) == pytest.approx(1.0)
        assert q1_surrogate(ctx, np.array([3.5])) == pytest.approx(1.5)
        assert q1_surrogate(ctx, np.array([1.0])) == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 2, 3, 5]))
    def test_lof_matches_bruteforce(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(k + 2, 26))
        d = int(rng.integers(1, 4))
        x = rng.normal(0, 2, (n, d))
        metric = DeltaMetric.from_matrix(x)
        ctx = build_lof_context(x, metric)
        query = rng.normal(0, 3, d)
        got = lof(ctx, query, k)
        want = lof_bruteforce([list(r) for r in x], list(metric.scales), list(query), k)
        assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_q1_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 20))
        d = int(rng.integers(1, 4))
        x = rng.normal(0, 2, (n, d))
        metric = DeltaMetric.from_matrix(x)
        ctx = build_lof_context(x, metric)
        query = rng.normal(0, 3, d)
        got = q1_surrogate(ctx, query)
        want = q1_bruteforce([list(r) for r in x], list(metric.scales), list(query))
        assert got == pytest.approx(want, abs=1e-9)


class TestReferenceSampling:
    def _data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 3))
        y = np.where(rng.random(60) < 0.6, 1, -1)
        return x, y

    def test_only_positive_rows(self):
        x, y = self._data()
        refs = sample_reference_set(x, y, 10, seed=4)
        pos = {tuple(r) for r in x[y == 1]}
        assert all(tuple(r) in pos for r in refs)

    def test_seed_determinism(self):
        x, y = self._data()
        a = sample_reference_set(x, y, 10, seed=4)
        b = sample_reference_set(x, y, 10, seed=4)
        assert np.array_equal(a, b)
        c = sample_reference_set(x, y, 10, seed=5)
        assert not np.array_equal(a, c)

    def test_deduplicates(self):
        x = np.array([[1.0], [1.0], [2.0], [3.0]])
        y = np.array([1, 1, 1, 1])
        refs = sample_reference_set(x, y, 3, seed=0)
        assert len({tuple(r) for r in refs}) == 3

    def test_too_few_unique(self):
        x = np.array([[1.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        with pytest.raises(ValueError):
            sample_reference_set(x, y, 3, seed=0)

    def test_signed_zeros_are_one_row(self):
        # keyed by their bytes, -0.0 and 0.0 were two rows, and the LOF
        # context then refused the set as holding duplicate rows
        x = np.array([[-0.0, 1.0], [0.0, 1.0], [2.0, 0.0], [3.0, 1.0]])
        y = np.ones(4, dtype=int)
        for seed in range(8):
            build_lof_context(sample_reference_set(x, y, 3, seed), DeltaMetric(np.ones(2)))
        with pytest.raises(ValueError, match="only 3 unique rows"):
            sample_reference_set(x, y, 4, seed=0)

    def test_no_positive_row(self):
        x, y = self._data()
        with pytest.raises(ValueError, match="no positive-label rows"):
            sample_reference_set(x, -np.abs(y), 3, seed=0)

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_fewer_than_two_points_rejected(self, n):
        # n=0 used to miss its stop and return every positive row
        x, y = self._data()
        with pytest.raises(ValueError, match="at least 2"):
            sample_reference_set(x, y, n, seed=4)
