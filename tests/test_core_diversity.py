"""Tests for diverse top-k selection."""

import numpy as np
import pytest

from repro.core import (
    diverse_order,
    min_pairwise_distance,
    select_diverse,
    select_greedy,
)
from repro.exceptions import CandidateSearchError


class TestSelectDiverse:
    def test_includes_best_quality(self, rng):
        points = rng.normal(size=(30, 3))
        quality = rng.random(30)
        chosen = select_diverse(points, quality, 5)
        assert int(np.argmin(quality)) in chosen

    def test_size(self, rng):
        points = rng.normal(size=(30, 3))
        quality = rng.random(30)
        assert len(select_diverse(points, quality, 7)) == 7

    def test_returns_all_when_small(self, rng):
        points = rng.normal(size=(3, 2))
        quality = np.array([0.3, 0.1, 0.2])
        chosen = select_diverse(points, quality, 10)
        assert sorted(chosen) == [0, 1, 2]
        assert chosen[0] == 1  # sorted by quality

    def test_no_duplicates(self, rng):
        points = rng.normal(size=(40, 2))
        quality = rng.random(40)
        chosen = select_diverse(points, quality, 10)
        assert len(set(chosen)) == 10

    def test_more_diverse_than_greedy(self, rng):
        """On clustered data with quality concentrated in one cluster,
        max-min selection spreads out more than pure quality top-k."""
        cluster_a = rng.normal(0, 0.05, size=(20, 2))
        cluster_b = rng.normal(5, 0.05, size=(20, 2))
        points = np.vstack([cluster_a, cluster_b])
        quality = np.r_[rng.uniform(0.0, 0.1, 20), rng.uniform(0.5, 1.0, 20)]
        diverse = select_diverse(points, quality, 6)
        greedy = select_greedy(quality, 6)
        d_diverse = min_pairwise_distance(points[diverse])
        d_greedy = min_pairwise_distance(points[greedy])
        assert d_diverse >= d_greedy
        # diverse selection reaches the far cluster
        assert any(i >= 20 for i in diverse)
        assert all(i < 20 for i in greedy)

    def test_length_mismatch(self, rng):
        with pytest.raises(CandidateSearchError):
            select_diverse(rng.normal(size=(5, 2)), rng.random(4), 2)

    def test_bad_k(self, rng):
        with pytest.raises(CandidateSearchError):
            select_diverse(rng.normal(size=(5, 2)), rng.random(5), 0)

    def test_scale_affects_distances(self, rng):
        # a huge-scale feature dominates unscaled distances; scaling evens it
        points = np.column_stack([rng.normal(0, 1000, 20), rng.normal(0, 0.001, 20)])
        quality = rng.random(20)
        chosen = select_diverse(points, quality, 5, scale=[1000.0, 0.001])
        assert len(chosen) == 5


class TestSelectGreedy:
    def test_orders_by_quality(self):
        quality = np.array([0.5, 0.1, 0.9, 0.3])
        assert select_greedy(quality, 2) == [1, 3]

    def test_bad_k(self):
        with pytest.raises(CandidateSearchError):
            select_greedy(np.array([1.0]), 0)


class TestScaleHandling:
    """Regression: a zero scale entry (constant feature, common after
    one-hot slices) used to divide to inf/nan and corrupt selection."""

    def test_zero_scale_clamps_to_unit(self, rng):
        points = rng.normal(size=(20, 3))
        quality = rng.random(20)
        with_zero = select_diverse(points, quality, 5, scale=[1.0, 0.0, 2.0])
        clamped = select_diverse(points, quality, 5, scale=[1.0, 1.0, 2.0])
        assert with_zero == clamped

    def test_zero_scale_distances_finite(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = min_pairwise_distance(points, scale=[0.0, 1.0])
        assert np.isfinite(d)
        assert d == pytest.approx(5.0)

    def test_negative_scale_raises(self, rng):
        points = rng.normal(size=(10, 2))
        with pytest.raises(CandidateSearchError):
            select_diverse(points, rng.random(10), 3, scale=[1.0, -1.0])
        with pytest.raises(CandidateSearchError):
            min_pairwise_distance(points, scale=[-0.5, 1.0])


class TestDiverseOrder:
    def test_matches_select_diverse(self, rng):
        points = rng.normal(size=(30, 3))
        quality = rng.random(30)
        order, dists = diverse_order(points, quality, 6)
        assert order == select_diverse(points, quality, 6)
        assert len(dists) == 6

    def test_seed_distance_is_inf(self, rng):
        points = rng.normal(size=(15, 2))
        _, dists = diverse_order(points, rng.random(15), 4)
        assert dists[0] == float("inf")
        assert all(np.isfinite(d) for d in dists[1:])

    def test_distances_are_to_nearest_earlier_pick(self, rng):
        points = rng.normal(size=(25, 3))
        quality = rng.random(25)
        order, dists = diverse_order(points, quality, 5)
        for r in range(1, 5):
            expected = min(
                float(np.linalg.norm(points[order[r]] - points[order[e]]))
                for e in range(r)
            )
            assert dists[r] == pytest.approx(expected)

    def test_small_pool_quality_order(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        quality = np.array([0.3, 0.1, 0.2])
        order, dists = diverse_order(points, quality, 10)
        assert order == [1, 2, 0]
        assert dists[0] == float("inf")
        assert len(dists) == 3


class TestMinPairwiseDistance:
    def test_known(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0], [10.0, 0.0]])
        assert min_pairwise_distance(points) == pytest.approx(5.0)

    def test_single_point_is_inf(self):
        assert min_pairwise_distance(np.array([[1.0, 2.0]])) == float("inf")

    def test_scaled(self):
        points = np.array([[0.0], [10.0]])
        assert min_pairwise_distance(points, scale=[10.0]) == pytest.approx(1.0)

    def test_broadcast_matches_pairwise_loop(self, rng):
        """The vectorized version returns exactly what the former
        O(n^2) Python loop over np.linalg.norm calls returned."""
        for _ in range(20):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, 6))
            points = rng.normal(size=(n, d))
            scale = np.abs(rng.normal(size=d)) + 0.1
            for s in (None, scale):
                scaled = points / s if s is not None else points
                best = float("inf")
                for i in range(n - 1):
                    dist = np.linalg.norm(scaled[i + 1 :] - scaled[i], axis=1)
                    best = min(best, float(dist.min()))
                assert min_pairwise_distance(points, scale=s) == best
