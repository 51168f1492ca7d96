"""Diverse top-k selection.

"Since A_t may be arbitrarily large, whereas we are interested in a small,
optimized and diverse subset per each time point ... The diversity ensures
that limiting the number of candidates does not lead to a degradation in
the quality of the answers to user queries" (§II.B).

:func:`select_diverse` implements greedy max-min selection: the best
candidate under the objective seeds the set, then each step adds the
candidate maximising its minimum (scaled) distance to the already-selected
ones, with objective quality as the tie-breaker.  :func:`diverse_order`
is the same selection but also reports, for every chosen plan, its
distance to the nearest earlier pick — the per-plan diversity metadata
persisted with stored plan sets.  :func:`min_pairwise_distance` is the
diversity score reported by the ablation bench.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CandidateSearchError

__all__ = [
    "diverse_order",
    "min_pairwise_distance",
    "select_diverse",
    "select_greedy",
]


def _scaled(points: np.ndarray, scale) -> np.ndarray:
    if scale is None:
        return points
    scale = np.asarray(scale, dtype=float).ravel()
    if np.any(scale < 0.0):
        raise CandidateSearchError("scale entries must be non-negative")
    # a zero entry (constant feature) would divide to inf/nan and corrupt
    # every distance; a unit divisor leaves the feature's raw spread intact
    if np.any(scale == 0.0):
        scale = np.where(scale == 0.0, 1.0, scale)
    return points / scale


def select_diverse(
    points: np.ndarray,
    quality: np.ndarray,
    k: int,
    *,
    scale=None,
    quality_weight: float = 0.25,
) -> list[int]:
    """Pick ``k`` indices balancing diversity and quality.

    Parameters
    ----------
    points:
        ``(n, d)`` candidate vectors.
    quality:
        Per-candidate objective key, lower = better.
    k:
        Selection size (all indices returned when ``n <= k``).
    scale:
        Optional per-feature divisors for the distance computation.
    quality_weight:
        Trade-off in the greedy step: each step maximises
        ``min_dist - quality_weight * normalised_quality``.
    """
    selected, _ = diverse_order(
        points, quality, k, scale=scale, quality_weight=quality_weight
    )
    return selected


def diverse_order(
    points: np.ndarray,
    quality: np.ndarray,
    k: int,
    *,
    scale=None,
    quality_weight: float = 0.25,
) -> tuple[list[int], list[float]]:
    """:func:`select_diverse` plus per-pick min-distance metadata.

    Returns ``(selected, min_dists)`` where ``min_dists[r]`` is the scaled
    distance from the rank-``r`` pick to its nearest earlier pick
    (``inf`` for the seed).  When ``n <= k`` the selection degenerates to
    the stable quality order, exactly as :func:`select_diverse` always
    has, and the distances are reported for that order.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    quality = np.asarray(quality, dtype=float).ravel()
    n = points.shape[0]
    if quality.shape[0] != n:
        raise CandidateSearchError("points and quality disagree on length")
    if k < 1:
        raise CandidateSearchError("k must be >= 1")
    scaled = _scaled(points, scale)
    if n <= k:
        order = [int(i) for i in np.argsort(quality, kind="stable")]
        min_dist = np.full(n, np.inf)
        dists: list[float] = []
        for pick in order:
            dists.append(float(min_dist[pick]))
            min_dist = np.minimum(
                min_dist, np.linalg.norm(scaled - scaled[pick], axis=1)
            )
        return order, dists
    spread = quality.max() - quality.min()
    normalised_quality = (
        (quality - quality.min()) / spread if spread > 0 else np.zeros(n)
    )
    selected = [int(np.argmin(quality))]
    dists = [float("inf")]
    # distance from every point to the nearest selected point
    min_dist = np.linalg.norm(scaled - scaled[selected[0]], axis=1)
    while len(selected) < k:
        score = min_dist - quality_weight * normalised_quality * (
            min_dist.max() if min_dist.max() > 0 else 1.0
        )
        score[selected] = -np.inf
        pick = int(np.argmax(score))
        selected.append(pick)
        dists.append(float(min_dist[pick]))
        min_dist = np.minimum(
            min_dist, np.linalg.norm(scaled - scaled[pick], axis=1)
        )
    return selected, dists


def select_greedy(quality: np.ndarray, k: int) -> list[int]:
    """Quality-only top-k (the non-diverse baseline for the ablation)."""
    quality = np.asarray(quality, dtype=float).ravel()
    if k < 1:
        raise CandidateSearchError("k must be >= 1")
    order = np.argsort(quality, kind="stable")
    return list(order[:k])


def min_pairwise_distance(points: np.ndarray, scale=None) -> float:
    """Smallest pairwise distance within a selection (diversity measure)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if n < 2:
        return float("inf")
    scaled = _scaled(points, scale)
    # one cdist-style broadcast replaces the former O(n^2) Python loop;
    # only the strict upper triangle holds distinct pairs
    dist = np.linalg.norm(scaled[:, None, :] - scaled[None, :, :], axis=2)
    return float(dist[np.triu_indices(n, k=1)].min())
