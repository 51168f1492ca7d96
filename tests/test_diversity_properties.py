"""Hypothesis property suite for diverse top-k selection.

The greedy max-min selection is the one piece of the pipeline whose
output feeds the byte-identity contract (plan sets persist its exact
selection order), so its structural invariants get property coverage:
unique in-bounds indices, the ``n <= k`` degenerate path, robustness to
duplicate rows, the zero-quality-spread path, and invariance of the
selected *set* under consistent feature/scale permutation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import select_diverse, select_greedy

#: bounded, finite floats — selection arithmetic is exercised, not the
#: IEEE edge cases (the engine never produces inf/nan points)
finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def pools(draw, min_n=1, max_n=30, max_d=5):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    d = draw(st.integers(min_value=1, max_value=max_d))
    points = np.array(
        draw(
            st.lists(
                st.lists(finite, min_size=d, max_size=d),
                min_size=n,
                max_size=n,
            )
        )
    )
    quality = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    k = draw(st.integers(min_value=1, max_value=max_n + 5))
    return points, quality, k


@settings(max_examples=200, deadline=None)
@given(pools())
def test_indices_unique_and_in_bounds(pool):
    points, quality, k = pool
    chosen = select_diverse(points, quality, k)
    assert len(chosen) == len(set(chosen))
    assert all(0 <= i < points.shape[0] for i in chosen)
    assert len(chosen) == min(k, points.shape[0])


@settings(max_examples=100, deadline=None)
@given(pools())
def test_small_pool_returns_all_in_quality_order(pool):
    points, quality, _ = pool
    n = points.shape[0]
    chosen = select_diverse(points, quality, n + 3)
    assert sorted(chosen) == list(range(n))
    assert chosen == [int(i) for i in np.argsort(quality, kind="stable")]


@settings(max_examples=100, deadline=None)
@given(pools(min_n=2), st.integers(min_value=0, max_value=10**6))
def test_duplicate_rows_never_crash(pool, seed):
    points, quality, k = pool
    rng = np.random.default_rng(seed)
    dup_from = int(rng.integers(points.shape[0]))
    dup_to = int(rng.integers(points.shape[0]))
    points = points.copy()
    points[dup_to] = points[dup_from]
    chosen = select_diverse(points, quality, k)
    assert len(chosen) == len(set(chosen))


@settings(max_examples=100, deadline=None)
@given(pools(), finite)
def test_zero_quality_spread(pool, level):
    """Constant quality: selection degrades to pure max-min diversity
    and must still return distinct, in-bounds indices seeded at 0."""
    points, _, k = pool
    quality = np.full(points.shape[0], level)
    chosen = select_diverse(points, quality, k)
    assert len(chosen) == len(set(chosen))
    if points.shape[0] > k:
        assert chosen[0] == 0  # stable argmin of a constant array


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pools(max_d=4), st.randoms(use_true_random=False))
def test_scale_permutation_invariance(pool, pyrandom):
    """Permuting feature columns together with the scale vector must not
    change which indices are selected (distances are permutation-
    invariant up to float summation order, so compare the set)."""
    points, quality, k = pool
    d = points.shape[1]
    scale = np.abs(points).max(axis=0) + 1.0
    perm = list(range(d))
    pyrandom.shuffle(perm)
    base = select_diverse(points, quality, k, scale=scale)
    permuted = select_diverse(
        points[:, perm], quality, k, scale=scale[perm]
    )
    assert set(base) == set(permuted)


@settings(max_examples=100, deadline=None)
@given(pools())
def test_greedy_is_stable_quality_topk(pool):
    _, quality, k = pool
    chosen = select_greedy(quality, k)
    expected = list(np.argsort(quality, kind="stable")[:k])
    assert [int(i) for i in chosen] == [int(i) for i in expected]
