"""Decision-altering candidate generation (Definitions II.3, §II.A).

The generator searches for modifications ``x'`` of the (temporal) input
``x`` with ``x' ∈ C(x)`` and ``M_t(x') > δ_t``.  Finding an optimal
candidate is NP-hard for forests and neural networks, so — following the
paper's adaptation of Deutch & Frost [5] — the search is an iterative
beam search:

* model-dependent heuristics propose single-coordinate moves around each
  beam state (:mod:`repro.core.moves`);
* a beam of width ``beam_width`` keeps the most promising states, where
  "promising" blends proximity to the decision boundary, the user's
  objective, and a penalty for violated constraints (states may pass
  *through* invalid regions, but only valid, decision-altering points are
  collected as candidates);
* iteration stops at ``max_iter`` or after ``patience`` iterations
  without improving the best candidate (the paper observes empirical
  convergence "after a small number of iterations" — the bench measures
  this);
* the pool is reduced to a small *diverse* top-k
  (:mod:`repro.core.diversity`).

:func:`brute_force_tree_candidates` computes the exact minimal-``diff``
candidate for a single decision tree by enumerating positive leaves —
feasible because one tree partitions the space into boxes — and serves as
the optimality reference in tests and the beam ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.constraints.evaluate import ConstraintsFunction
from repro.core.diversity import diverse_order
from repro.core.moves import MoveProposer, default_proposers
from repro.core.objectives import (
    CandidateMetrics,
    Objective,
    get_objective,
    measure,
    measure_batch,
)
from repro.data.schema import DatasetSchema
from repro.exceptions import CandidateSearchError
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "Candidate",
    "SearchStats",
    "CandidateGenerator",
    "search_counter_totals",
    "brute_force_tree_candidates",
]

#: Weight of the boundary-distance term in the beam heuristic.
_BOUNDARY_WEIGHT = 10.0
#: Per-violated-constraint penalty in the beam heuristic.
_VIOLATION_PENALTY = 5.0

@dataclass(frozen=True)
class Candidate:
    """One decision-altering candidate at one time point.

    ``plan_rank``/``plan_quality``/``plan_min_dist`` describe the
    candidate's place in its cell's stored diverse plan set: selection
    order under greedy max-min diversity, the objective key it was
    scored with, and the scaled distance to the nearest earlier pick
    (``None`` for the seed).  ``plan_rank`` is ``-1`` for candidates
    that never went through plan-set finalisation (legacy rows,
    ad-hoc constructions); such rows serialise exactly as before the
    metadata existed.
    """

    x: np.ndarray
    time: int
    metrics: CandidateMetrics
    plan_rank: int = -1
    plan_quality: float | None = None
    plan_min_dist: float | None = None

    @property
    def diff(self) -> float:
        return self.metrics.diff

    @property
    def gap(self) -> int:
        return self.metrics.gap

    @property
    def confidence(self) -> float:
        return self.metrics.confidence

    def changes(self, x_base, schema: DatasetSchema) -> dict[str, tuple[float, float]]:
        """``{feature: (from, to)}`` for every modified coordinate."""
        x_base = np.asarray(x_base, dtype=float).ravel()
        out = {}
        for i, name in enumerate(schema.names):
            if abs(self.x[i] - x_base[i]) > 1e-9:
                out[name] = (float(x_base[i]), float(self.x[i]))
        return out


@dataclass
class SearchStats:
    """Diagnostics of one ``generate`` call."""

    iterations: int = 0
    proposals_evaluated: int = 0
    valid_found: int = 0
    converged: bool = False
    best_key_history: list[float] = field(default_factory=list)
    #: proposals dropped by the rounded-row visited-set dedupe before any
    #: model/constraint evaluation
    dedupe_hits: int = 0


#: counter fields aggregated across cells by refresh / drain reports
SEARCH_COUNTER_FIELDS = (
    "iterations",
    "proposals_evaluated",
    "valid_found",
    "dedupe_hits",
)


def search_counter_totals(stats_iter) -> dict[str, int]:
    """Sum the :data:`SEARCH_COUNTER_FIELDS` over an iterable of
    :class:`SearchStats` (``None`` entries are skipped) — the per-epoch
    drain-efficiency summary exposed on refresh and worker reports."""
    totals = dict.fromkeys(SEARCH_COUNTER_FIELDS, 0)
    for stats in stats_iter:
        if stats is None:
            continue
        for name in SEARCH_COUNTER_FIELDS:
            totals[name] += int(getattr(stats, name, 0))
    return totals


class CandidateGenerator:
    """Beam-search generator of diverse top-k decision-altering candidates.

    Parameters
    ----------
    model:
        Fitted scorer ``M_t`` (Definition II.1).
    threshold:
        Decision threshold ``δ_t``.
    schema:
        Feature schema (drives move granularity and physical clipping).
    constraints:
        Joined admin+user constraints ``C_t``; ``None`` means
        unconstrained.
    k:
        Number of candidates to return (diverse top-k).
    beam_width:
        Beam size; defaults to ``k`` as in the paper ("a beam search with
        width k").
    max_iter / patience:
        Iteration budget and no-improvement stopping patience.
    objective:
        Preset name or :class:`~repro.core.objectives.Objective` used for
        beam ranking and the final quality key.
    diff_scale:
        Per-feature divisors for ``diff`` (typically training-set stds).
    proposers:
        Move proposers; defaults to capability-matched ones.
    random_state:
        Seeds the random exploration moves.
    """

    def __init__(
        self,
        model,
        threshold: float,
        schema: DatasetSchema,
        constraints: ConstraintsFunction | None = None,
        *,
        k: int = 8,
        beam_width: int | None = None,
        max_iter: int = 15,
        patience: int = 3,
        objective: str | Objective = "balanced",
        diff_scale=None,
        proposers: list[MoveProposer] | None = None,
        random_state: int | None = 0,
    ):
        if k < 1:
            raise CandidateSearchError("k must be >= 1")
        if max_iter < 1:
            raise CandidateSearchError("max_iter must be >= 1")
        if patience < 1:
            raise CandidateSearchError("patience must be >= 1")
        self.model = model
        self.threshold = float(threshold)
        self.schema = schema
        self.constraints = constraints or ConstraintsFunction.unconstrained(schema)
        if diff_scale is None and self.constraints.diff_scale is not None:
            diff_scale = self.constraints.diff_scale
        self.diff_scale = diff_scale
        # metrics diff can be reused for the constraints' 'diff' variable
        # only when both layers measure in the same scaled space
        constraint_scale = self.constraints.diff_scale
        self._shared_diff_scale = (
            (diff_scale is None and constraint_scale is None)
            or (
                diff_scale is not None
                and constraint_scale is not None
                and np.array_equal(diff_scale, constraint_scale)
            )
        )
        self.k = k
        self.beam_width = beam_width or k
        self.max_iter = max_iter
        self.patience = patience
        self.objective = get_objective(objective)
        self.proposers = proposers if proposers is not None else default_proposers(model)
        self.random_state = random_state
        self.last_stats_: SearchStats | None = None

    # ------------------------------------------------------------ internals

    @staticmethod
    def _row_keys(X: np.ndarray) -> list[bytes]:
        """Rounded-row dedupe keys for a proposal matrix.

        Equivalent to hashing ``tuple(np.round(x, 9))``: ``+ 0.0``
        normalises ``-0.0`` to ``+0.0`` so the byte keys collide exactly
        where tuple equality would.
        """
        R = np.round(np.atleast_2d(X), 9) + 0.0
        return [R[i].tobytes() for i in range(R.shape[0])]

    def _beam_key(
        self, metrics: CandidateMetrics, n_violations: int, pool_empty: bool
    ) -> float:
        """Beam ranking: smaller is more promising.

        While the pool is empty the objective term is down-weighted so the
        beam chases the decision boundary instead of hugging the input (a
        strongly rejected input sits on a flat zero-score plateau where
        only the boundary term can provide direction).
        """
        boundary = max(0.0, self.threshold - metrics.confidence)
        objective_weight = 0.1 if pool_empty else 1.0
        return (
            _BOUNDARY_WEIGHT * boundary
            + objective_weight * self.objective.key(metrics)
            + _VIOLATION_PENALTY * n_violations
        )

    # -------------------------------------------------------------- search

    def _prologue(self, x_base, time: int, key_fn, warm_start=None):
        """Search setup: clip the input, seed the RNG, and pool the
        unmodified input if it already flips (the paper's Q1, "no
        modification").  ``key_fn`` maps a state vector to its
        visited-set key.

        ``warm_start`` is an optional ``(n, d)`` array (or list of
        vectors) of previously found candidates for this cell; each is
        clipped, revalidated under the *current* model and constraints
        (pooled only when still decision-altering and valid), and kept as
        an extra initial beam seed ranked by the beam key.  With
        ``warm_start=None`` the search is bit-identical to the historical
        cold path.
        """
        x_base = self.schema.clip(np.asarray(x_base, dtype=float).ravel())
        rng = np.random.default_rng(self.random_state)
        stats = SearchStats()
        pool: dict = {}
        visited: set = {key_fn(x_base)}
        base_score = float(self.model.decision_score(x_base.reshape(1, -1))[0])
        base_metrics = measure(x_base, x_base, base_score, self.diff_scale)
        if base_score > self.threshold and self.constraints.is_valid(
            x_base, x_base, confidence=base_score, time=time
        ):
            pool[key_fn(x_base)] = Candidate(x_base, time, base_metrics)
            stats.valid_found += 1
        seeds: list[tuple[float, int, np.ndarray]] = []
        warm_matrix = (
            None
            if warm_start is None
            else np.atleast_2d(np.asarray(warm_start, dtype=float))
        )
        if warm_matrix is not None and warm_matrix.size:
            W = self.schema.clip_matrix(warm_matrix)
            # one model call for all seeds; constraints stay per-row (the
            # seed lists are small — at most the stored k of the cell)
            warm_scores = np.asarray(self.model.decision_score(W), dtype=float).ravel()
            for order in range(W.shape[0]):
                w = W[order]
                key = key_fn(w)
                if key in visited:
                    continue
                visited.add(key)
                score = float(warm_scores[order])
                metrics = measure(w, x_base, score, self.diff_scale)
                violations = self.constraints.violated(
                    w, x_base, confidence=score, time=time
                )
                stats.proposals_evaluated += 1
                if not violations and score > self.threshold:
                    pool[key] = Candidate(w, time, metrics)
                    stats.valid_found += 1
                seeds.append(
                    (self._beam_key(metrics, len(violations), not pool), order, w)
                )
            seeds.sort(key=lambda item: (item[0], item[1]))
        best_key = min(
            (self.objective.key(c.metrics) for c in pool.values()),
            default=np.inf,
        )
        beam = [x_base] + [w for _, _, w in seeds[: max(0, self.beam_width - 1)]]
        return x_base, rng, stats, pool, visited, best_key, beam

    def generate(self, x_base, time: int = 0, warm_start=None) -> list[Candidate]:
        """Return up to ``k`` diverse decision-altering candidates.

        ``x_base`` is the temporal input ``f(x, t)`` for this generator's
        time point; diff/gap are measured against it.  ``warm_start``
        optionally seeds the beam from previously stored candidates (see
        :meth:`_prologue`); the incremental refresh uses it to resume
        the search near the old optimum instead of from the profile.

        One iteration stacks all proposals of the beam into an ``(m, d)``
        matrix, dedupes it by rounded-row byte keys, then computes
        scores, metrics, constraint-violation counts and beam keys as
        single array operations, and re-ranks the beam with a *stable*
        top-k.  The row-at-a-time reference search in the test suite
        returns bit-identical candidates for the same seed.
        """
        x_base, rng, stats, pool, visited, best_key, beam = self._prologue(
            x_base, time, lambda x: self._row_keys(x)[0], warm_start
        )
        # pool only ever grows, so the best pool key is a running minimum
        pool_best = best_key
        stale = 0
        for _ in range(self.max_iter):
            stats.iterations += 1
            chunks = [
                proposer.propose_batch(beam, self.model, self.schema, rng)
                for proposer in self.proposers
            ]
            # state-major, proposer-minor: the reference loop's order
            mats = [chunk[j] for j in range(len(beam)) for chunk in chunks]
            mats = [m for m in mats if m.shape[0]]
            if not mats:
                stats.converged = True
                break
            proposals = np.vstack(mats)
            keys = self._row_keys(proposals)
            fresh_idx = []
            fresh_keys = []
            for i, key in enumerate(keys):
                if key not in visited:
                    visited.add(key)
                    fresh_idx.append(i)
                    fresh_keys.append(key)
            stats.dedupe_hits += len(keys) - len(fresh_idx)
            if not fresh_idx:
                stats.converged = True
                break
            fresh = proposals[fresh_idx]
            n = fresh.shape[0]
            stats.proposals_evaluated += n
            scores = np.asarray(self.model.decision_score(fresh), dtype=float).ravel()
            metrics = measure_batch(fresh, x_base, scores, self.diff_scale)
            violation_counts = self.constraints.violation_counts_batch(
                fresh,
                x_base,
                confidence=scores,
                time=time,
                diff=metrics.diff if self._shared_diff_scale else None,
                gap=metrics.gap,
            )
            valid = (violation_counts == 0) & (scores > self.threshold)
            objective_keys = self.objective.key_batch(metrics)
            # the reference loop checks `not pool` after inserting each
            # row, so the objective down-weighting switches off as soon as
            # any earlier row (inclusive) entered the pool this iteration
            if pool:
                pool_empty = np.zeros(n, dtype=bool)
            else:
                pool_empty = np.cumsum(valid) == 0
            objective_weight = np.where(pool_empty, 0.1, 1.0)
            beam_keys = (
                _BOUNDARY_WEIGHT * np.maximum(0.0, self.threshold - scores)
                + objective_weight * objective_keys
                + _VIOLATION_PENALTY * violation_counts
            )
            for i in np.flatnonzero(valid):
                pool[fresh_keys[i]] = Candidate(
                    fresh[i].copy(), time, metrics.row(int(i))
                )
                stats.valid_found += 1
            if valid.any():
                pool_best = min(pool_best, float(objective_keys[valid].min()))
            beam = [fresh[i] for i in self._stable_top(beam_keys, self.beam_width)]
            stats.best_key_history.append(pool_best)
            if pool_best < best_key - 1e-12:
                best_key = pool_best
                stale = 0
            else:
                stale += 1
                if stale >= self.patience and pool:
                    stats.converged = True
                    break
        self.last_stats_ = stats
        return self._finalise(pool)

    @staticmethod
    def _stable_top(keys: np.ndarray, width: int) -> np.ndarray:
        """Indices of the ``width`` smallest keys, in stable sorted order.

        One ``argpartition`` plus a tie repair at the cut, equivalent to
        a full stable sort followed by ``[:width]`` (ties at the boundary
        resolve to the lowest original indices, like Python's stable
        ``list.sort``).
        """
        n = keys.size
        if n <= width:
            take = np.arange(n)
        else:
            part = np.argpartition(keys, width - 1)[:width]
            cut = keys[part].max()
            smaller = np.flatnonzero(keys < cut)
            tied = np.flatnonzero(keys == cut)
            take = np.concatenate([smaller, tied[: width - smaller.size]])
        return take[np.argsort(keys[take], kind="stable")]

    def _finalise(self, pool: dict) -> list[Candidate]:
        """Select the diverse plan set, annotate it and restore the
        quality order."""
        candidates = list(pool.values())
        if not candidates:
            return []
        quality = np.array([self.objective.key(c.metrics) for c in candidates])
        points = np.vstack([c.x for c in candidates])
        chosen, min_dists = diverse_order(
            points, quality, self.k, scale=self.diff_scale
        )
        chosen_candidates = [
            replace(
                candidates[i],
                plan_rank=rank,
                plan_quality=float(quality[i]),
                plan_min_dist=float(dist) if np.isfinite(dist) else None,
            )
            for rank, (i, dist) in enumerate(zip(chosen, min_dists))
        ]
        chosen_candidates.sort(key=lambda c: self.objective.key(c.metrics))
        return chosen_candidates


# --------------------------------------------------------------------------
# exact reference for single trees
# --------------------------------------------------------------------------


def brute_force_tree_candidates(
    tree: DecisionTreeClassifier,
    threshold: float,
    x_base,
    schema: DatasetSchema,
    constraints: ConstraintsFunction | None = None,
    *,
    time: int = 0,
    diff_scale=None,
) -> list[Candidate]:
    """Exact candidates for a single tree, sorted by ``diff`` ascending.

    A decision tree partitions the input space into axis-aligned boxes
    (one per leaf).  For every leaf whose probability exceeds the
    threshold, the closest point of its box to ``x_base`` (coordinate-wise
    projection, honouring strict inequalities with a small margin) is the
    optimal candidate *within that leaf*; the global optimum is the best
    across leaves.  Used to verify beam-search quality.
    """
    x_base = schema.clip(np.asarray(x_base, dtype=float).ravel())
    constraints = constraints or ConstraintsFunction.unconstrained(schema)
    d = len(schema)
    results: list[Candidate] = []
    margin = 1e-6

    def leaf_boxes(node, lo, hi):
        if node.is_leaf:
            yield node, lo.copy(), hi.copy()
            return
        f, thr = node.feature, node.threshold
        # left: x[f] <= thr
        old = hi[f]
        hi[f] = min(hi[f], thr)
        if lo[f] <= hi[f]:
            yield from leaf_boxes(node.left, lo, hi)
        hi[f] = old
        # right: x[f] > thr
        old = lo[f]
        lo[f] = max(lo[f], np.nextafter(thr, np.inf) + margin * max(1, abs(thr)))
        if lo[f] <= hi[f]:
            yield from leaf_boxes(node.right, lo, hi)
        lo[f] = old

    lo0 = np.full(d, -np.inf)
    hi0 = np.full(d, np.inf)
    for leaf, lo, hi in leaf_boxes(tree.root_, lo0, hi0):
        if leaf.probability <= threshold:
            continue
        candidate = np.clip(x_base, lo, hi)
        candidate = schema.clip(candidate)
        # integer clipping may exit the box; nudge back inside where possible
        adjusted = np.clip(candidate, lo, hi)
        if not np.allclose(adjusted, candidate):
            candidate = schema.clip(adjusted)
            if not ((candidate >= lo - 1e-9) & (candidate <= hi + 1e-9)).all():
                continue
        score = float(tree.decision_score(candidate.reshape(1, -1))[0])
        if score <= threshold:
            continue
        if not constraints.is_valid(
            candidate, x_base, confidence=score, time=time
        ):
            continue
        results.append(
            Candidate(candidate, time, measure(candidate, x_base, score, diff_scale))
        )
    results.sort(key=lambda c: c.diff)
    return results
