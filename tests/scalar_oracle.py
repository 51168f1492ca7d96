"""Row-at-a-time reference search: the oracle for ``CandidateGenerator``.

:meth:`repro.core.candidates.CandidateGenerator.generate` evaluates each
beam iteration as stacked arrays.  :func:`generate_scalar` is the same
beam search written one proposal at a time — scalar metrics, per-row
constraint checks, tuple visited-set keys, a full stable sort of the
beam — and must return bit-identical candidates and search statistics
for the same generator and seed.  It shares only the search prologue
(input clipping, RNG seeding, warm-seed revalidation, itself row-at-a-
time) and the final diverse plan-set selection with production code.

Caveat: the reference loop interleaves proposers per beam state while
``generate`` calls each proposer once per iteration over all states, so
with *custom* proposer lists in which more than one proposer consumes
the RNG, the draw order (and hence the random moves) can differ.  The
default proposers have exactly one RNG consumer, where both orders
coincide.
"""

from __future__ import annotations

import numpy as np

from repro.core.candidates import Candidate, CandidateGenerator
from repro.core.objectives import measure


def _state_key(x: np.ndarray) -> tuple:
    return tuple(np.round(x, 9))


def generate_scalar(
    generator: CandidateGenerator, x_base, time: int = 0, warm_start=None
) -> list[Candidate]:
    """Reference twin of ``generator.generate(x_base, time, warm_start)``;
    sets ``generator.last_stats_`` the same way."""
    g = generator
    x_base, rng, stats, pool, visited, best_key, beam = g._prologue(
        x_base, time, _state_key, warm_start
    )
    stale = 0
    for iteration in range(g.max_iter):
        stats.iterations = iteration + 1
        proposals: list[np.ndarray] = []
        for state in beam:
            for proposer in g.proposers:
                proposals.extend(proposer.propose(state, g.model, g.schema, rng))
        fresh: list[np.ndarray] = []
        for proposal in proposals:
            key = _state_key(proposal)
            if key not in visited:
                visited.add(key)
                fresh.append(proposal)
        stats.dedupe_hits += len(proposals) - len(fresh)
        if not fresh:
            stats.converged = True
            break
        stats.proposals_evaluated += len(fresh)
        scores = g.model.decision_score(np.vstack(fresh))
        ranked: list[tuple[float, np.ndarray]] = []
        for proposal, score in zip(fresh, scores):
            metrics = measure(proposal, x_base, float(score), g.diff_scale)
            violations = g.constraints.violated(
                proposal, x_base, confidence=float(score), time=time
            )
            if not violations and score > g.threshold:
                pool[_state_key(proposal)] = Candidate(proposal, time, metrics)
                stats.valid_found += 1
            ranked.append((g._beam_key(metrics, len(violations), not pool), proposal))
        ranked.sort(key=lambda pair: pair[0])
        beam = [proposal for _, proposal in ranked[: g.beam_width]]
        new_best = min(
            (g.objective.key(c.metrics) for c in pool.values()), default=np.inf
        )
        stats.best_key_history.append(new_best)
        if new_best < best_key - 1e-12:
            best_key = new_best
            stale = 0
        else:
            stale += 1
            if stale >= g.patience and pool:
                stats.converged = True
                break
    g.last_stats_ = stats
    return g._finalise(pool)
