"""Seeded benchmark inputs: applicants, constraint variants, arrivals, reads.

Everything here is a pure function of the workload seed (plus the fitted
present-day model for stratification), so the same seed gives the same
inputs and the program under test receives only the generated values.

Applicants are drawn *stratified*: a fixed, seed-independent reference
pool fixes the bin edges of the present model's decision score among
rejected applicants, and every seed draws its applicants round-robin
from those bins.  How far an applicant sits below the decision boundary
drives how much the beam search explores, so different seeds do similar
amounts of search work while the individual profiles differ.
"""

from __future__ import annotations

import numpy as np

from repro.data import LendingGenerator, TemporalDataset

#: score strata of the rejected population (quartiles of the reference pool)
N_STRATA = 4
#: seed of the fixed reference pool that defines the strata edges
_REFERENCE_SEED = 987_654
_REFERENCE_SIZE = 4000

#: preference sets applicants rotate through (DSL texts persisted with the
#: session, so worker processes and the replay gate can rebuild them)
CONSTRAINT_VARIANTS: tuple[tuple[str, ...], ...] = (
    (),
    ("annual_income <= base_annual_income * 1.2", "gap <= 3"),
    ("loan_amount >= base_loan_amount * 0.7",),
    ("monthly_debt >= base_monthly_debt * 0.5", "gap <= 2"),
)

#: the per-user read keys: the bundle plus the six canned questions
QUESTIONS = ("bundle", "q1", "q2", "q3", "q4", "q5", "q6")


def read_target(user: str, question: str) -> str:
    """HTTP target of one read key (server defaults for alpha/feature)."""
    if question == "bundle":
        return f"/v1/insights?user={user}"
    return f"/v1/q/{question}?user={user}"


class ApplicantStream:
    """Endless seeded stream of rejected applicant profiles, stratified.

    ``score`` maps an ``(n, d)`` profile matrix to present-model decision
    scores; ``threshold`` is the present decision threshold.  Applicants
    ``0, 1, 2, ...`` come from strata ``0, 1, .., N_STRATA-1, 0, ...`` so
    every prefix of the stream is balanced across strata.
    """

    def __init__(self, seed: int, score, threshold: float, stream: int = 0):
        reference = LendingGenerator(random_state=_REFERENCE_SEED).sample_profiles(
            _REFERENCE_SIZE
        )
        ref_scores = score(reference)
        rejected = ref_scores[ref_scores <= threshold]
        self.edges = np.quantile(rejected, np.linspace(0, 1, N_STRATA + 1)[1:-1])
        self.threshold = float(threshold)
        self._score = score
        self._generator = LendingGenerator(
            random_state=np.random.default_rng([int(seed), 1, int(stream)])
        )
        self._bins: list[list[np.ndarray]] = [[] for _ in range(N_STRATA)]
        self._count = 0

    def _refill(self) -> None:
        X = self._generator.sample_profiles(512)
        scores = self._score(X)
        keep = scores <= self.threshold
        strata = np.searchsorted(self.edges, scores)
        for x, s, k in zip(X, strata, keep):
            if k:
                self._bins[int(s)].append(x)

    def next(self) -> np.ndarray:
        stratum = self._count % N_STRATA
        while not self._bins[stratum]:
            self._refill()
        self._count += 1
        return self._bins[stratum].pop(0)

    def take(self, n: int) -> list[np.ndarray]:
        return [self.next() for _ in range(n)]


#: loan-amount factors of successive session revisions, in turn
REVISION_FACTORS = (0.6, 1.25, 0.75, 1.5)


def revised_profile(profile: np.ndarray, revision: int) -> np.ndarray:
    """A participant's revised profile: a different requested loan amount
    (the demo lets applicants revise and re-run), kept on the schema's
    500-USD step and inside its bounds.  The factor depends only on the
    revision's number, not on the seed, so revisions of the same user
    cost the same search work under every seed."""
    x = np.array(profile, dtype=float)
    factor = REVISION_FACTORS[revision % len(REVISION_FACTORS)]
    x[5] = float(np.clip(np.round(x[5] * factor / 500.0) * 500.0, 1_000, 200_000))
    return x


class ArrivalStream:
    """Seeded labeled arrivals stamped at the history's latest timestamp,
    so every arrival lands in the refit window and every model moves."""

    def __init__(self, seed: int, at: float, schema):
        self._generator = LendingGenerator(
            random_state=np.random.default_rng([int(seed), 2])
        )
        self.at = float(at)
        self.schema = schema

    def next(self, n: int) -> TemporalDataset:
        X = self._generator.sample_profiles(n)
        years = np.full(n, self.at)
        return TemporalDataset(X, self._generator.label(X, years), years, self.schema)


class ZipfKeys:
    """Zipf-skewed draws over ``(slot, question)`` read keys.

    Users are ranked by a seeded permutation of the population slots and
    drawn with probability proportional to ``1 / rank**s``; the question
    is drawn independently with fixed weights.  Only *which* user is
    popular depends on the seed, so every seed sees the same mix of
    bundle and single-question reads (and of their render costs).
    Slots are stable positions in the population; the benchmark maps
    each slot to the user currently occupying it.
    """

    #: bundle reads are as common as all single questions together
    QUESTION_WEIGHTS = (6, 1, 1, 1, 1, 1, 1)

    def __init__(self, seed: int, n_slots: int, s: float = 1.0):
        rng = np.random.default_rng([int(seed), 3])
        ranks = rng.permutation(n_slots) + 1
        slot_p = 1.0 / ranks**s
        question_p = np.array(self.QUESTION_WEIGHTS, dtype=float)
        self.keys = [(slot, q) for slot in range(n_slots) for q in QUESTIONS]
        self.p = np.outer(slot_p / slot_p.sum(), question_p / question_p.sum()).ravel()
        self._rng = rng

    def draw(self, n: int) -> list[tuple[int, str]]:
        picks = self._rng.choice(len(self.keys), size=n, p=self.p)
        return [self.keys[i] for i in picks]
