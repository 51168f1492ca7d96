"""Seeded, stratified input generation."""

import numpy as np

from inputs import N_STRATA, ApplicantStream, ArrivalStream, ZipfKeys, revised_profile
from repro.data import lending_schema


def _score(X):
    # a stand-in present model: debt and loan burden against income
    return 1.0 - (12 * X[:, 3] + X[:, 5]) / X[:, 2]


def _stream(seed):
    return ApplicantStream(seed, _score, threshold=0.6)


def test_same_seed_same_applicants():
    a, b = _stream(7).take(12), _stream(7).take(12)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_different_seeds_differ():
    a, b = _stream(7).take(12), _stream(8).take(12)
    assert not all(np.array_equal(x, y) for x, y in zip(a, b))


def test_every_prefix_is_balanced_across_strata():
    stream = _stream(3)
    applicants = stream.take(4 * N_STRATA)
    scores = _score(np.array(applicants))
    assert (scores <= stream.threshold).all()
    strata = np.searchsorted(stream.edges, scores)
    assert list(strata) == [i % N_STRATA for i in range(len(applicants))]


def test_strata_edges_do_not_depend_on_the_seed():
    assert np.array_equal(_stream(1).edges, _stream(2).edges)


def test_zipf_keys_and_arrivals_are_seeded():
    first, second = ZipfKeys(5, 8), ZipfKeys(5, 8)
    assert first.draw(50) == second.draw(50)
    assert len({key for key in ZipfKeys(5, 8).draw(500)}) > 10
    schema = lending_schema()
    a = ArrivalStream(5, 2024.0, schema).next(10)
    b = ArrivalStream(5, 2024.0, schema).next(10)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert (a.timestamps == 2024.0).all()


def test_revised_profile_changes_only_the_loan():
    x = np.array([30.0, 0.0, 50_000.0, 900.0, 4.0, 20_000.0])
    y = revised_profile(x, 0)
    assert np.array_equal(x[:5], y[:5]) and y[5] != x[5] and y[5] % 500 == 0
    assert np.array_equal(revised_profile(x, 4), y)
