"""Throughput benchmark: the vectorized search vs its row-at-a-time oracle.

``CandidateGenerator.generate`` evaluates every beam iteration as stacked
arrays; ``tests/scalar_oracle.py`` is the same search one proposal at a
time.  Two workloads:

* **single-user** — the T+1 (user × time-point) cells of one applicant;
* **multi-user** — every cell of 50 applicants.

An untimed pass first asserts that both searches return identical
candidates for every cell, so the speedup is for bit-equal results.

Run as a script (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_batch_engine.py [--quick]

``--quick`` shrinks the dataset and user count for CI smoke runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.constraints import lending_domain_constraints
from repro.core import AdminConfig, CandidateGenerator, JustInTime
from repro.data import john_profile, lending_schema, make_lending_dataset
from repro.temporal import lending_update_function

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from scalar_oracle import generate_scalar  # noqa: E402

SEARCHES = {"scalar": generate_scalar, "batch": CandidateGenerator.generate}


def build_system(schema, history) -> JustInTime:
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(T=3, strategy="last", k=6, max_iter=10, random_state=0),
        domain_constraints=lending_domain_constraints(schema),
    )
    return system.fit(history)


def make_cells(system, n_users: int) -> list[tuple[np.ndarray, int]]:
    """``(x_t, t)`` for every cell of ``n_users`` perturbed applicants."""
    rng = np.random.default_rng(7)
    schema = system.schema
    base = schema.vector(john_profile())
    cells = []
    for _ in range(n_users):
        profile = schema.clip(base * rng.uniform(0.75, 1.25, size=base.size))
        trajectory = system.update_function.trajectory(profile, system.config.T)
        cells.extend((trajectory[t], t) for t in range(system.config.T + 1))
    return cells


def run(system, cells, search) -> list:
    constraints = system.domain_constraints
    return [
        search(system._cell_generator(t, constraints), x_t, time=t)
        for x_t, t in cells
    ]


def assert_equivalent(system, cells) -> None:
    expected, found = (run(system, cells, search) for search in SEARCHES.values())
    for want, got in zip(expected, found):
        assert len(want) == len(got)
        for a, b in zip(want, got):
            assert a.time == b.time
            assert np.array_equal(a.x, b.x)
            assert a.metrics == b.metrics
            assert a.plan_rank == b.plan_rank


def bench(system, cells, label: str) -> dict:
    timings = {}
    for name, search in SEARCHES.items():
        start = time.perf_counter()
        run(system, cells, search)
        timings[name] = time.perf_counter() - start
    speedup = timings["scalar"] / timings["batch"]
    print(
        f"{label:<12} scalar {timings['scalar'] * 1e3:8.1f} ms"
        f"   batch {timings['batch'] * 1e3:8.1f} ms   speedup {speedup:5.2f}x"
    )
    return {"scalar_s": timings["scalar"], "batch_s": timings["batch"],
            "speedup": speedup}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small dataset and user count (CI smoke run)",
    )
    parser.add_argument(
        "--users", type=int, default=None, help="multi-user workload size"
    )
    parser.add_argument(
        "--json", default=None, help="write timings JSON to this path"
    )
    args = parser.parse_args()

    n_users = args.users or (8 if args.quick else 50)
    n_per_year = 80 if args.quick else 150

    schema = lending_schema()
    history = make_lending_dataset(n_per_year=n_per_year, random_state=1)
    system = build_system(schema, history)
    single = make_cells(system, 1)
    multi = make_cells(system, n_users)
    assert_equivalent(system, multi)
    print(
        f"search benchmark (users={n_users}, n_per_year={n_per_year})"
        " — candidate sets verified identical before timing"
    )
    run(system, single, CandidateGenerator.generate)  # warm-up (threshold caches)
    results = {"users": n_users, "n_per_year": n_per_year, "quick": args.quick}
    for label, cells in (("single-user", single), (f"{n_users}-user", multi)):
        prefix = "single" if cells is single else "multi"
        results.update(
            {f"{prefix}_{k}": v for k, v in bench(system, cells, label).items()}
        )
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(results, indent=2))
        print(f"timings written to {path}")


if __name__ == "__main__":
    main()
