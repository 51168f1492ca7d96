"""A small pass of each workload clears its correctness gate."""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from inputs import QUESTIONS
from spans import Tracer, summarise
from workloads import WORKLOADS, Recorder

BENCH = Path(__file__).resolve().parents[1]

SMALL = {
    "drift-shared": {"population": 2, "read_block_size": 20},
    "serve-zipf": {"population": 4, "read_block_size": 30},
}


def _small_pass(name, tmp_path, rounds=1):
    workload = WORKLOADS[name](11, tmp_path / name, **SMALL[name])
    workload.setup()
    rec = Recorder()
    try:
        for _ in range(rounds):
            workload.round(rec)
        workload.gate(rec)
    finally:
        workload.close()
    return rec


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_pass_clears_its_gate(name, tmp_path):
    rec = _small_pass(name, tmp_path)
    assert rec.problems == []
    assert rec.onboard and rec.epoch and rec.read_ms
    assert rec.attempted == len(rec.onboard) + len(rec.epoch) + len(rec.read_ms)
    # the only tolerated failures are pre-revision answers served to users
    # who revised their session (a known serving-cache defect)
    assert set(rec.failures) <= {"read-stale-revised"}
    if name != "serve-zipf":
        assert rec.failed == 0


def test_same_seed_same_operations_and_failures(tmp_path):
    """A workload is a fixed sequence of rounds: two deployments of one
    seed end with the same store and the same failed reads."""
    first = WORKLOADS["serve-zipf"](11, tmp_path / "a", **SMALL["serve-zipf"])
    second = WORKLOADS["serve-zipf"](11, tmp_path / "b", **SMALL["serve-zipf"])
    outcomes = []
    for workload in (first, second):
        workload.setup()
        rec = Recorder()
        try:
            for _ in range(2):
                workload.round(rec)
            outcomes.append((workload.system.store.contents_digest(), rec.attempted,
                             dict(rec.failures), len(rec.onboard), len(rec.epoch)))
        finally:
            workload.close()
    assert outcomes[0] == outcomes[1]


def test_traced_drift_pass_collects_worker_spans(tmp_path):
    tracer = Tracer(tmp_path / "spans")
    tracer.install()
    try:
        rec = _small_pass("drift-shared", tmp_path, rounds=1)
    finally:
        tracer.uninstall()
    assert rec.problems == []
    summary = summarise(tracer.spans)
    for name in ("core.worker.pool", "core.worker.drain", "core.search",
                 "ml.forest.predict", "db.store.claim", "core.persistence.save",
                 "serve.pool.view", "core.insights.ask"):
        assert summary[name]["calls"] > 0, name
    pool = summary["core.worker.pool"]
    assert pool["self_s"] <= pool["wall_s"]
    # worker spans hang under the pool span that forked them
    pool_ids = {s[0] for s in tracer.spans if s[2] == "core.worker.pool"}
    assert all(s[1] in pool_ids for s in tracer.spans if s[2] == "core.worker.drain")


def test_suspended_thread_records_no_spans(tmp_path):
    tracer = Tracer(tmp_path / "spans")
    traced = tracer._wrap(lambda: None, "probe", None)
    traced()
    with tracer.suspended():
        traced()
        other = threading.Thread(target=traced)
        other.start()
        other.join()
    traced()
    # two calls on this thread outside the block, one on the other thread
    assert summarise(tracer.spans)["probe"]["calls"] == 3


def test_read_checks_record_no_spans(tmp_path):
    """The expected renders of a read block are the benchmark's work, not
    the program's: with no read served, checking renders every key but
    records no ``core.insights.ask`` span."""
    tracer = Tracer(tmp_path / "spans")
    workload = WORKLOADS["serve-zipf"](11, tmp_path / "w", **SMALL["serve-zipf"])
    workload.aside = tracer.suspended
    workload.setup()
    tracer.install()
    try:
        user = next(iter(workload.specs))
        rec = Recorder()
        workload.check_reads(rec, [(user, q, 200, b"") for q in QUESTIONS])
    finally:
        tracer.uninstall()
        workload.close()
    assert rec.failures["read-wrong"] == len(QUESTIONS)
    assert "core.insights.ask" not in summarise(tracer.spans)


def test_only_pre_revision_answers_count_as_the_revision_defect(tmp_path):
    workload = WORKLOADS["serve-zipf"](11, tmp_path / "w", **SMALL["serve-zipf"])
    workload.setup()
    try:
        user = next(iter(workload.specs))
        key = (user, "q1")
        workload._seen_bodies[key] = {b"earlier"}
        rec = Recorder()
        workload.check_reads(rec, [(user, "q1", 200, b"earlier")])
        assert rec.failures == {"read-stale": 1} and len(rec.problems) == 1
        workload.mark_revised(user)
        rec = Recorder()
        workload.check_reads(rec, [(user, "q1", 200, b"earlier")])
        assert rec.failures == {"read-stale-revised": 1} and rec.problems == []
    finally:
        workload.close()


def test_summarise_subtracts_child_spans():
    spans = [
        ("1:1", None, "outer", 1, 0.0, 10.0, None),
        ("1:2", "1:1", "inner", 1, 1.0, 4.0, 3),
        ("1:3", "1:1", "inner", 1, 3.0, 6.0, 0),
    ]
    summary = summarise(spans)
    assert summary["outer"]["self_s"] == pytest.approx(5.0)
    assert summary["inner"]["calls"] == 2 and summary["inner"]["count"] == 3
    assert summary["inner"]["zero_counts"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "serve-zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
