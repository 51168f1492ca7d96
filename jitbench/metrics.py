"""The benchmark's metrics: end-to-end values of a measured pass and
per-layer values of a traced pass (see ``layers.json`` for which
end-to-end metric each layer metric should move)."""

from __future__ import annotations

from host import Timing
from spans import summarise, union
from stats import median, percentile
from workloads import Recorder

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "onboard_ms": "ms",
    "epoch_s": "s",
    "peak_rss_mb": "MB",
}


#: end-to-end metrics whose traced-minus-untraced change is reported.
#: ``peak_rss_mb`` is left out: it covers the forked pool workers, and a
#: process's record of its children's peak cannot be reset between passes
TRACED_END_TO_END = ("setup_s", "onboard_ms", "epoch_s")


def end_to_end(rec: Recorder, setups: list[Timing]) -> dict[str, float]:
    """Every end-to-end metric of one measured pass: the median of the
    host-corrected set-ups, onboardings and epochs."""
    return {
        "setup_s": median(t.corrected_s for t in setups),
        "onboard_ms": median(t.corrected_s for t in rec.onboard) * 1000.0,
        "epoch_s": median(t.corrected_s for t in rec.epoch),
        "peak_rss_mb": rec.peak_rss_mb,
    }


def read_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Closed-loop read latency and throughput of one measured pass.

    Reported with the serving layer, not end to end: on a shared 2-core
    host, loopback request latency moves by up to 2x between identical
    runs (thread wake-ups wait on the host scheduler), far beyond any
    bound a regression check can use.
    """
    return {
        "serve.read.p50_ms": (median(rec.read_ms), "ms"),
        "serve.read.p99_ms": (percentile(rec.read_ms, 99), "ms"),
        "serve.read.per_s": (len(rec.read_ms) / rec.read_wall_s, "1/s"),
    }


def layer_metrics(result: dict, rec: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer values of one traced pass, per measured round."""
    summary = summarise(result["spans"])
    rounds = max(rec.rounds, 1)

    def ms(name, key="self_s"):
        return summary.get(name, {}).get(key, 0.0) * 1000.0 / rounds, "ms/round"

    def calls(name):
        return summary.get(name, {}).get("calls", 0) / rounds, "1/round"

    def count(name):
        return summary.get(name, {}).get("count", 0) / rounds, "1/round"

    def work(key):
        return rec.work.get(key, 0) / rounds, "1/round"

    drains = [(s[4], s[5]) for s in result["spans"] if s[2] == "core.worker.drain"]
    claim = summary.get("db.store.claim", {})
    before, after = result["stats"]
    cache = {k: after["cache"][k] - before["cache"][k] for k in after["cache"]}
    access = {k: after["access"][k] - before["access"][k]
              for k in ("recorded", "dropped")}
    lookups = rec.work.get("search.cache_hits", 0) + rec.work.get("search.cache_misses", 0)
    served = cache["hits"] + cache["misses"]
    reads = max(len(rec.read_ms), 1)
    stale_reads = (rec.failures["read-stale"] + rec.failures["read-stale-revised"])
    return {
        "temporal.fit_ms": ms("temporal.fit"),
        "temporal.fingerprint_ms": ms("temporal.fingerprint"),
        "temporal.fingerprint_calls": calls("temporal.fingerprint"),
        "ml.forest.predict_ms": ms("ml.forest.predict"),
        "ml.forest.predict_calls": calls("ml.forest.predict"),
        "ml.forest.predict_rows": count("ml.forest.predict"),
        "constraints.check_ms": ms("constraints.check"),
        "constraints.check_rows": count("constraints.check"),
        "core.search_ms": ms("core.search"),
        "core.search.iterations": work("search.iterations"),
        "core.search.proposals": work("search.proposals_evaluated"),
        "core.search.dedupe_hits": work("search.dedupe_hits"),
        "core.search.cache_hit_ratio": (
            rec.work.get("search.cache_hits", 0) / lookups if lookups else 0.0, "ratio"),
        "core.system.create_sessions_ms": ms("core.system.create_sessions"),
        "db.store.store_sessions_ms": ms("db.store.store_sessions"),
        "core.insights.ask_ms": ms("core.insights.ask"),
        "core.insights.ask_calls": calls("core.insights.ask"),
        "db.store.upsert_ms": ms("db.store.upsert"),
        "db.store.upsert_rows": count("db.store.upsert"),
        "db.store.ledger_snapshot_ms": ms("db.store.ledger_snapshot"),
        "core.worker.pool_ms": ms("core.worker.pool", "wall_s"),
        "core.worker.drain_ms": (union(drains) * 1000.0 / rounds, "ms/round"),
        "db.store.claim_ms": ms("db.store.claim"),
        "db.store.claim_calls": calls("db.store.claim"),
        "db.store.claim_empty_ratio": (
            claim.get("zero_counts", 0) / claim["calls"] if claim.get("calls") else 0.0,
            "ratio"),
        "db.store.renew_calls": calls("db.store.renew"),
        "core.worker.lost_leases": work("lost_leases"),
        "core.persistence.save_ms": ms("core.persistence.save"),
        "core.persistence.load_ms": ms("core.persistence.load"),
        "db.store.digest_ms": ms("db.store.digest"),
        "data.feed.poll_ms": ms("data.feed.poll"),
        "core.scheduler.gate_ms": ms("core.scheduler.gate"),
        "serve.cache.hit_ratio": (cache["hits"] / served if served else 0.0, "ratio"),
        "serve.cache.stale": (cache["stale"] / rounds, "1/round"),
        "serve.cache.evicted": (cache["evicted"] / rounds, "1/round"),
        "serve.pool.view_ms": ms("serve.pool.view"),
        "serve.protocol.serialize_ms": ms("serve.protocol.serialize"),
        "serve.access.recorded": (access["recorded"] / rounds, "1/round"),
        "serve.access.dropped": (access["dropped"] / rounds, "1/round"),
        "db.store.record_accesses_ms": ms("db.store.record_accesses"),
        "serve.read.stale_failures": (stale_reads / rounds, "1/round"),
        "serve.read.failed_share": (100.0 * stale_reads / reads, "%"),
        "work.cells": work("cells"),
        "host.slowdown": (median(t.slowdown for t in rec.onboard + rec.epoch), "ratio"),
    }


def trace_overhead(plain: dict[str, float], traced: dict[str, float]) -> dict:
    """Traced-minus-untraced change of the end-to-end timings, in percent
    of the untraced value."""
    return {
        f"trace.overhead.{name}": (100.0 * (traced[name] - plain[name]) / plain[name], "%")
        for name in TRACED_END_TO_END
    }
