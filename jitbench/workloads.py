"""The benchmark's two workloads, driven through the program's public API.

Both workloads run the same three user-visible phases, so every
end-to-end metric is measured on every workload:

* **onboarding** — one applicant submits a profile and waits for all six
  answers (``create_session`` + ``all_insights``);
* **epoch** — the system catches up with the world (a refit plus the
  recompute of whatever went stale);
* **reads** — closed-loop ``GET /v1/insights`` and ``/v1/q/*`` over one
  keep-alive loopback connection to an in-process ``InsightServer``.

The workloads differ in how much of each phase they run and in how much
their inputs share, so each one loads different layers:

``drift-shared``
    A population built from two prototype applicants, each with its own
    constraint variant (every cell repeats across two users), is kept
    current by ``RefreshOrchestrator.poll_once`` epochs: arrivals
    appended to a CSV feed, drift gate, refit, checkpoint, forked worker
    pool, checkpoint with digest.  Arrivals land at the latest
    timestamp, so every cell goes stale every epoch.  Each round three
    users leave and three join from the same prototypes.
``serve-zipf``
    Zipf-skewed reads over a key space four times the cache, with writes
    between read blocks: a budgeted ``JustInTime.refresh`` epoch, one
    new applicant replacing a departing one, and two session revisions
    (a long-standing user re-runs ``create_session`` with a new profile
    and preferences).  Its applicants are distinct, so search sharing has
    nothing to share in its onboardings (the bypass side).

A workload is a fixed sequence of rounds, a pure function of the seed:
the same seed gives the same operations, the same work and the same
failed reads, however fast the host runs them.

Correctness is checked outside every timed section: each read block's
served bodies against a direct ``InsightEngine`` + ``serve.protocol``
render of the store, plus a per-workload store gate (see ``gate``).
The benchmark's own work (input generation and those checks) runs inside
``Workload.aside()``, which a traced pass maps to a tracer suspension so
that it does not count towards the layer figures.
"""

from __future__ import annotations

import contextlib
import csv
import http.client
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.app.cli import build_system
from repro.core import RefreshOrchestrator
from repro.core.candidates import search_counter_totals
from repro.core.insights import InsightEngine
from repro.core.persistence import save_system
from repro.core.scheduler import DriftGate
from repro.data import CsvFeed
from repro.serve import InsightServer, bundle_payload, dumps, insight_payload

from host import Stopwatch, Timing, probe_loops, slowdown
from inputs import (
    CONSTRAINT_VARIANTS,
    QUESTIONS,
    ApplicantStream,
    ArrivalStream,
    ZipfKeys,
    read_target,
    revised_profile,
)

#: server-side defaults the expected renders must use
_ALPHA = 0.8
#: seed of the initial population (and of drift-shared's prototypes)
RESIDENT_SEED = 20_190_408


def pool_workers() -> int:
    """The orchestrator's pool size: one worker per usable core, at most 4."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


@dataclass
class Recorder:
    """Samples and counters of one measured pass."""

    #: ``host.Timing`` of each onboarding and each epoch
    onboard: list = field(default_factory=list)
    epoch: list = field(default_factory=list)
    read_ms: list = field(default_factory=list)
    read_wall_s: float = 0.0
    #: wall time of the measured rounds, checks included
    wall_s: float = 0.0
    #: largest resident set of any of the program's processes while the
    #: pass measured (see ``run.peak_rss_mb``)
    peak_rss_mb: float = 0.0
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    #: failed operations by kind: ``onboard`` and ``epoch`` (raised),
    #: ``read-status`` (not 200), ``read-stale-revised`` (a body that was
    #: correct before the user last revised their session: the serving
    #: cache's known revision defect), ``read-stale`` (any other body that
    #: was correct for an earlier store state) and ``read-wrong``; the last
    #: two are also correctness problems
    failures: Counter = field(default_factory=Counter)
    #: deterministic work of the pass (cells searched, search counters)
    work: Counter = field(default_factory=Counter)
    #: correctness problems (mismatched bodies other than the revision
    #: defect, gate failures); any entry makes the run incorrect
    problems: list = field(default_factory=list)
    #: the first few exceptions behind failed onboardings and epochs
    errors: list = field(default_factory=list)

    def add_search(self, totals) -> None:
        for key, value in (totals or {}).items():
            self.work[f"search.{key}"] += int(value)

    def fail(self, kind: str, error: Exception | None = None) -> None:
        self.failed += 1
        self.failures[kind] += 1
        if error is not None and len(self.errors) < 5:
            self.errors.append(f"{kind}: {error!r}")


class Client:
    """One keep-alive HTTP/1.1 connection; closed loop (one request in
    flight)."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def get(self, target: str) -> tuple[int, bytes]:
        self.conn.request("GET", target)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


def expected_body(store, time_values, user: str, question: str, feature: str) -> bytes:
    """The body a correct server returns for one read key, rendered
    directly from the store with ``InsightEngine`` and ``serve.protocol``."""
    ledger = store.cell_fingerprints(user)
    engine = InsightEngine(store, user, time_values)
    if question == "bundle":
        insights = {
            "q1": engine.ask("q1"),
            "q2": engine.ask("q2"),
            "q3": engine.ask("q3", feature=feature),
            "q4": engine.ask("q4"),
            "q5": engine.ask("q5"),
            "q6": engine.ask("q6", alpha=_ALPHA),
        }
        return dumps(bundle_payload(user, insights, ledger)).encode()
    params = {"q3": {"feature": feature}, "q6": {"alpha": _ALPHA}}.get(question, {})
    payload = insight_payload(engine.ask(question, **params))
    payload["user"] = user
    payload["ledger"] = {str(t): fp for t, fp in sorted(ledger.items())}
    return dumps(payload).encode()


class Workload:
    """One deployment of the system plus the seeded inputs that drive it.

    Subclasses define ``populate`` (the initial users, inside the timed
    set-up), ``round`` (one measured round) and ``gate`` (the store
    check after the last round).
    """

    name = ""
    #: nominal seconds of one measured round on a quiet shared 2-core
    #: host; it sizes a run (see ``run.rounds_for``), never stops one
    round_s: float
    #: rendered-insight cache size; ``None`` keeps the server default
    cache_size: int | None = None
    #: whether the server records reads into the store's access log.  Only
    #: serve-zipf keeps it on: each batched flush commits to the database
    #: file the readers use and blocks them for the length of the disk
    #: sync, which serve-zipf measures and the other workloads leave out
    access_log = False

    def __init__(self, seed: int, workdir: Path, **sizes):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for key, value in sizes.items():
            if not hasattr(self, key):
                raise TypeError(f"{type(self).__name__} has no size {key!r}")
            setattr(self, key, value)
        self.system = None
        self.server = None
        self.client = None
        #: user id -> (profile, constraint texts), in creation order
        self.specs: dict[str, tuple[np.ndarray, list[str]]] = {}
        #: read key -> every body a correct server returned for it so far
        self._seen_bodies: dict[tuple[str, str], set[bytes]] = {}
        #: read key -> every correct body seen before its user's latest
        #: session revision
        self._pre_revision: dict[tuple[str, str], set[bytes]] = {}
        self._next_user = 0
        self.round_index = 0
        #: context manager around the benchmark's own work; a traced pass
        #: sets it to ``Tracer.suspended``
        self.aside = contextlib.nullcontext

    # ------------------------------------------------------------ set-up

    def setup(self) -> Timing:
        """Build the system as ``justintime admin --db`` does, onboard the
        initial population and start the server; returns the time spent,
        excluding seeded input generation."""
        before = probe_loops()
        t0 = time.perf_counter()
        self.db_path = self.workdir / "candidates.db"
        self.system = build_system(db=str(self.db_path))
        fitted = time.perf_counter() - t0
        present = self.system.future_models[0]
        self.applicants = ApplicantStream(self.seed, present.score, present.threshold)
        # the users registered at set-up (and drift-shared's prototypes)
        # are the same for every seed, so set-up work does not vary with
        # the seed; what the seed varies is what happens afterwards
        self.residents = ApplicantStream(
            RESIDENT_SEED, present.score, present.threshold
        ).take(self.population)
        self.feature = self.system.schema.names[
            int(self.system.schema.mutable_indices()[0])
        ]
        t1 = time.perf_counter()
        self.populate()
        kwargs = {} if self.cache_size is None else {"cache_size": self.cache_size}
        self.server = InsightServer(self.system.store, self.system.time_values,
                                    access_log=self.access_log, **kwargs)
        self.server.start_background()
        self.client = Client(self.server.port)
        wall = fitted + time.perf_counter() - t1
        return Timing(wall, slowdown(before, probe_loops()))

    def new_user_id(self) -> str:
        uid = f"u{self._next_user:05d}"
        self._next_user += 1
        return uid

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop_background()
            self.server = None
        if self.system is not None:
            self.system.store.close()
            self.system = None

    # ------------------------------------------------------- operations

    def onboard(self, rec: Recorder, uid: str, profile, constraints) -> None:
        """One applicant: submit the profile, wait for all six answers."""
        rec.attempted += 1
        try:
            with Stopwatch() as watch:
                session = self.system.create_session(uid, profile, list(constraints))
                session.all_insights()
        except Exception as exc:  # counted, the run goes on
            rec.fail("onboard", exc)
            return
        rec.onboard.append(watch.timing)
        self.specs[uid] = (np.array(profile, dtype=float), list(constraints))
        rec.work["cells"] += len(session.search_stats)
        rec.add_search(search_counter_totals(session.search_stats))

    def timed_epoch(self, rec: Recorder, run) -> object | None:
        rec.attempted += 1
        try:
            with Stopwatch() as watch:
                result = run()
        except Exception as exc:  # counted, the run goes on
            rec.fail("epoch", exc)
            return None
        rec.epoch.append(watch.timing)
        return result

    def read_block(self, rec: Recorder, keys) -> None:
        """Closed-loop reads of ``(user, question)`` keys, then the check
        of every served body against a direct render (untimed)."""
        served = []
        block_start = time.perf_counter()
        for user, question in keys:
            target = read_target(user, question)
            t0 = time.perf_counter()
            try:
                status, body = self.client.get(target)
            except (OSError, http.client.HTTPException):
                self.client.close()
                self.client = Client(self.server.port)
                status, body = -1, b""
            rec.read_ms.append((time.perf_counter() - t0) * 1000.0)
            served.append((user, question, status, body))
        rec.read_wall_s += time.perf_counter() - block_start
        rec.attempted += len(served)
        self.check_reads(rec, served)

    def check_reads(self, rec: Recorder, served) -> None:
        """Count each served ``(user, question, status, body)`` that differs
        from a direct render of the store as a failed read."""
        store, times = self.system.store, self.system.time_values
        expected: dict[tuple[str, str], bytes] = {}
        with self.aside():
            for user, question in dict.fromkeys((u, q) for u, q, _, _ in served):
                expected[user, question] = expected_body(
                    store, times, user, question, self.feature
                )
        for user, question, status, body in served:
            key = (user, question)
            if status != 200:
                rec.fail("read-status")
            elif body != expected[key]:
                if body in self._pre_revision.get(key, ()):
                    # the pre-revision answer: the known revision defect
                    rec.fail("read-stale-revised")
                    continue
                stale = body in self._seen_bodies.get(key, ())
                kind = "read-stale" if stale else "read-wrong"
                rec.fail(kind)
                if len(rec.problems) < 20:
                    rec.problems.append(f"{kind} body for {key}")
        for key, body in expected.items():
            self._seen_bodies.setdefault(key, set()).add(body)

    def mark_revised(self, user: str) -> None:
        """Note that ``user`` re-ran ``create_session``: every body seen
        for their keys so far is a pre-revision answer."""
        for question in QUESTIONS:
            key = (user, question)
            self._pre_revision.setdefault(key, set()).update(
                self._seen_bodies.get(key, ())
            )

    def round(self, rec: Recorder) -> None:
        raise NotImplementedError

    def gate(self, rec: Recorder) -> None:
        raise NotImplementedError

    def stats(self) -> dict:
        """The server's ``/v1/stats`` counters."""
        status, body = self.client.get("/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats returned {status}")
        return json.loads(body)


class DriftShared(Workload):
    name = "drift-shared"
    round_s = 3.3
    population = 4
    prototypes = 2
    #: constraint variant of each prototype (every member of a prototype
    #: shares its preferences, so its cells repeat across users)
    variants = (1, 2)
    churn = 3
    arrivals_per_epoch = 20
    read_block_size = 300

    def populate(self) -> None:
        self._protos = self.residents[: self.prototypes]
        specs = []
        for _ in range(self.population):
            uid, profile, constraints = self._next_member()
            specs.append((uid, profile, constraints))
            self.specs[uid] = (profile, constraints)
        self.system.create_sessions(specs)
        self.slots = list(self.specs)
        self.system_path = self.workdir / "system.pkl"
        save_system(self.system, self.system_path)
        self.feed_path = self.workdir / "feed.csv"
        names = list(self.system.schema.names)
        with self.feed_path.open("w", newline="") as handle:
            csv.writer(handle).writerow(names + ["label", "timestamp"])
        self.arrivals = ArrivalStream(self.seed, self.system.history.span[1],
                                      self.system.schema)
        self.orchestrator = RefreshOrchestrator(
            self.system,
            CsvFeed(self.feed_path, self.system.schema),
            system_path=self.system_path,
            db_path=self.db_path,
            n_workers=pool_workers(),
            gate=DriftGate(mmd_threshold=0.05),
            cadence=0.0,
            warm_start=False,
        )
        self.orchestrator.recover()
        self.zipf = ZipfKeys(self.seed, len(self.slots))

    def _next_member(self):
        k = self._next_user % self.prototypes
        uid = self.new_user_id()
        variant = self.variants[k % len(self.variants)]
        return uid, self._protos[k], list(CONSTRAINT_VARIANTS[variant])

    def _append_arrivals(self) -> None:
        with self.aside():
            batch = self.arrivals.next(self.arrivals_per_epoch)
        with self.feed_path.open("a", newline="") as handle:
            writer = csv.writer(handle)
            for x, y, t in zip(batch.X, batch.y, batch.timestamps):
                writer.writerow([repr(float(v)) for v in x] + [int(y), repr(float(t))])

    def round(self, rec: Recorder) -> None:
        self._append_arrivals()
        epoch = self.timed_epoch(rec, self.orchestrator.poll_once)
        if epoch is None:
            rec.problems.append("drift-shared: arrivals did not open an epoch")
        else:
            pool = epoch.report.pool
            rec.work["cells"] += pool.cells_recomputed
            rec.work["lost_leases"] += sum(w.lost_leases for w in pool.workers)
            rec.add_search(pool.search)
        with self.aside():
            stale = self.system.store.stale_cells(self.system.model_fingerprints)
        if stale:
            rec.problems.append(f"drift-shared: {len(stale)} stale cells after an epoch")
        for i in range(self.churn):
            slot = (self.round_index * self.churn + i) % len(self.slots)
            leaving = self.slots[slot]
            self.system.drop_session(leaving)
            self.specs.pop(leaving, None)
            uid, profile, constraints = self._next_member()
            self.onboard(rec, uid, profile, constraints)
            self.slots[slot] = uid
        keys = [(self.slots[s], q) for s, q in self.zipf.draw(self.read_block_size)]
        self.read_block(rec, keys)
        self.round_index += 1
        rec.rounds += 1

    def gate(self, rec: Recorder) -> None:
        """The store equals an in-process cold ``JustInTime.refresh`` of
        the same parsed arrivals over the final population.  Epochs run
        cold, so every cell is a pure function of the final models and a
        single replay refresh reproduces the whole run."""
        arrivals = CsvFeed(self.feed_path, self.system.schema).poll()
        fresh = build_system()  # in memory, built the same way
        try:
            fresh.create_sessions(
                [(uid, profile, list(c)) for uid, (profile, c) in self.specs.items()]
            )
            if arrivals is not None:
                fresh.refresh(arrivals, warm_start=False)
            if fresh.store.contents_digest() != self.system.store.contents_digest():
                rec.problems.append("drift-shared: digest differs from the refresh replay")
        finally:
            fresh.store.close()


class ServeZipf(Workload):
    name = "serve-zipf"
    round_s = 2.0
    access_log = True
    population = 8
    read_block_size = 300
    refresh_budget = 4
    arrivals_per_epoch = 20
    revisions = 2

    def populate(self) -> None:
        specs = []
        for i, profile in enumerate(self.residents):
            uid = self.new_user_id()
            constraints = list(CONSTRAINT_VARIANTS[i % len(CONSTRAINT_VARIANTS)])
            specs.append((uid, profile, constraints))
            self.specs[uid] = (profile, constraints)
        self.system.create_sessions(specs)
        self.slots = list(self.specs)
        # the key space (population x 7 questions) is four times the cache
        self.cache_size = max(1, len(self.slots) * len(QUESTIONS) // 4)
        self.zipf = ZipfKeys(self.seed, len(self.slots))
        self.arrivals = ArrivalStream(self.seed, self.system.history.span[1],
                                      self.system.schema)
        self._revisions = 0

    def round(self, rec: Recorder) -> None:
        keys = [(self.slots[s], q) for s, q in self.zipf.draw(self.read_block_size)]
        self.read_block(rec, keys)
        with self.aside():
            batch = self.arrivals.next(self.arrivals_per_epoch)
            newcomer = self.applicants.next()
        report = self.timed_epoch(
            rec, lambda: self.system.refresh(batch, budget=self.refresh_budget)
        )
        if report is not None:
            rec.work["cells"] += report.cells_recomputed
            rec.add_search(report.search)
        # one applicant leaves; a new one takes the slot and reads their
        # answers.  Newcomers cycle through the first half of the slots; the
        # other half holds long-standing users, who do the revising, so
        # that most onboardings revise the same (seed-independent) profiles
        # under every seed
        half = len(self.slots) // 2
        slot = self.round_index % half
        leaving = self.slots[slot]
        self.system.drop_session(leaving)
        self.specs.pop(leaving, None)
        uid = self.new_user_id()
        variant = CONSTRAINT_VARIANTS[self._next_user % len(CONSTRAINT_VARIANTS)]
        self.onboard(rec, uid, newcomer, variant)
        self.slots[slot] = uid
        self.read_block(rec, [(uid, q) for q in QUESTIONS])
        # an existing user revises profile and preferences twice, reading
        # their answers after each revision (the demo's revise-and-re-run)
        reviser = self.slots[half + self.round_index % (len(self.slots) - half)]
        for _ in range(self.revisions):
            profile, constraints = self.specs[reviser]
            index = CONSTRAINT_VARIANTS.index(tuple(constraints))
            with self.aside():
                profile = revised_profile(profile, self._revisions)
            self._revisions += 1
            self.onboard(
                rec,
                reviser,
                profile,
                CONSTRAINT_VARIANTS[(index + 1) % len(CONSTRAINT_VARIANTS)],
            )
            self.mark_revised(reviser)
            self.read_block(rec, [(reviser, q) for q in QUESTIONS])
        self.round_index += 1
        rec.rounds += 1

    def gate(self, rec: Recorder) -> None:
        """Reads are checked block by block; the store must hold exactly
        the live users' sessions."""
        stored = {uid for uid, _, _ in self.system.store.load_session_specs()}
        if stored != set(self.specs):
            rec.problems.append("serve-zipf: stored sessions differ from live users")


WORKLOADS = {cls.name: cls for cls in (DriftShared, ServeZipf)}
