"""JustInTime end-to-end benchmark: one process, one workload per run.

Usage (from the repository root)::

    python3 jitbench/run.py --workload serve-zipf --seed 1 --seconds 20 --trace 0

A run is a fixed number of rounds, sized from ``--seconds`` by the
workload's nominal round time, so a seed always gives the same
operations, work and failures.  An untimed set-up first pays the
process's one-time costs.  ``--trace 0`` then sets up a fresh
deployment, runs one untimed warm-up round and the measured rounds,
checks them, and sets up ``SETUPS - 1`` more deployments.  Every timing is host-corrected (see ``host.py``):
``setup_s`` is the median set-up, ``onboard_ms`` and ``epoch_s`` the
median operation.
``--trace 1`` runs half the rounds (more, until the read p99 has ten
samples beyond it) untraced, then as many with span shims installed,
and prints every per-layer metric (per measured round of the traced
pass) plus the tracing overhead of each end-to-end timing.  The
last line of standard output is the JSON result; the line before it is
run metadata and deterministic work counts.  See ``layers.json`` for
which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import os
import sys

# one BLAS/OpenMP thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402,F401  (fails fast when the program is absent)
from host import Timing  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END,
    end_to_end,
    layer_metrics,
    read_metrics,
    trace_overhead,
)
from spans import Tracer  # noqa: E402
from stats import min_samples_for  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402

#: timed set-ups per untraced run (the measured deployment's and more
#: after it); ``setup_s`` is their median
SETUPS = 3
#: reads a pass needs before its p99 is reported (ten samples beyond it)
MIN_READS = min_samples_for(99)


def cpu_times() -> tuple[int, int] | None:
    """(steal, total) jiffies from /proc/stat, or None where unavailable."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def metadata(steal_before, steal_after) -> dict:
    steal = None
    if steal_before and steal_after and steal_after[1] > steal_before[1]:
        steal = (steal_after[0] - steal_before[0]) / (steal_after[1] - steal_before[1])
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": source.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_steal_share": steal,
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, when it is a git work tree (read from files,
    no subprocess)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def reset_peak_rss() -> None:
    """Reset this process's resident-set high-water mark (Linux's
    ``/proc/self/clear_refs``), so ``peak_rss_mb`` covers only what
    follows; a no-op where the kernel does not offer it."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Largest resident set, in MiB, of this process since
    ``reset_peak_rss`` and of any child process it has waited for (the
    orchestrator's forked pool workers).  The two are not added: a forked
    worker's resident set already counts the pages it shares with this
    process."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    self_kb = int(line.split()[1])
    except (OSError, ValueError):
        pass
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def rounds_for(cls, seconds: float) -> int:
    """Measured rounds that take about ``seconds`` on a shared 2-core
    host (at least one)."""
    return max(1, round(seconds / cls.round_s))


def setup_times(cls, seed: int, workdir: Path, n: int) -> list[Timing]:
    """Set-up times of ``n`` fresh deployments, each closed again."""
    times = []
    for k in range(n):
        workload = cls(seed, workdir / f"deploy{k}")
        try:
            times.append(workload.setup())
        finally:
            workload.close()
            shutil.rmtree(workload.workdir, ignore_errors=True)
    return times


def run_pass(cls, seed: int, workdir: Path, rounds: int, *,
             tracer: Tracer | None = None, gate: bool = True, min_reads: int = 0):
    """Set up a fresh deployment, run ``rounds`` rounds (more, while
    fewer than ``min_reads`` reads were made) and check them.  Returns
    ``(result dict, recorder)``; ``gate`` adds the workload's store gate
    to the checks of every read."""
    workload = cls(seed, workdir)
    if tracer is not None:
        workload.aside = tracer.suspended
    try:
        setup = workload.setup()
        # one untimed round first: lazy imports, the first fork, first
        # renders and the read cache's first fill
        warm_up = Recorder()
        workload.round(warm_up)
        rec = Recorder()
        stats_before = workload.stats()
        if tracer is not None:
            tracer.spans.clear()
        reset_peak_rss()
        start = time.perf_counter()
        while rec.rounds < rounds or len(rec.read_ms) < min_reads:
            workload.round(rec)
        rec.wall_s = time.perf_counter() - start
        rec.peak_rss_mb = peak_rss_mb()
        spans = list(tracer.spans) if tracer is not None else None
        stats_after = workload.stats()
        if gate:
            with workload.aside():
                workload.gate(rec)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setup": setup, "spans": spans, "stats": (stats_before, stats_after),
            "warm_up": warm_up}, rec


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    cls = WORKLOADS[workload]
    rounds = rounds_for(cls, seconds)
    steal_before = cpu_times()
    # an untimed set-up first pays the process's one-time costs (lazy
    # imports, first database open)
    setup_times(cls, seed, workdir / "cold", 1)
    if not trace:
        result, rec = run_pass(cls, seed, workdir / "measured", rounds)
        setups = [result["setup"], *setup_times(cls, seed, workdir / "setups",
                                                 SETUPS - 1)]
        values = end_to_end(rec, setups)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        recorders = [result["warm_up"], rec]
    else:
        plain, rec_a = run_pass(cls, seed, workdir / "untraced", (rounds + 1) // 2,
                                min_reads=MIN_READS)
        tracer = Tracer(workdir / "spans")
        tracer.install()
        try:
            traced, rec_b = run_pass(cls, seed, workdir / "traced", rec_a.rounds,
                                     tracer=tracer, gate=False)
        finally:
            tracer.uninstall()
        setups = [plain["setup"], traced["setup"]]
        layers = layer_metrics(traced, rec_b)
        layers.update(read_metrics(rec_a))
        layers.update(trace_overhead(end_to_end(rec_a, setups[:1]),
                                     end_to_end(rec_b, setups[1:])))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
        recorders = [plain["warm_up"], rec_a, traced["warm_up"], rec_b]
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "meta": metadata(steal_before, cpu_times()),
        "setups": [timing_info(t) for t in setups],
        "passes": [
            {
                "rounds": rec.rounds,
                "wall_s": rec.wall_s,
                "peak_rss_mb": rec.peak_rss_mb,
                "onboard": [timing_info(t, 1000.0) for t in rec.onboard],
                "epoch": [timing_info(t) for t in rec.epoch],
                "reads": len(rec.read_ms),
                "failures": dict(rec.failures),
                "work": dict(sorted(rec.work.items())),
                "read": (
                    {name: value for name, (value, _) in read_metrics(rec).items()}
                    if len(rec.read_ms) >= MIN_READS else None
                ),
                "problems": rec.problems,
                "errors": rec.errors,
            }
            for rec in recorders
        ],
    }
    print(json.dumps(info, sort_keys=True), flush=True)
    return {
        "correct": all(not rec.problems for rec in recorders),
        "attempted": sum(rec.attempted for rec in recorders),
        "failed": sum(rec.failed for rec in recorders),
        "metrics": metrics,
    }


def timing_info(timing: Timing, scale: float = 1.0) -> list[float]:
    """``[wall, slowdown]`` of one timing, for the metadata line."""
    return [round(timing.wall_s * scale, 4), round(timing.slowdown, 4)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = ROOT / ".jitbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # the worker pool's temporary result files stay inside the checkout
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
