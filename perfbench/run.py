"""liegeom benchmark: seeded closed-loop workloads over the exact
geometry chain.

Run from the repository root:

    python3 perfbench/run.py --workload catalog-chain --seed 1 \
        --seconds 25 --trace 0

One process, one thread, one caller: each job starts only after the
previous one has finished.  liegeom is imported from ./src only.  With
--trace 0 the run times the jobs and reports the end-to-end metrics;
with --trace 1 it runs every round twice, untraced and then traced, and
reports per-layer calls and self times plus the tracing overhead.  The
last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status: 0 when every job matched
its oracle, 1 when one did not, 2 when liegeom cannot be imported.

End-to-end times are host-normalized (see HostSpeed): on a shared host
the speed of one core drifts by a factor of up to two over seconds to
minutes, which would swamp any change to the program.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 5

END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"),
              ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
              ("peak_rss_mb", "MB"))


def import_liegeom():
    """A fresh import of liegeom from ROOT/src, dropping any earlier one."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules
                 if n == "liegeom" or n.startswith("liegeom.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lg = importlib.import_module("liegeom")
    for name in ("cli", "geometry"):
        importlib.import_module(f"liegeom.{name}")
    where = Path(lg.__file__).resolve().parent
    if where != ROOT / "src" / "liegeom":
        raise ImportError(f"liegeom was imported from {where}, not ./src")
    return lg


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# -- clocks ----------------------------------------------------------------

class WallClock:
    """Plain wall time, for the traced run."""

    def time(self, fn):
        start = time.perf_counter_ns()
        result = fn()
        return result, (start, time.perf_counter_ns(), 0)

    def seconds(self, record):
        return (record[1] - record[0]) / 1e9


def _kernel():
    total = Fraction(0)
    for i in range(1, 16):
        total += Fraction(1, i)
    return total


class HostSpeed:
    """Wall time normalized by the host's speed while the job ran.

    An interval timer interrupts the process every INTERVAL_S and runs a
    fixed stdlib kernel of exact arithmetic (about 30 us), recording how
    long it took.  A job's time is its wall time minus the time spent in
    those interruptions, scaled by REFERENCE_NS over the mean kernel
    duration sampled during the job (or, for a job too short to hold
    MIN_SAMPLES samples, the MIN_SAMPLES samples nearest to it).  A job
    that ran while another tenant slowed the core down by some factor
    had its kernel samples slowed by the same factor, so the normalized
    time does not move with the host while it still moves with the
    program.  The unit stays the second: a second on a core where the
    kernel takes REFERENCE_NS, roughly this benchmark's tuning host
    (x86-64 at 2.1 GHz, Python 3.11) when quiet.
    """

    INTERVAL_S = 0.002
    REFERENCE_NS = 30_000
    MIN_SAMPLES = 8

    def __init__(self):
        self._ends = []
        self._durations = []
        self._handler_ns = 0
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter_ns()
        _kernel()
        end = time.perf_counter_ns()
        self._ends.append(end)
        self._durations.append(end - start)
        self._handler_ns += time.perf_counter_ns() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        handler = self._handler_ns
        start = time.perf_counter_ns()
        result = fn()
        end = time.perf_counter_ns()
        return result, (start, end, self._handler_ns - handler)

    def seconds(self, record):
        """Normalized seconds of a record; call after the run."""
        start, end, handler = record
        lo = bisect.bisect_left(self._ends, start)
        hi = bisect.bisect_right(self._ends, end)
        if hi - lo < self.MIN_SAMPLES:
            lo = max(0, min(lo - self.MIN_SAMPLES // 2,
                            len(self._ends) - self.MIN_SAMPLES))
            hi = lo + self.MIN_SAMPLES
        window = self._durations[lo:hi]
        speed = self.REFERENCE_NS * len(window) / sum(window)
        return (end - start - handler) * speed / 1e9


# -- one run ---------------------------------------------------------------

def setup(workload_cls, seed, workdir):
    """Import liegeom and build round 0; returns (workload, jobs)."""
    lg = import_liegeom()
    workload = workload_cls(lg, seed, workdir)
    return workload, workload.make_round(0)


class Tally:
    """Timing records and oracle misses of one run."""

    def __init__(self, clock):
        self.clock = clock
        self.records = []        # (job slot, job kind, clock record)
        self.slot = 0            # position of the next job in its round
        self.attempted = 0
        self.failed = 0

    def run(self, job, wrap=None):
        """Time one job, then check it; returns its result or None."""
        self.attempted += 1
        fn = job.run if wrap is None else (lambda: wrap(job.run))
        try:
            result, record = self.clock.time(fn)
        except Exception:
            self.failed += 1
            print(f"job {job.kind} raised:", file=sys.stderr)
            traceback.print_exc()
            return None
        self.records.append((self.slot, job.kind, record))
        self.miss(job.kind, job.check(result))
        return result

    def replay(self, job, first):
        """Run a job again, untimed; it must give the same result."""
        self.attempted += 1
        try:
            again = job.run()
        except Exception:
            self.failed += 1
            print(f"replay of {job.kind} raised:", file=sys.stderr)
            traceback.print_exc()
            return
        self.miss(job.kind, None if again == first
                  else "repeat of the same job gave other bytes")

    def miss(self, kind, reason):
        if reason is not None:
            self.failed += 1
            print(f"oracle miss in {kind}: {reason}", file=sys.stderr)

    def latencies(self, key=1):
        """Seconds grouped by job kind (key=1) or by job slot (key=0)."""
        out = {}
        for entry in self.records:
            out.setdefault(entry[key], []).append(
                self.clock.seconds(entry[2]))
        return out


def loop(workload, jobs, seconds, body):
    """Run whole rounds; start another while, judged by the length of
    the last, it would end less than half a round past `seconds`."""
    start = time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        body(jobs)
        last = time.perf_counter() - t0
        r += 1
        if time.perf_counter() - start + last / 2 > seconds:
            return r
        jobs = workload.make_round(r)


def timed_run(workload, jobs, seconds, clock):
    """The closed loop; one CLI job is then replayed for identical bytes."""
    tally = Tally(clock)
    first = []

    def body(round_jobs):
        for slot, job in enumerate(round_jobs):
            tally.slot = slot
            result = tally.run(job)
            if not first and job.replayable and result is not None:
                first.append((job, result))

    rounds = loop(workload, jobs, seconds, body)
    if first:
        job, result = first[0]
        tally.replay(job, result)
    return tally, rounds


def traced_run(workload, jobs, seconds, out_dir, seed):
    """Each round untraced, then again traced; per-layer metrics."""
    tally = Tally(WallClock())
    recorder = tracer.Recorder()
    untraced_ns = 0
    job_id = 0

    def body(round_jobs):
        nonlocal untraced_ns, job_id
        for job in round_jobs:
            start = time.perf_counter_ns()
            try:
                job.run()
            except Exception:
                pass    # the traced pass below counts and reports it
            untraced_ns += time.perf_counter_ns() - start
        recorder.install(workload.lg)
        try:
            for job in round_jobs:
                job_id += 1
                tally.run(job, lambda fn: recorder.job(job_id, fn))
        finally:
            patched = recorder.restore()
        leaked = [(o, a) for o, a, orig in patched if vars(o)[a] is not orig]
        if leaked:
            raise RuntimeError(f"tracer left wrappers behind: {leaked}")

    rounds = loop(workload, jobs, seconds, body)
    gap = recorder.self_time_gap_ns()
    if gap:
        tally.miss("trace", f"self times miss {gap} ns of job wall time")
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    return tally, rounds, recorder.metrics(untraced_ns)


def measure(workload_cls, seed, seconds, trace, workdir):
    """Set up, then run; returns (tally, rounds, workload, metrics,
    units).  The timed run sets up SETUP_REPS times and keeps the last."""
    if trace:
        workload, jobs = setup(workload_cls, seed, workdir)
        tally, rounds, metrics = traced_run(
            workload, jobs, seconds, ROOT / ".perfbench_out", seed)
        return tally, rounds, workload, metrics, dict(tracer.metric_units())
    clock = HostSpeed()
    with clock:
        reps = [clock.time(lambda: setup(workload_cls, seed, workdir))
                for _ in range(SETUP_REPS)]
        workload, jobs = reps[-1][0]
        tally, rounds = timed_run(workload, jobs, seconds, clock)
    # every round holds the same job shapes in the same slots; the
    # percentiles are taken over each slot's median across rounds, so
    # they do not depend on how many rounds fitted in the run
    slots = list(tally.latencies(key=0).values())
    lat = [x for values in slots for x in values]
    slot_medians = [statistics.median(v) for v in slots]
    metrics = {
        "setup_s": statistics.median(clock.seconds(r) for _, r in reps),
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_ms": percentile(slot_medians, 50) * 1e3,
        "job_p90_ms": percentile(slot_medians, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return tally, rounds, workload, metrics, dict(END_TO_END)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tally, rounds, workload, metrics, units = measure(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            args.trace, workdir)
    except ImportError as exc:
        print(f"cannot import liegeom from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):     # another run may still use it
            workdir.parent.rmdir()

    latencies = tally.latencies()
    jobs = sum(len(v) for v in latencies.values())
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{jobs} timed jobs")
    info = {"fail_frac": tally.failed / tally.attempted}
    info.update(workload.info(latencies))
    for name, value in info.items():
        print(f"info {name} {value}")
    for name, value in metrics.items():
        print(f"metric {name} {value} {units[name]}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
