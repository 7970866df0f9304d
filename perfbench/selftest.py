"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at its smallest size once with the oracle on, runs
a traced pass and checks that every wrapped attribute is the original
object again afterwards (so the tracer cannot leak into timed runs) and
that self times account for the traced wall time, and checks that the
benchmark refuses to report in a directory without liegeom.  Exit
status 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracer
import workloads


def smoke_jobs(workload):
    jobs = workload.make_round(0)
    kinds = workload.smoke_kinds
    return [j for j in jobs if kinds is None or j.kind in kinds]


def check_workloads(workdir):
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        workload, _ = run.setup(cls, 1, workdir)
        tally = run.Tally(run.WallClock())
        for job in smoke_jobs(workload):
            tally.run(job)
        print(f"{name}: {tally.attempted} jobs, {tally.failed} misses")
        if tally.failed or not tally.attempted:
            problems.append(f"{name}: {tally.failed} oracle misses")
    return problems


def check_tracer(workdir):
    problems = []
    workload, _ = run.setup(workloads.WORKLOADS["abelian-sweep"], 1, workdir)
    jobs = smoke_jobs(workload)
    lg = workload.lg
    modules = [m for n, m in sys.modules.items()
               if n == "liegeom" or n.startswith("liegeom.")]
    before = {(id(m), a): v for m in modules for a, v in vars(m).items()}
    tensor_attrs = dict(vars(lg.Tensor))

    recorder = tracer.Recorder()
    recorder.install(lg)
    tally = run.Tally(run.WallClock())
    try:
        for i, job in enumerate(jobs):
            tally.run(job, lambda fn: recorder.job(i, fn))
    finally:
        patched = recorder.restore()

    bindings = {(o.__name__, a) for o, a, _ in patched
                if o.__name__ != "Tensor"}
    for module in ("liegeom", "liegeom.geometry", "liegeom.constructions",
                   "liegeom.catalog", "liegeom.cli"):
        if (module, "classify") not in bindings:
            problems.append(f"{module}.classify was not wrapped")
    after = {(id(m), a): v for m in modules for a, v in vars(m).items()}
    if after != before or any(after[k] is not before[k] for k in before):
        problems.append("a module binding was not restored")
    if dict(vars(lg.Tensor)) != tensor_attrs:
        problems.append("a Tensor attribute was not restored")
    if tally.failed:
        problems.append(f"traced jobs had {tally.failed} misses")
    if recorder.self_time_gap_ns() != 0:
        problems.append("self times do not add up to the traced wall time")
    metrics = recorder.metrics(0)
    names = {name for name, _ in tracer.metric_units()}
    if set(metrics) != names:
        problems.append("traced metrics differ from the declared names")
    if metrics["tensors.getitem.calls"] == 0:
        problems.append("Tensor.__getitem__ was not counted")
    return problems


def check_bare_directory(workdir):
    """Without ./src the benchmark must fail and print no result."""
    bare = workdir / "bare"
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload",
         "abelian-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    printed = bool(lines) and lines[-1].startswith("{")
    if proc.returncode == 0 or printed:
        return [f"bare directory: exit {proc.returncode}, result printed "
                f"{printed}"]
    return []


def main():
    workdir = run.ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        problems = (check_workloads(workdir) + check_tracer(workdir)
                    + check_bare_directory(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print("FAIL", problem)
    print(json.dumps({"selftest": "fail" if problems else "pass"}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
