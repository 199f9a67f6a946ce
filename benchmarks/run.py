"""hnmaxwell benchmark: drives ``hnmx`` workloads through ``hnmaxwell.cli.main``.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
its ``src`` directory.  Every repetition runs in a fresh interpreter, one at
a time, because every ``hnmx`` user pays a first-run cost.

``--trace 0`` runs repetitions until another would end after ``--seconds``
and reports the end-to-end metrics as medians over them.  ``--trace 1`` runs
one untraced and one traced repetition and reports the per-layer metrics of
the traced one, together with the tracing overhead.  The traced repetition
fails when a layer it should wrap is missing, or when the named layers leave
more than ``UNATTRIBUTED_LIMIT`` of its wall time to ``cli.main`` itself.
Each repetition's CSVs are checked (see ``workloads.py``); a repetition whose
check fails or that raises counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the environment and every repetition, goes to
``.bench_run/results/``; the traced run's spans go to ``.bench_run/traces/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_run"
# A run, builds included, must end within 180 s; repetitions are killed at this deadline.
RUN_DEADLINE_S = 170.0
# Largest share of the traced wall time that ``cli.run.self_s`` may hold: the
# time no named layer below the entry point accounts for.
UNATTRIBUTED_LIMIT = 0.05


class RepetitionError(RuntimeError):
    """A repetition's interpreter failed or returned no measurement."""


def child_env() -> dict[str, str]:
    """Environment of a repetition: the checkout's sources first, BLAS threads <= nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        current = env.get(var, "")
        threads = int(current) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(min(nproc, threads))
    return env


def spawn(argvs, deadline, *, trace_file=None, run_id="") -> dict:
    """Run ``rep.py`` in a fresh interpreter, killed at ``deadline``; returns its measurement."""
    cmd = [sys.executable, str(BENCH_DIR / "rep.py"), "--src", str(SRC),
           "--invocations", json.dumps(argvs)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file), "--run-id", run_id]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise RepetitionError(f"killed at the {RUN_DEADLINE_S:.0f} s run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        raise RepetitionError(f"exit status {proc.returncode}: {tail}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise RepetitionError(f"unreadable measurement {lines[-1]!r}") from exc


def repetition(workload: str, seed: int, index: int, deadline, trace_file=None) -> dict:
    """One checked repetition; the record has ``ok`` and, when it ran, its timings."""
    out = WORK_DIR / "out" / f"{workload}-{os.getpid()}-{index}"
    shutil.rmtree(out, ignore_errors=True)
    run_id = f"{workload}-seed{seed}-rep{index}"
    record = {"run_id": run_id, "traced": trace_file is not None}
    try:
        record.update(spawn(workloads.invocations(workload, seed, out), deadline,
                            trace_file=trace_file, run_id=run_id))
        record["check"] = workloads.check_outputs(workload, out)
        record["ok"] = True
    except (RepetitionError, workloads.OutputError) as exc:
        record["error"] = str(exc)
        record["ok"] = False
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return record


def untraced_run(workload: str, seed: int, seconds: float, deadline) -> tuple[list[dict], dict]:
    start = perf_counter()
    reps = []
    while True:
        began = perf_counter()
        reps.append(repetition(workload, seed, len(reps), deadline))
        now = perf_counter()
        if now - start + (now - began) > seconds:
            break
    timed = [r for r in reps if "wall_s" in r]
    if not timed:
        raise RepetitionError("no repetition completed: " + reps[-1]["error"])
    work = workloads.work_per_repetition(workload)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "work_per_s": statistics.median(work / r["wall_s"] for r in timed),
    }
    return reps, metrics


def trace_problems(traced: dict) -> list[str]:
    """Why a traced repetition's per-layer metrics cannot be trusted; empty if they can."""
    problems = [f"{target} not found, so not traced" for target in traced["unwrapped"]]
    unattributed = traced["layers"]["cli.run.self_s"]
    if unattributed > UNATTRIBUTED_LIMIT * traced["wall_s"]:
        problems.append(f"cli.run.self_s is {unattributed:.3f} s, above {UNATTRIBUTED_LIMIT:.0%} "
                        f"of the traced wall time {traced['wall_s']:.3f} s")
    return problems


def traced_run(workload: str, seed: int, deadline) -> tuple[list[dict], dict]:
    trace_file = WORK_DIR / "traces" / f"{workload}-seed{seed}.json"
    plain = repetition(workload, seed, 0, deadline)
    traced = repetition(workload, seed, 1, deadline, trace_file=trace_file)
    if "layers" not in traced:
        raise RepetitionError("traced repetition did not complete: " + traced["error"])
    problems = trace_problems(traced)
    if problems and traced["ok"]:
        traced["ok"] = False
        traced["error"] = "; ".join(problems)
    metrics = dict(traced["layers"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain.get("wall_s", traced["wall_s"])
    return [plain, traced], metrics


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=declared["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # Turn SIGTERM into an exception, so a running repetition is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    deadline = perf_counter() + RUN_DEADLINE_S
    if not (SRC / "hnmaxwell" / "cli.py").is_file():
        print(f"benchmark: no hnmaxwell sources under {SRC}", file=sys.stderr)
        return 2
    # The build: byte-compile the package so no repetition pays for it.
    if not compileall.compile_dir(SRC / "hnmaxwell", quiet=1):
        print("benchmark: byte-compiling the sources failed", file=sys.stderr)
        return 2

    try:
        if args.trace:
            reps, metrics = traced_run(args.workload, args.seed, deadline)
        else:
            reps, metrics = untraced_run(args.workload, args.seed, args.seconds, deadline)
    except RepetitionError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    env = next((r["environment"] for r in reps if "environment" in r), {})
    print("environment: " + json.dumps(env))
    for r in reps:
        timing = f"wall {r['wall_s']:.3f} s" if "wall_s" in r else "no timing"
        print(f"{r['run_id']}{' traced' if r['traced'] else ''}: {timing}; "
              + (r["check"] if r["ok"] else "FAILED: " + r["error"]))
    failed = sum(not r["ok"] for r in reps)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "pair": (workloads.pair_for_seed(args.workload, args.seed)
                       if args.workload != "cm-sweep" else None),
              "environment": env, "repetitions": reps, "metrics": metrics}
    results = WORK_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1))

    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
