#!/usr/bin/env python3
"""framekit benchmark: closed-loop CLI jobs, one client, seeded inputs.

Run from the root of a framekit checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1 [--out FILE]

The benchmark generates every input for the workload from ``--seed`` into a
temporary directory inside the checkout, then issues a fixed number of full
passes of the workload's job list one job after another, each job in a fresh
``python -m framekit`` process, and checks every output against an
independent numpy recomputation.

With ``--trace 0`` it reports the end-to-end metrics.  The CLI jobs are
spread over ``--seconds``; between them the same jobs run in process through
``framekit.cli.main`` in a worker process until the time is up.  Because the
number of CLI jobs is fixed, ``job_s.tail`` is the same percentile in every
run of a workload.  With ``--trace 1`` the worker runs whole passes of the
job list, each job both untraced and traced, for ``--seconds``, and the spans
become the per-layer metrics, given per pass of the job list.  BLAS threads
are pinned in every process the benchmark starts, and the pinned value is
recorded.

Earlier stdout lines hold the environment record and a readable summary; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--out FILE`` also writes the full record, with every sample,
for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import spans
from workloads import OUT, WORKLOADS

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
BENCHMARK = os.path.join(HERE, "..", "BENCHMARK.json")

SETUP_REPEATS = 9
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
JOB_TIMEOUT_S = 60
# A run measures for --seconds, longer only if its CLI jobs are not done by
# then, and never past this; with set-up and one last job it ends within 180 s.
MAX_SECONDS = 120
# One BLAS thread: on a 2-core VM it ran the n=256 eigensolves faster than
# two, and it gives the plain single-threaded baseline.
MAX_BLAS_THREADS = 1

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "api_s.p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def blas_threads() -> int:
    return min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))


def job_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env.pop("FRAMEKIT_SEED", None)
    return env


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples beyond it, and its value."""
    ordered = sorted(samples)
    # With too few samples for any such percentile, report the maximum.
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "framekit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _blas() -> str:
    try:
        info = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _why(name: str) -> str:
    with open(BENCHMARK, encoding="utf-8") as handle:
        return next(w["why"] for w in json.load(handle)["workloads"] if w["name"] == name)


def environment(args, threads: int, workload, jobs, passes: int) -> dict:
    return {
        "started_unix_s": time.time(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": {
            "name": workload.name,
            "why": _why(workload.name),
            "jobs": [j.kind for j in jobs],
            "cli_passes": 0 if args.trace else passes,
        },
    }


# ---------------------------------------------------------------------------
# The closed loop.


def run_cli_job(argv, env) -> dict:
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "framekit", *argv],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"code": None, "stdout": "", "seconds": None, "error": "timed out"}
    return {"code": done.returncode, "stdout": done.stdout, "seconds": time.perf_counter() - start}


def time_import(env) -> float:
    """Seconds until a fresh interpreter has imported framekit.cli, numpy included.

    The child reports when the import is done; its exit is not timed.
    """
    code = "import sys, framekit.cli; sys.stdout.write('1'); sys.stdout.flush()"
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT, stdout=subprocess.PIPE) as child:
        ready, _, _ = select.select([child.stdout], [], [], JOB_TIMEOUT_S)
        done = ready and child.stdout.read(1) == b"1"
        seconds = time.perf_counter() - start
        if child.wait(timeout=JOB_TIMEOUT_S) != 0 or not done:
            raise RuntimeError("a fresh interpreter could not import framekit.cli")
    return seconds


class Worker:
    """The long-lived in-process runner (worker.py), spoken to over pipes."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(env, PYTHONPATH=os.pathsep.join([SRC, HERE])),
            cwd=ROOT,
        )

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], JOB_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("the in-process worker died or stopped answering")
        return json.loads(line)

    def close(self, spans_path: str = os.devnull) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"spans": spans_path}) + "\n")
                self.proc.stdin.close()
            self.proc.wait(timeout=JOB_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def check_results(jobs, results, paths):
    """Check every output; return (failure reasons, bytes in, bytes out)."""
    failures, bytes_in, bytes_out = [], 0, 0
    for job, res, path in zip(jobs, results, paths):
        bytes_in += sum(os.path.getsize(p) for p in job.inputs)
        bytes_out += len(res["stdout"].encode())
        if path is not None and os.path.exists(path):
            bytes_out += os.path.getsize(path)
        if res.get("error"):
            reason = res["error"].strip().splitlines()[-1]
        else:
            try:
                reason = job.checker(res["code"], res["stdout"], path)
            except (OSError, ValueError, KeyError, TypeError, np.linalg.LinAlgError) as exc:
                reason = f"checker could not read the output: {exc!r}"
        if path is not None and os.path.exists(path):
            os.remove(path)
        if reason:
            failures.append(f"{job.kind}: {reason}")
    return failures, bytes_in, bytes_out


def next_phase(elapsed: float, seconds: float, done: dict, cli_jobs: int, pass_len: int) -> str | None:
    """The phase of the next job, or None when the run is over.

    The ``cli_jobs`` CLI jobs are paced evenly over ``seconds``; in-process
    jobs fill the time between them and end on a whole pass of the job list,
    so their mix of job classes is the same in every run.  A slow machine
    runs the CLI jobs late instead of fewer of them.
    """
    if elapsed >= MAX_SECONDS:
        return None
    if done["cli"] < cli_jobs and done["cli"] <= cli_jobs * elapsed / seconds:
        return "cli"
    if elapsed < seconds or done["api"] % pass_len or not done["api"]:
        return "api"
    return None


def run(args, jobs, passes, env, tmp):
    """Run the closed loop; return (metrics, units, failures, attempted, samples).

    One client issues the jobs, each finished before the next starts.  The
    subprocess jobs, the in-process jobs and the import timings are
    interleaved over the whole run, so a slow spell on a shared machine moves
    every metric alike instead of hitting one phase.
    """
    runs = {"cli": [], "api": [], "traced": []}  # (job, result, output path) in run order
    setup: list[float] = []
    cli_jobs = 0 if args.trace else passes * len(jobs)
    setup_due = [] if args.trace else [(k + 0.5) * args.seconds / SETUP_REPEATS for k in range(SETUP_REPEATS)]
    spans_path = os.path.join(tmp, "spans.jsonl")

    def argv(job, phase, index):
        path = os.path.join(tmp, f"{phase}-{index}.json") if OUT in job.argv else None
        return [path if a == OUT else a for a in job.argv], path

    worker = Worker(env)
    try:
        worker.request({"argv": argv(jobs[0], "warmup", 0)[0]})
        if not args.trace:
            time_import(env)  # fills the page cache and writes bytecode
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            while setup_due and elapsed >= setup_due[0]:
                setup_due.pop(0)
                setup.append(time_import(env))
            done = {phase: len(runs[phase]) for phase in ("cli", "api")}
            phase = next_phase(elapsed, args.seconds, done, cli_jobs, len(jobs))
            if phase is None:
                break
            index = done[phase]
            job = jobs[index % len(jobs)]
            call, path = argv(job, phase, index)
            if phase == "cli":
                result = run_cli_job(call, env)
            elif args.trace:
                traced, traced_path = argv(job, "traced", index)
                result = worker.request({"argv": call, "traced_argv": traced, "job": index})
                runs["traced"].append((job, result.pop("traced"), traced_path))
            else:
                result = worker.request({"argv": call})
            runs[phase].append((job, result, path))
        # Only the job subprocesses and import timings have been reaped so far.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    finally:
        worker.close(spans_path if args.trace else os.devnull)

    failures, attempted, io_bytes = [], 0, (0, 0)
    for phase, done in runs.items():
        found, b_in, b_out = check_results(*zip(*done)) if done else ([], 0, 0)
        failures += [f"{phase} {reason}" for reason in found]
        attempted += len(done)
        if phase == "traced":
            io_bytes = (b_in, b_out)

    def seconds(phase):
        return [r["seconds"] for _, r, _ in runs[phase] if r["seconds"] is not None]

    samples = {"job_s": seconds("cli"), "api_s": seconds("api"), "setup_s": setup}
    if args.trace:
        span_rows, call_counts = spans.read_spans(spans_path)
        metrics = spans.summarise(
            span_rows,
            call_counts,
            *io_bytes,
            untraced_s=sum(seconds("api")),
            traced_s=sum(seconds("traced")),
            passes=len(runs["traced"]) / len(jobs),
        )
        return metrics, spans.PER_LAYER_UNITS, failures, attempted, samples
    job_s = samples["job_s"]
    metrics = {
        # Throughput of the CLI client: its jobs over the time they took.
        "jobs_per_s": len(job_s) / sum(job_s),
        "job_s.p50": statistics.median(job_s),
        "job_s.tail": tail(job_s)[1],
        "api_s.p50": statistics.median(samples["api_s"]),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }
    return metrics, END_TO_END_UNITS, failures, attempted, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full record here")
    parser.add_argument("--tiny", action="store_true", help="tiny problem sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "framekit", "cli.py")):
        print(f"error: no framekit sources under {SRC}; run from a checkout's root", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= MAX_SECONDS:
        print(f"error: --seconds must be in (0, {MAX_SECONDS}]", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so the worker is stopped and the inputs are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    threads = blas_threads()
    env = job_env(threads)
    passes = 1 if args.tiny else workload.passes
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        jobs = workload.build(np.random.default_rng(args.seed), tmp, args.tiny)
        env_record = environment(args, threads, workload, jobs, passes)
        print(json.dumps({"environment": env_record}))
        metrics, units, failures, attempted, samples = run(args, jobs, passes, env, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for reason in failures[:10]:
        print(f"check failed: {reason}", file=sys.stderr)
    error_frac = len(failures) / attempted
    summary = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    for name, entry in summary.items():
        print(f"{workload.name} {name} = {entry['value']:.6g} {entry['unit']}")
    record = {"environment": env_record, "samples": samples, "error_frac": error_frac}
    if not args.trace:
        pct, _ = tail(samples["job_s"])
        record["job_s.tail_percentile"] = pct
        print(f"{workload.name} job_s.tail is p{pct:.1f} of {len(samples['job_s'])} jobs")
        if len(samples["job_s"]) != passes * len(env_record["workload"]["jobs"]):
            print(f"warning: the run hit its {MAX_SECONDS} s cap before all its CLI jobs ran", file=sys.stderr)
    print(f"{workload.name} error_frac = {error_frac:.6g} ({len(failures)} of {attempted} jobs failed)")
    result_line = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({**record, **result_line}, handle, indent=1)
    print(json.dumps(result_line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
