"""quadferm benchmark: seeded CLI workloads, checked against references.

    python3 perfbench/run.py --workload evolve-grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  One worker process imports quadferm from
``src/`` with BLAS and OpenMP pinned to one thread, then runs the workload's
jobs through ``quadferm.cli.main`` back to back (a closed loop, one client)
for at least ``--seconds`` and at least one pass over the job list.  Every
output is checked against an independent reference (see refcheck.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
batch untraced, then one more pass with every layer wrapped (see spans.py),
and prints the per-layer metrics.  Times are scaled to reference seconds
(see calibration.py); the unscaled values are printed too.  The last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin before numpy loads: unpinned BLAS threads measure the scheduler.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import jobs as joblib
import refcheck
import spans
from calibration import REFERENCE_S, Calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench")

#: Worker spawns per run; setup_s is their median.
SETUP_SPAWNS = 9
#: The tail percentile is the highest with this many samples beyond it.
TAIL_BEYOND = 10
#: Hard limit on one run, so it always ends within three minutes.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, dead worker, timeout)."""


class Worker:
    """One `python3 perfbench/worker.py` process and its line protocol."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")], cwd=ROOT,
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            self._read()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _read(self) -> dict:
        wait = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(wait, 0.0))
        if not ready:
            raise BenchError("worker did not answer before the run deadline")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, **request) -> dict:
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Completion:
    job: joblib.Job
    exit: int | None
    job_s: float               # the cli.main call, timed in the worker
    wall_s: float              # request to reply, as the client saw it
    sha256: str
    bytes: int
    scale: float = 1.0         # to reference seconds; see calibration.py


class Runner:
    def __init__(self, workload: joblib.Workload, work: str, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.configs = {}
        for job in workload.warmup + workload.jobs:
            if job.ini is not None:
                path = os.path.join(work, f"{job.key}.ini")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(job.ini)
                self.configs[job.key] = path

    def out_path(self, job: joblib.Job) -> str:
        return os.path.join(self.work, f"{job.key}.csv")

    def argv(self, job: joblib.Job) -> list[str]:
        argv = list(job.args)
        if job.key in self.configs:
            argv += ["--config", self.configs[job.key]]
        return argv + ["--out", self.out_path(job)]

    def run(self, worker: Worker, job: joblib.Job, ident: int) -> Completion:
        start = time.perf_counter()
        rep = worker.call(op="job", id=ident, argv=self.argv(job),
                          out=self.out_path(job))
        return Completion(job, rep["exit"], rep["job_s"],
                          time.perf_counter() - start, rep["sha256"], rep["bytes"])

    def batch(self, worker: Worker, seconds: float) -> list[Completion]:
        """Whole passes over the job list, back to back, until ``seconds``
        have passed (one pass when ``seconds`` is 0).  The calibration
        kernel runs between jobs, and each job is scaled by the kernel times
        just before and just after it."""
        jobs = self.workload.jobs
        done: list[Completion] = []
        cal = [worker.call(op="calibrate")["cal_s"]]
        start = time.perf_counter()
        while (not done or len(done) % len(jobs)
               or time.perf_counter() - start < seconds):
            if time.monotonic() > self.deadline:
                raise BenchError("run deadline passed during the batch")
            done.append(self.run(worker, jobs[len(done) % len(jobs)], len(done)))
            cal.append(worker.call(op="calibrate")["cal_s"])
        for c, before, after in zip(done, cal, cal[1:]):
            c.scale = reference_scale(before, after)
        return done


def reference_scale(before: float, after: float) -> float:
    """Factor from measured to reference seconds for work that ran between
    two calibration kernels taking ``before`` and ``after`` seconds."""
    return 2 * REFERENCE_S / (before + after)


def score(completions: list[Completion], work_out) -> tuple[int, float, dict]:
    """Check every distinct job's output once against its reference, and
    every repeat against the checked bytes.

    ``work_out(job)`` gives the path of the job's output file.  Returns
    (failed completions, minimum accuracy digits, verdict per job key).
    """
    verdicts: dict[str, tuple[refcheck.Verdict, str, int | None]] = {}
    failed = 0
    for c in completions:
        if c.job.key not in verdicts:
            try:
                with open(work_out(c.job), "rb") as fh:
                    body = fh.read()
            except OSError:
                body = b""
            verdict = refcheck.check(c.job, body.decode("utf-8", "replace"), c.exit)
            verdicts[c.job.key] = (verdict, hashlib.sha256(body).hexdigest(), c.exit)
        verdict, sha, code = verdicts[c.job.key]
        if not verdict.ok or c.sha256 != sha or c.exit != code:
            failed += 1
    digits = min(v.digits for v, _, _ in verdicts.values())
    return failed, digits, {k: v for k, (v, _, _) in verdicts.items()}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, beyond): the highest percentile with at least
    TAIL_BEYOND samples above it, or the maximum when there are too few."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return ordered[-1], 100.0, 0
    return ordered[k - 1], 100.0 * k / len(ordered), TAIL_BEYOND


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _say(text: str) -> None:
    print(text, flush=True)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "quadferm", "cli.py")):
        raise BenchError(f"no quadferm sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + DEADLINE_S
    workload = joblib.build(workload_name, seed)
    os.makedirs(RUN_DIR, exist_ok=True)
    work = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    os.makedirs(work)
    workers: list[Worker] = []
    try:
        runner = Runner(workload, work, deadline)
        calibrate = Calibration()
        setup, setup_cal = [], [calibrate()]
        for _ in range(1 if trace else SETUP_SPAWNS):
            for old in workers:
                old.close()
            workers = [Worker(deadline)]
            setup.append(workers[0].setup_s)
            setup_cal.append(calibrate())
        worker = workers[0]
        env = worker.call(op="env")
        _say(f"workload={workload_name} seed={seed} seconds={seconds} "
             f"trace={int(trace)} jobs_per_pass={len(workload.jobs)}")
        _say("environment " + json.dumps(env, sort_keys=True))

        warm = [runner.run(worker, job, -1) for job in workload.warmup]
        done = runner.batch(worker, seconds)
        rss = worker.call(op="rss")["peak_rss_mb"]
        traced: list[Completion] = []
        if trace:
            missing = worker.call(op="trace_on")["missing"]
            if missing:
                _say("not found, reported as zero: " + ", ".join(missing))
            traced = runner.batch(worker, 0)
            spans_path = os.path.join(RUN_DIR, f"spans-{workload_name}-{seed}.json")
            worker.call(op="trace_dump", path=spans_path)
        worker.close()
        workers = []

        warm_failed, _, _ = score(warm, runner.out_path)
        failed, digits, verdicts = score(done + traced, runner.out_path)
        attempted = len(done) + len(traced)
        correct = failed == 0 and warm_failed == 0
        for v in verdicts.values():
            if not v.ok:
                _say("FAILED " + v.detail)
        verify_fail = sum(1 for c in done if verdicts[c.job.key].failed_checks)
        _say(f"jobs attempted={attempted} failed={failed} "
             f"failed_ratio={failed / attempted} "
             f"verify_reports_with_failed_checks={verify_fail}")

        if not trace:
            job_times = [c.job_s for c in done]
            scaled = [c.job_s * c.scale for c in done]
            tail_s, pct, beyond = tail(scaled)
            raw = {
                "setup_s": statistics.median(setup),
                "jobs_per_s": len(done) / sum(c.wall_s for c in done),
                "job_s.p50": statistics.median(job_times),
                "job_s.tail": tail(job_times)[0],
            }
            _say("unscaled " + " ".join(f"{k}={v}" for k, v in raw.items()))
            _say(f"job_s.tail is p{pct:.1f} of {len(scaled)} samples "
                 f"({beyond} beyond it)")
            margins = [v.margin_log10 for v in verdicts.values()
                       if v.margin_log10 != float("inf")]
            if margins:
                _say(f"verify min log10(tolerance/value) = {min(margins):.4f}")
            metrics = {
                "setup_s": _metric(statistics.median(setup) * REFERENCE_S
                                   / statistics.median(setup_cal), "s"),
                "jobs_per_s": _metric(
                    len(done) / sum(c.wall_s * c.scale for c in done), "1/s"),
                "job_s.p50": _metric(statistics.median(scaled), "s"),
                "job_s.tail": _metric(tail_s, "s"),
                "peak_rss_mb": _metric(rss, "MB"),
                "accuracy_digits": _metric(digits, "digits"),
            }
        else:
            with open(spans_path, encoding="utf-8") as fh:
                record = json.load(fh)
            layer = spans.layer_metrics(record["spans"])
            units = {"calls": "count", "self_s": "s"}
            metrics = {k: _metric(v, units[k.rsplit(".", 1)[1]])
                       for k, v in layer.items()}
            untraced_s = sum(c.wall_s * c.scale for c in done[:len(traced)])
            traced_s = sum(c.wall_s * c.scale for c in traced)
            metrics.update({
                "linalg.lyapunov_solve.residual_max":
                    _metric(record["residual_max"], "ratio"),
                "verify.checks_failed": _metric(record["checks_failed"], "count"),
                "verify.jobs_failed": _metric(
                    sum(1 for c in traced if verdicts[c.job.key].failed_checks),
                    "count"),
                "cli.bytes_out": _metric(sum(c.bytes for c in traced), "bytes"),
                "trace.overhead_ratio": _metric(traced_s / untraced_s, "ratio"),
            })
            _say(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        for name, m in metrics.items():
            _say(f"  {name} = {m['value']} {m['unit']}")
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        for w in workers:
            w.proc.kill()
            w.close()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
