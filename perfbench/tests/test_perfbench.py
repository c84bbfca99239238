"""Tests of the benchmark itself: inputs, reference checks, span arithmetic.

    python3 -m pytest perfbench/tests
"""

import json
import os

import numpy as np
import pytest

import jobs
import run
import spans
from quadferm import cli

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first, again = jobs.build(workload, 5), jobs.build(workload, 5)
    assert [(j.key, j.args, j.ini) for j in first.warmup + first.jobs] \
        == [(j.key, j.args, j.ini) for j in again.warmup + again.jobs]
    other = jobs.build(workload, 6)
    assert [(j.args, j.ini) for j in other.jobs] \
        != [(j.args, j.ini) for j in first.jobs]


def _completion(tmp_path, job):
    """Run ``job`` through the real CLI and return its Completion."""
    argv = list(job.args)
    if job.ini is not None:
        cfg = tmp_path / f"{job.key}.ini"
        cfg.write_text(job.ini)
        argv += ["--config", str(cfg)]
    out = tmp_path / f"{job.key}.csv"
    code = cli.main(argv + ["--out", str(out)])
    body = out.read_bytes()
    return run.Completion(job, code, 0.0, 0.0,
                          run.hashlib.sha256(body).hexdigest(), len(body))


def _plant(path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


SMALL_JOBS = [
    lambda: jobs.evolve_job("evolve", np.random.default_rng(1), 4,
                            (0.0, 1e-8, 0.5, 1.0, 30.0), initial=True),
    lambda: jobs.steady_job("steady", np.random.default_rng(2), 5),
    lambda: jobs.skin_job("skin", np.random.default_rng(3), 30),
]


@pytest.mark.parametrize("make", SMALL_JOBS)
def test_planted_wrong_cell_is_a_failed_job(tmp_path, make):
    job = make()
    done = _completion(tmp_path, job)
    out = lambda j: tmp_path / f"{j.key}.csv"
    failed, digits, _ = run.score([done, done], out)
    assert failed == 0 and digits > 12
    # Perturb the last data cell of the last row in its 12th digit.
    path = out(job)
    last = path.read_text().rstrip("\n").rsplit(",", 1)[1]
    wrong = repr(float(last) * (1 + 1e-8) + 1e-30)
    _plant(path, "," + last + "\n", "," + wrong + "\n")
    failed, _, verdicts = run.score([done, done], out)
    assert failed == 2 and not verdicts[job.key].ok


def test_verify_report_must_agree_with_its_rows(tmp_path):
    job = jobs.verify_job("verify", 2, 3)
    done = _completion(tmp_path, job)
    out = lambda j: tmp_path / f"{j.key}.csv"
    assert run.score([done], out)[0] == 0
    _plant(out(job), ",<=,pass\n", ",<=,fail\n")
    assert run.score([done], out)[0] == 1


def test_verify_failed_check_is_counted_not_skipped(tmp_path):
    job = jobs.Job("verify", "verify", ("verify", "--n", "2", "--seed", "3",
                                        "--draws", "1", "--tol", "1e-30"),
                   None, {"n": 2, "seed": 3, "draws": 1})
    done = _completion(tmp_path, job)
    assert done.exit == 3
    failed, _, verdicts = run.score([done], lambda j: tmp_path / f"{j.key}.csv")
    assert failed == 0 and verdicts[job.key].failed_checks > 0


def test_self_time_subtracts_the_union_of_direct_children():
    spans_ = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["linalg.mat_exp", 1.0, 4.0, 0, 0],
        ["linalg.as_square", 2.0, 3.0, 1, 0],       # grandchild of the root
        ["gaussian.entropy", 5.0, 6.0, 0, 0],
        ["gaussian.entropy", 5.5, 7.0, 0, 0],       # overlaps its sibling
        ["trace.residual", 8.0, 9.0, 0, 0],
    ]
    agg = spans.self_times(spans_)
    assert agg["cli.main"] == (1, pytest.approx(10 - 3 - 2 - 1))
    assert agg["linalg.mat_exp"] == (1, pytest.approx(2.0))
    assert agg["linalg.as_square"] == (1, pytest.approx(1.0))
    assert agg["gaussian.entropy"] == (2, pytest.approx(2.5))
    metrics = spans.layer_metrics(spans_)
    assert metrics["linalg.self_s"] == pytest.approx(3.0)
    assert metrics["cli.self_s"] == pytest.approx(4.0)
    assert metrics["affine.flow.calls"] == 0


def test_benchmark_json_lists_every_traced_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert set(spans.layer_metrics([])) <= per_layer
    assert per_layer - set(spans.layer_metrics([])) == {
        "linalg.lyapunov_solve.residual_max", "verify.checks_failed",
        "verify.jobs_failed", "cli.bytes_out", "trace.overhead_ratio"}
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)


def test_tail_has_ten_samples_beyond_it():
    samples = [float(v) for v in range(1, 31)]
    assert run.tail(samples) == (20.0, pytest.approx(200 / 3), 10)
    assert run.tail(samples[:8]) == (8.0, 100.0, 0)


def test_recorder_rebinds_every_holder_and_restores_them():
    import quadferm
    from quadferm import gaussian, linalg
    from quadferm.verify import random_gksl_params

    original = linalg.mat_exp
    rec = spans.Recorder()
    rec.install()
    try:
        assert gaussian.mat_exp is linalg.mat_exp is quadferm.mat_exp
        assert linalg.mat_exp is not original
        params = random_gksl_params(np.random.default_rng(0), 3, 0.5)
        gaussian.stationary_correlation(params)
    finally:
        rec.uninstall()
    assert gaussian.mat_exp is original and quadferm.mat_exp is original
    names = {s[0] for s in rec.spans}
    assert {"gaussian.stationary_correlation", "linalg.lyapunov_solve",
            "linalg.spectral_split", "gaussian.LiouvillianParams.init"} <= names
    assert 0 < rec.residual_max < 1e-14
    assert rec.missing == []
