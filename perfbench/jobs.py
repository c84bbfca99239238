"""Seeded job lists for the three benchmark workloads.

A job is one `quadferm` command line plus, where the command reads one, the
text of its INI job file.  Everything is drawn from the workload seed, so one
seed always gives byte-identical inputs.  Each job also carries the model
data its reference check needs; the program itself only ever sees the INI
text and the flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("evolve-grid", "long-time", "verify-dense")

#: Mode counts and grids, fixed per workload so job times stay comparable.
EVOLVE_GRID_N = 32
EVOLVE_GRID_TIMES = tuple(float(k) for k in range(101))   # 0, 1, ..., 100
LONG_STEADY_N = 40
LONG_SKIN_N = 30
LONG_EVOLVE_N = 32
LONG_EVOLVE_TIMES = (0.0,) + tuple(10.0 ** k for k in range(-8, 5))

#: Damping floor: every drift has -(A + A†)/2 >= DAMPING_FLOOR * I.
DAMPING_FLOOR = 0.5

#: Jobs per pass over a workload's list.  A timed batch cycles through it.
EVOLVE_GRID_JOBS = 16
LONG_TIME_ROUNDS = 8           # rounds of (steady, skin, evolve)
#: One pass of verify-dense: the CLI default job, then n=3 and n=4 suites.
#: Four n=3 jobs per n=4 job keep the median inside the n=3 mode; 21
#: seeded jobs per pass average out how job cost varies with the seed.
VERIFY_PATTERN = ("default",) + (3, 3, 3, 3, 4) * 4 + (3,)
VERIFY_DRAWS = 20


@dataclass(frozen=True)
class Job:
    """One CLI job.  ``args`` excludes ``--config`` and ``--out``, which
    the runner adds with paths in its work directory."""

    key: str
    kind: str                  # evolve | steady | skin | verify
    args: tuple
    ini: str | None = None
    data: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: tuple              # run once, untimed, before the batch
    jobs: tuple                # one pass; the timed batch cycles through it


def _fmt(x: float) -> str:
    return repr(float(x))


def _cnormal(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _hermitian(rng, n: int) -> np.ndarray:
    b = _cnormal(rng, (n, n))
    return (b + b.conj().T) / 2


def _unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_cnormal(rng, (n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _matrix_section(name: str, mat: np.ndarray) -> list[str]:
    lines = [f"[{name}]"]
    for i, row in enumerate(mat, start=1):
        cells = " ".join(f"{_fmt(z.real)} {_fmt(z.imag)}" for z in row)
        lines.append(f"row{i} = {cells}")
    return lines


def _vector_section(name: str, prefix: str, vectors) -> list[str]:
    lines = [f"[{name}]"]
    for i, v in enumerate(vectors, start=1):
        cells = " ".join(f"{_fmt(z.real)} {_fmt(z.imag)}" for z in v)
        lines.append(f"{prefix}{i} = {cells}")
    return lines


def _ini(*blocks: list[str]) -> str:
    return "\n\n".join("\n".join(b) for b in blocks) + "\n"


def _physical_model(rng, n: int):
    """Hamiltonian and loss/gain vectors with D >= DAMPING_FLOOR * I.

    The first n loss vectors are the columns of a random unitary scaled by
    sqrt(DAMPING_FLOOR); the rest are Gaussian, so D + E has spectrum in
    roughly [0.5, 3.5] and the drift is strictly damped.
    """
    h = _hermitian(rng, n)
    floor = np.sqrt(DAMPING_FLOOR) * _unitary(rng, n)
    loss = [floor[:, j] for j in range(n)]
    loss += list(np.sqrt(0.5 / n) * _cnormal(rng, (n, n)).T)
    gain = list(np.sqrt(0.25 / n) * _cnormal(rng, (n, n)).T)
    return h, loss, gain


def _random_correlation(rng, n: int) -> np.ndarray:
    q = _unitary(rng, n)
    occ = rng.uniform(0.05, 0.95, size=n)
    r = (q * occ) @ q.conj().T
    return (r + r.conj().T) / 2


def evolve_job(key: str, rng, n: int, times, initial: bool) -> Job:
    h, loss, gain = _physical_model(rng, n)
    blocks = [["[job]", "command = evolve"],
              ["[model]", "kind = physical"],
              _matrix_section("model.h", h),
              _vector_section("model.loss", "l", loss),
              _vector_section("model.gain", "g", gain)]
    r0 = np.zeros((n, n), dtype=complex)
    if initial:
        r0 = _random_correlation(rng, n)
        blocks += [["[initial]", "state = matrix"],
                   _matrix_section("initial.r", r0)]
    blocks.append(["[times]", "values = " + " ".join(_fmt(t) for t in times)])
    data = {"h": h, "loss": loss, "gain": gain, "r0": r0, "times": tuple(times)}
    return Job(key, "evolve", ("evolve",), _ini(*blocks), data)


def steady_job(key: str, rng, n: int) -> Job:
    h = _hermitian(rng, n)
    b = _cnormal(rng, (n, n))
    d = DAMPING_FLOOR * np.eye(n) + 0.5 * (b @ b.conj().T) / n
    c = _cnormal(rng, (n, n))
    e = 0.25 * (c @ c.conj().T) / n
    d = (d + d.conj().T) / 2
    e = (e + e.conj().T) / 2
    a = -1j * h - d - e
    m = 2 * e
    ini = _ini(["[job]", "command = steady"], ["[model]", "kind = explicit"],
               _matrix_section("model.a", a), _matrix_section("model.m", m))
    return Job(key, "steady", ("steady",), ini, {"a": a, "m": m})


def skin_job(key: str, rng, n: int) -> Job:
    """Hatano-Nelson chain at the default parameters (kappa = 0.5) with a
    seeded flat-split delta; occupations span about 1e-19 to 0.25."""
    delta = float(rng.uniform(0.1, 0.9))
    ini = _ini(["[job]", "command = skin"], ["[model]", "kind = hatano-nelson"],
               ["[model.hatano-nelson]", f"n = {n}", f"delta = {_fmt(delta)}"])
    return Job(key, "skin", ("skin",), ini, {"n": n, "delta": delta})


def verify_job(key: str, n: int, seed: int | None) -> Job:
    """`verify --n N --seed S --draws 20`, or the CLI default when
    ``seed`` is None (seed 7, draws 20)."""
    if seed is None:
        return Job(key, "verify", ("verify", "--n", str(n)), None,
                   {"n": n, "seed": 7, "draws": VERIFY_DRAWS})
    args = ("verify", "--n", str(n), "--seed", str(seed),
            "--draws", str(VERIFY_DRAWS))
    return Job(key, "verify", args, None,
               {"n": n, "seed": seed, "draws": VERIFY_DRAWS})


def _rng(seed: int, workload: str, index: int):
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def build(workload: str, seed: int) -> Workload:
    """The job list of ``workload`` for ``seed``; same seed, same bytes."""
    if workload == "evolve-grid":
        jobs = tuple(
            evolve_job(f"evolve-{i:02d}", _rng(seed, workload, i),
                       EVOLVE_GRID_N, EVOLVE_GRID_TIMES, initial=True)
            for i in range(EVOLVE_GRID_JOBS))
        return Workload(workload, warmup=jobs[:1], jobs=jobs)
    if workload == "long-time":
        jobs = []
        for i in range(LONG_TIME_ROUNDS):
            jobs.append(steady_job(f"steady-{i:02d}",
                                   _rng(seed, workload, 3 * i), LONG_STEADY_N))
            jobs.append(skin_job(f"skin-{i:02d}",
                                 _rng(seed, workload, 3 * i + 1), LONG_SKIN_N))
            jobs.append(evolve_job(f"evolve-{i:02d}",
                                   _rng(seed, workload, 3 * i + 2),
                                   LONG_EVOLVE_N, LONG_EVOLVE_TIMES,
                                   initial=False))
        return Workload(workload, warmup=tuple(jobs[:3]), jobs=tuple(jobs))
    if workload == "verify-dense":
        seeds = _rng(seed, workload, 0).integers(0, 2 ** 31, size=len(VERIFY_PATTERN))
        jobs = []
        for i, (entry, s) in enumerate(zip(VERIFY_PATTERN, seeds)):
            if entry == "default":
                jobs.append(verify_job(f"verify-{i:02d}-default", 4, None))
            else:
                jobs.append(verify_job(f"verify-{i:02d}-n{entry}", entry, int(s)))
        # Single-draw suites fill the oracle's caches at both sizes cheaply.
        warmup = tuple(
            Job(f"warmup-n{n}", "verify",
                ("verify", "--n", str(n), "--seed", "1", "--draws", "1"), None,
                {"n": n, "seed": 1, "draws": 1})
            for n in (3, 4))
        return Workload(workload, warmup=warmup, jobs=tuple(jobs))
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
