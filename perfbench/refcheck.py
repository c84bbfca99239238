"""Independent reference checks for every benchmark job.

Nothing here imports quadferm.  Each check recomputes the answer from the
job's generated model data with numpy/scipy and returns a Verdict: whether
the output is correct, and the worst relative error as decimal digits.

- evolve: R(t) = e^{tA}(R0 - T)e^{tA†} + T with T from
  scipy.linalg.solve_continuous_lyapunov, once t * lambda_min(D + E) >= 1.
  Below that, where T - e^{tA} T e^{tA†} cancels, a single unchunked block
  exponential of [[A, M], [0, -A†]] is the reference.
- steady: scipy.linalg.solve_continuous_lyapunov.
- skin: the closed form x kappa^(2-2j) entrywise, and delta/(1+delta) for
  the flat split.
- verify: 34 distinct named rows, each status consistent with its value,
  tolerance and comparison, and an exit code that agrees with the rows.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

#: A job passes when its worst relative error is at most this.
REL_TOL = 1e-9
#: Relative errors are floored here, so an exact answer reads 17 digits.
ERR_FLOOR = 1e-17
#: Closed-form reference once t * (smallest damping) reaches this.
CLOSED_FORM_MIN = 1.0
#: Single block exponential only while t * (largest damping) stays below.
BLOCK_MAX = 8.0
VERIFY_ROWS = 34
EXIT_OK, EXIT_VERIFY_FAILED = 0, 3
#: quadferm's documented defaults for the chain (kappa = 0.5).
HATANO_NELSON_DEFAULTS = {"lam": 0.3, "gamma": 0.5}


class OutputError(ValueError):
    """The output is malformed or disagrees with its reference."""


@dataclass(frozen=True)
class Verdict:
    ok: bool
    digits: float              # -log10(worst relative error), at most 17
    detail: str = ""
    failed_checks: int = 0     # verify only: rows with status "fail"
    margin_log10: float = math.inf   # verify only: min log10(tol/value)


def digits(err: float) -> float:
    return -math.log10(max(float(err), ERR_FLOOR))


def _rel(x: np.ndarray, ref: np.ndarray) -> float:
    scale = np.linalg.norm(ref)
    diff = np.linalg.norm(x - ref)
    if scale == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return float(diff / scale)


def _entropy(r: np.ndarray) -> float:
    occ = np.clip(np.linalg.eigvalsh(r), 0.0, 1.0)
    occ = np.concatenate([occ, 1.0 - occ])
    occ = occ[occ > 0.0]
    return float(-np.sum(occ * np.log(occ)))


def parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    comments = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, sep, value = lines[i][2:].partition("=")
        if not sep:
            raise OutputError(f"malformed provenance line {lines[i]!r}")
        comments[key] = value
        i += 1
    rows = list(csv.reader(io.StringIO("\n".join(lines[i:]))))
    if not rows:
        raise OutputError("no header row")
    return comments, rows[0], rows[1:]


def _floats(rows: list[list[str]], width: int) -> np.ndarray:
    if any(len(r) != width for r in rows):
        raise OutputError(f"rows must have {width} cells")
    try:
        return np.array(rows, dtype=float)
    except ValueError as exc:
        raise OutputError(f"non-numeric cell: {exc}") from None


def _cells_to_matrix(cells: np.ndarray, n: int) -> np.ndarray:
    return (cells[0::2] + 1j * cells[1::2]).reshape(n, n)


def _matrix_header(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{j}{k}_{part}" for j in range(1, n + 1)
            for k in range(1, n + 1) for part in ("re", "im")]


def _state_errors(vals: np.ndarray, n: int, ref: np.ndarray) -> float:
    """Worst relative error of one [R cells, occupations, entropy] block."""
    r = _cells_to_matrix(vals[:2 * n * n], n)
    occ = vals[2 * n * n:2 * n * n + n]
    if not np.array_equal(occ, r.diagonal().real):
        raise OutputError("occupation columns differ from diag(R)")
    s_ref = _entropy(ref)
    s_err = abs(vals[-1] - s_ref) / abs(s_ref) if s_ref else abs(vals[-1])
    return max(_rel(r, ref), s_err)


def _generator(data: dict) -> tuple[np.ndarray, np.ndarray]:
    n = data["h"].shape[0]
    d = sum((np.outer(v, v.conj()) for v in data["loss"]), np.zeros((n, n), complex))
    e = sum((np.outer(v, v.conj()) for v in data["gain"]), np.zeros((n, n), complex))
    return -1j * data["h"] - d - e, 2 * e


def evolve_reference(data: dict) -> list[np.ndarray]:
    a, m = _generator(data)
    r0 = data["r0"]
    damping = np.linalg.eigvalsh(-(a + a.conj().T) / 2)
    slow, fast = float(damping[0]), float(damping[-1])
    t_inf = scipy.linalg.solve_continuous_lyapunov(a, -m)
    n = a.shape[0]
    refs = []
    for t in data["times"]:
        if t == 0.0:
            refs.append(r0.copy())
        elif t * slow >= CLOSED_FORM_MIN:
            u = scipy.linalg.expm(t * a)
            refs.append(u @ (r0 - t_inf) @ u.conj().T + t_inf)
        elif t * fast <= BLOCK_MAX:
            block = np.block([[a, m], [np.zeros((n, n)), -a.conj().T]])
            w = scipy.linalg.expm(t * block)
            u = w[:n, :n]
            refs.append(u @ r0 @ u.conj().T + w[:n, n:] @ u.conj().T)
        else:
            raise ValueError(f"no accurate reference at t={t}: damping "
                             f"[{slow:.3g}, {fast:.3g}] spans too wide a range")
    return [(r + r.conj().T) / 2 for r in refs]


def check_evolve(data: dict, text: str) -> float:
    n = data["h"].shape[0]
    comments, header, rows = parse_csv(text)
    expect = ["t"] + _matrix_header("r", n) + [f"occ{j}" for j in range(1, n + 1)] \
        + ["entropy"]
    if comments.get("command") != "evolve" or header != expect:
        raise OutputError("evolve provenance or header mismatch")
    vals = _floats(rows, len(expect))
    if vals.shape[0] != len(data["times"]) \
            or not np.array_equal(vals[:, 0], data["times"]):
        raise OutputError("time column differs from the requested grid")
    refs = evolve_reference(data)
    return max(_state_errors(row[1:], n, ref) for row, ref in zip(vals, refs))


def check_steady(data: dict, text: str) -> float:
    a, m = data["a"], data["m"]
    n = a.shape[0]
    comments, header, rows = parse_csv(text)
    expect = _matrix_header("minf", n) + [f"occ{j}" for j in range(1, n + 1)] \
        + ["entropy"]
    if comments.get("command") != "steady" or header != expect or len(rows) != 1:
        raise OutputError("steady provenance, header or row count mismatch")
    ref = scipy.linalg.solve_continuous_lyapunov(a, -m)
    return _state_errors(_floats(rows, len(expect))[0], n, (ref + ref.conj().T) / 2)


def check_skin(data: dict, text: str) -> float:
    n, delta = data["n"], data["delta"]
    p = HATANO_NELSON_DEFAULTS
    kappa = math.sqrt((p["gamma"] - p["lam"]) / (p["gamma"] + p["lam"]))
    x = kappa ** (2 * n - 2) / 4
    comments, header, rows = parse_csv(text)
    if comments.get("command") != "skin" \
            or header != ["site", "occupation", "featureless_occupation"]:
        raise OutputError("skin provenance or header mismatch")
    vals = _floats(rows, 3)
    if not np.array_equal(vals[:, 0], np.arange(1, n + 1)):
        raise OutputError("site column is not 1..n")
    sites = np.arange(1, n + 1)
    occ_ref = x * kappa ** (2.0 - 2.0 * sites)
    flat_ref = delta / (1 + delta)
    occ_err = np.max(np.abs(vals[:, 1] - occ_ref) / occ_ref)
    flat_err = np.max(np.abs(vals[:, 2] - flat_ref)) / flat_ref
    return float(max(occ_err, flat_err))


def check_verify(data: dict, text: str, exit_code: int) -> Verdict:
    comments, header, rows = parse_csv(text)
    expect = ["name", "identity", "value", "tolerance", "comparison", "status"]
    want = {"command": "verify", "n": str(data["n"]), "seed": str(data["seed"]),
            "draws": str(data["draws"])}
    if header != expect or any(comments.get(k) != v for k, v in want.items()):
        raise OutputError("verify provenance or header mismatch")
    if len(rows) != VERIFY_ROWS or any(len(r) != 6 for r in rows):
        raise OutputError(f"expected {VERIFY_ROWS} rows of 6 cells")
    names = [r[0] for r in rows]
    if len(set(names)) != VERIFY_ROWS or not all(names):
        raise OutputError("check names are not distinct and non-empty")
    failed, worst, margin = 0, math.inf, math.inf
    for name, _, value, tol, comparison, status in rows:
        value, tol = float(value), float(tol)
        if comparison == "<=":
            passed = value <= tol
            worst = min(worst, digits(value))
            margin = min(margin, math.log10(tol / max(value, ERR_FLOOR)))
        elif comparison == ">=":
            passed = value >= tol
            margin = min(margin, math.log10(value / tol))
        else:
            raise OutputError(f"{name}: unknown comparison {comparison!r}")
        if status != ("pass" if passed else "fail"):
            raise OutputError(f"{name}: status {status!r} disagrees with "
                              f"{value!r} {comparison} {tol!r}")
        failed += status == "fail"
    if exit_code != (EXIT_VERIFY_FAILED if failed else EXIT_OK):
        raise OutputError(f"exit code {exit_code} disagrees with {failed} failed rows")
    return Verdict(True, worst, failed_checks=failed, margin_log10=margin)


def check(job, text: str, exit_code) -> Verdict:
    """Verdict on one job's output ``text`` and exit code.

    For verify, the output is correct when it is a consistent report, even
    if that report says a check exceeded its tolerance; the count of such
    rows is returned in ``failed_checks``.
    """
    try:
        if job.kind == "verify":
            return check_verify(job.data, text, exit_code)
        if exit_code != EXIT_OK:
            raise OutputError(f"exit code {exit_code}")
        err = {"evolve": check_evolve, "steady": check_steady,
               "skin": check_skin}[job.kind](job.data, text)
    except ValueError as exc:           # OutputError, or no usable reference
        return Verdict(False, 0.0, f"{job.key}: {exc}")
    if not err <= REL_TOL:
        return Verdict(False, digits(err), f"{job.key}: relative error {err:.3e}")
    return Verdict(True, digits(err))
