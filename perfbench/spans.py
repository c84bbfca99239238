"""Span recorder that wraps quadferm's public functions from outside.

Modules import kernels by name (``from .linalg import mat_exp``), so a
wrapper is bound under every name in every quadferm module that holds the
original.  Dataclass constructors are traced by replacing ``__init__``.
Spans are kept in memory as ``(name, start, end, parent, job)`` and written
out once, when the traced batch ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

#: Traced functions per module.  ``Class.init`` names a dataclass __init__.
TARGETS = {
    "linalg": ("mat_exp", "van_loan_integral", "lyapunov_solve",
               "spectral_split", "as_square"),
    "gaussian": ("evolve_state", "stationary_correlation", "entropy",
                 "GaussianState.init", "LiouvillianParams.init"),
    "affine": ("flow", "compose", "inverse", "AffineElement.init"),
    "skin": ("build_bath", "steady_profile", "featureless_choice"),
    "fock": ("super_liouvillian", "super_basic", "dense_evolve",
             "gaussian_density", "apply_generator", "read_correlations",
             "majorana_liouvillian"),
    "opbasis": ("phi_element", "phi_from_pi", "pi_from_phi",
                "phi_family_matrix", "phi_evolution_residual"),
    "verify": ("run_suite",),
    "config": ("load_config",),
    "cli": ("main",),
}
#: scipy.linalg.expm calls made outside any linalg span.
DENSE_EXPM = "fock.dense_expm"
#: Spans of the recorder's own work; they count as covered time of their
#: parent and belong to no module.
RESIDUAL_SPAN = "trace.residual"


def layer_functions() -> list[str]:
    """Every traced span name, ``module.function``."""
    names = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]
    return names + [DENSE_EXPM]


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self.residual_max = 0.0
        self.checks_failed = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._linalg_depth = 0
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        is_linalg = name.startswith("linalg.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            self._linalg_depth += is_linalg
            try:
                return fn(*args, **kwargs)
            finally:
                self._linalg_depth -= is_linalg
                self._close(idx)
        return traced

    # -- installation ------------------------------------------------------

    def _setattr(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        import scipy.linalg

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "quadferm" or name.startswith("quadferm.")]
        for mod_name, fns in TARGETS.items():
            module = sys.modules.get(f"quadferm.{mod_name}")
            for fn_name in fns:
                span = f"{mod_name}.{fn_name}"
                if fn_name.endswith(".init"):
                    cls = getattr(module, fn_name[:-5], None)
                    if cls is None:
                        self.missing.append(span)
                        continue
                    self._setattr(cls, "__init__", self.wrap(span, cls.__init__))
                    continue
                original = getattr(module, fn_name, None)
                if original is None:
                    self.missing.append(span)
                    continue
                make = {"linalg.lyapunov_solve": self._lyapunov,
                        "verify.run_suite": self._run_suite}.get(span, self.wrap)
                wrapper = make(span, original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._setattr(holder, attr, wrapper)
        self._setattr(scipy.linalg, "expm", self._dense_expm(scipy.linalg.expm))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- wrappers with extra bookkeeping -------------------------------------

    def _dense_expm(self, expm):
        traced = self.wrap(DENSE_EXPM, expm)

        @functools.wraps(expm)
        def dispatch(*args, **kwargs):
            if self._linalg_depth:
                return expm(*args, **kwargs)
            return traced(*args, **kwargs)
        return dispatch

    def _lyapunov(self, span: str, fn):
        traced = self.wrap(span, fn)

        @functools.wraps(fn)
        def solve(a, m, *args, **kwargs):
            t_mat = traced(a, m, *args, **kwargs)
            idx = self._open(RESIDUAL_SPAN)
            try:
                a = np.asarray(a, dtype=complex)
                m = np.asarray(m, dtype=complex)
                res = np.linalg.norm(a @ t_mat + t_mat @ a.conj().T + m)
                scale = np.linalg.norm(a) * np.linalg.norm(t_mat) + np.linalg.norm(m)
                if scale > 0:
                    self.residual_max = max(self.residual_max, float(res / scale))
            finally:
                self._close(idx)
            return t_mat
        return solve

    def _run_suite(self, span: str, fn):
        traced = self.wrap(span, fn)

        @functools.wraps(fn)
        def run(*args, **kwargs):
            results = traced(*args, **kwargs)
            self.checks_failed += sum(not r.passed for r in results)
            return results
        return run

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "residual_max": self.residual_max,
                       "checks_failed": self.checks_failed,
                       "missing": self.missing}, fh)


def self_times(spans) -> dict[str, tuple[int, float]]:
    """``name -> (calls, self seconds)`` over ``spans``.

    A span's self time is its duration minus the part of its interval that
    its direct children cover (the union of their intervals, clipped to the
    parent).  ``parent`` is an index into ``spans``, or -1 for a root.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, tuple[int, float]] = {}
    for idx, (name, start, end, _parent, _job) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - covered)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-function calls and self time, and per-module self-time rollups,
    for every traced name (zero where a function was never called)."""
    agg = self_times(spans)
    metrics: dict[str, float] = {}
    rollup = {mod: 0.0 for mod in TARGETS}
    for name in layer_functions():
        calls, self_s = agg.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
        rollup[name.split(".", 1)[0]] += self_s
    for mod, total in rollup.items():
        metrics[f"{mod}.self_s"] = total
    return metrics
