"""Job-file parsing for the command-line front end.

A job is a single INI-style text file with nested key-value sections.
Matrices are written row by row as whitespace-separated (re, im) pairs;
coupling vectors the same way, one vector per key.

    [job]
    command = evolve
    n = 2
    seed = 7

    [model]
    kind = explicit            ; explicit | physical | hatano-nelson

    [model.a]
    row1 = -0.5 0.0   0.1 0.0
    row2 =  0.1 0.0  -0.7 0.0

    [model.m]
    row1 = 0.2 0.0   0.0 0.0
    row2 = 0.0 0.0   0.1 0.0

    [initial]
    state = vacuum             ; vacuum | matrix (with [initial.r])

    [times]
    values = 0.0 0.5 1.0

    [output]
    path = out.csv

A `physical` model uses [model.h] plus optional [model.loss] / [model.gain]
vector sections; a `hatano-nelson` model uses scalar keys in
[model.hatano-nelson].  [tolerances] holds per-check overrides for verify.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .affine import AffineGenerator
from .errors import ValidationError
from .gaussian import GaussianState, params_from_model
from .skin import HatanoNelsonParams

__all__ = ["JobConfig", "load_config", "parse_config_text"]

#: Each model kind and the ``model.*`` sections that may come with it
_MODEL_SECTIONS = {
    "explicit": {"model.a", "model.m"},
    "physical": {"model.h", "model.loss", "model.gain"},
    "hatano-nelson": {"model.hatano-nelson"},
}


@dataclass
class JobConfig:
    command: str | None = None
    params: AffineGenerator | None = None
    hatano_nelson: HatanoNelsonParams | None = None
    delta: float = 1.0 / 3.0
    initial: GaussianState | None = None
    times: list[float] = field(default_factory=list)
    output: str | None = None
    tolerances: dict = field(default_factory=dict)
    n: int = 2
    seed: int = 7
    draws: int = 20


def _floats(text: str, where: str) -> list[float]:
    tokens = text.replace(",", " ").split()
    try:
        return list(map(float, tokens))
    except ValueError:
        bad = next(t for t in tokens if not _parses(t))
    raise ValidationError(f"{where}: cannot parse {bad!r} as a number")


def _parses(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _complex_values(text: str, where: str) -> np.ndarray:
    values = _floats(text, where)
    if len(values) % 2 != 0:
        raise ValidationError(f"{where}: entries come as (re, im) pairs, "
                              f"got {len(values)} numbers")
    return np.array(values).view(complex)


def _parse_matrix(cp, section: str) -> np.ndarray:
    if not cp.has_section(section):
        raise ValidationError(f"missing matrix section [{section}]")
    rows = []
    for idx, key in enumerate(cp[section], start=1):
        expected = f"row{idx}"
        if key != expected:
            raise ValidationError(
                f"[{section}]: expected key {expected!r}, found {key!r}"
            )
        rows.append(_complex_values(cp[section][key], f"[{section}] {key}"))
    if not rows:
        raise ValidationError(f"[{section}] is empty")
    width = len(rows[0])
    for idx, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValidationError(
                f"[{section}] row{idx}: expected {width} entries, got {len(row)}"
            )
    if len(rows) != width:
        raise ValidationError(
            f"[{section}]: matrix must be square, got {len(rows)} x {width}"
        )
    return np.array(rows, dtype=complex)


def _parse_vectors(cp, section: str) -> list[np.ndarray]:
    if not cp.has_section(section):
        return []
    return [_complex_values(cp[section][key], f"[{section}] {key}")
            for key in cp[section]]


_NUMBER_KINDS = {float: "a number", int: "an integer"}


def _get(cp, section: str, key: str, convert, default=None):
    """``convert`` (float or int) of a value; ``default`` if it is absent or
    empty."""
    if not cp.has_option(section, key) or not cp[section][key].strip():
        return default
    try:
        return convert(cp[section][key])
    except ValueError:
        raise ValidationError(
            f"[{section}] {key}: not {_NUMBER_KINDS[convert]}")


def parse_config_text(text: str) -> JobConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   interpolation=None)
    cp.optionxform = str.lower
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config parse error: {exc}") from exc

    cfg = JobConfig()
    if cp.has_section("job"):
        cfg.command = cp["job"].get("command", "").strip().lower() or None
        for key in ("n", "seed", "draws"):
            setattr(cfg, key, _get(cp, "job", key, int, getattr(cfg, key)))

    kind = None
    if cp.has_section("model"):
        kind = cp["model"].get("kind", "").strip().lower() or None
        if kind not in _MODEL_SECTIONS:
            raise ValidationError(f"[model] kind must be one of "
                                  f"{tuple(_MODEL_SECTIONS)}, got {kind!r}")

    present = {s for s in cp.sections() if s.startswith("model.")}
    if kind is not None:
        stray = present - _MODEL_SECTIONS[kind]
        if stray:
            raise ValidationError(
                f"sections {sorted(stray)} do not belong to model kind {kind!r}; "
                "exactly one model source may be present"
            )

    if kind == "explicit":
        a = _parse_matrix(cp, "model.a")
        m = _parse_matrix(cp, "model.m")
        cfg.params = AffineGenerator(a, m)
    elif kind == "physical":
        cfg.params = params_from_model(
            _parse_matrix(cp, "model.h"),
            loss_vectors=_parse_vectors(cp, "model.loss"),
            gain_vectors=_parse_vectors(cp, "model.gain"),
        )
    elif kind == "hatano-nelson":
        sec = "model.hatano-nelson"
        n = _get(cp, sec, "n", int)
        if n is None:
            raise ValidationError(f"[{sec}]: chain length n is required")
        cfg.hatano_nelson = HatanoNelsonParams(
            n=n,
            omega=_get(cp, sec, "omega", float, 1.0),
            lam=_get(cp, sec, "lambda", float, 0.3),
            gamma=_get(cp, sec, "gamma", float, 0.5),
            a=_get(cp, sec, "a", float, 2.5),
            x=_get(cp, sec, "x", float),
        )
        cfg.delta = _get(cp, sec, "delta", float, cfg.delta)

    if cp.has_section("initial"):
        state = cp["initial"].get("state", "vacuum").strip().lower()
        if state == "vacuum":
            if cp.has_section("initial.r"):
                raise ValidationError("section [initial.r] does not belong "
                                      "to [initial] state 'vacuum'")
        elif state == "matrix":
            cfg.initial = GaussianState(_parse_matrix(cp, "initial.r"))
        else:
            raise ValidationError(
                f"[initial] state must be 'vacuum' or 'matrix', got {state!r}"
            )
    elif cp.has_section("initial.r"):
        cfg.initial = GaussianState(_parse_matrix(cp, "initial.r"))

    if cp.has_section("times"):
        cfg.times = _floats(cp["times"].get("values", ""), "[times] values")
        for t in cfg.times:
            if not np.isfinite(t):
                raise ValidationError(f"[times] values must be finite, got {t}")
        if any(t < 0 for t in cfg.times):
            raise ValidationError("[times] values must be nonnegative")
        if sorted(cfg.times) != cfg.times:
            raise ValidationError("[times] values must be sorted ascending")

    if cp.has_section("output"):
        cfg.output = cp["output"].get("path", "").strip() or None

    if cp.has_section("tolerances"):
        for key in cp["tolerances"]:
            tol = _get(cp, "tolerances", key, float)
            if tol is None or not 0 <= tol < np.inf:
                raise ValidationError(
                    f"[tolerances] {key}: need a finite number >= 0, got {tol}")
            cfg.tolerances[key] = tol

    return cfg


def load_config(path: str) -> JobConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config {path!r} is not UTF-8: byte "
                              f"{exc.object[exc.start]:#04x} at offset "
                              f"{exc.start}") from exc
    return parse_config_text(text)
