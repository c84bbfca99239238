"""Batch command-line front end.

Four commands, one CSV file per run:

    quadferm evolve --config job.ini [--out path]
    quadferm steady --config job.ini [--out path]
    quadferm skin   --config job.ini [--out path]
    quadferm verify [--config job.ini] [--n N] [--seed S] [--tol T] [--out path]

`steady` writes the long-time limit from the vacuum; k undamped modes of an
admissible generator add `# persistent_modes=k` and `# frequency<j>=ω_j`.

Output starts with `# key=value` provenance lines followed by a header row
and data rows; every numeric cell uses 17 significant digits so doubles
round-trip exactly and repeated runs are byte-identical.  A job prints each
distinct magnitude once and reuses its text, with a "-" where the sign bit
is set, for every cell that holds it: "%.17g" is a function of the bits, so
the bytes are those of one conversion per cell.

Exit codes: 0 success, 1 validation error, 2 physics/convergence error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fock
from .config import JobConfig, load_config
from .errors import PhysicsError, ValidationError
from .gaussian import (GaussianState, asymptotic_decomposition, entropy,
                       evolve_grid)
from .skin import (build_bath, featureless_choice, localization_slope,
                   steady_profile)
from .verify import check_names, run_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PHYSICS = 2
EXIT_VERIFY_FAILED = 3


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _csv_field(text: str) -> str:
    """A string cell as csv.writer's minimal quoting writes it with a "\\n"
    line terminator: double-quoted, quotes doubled, when it holds a comma,
    a double quote or a newline."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


#: Every bit of a float64 but its sign
_MAGNITUDE = np.uint64(0x7FFF_FFFF_FFFF_FFFF)


def _format_numbers(x: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` for every v in float64 x, as an object array of x's
    shape: one conversion per distinct magnitude (the bits with the sign
    cleared), one string per distinct bit pattern, which is its
    magnitude's text with ``"-"`` before it where the sign bit is set,
    gathered back by the inverse index. Every NaN prints ``nan``, as
    "%.17g" prints it whatever its sign and payload."""
    keys, inverse = np.unique(x.view(np.uint64).ravel(), return_inverse=True)
    mags, of_key = np.unique(keys & _MAGNITUDE, return_inverse=True)
    text = np.array(("\n".join(["%.17g"] * len(mags))
                     % tuple(mags.view(np.float64).tolist())).split("\n"),
                    dtype=object)[of_key]
    negative = (keys > _MAGNITUDE) & ~np.isnan(keys.view(np.float64))
    text[negative] = "-" + text[negative]
    return text[inverse].reshape(x.shape)


def _render(comments: list[tuple[str, object]], header: list[str],
            rows: list) -> str:
    """Provenance lines, header and rows as CSV text.

    Every row has the first row's layout of string and numeric cells. The
    numeric cells of all rows go into one float64 array (column by column
    when a row also holds strings), and `_format_numbers` prints each
    distinct magnitude in it once with "%.17g", which gives the bytes of
    ``format(float(x), ".17g")``. The text depends on the bits alone, so
    sharing it between equal magnitudes changes no byte; keying on bits,
    not on float equality, keeps 0.0 and -0.0 apart by the sign. An
    `evolve` job repeats most of its magnitudes (the parts below R's
    diagonal, which is Hermitian, and a relaxed state), so it prints a
    fraction of its cells.
    """
    lines = [f"# {key}={value}" for key, value in comments]
    table = [list(map(_csv_field, header))]
    if rows:
        text = [j for j, cell in enumerate(rows[0]) if isinstance(cell, str)]
        if text:
            num = [j for j in range(len(rows[0])) if j not in text]
            cells = np.empty((len(rows), len(rows[0])), dtype=object)
            cells[:, num] = _format_numbers(np.array(
                [[row[j] for j in num] for row in rows], dtype=float))
            for j in text:
                cells[:, j] = [_csv_field(row[j]) for row in rows]
        else:
            cells = _format_numbers(np.array(rows, dtype=float))
        table += cells.tolist()
    # csv.writer writes a lone empty field as "", so that no line is blank
    lines += ['""' if row == [""] else ",".join(row) for row in table]
    lines.append("")
    return "\n".join(lines)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _matrix_columns(prefix: str, n: int) -> list[str]:
    names = []
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            names.append(f"{prefix}{j}{k}_re")
            names.append(f"{prefix}{j}{k}_im")
    return names


def _matrix_cells(mat: np.ndarray) -> np.ndarray:
    """Row-major (re, im) pairs of a complex matrix."""
    return np.ascontiguousarray(mat, dtype=complex).view(float).ravel()


def _require_params(cfg: JobConfig):
    if cfg.params is not None:
        return cfg.params
    if cfg.hatano_nelson is not None:
        return build_bath(cfg.hatano_nelson)
    raise ValidationError("config does not define a model")


def _cmd_evolve(cfg: JobConfig, out: str | None) -> int:
    params = _require_params(cfg)
    if not cfg.times:
        raise ValidationError("[times] values are required for evolve")
    state = cfg.initial or GaussianState.vacuum(params.n)
    n = params.n
    header = ["t"] + _matrix_columns("r", n) \
        + [f"occ{j}" for j in range(1, n + 1)] + ["entropy"]
    rows = []
    for t, s in zip(cfg.times, evolve_grid(params, state, cfg.times)):
        rows.append(np.concatenate(
            ([t], _matrix_cells(s.r), s.occupations(), [entropy(s)])))
    comments = [("command", "evolve"), ("n", n),
                ("gksl", str(params.gksl).lower())]
    _emit(_render(comments, header, rows), out)
    return EXIT_OK


def _cmd_steady(cfg: JobConfig, out: str | None) -> int:
    params = _require_params(cfg)
    dec = asymptotic_decomposition(params, GaussianState.vacuum(params.n))
    state = GaussianState(dec.m_inf)
    n = params.n
    header = _matrix_columns("minf", n) \
        + [f"occ{j}" for j in range(1, n + 1)] + ["entropy"]
    rows = [np.concatenate((_matrix_cells(state.r), state.occupations(),
                            [entropy(state)]))]
    comments = [("command", "steady"), ("n", n),
                ("gksl", str(params.gksl).lower())]
    if dec.frequencies.size:
        comments.append(("persistent_modes", dec.frequencies.size))
        comments += [(f"frequency{j}", _fmt(w))
                     for j, w in enumerate(dec.frequencies, start=1)]
    _emit(_render(comments, header, rows), out)
    return EXIT_OK


def _cmd_skin(cfg: JobConfig, out: str | None) -> int:
    p = cfg.hatano_nelson
    if p is None:
        raise ValidationError("skin requires a hatano-nelson model section")
    profile = steady_profile(p)
    flat = featureless_choice(p, cfg.delta)
    flat_profile = flat.diagonal().real
    slope, _ = localization_slope(profile)
    comments = [
        ("command", "skin"),
        ("n", p.n),
        ("kappa", _fmt(p.kappa)),
        ("x", _fmt(p.x)),
        ("delta", _fmt(cfg.delta)),
        ("log_slope", _fmt(slope)),
        ("log_slope_target", _fmt(-2 * np.log(p.kappa))),
    ]
    header = ["site", "occupation", "featureless_occupation"]
    rows = [[str(j + 1), profile[j], flat_profile[j]] for j in range(p.n)]
    _emit(_render(comments, header, rows), out)
    return EXIT_OK


def _cmd_verify(cfg: JobConfig, out: str | None, n: int, seed: int,
                draws: int, tol: float | None) -> int:
    overrides = dict(cfg.tolerances)
    if tol is not None:
        overrides = {name: tol for name in check_names()}
    results = run_suite(n=n, seed=seed, draws=draws, tol_overrides=overrides)
    comments = [
        ("command", "verify"),
        ("n", n),
        ("seed", seed),
        ("draws", draws),
        ("generator", "numpy.random.default_rng(PCG64), streams (seed, check_index)"),
    ]
    header = ["name", "identity", "value", "tolerance", "comparison", "status"]
    rows = []
    for res in results:
        rows.append([res.name, res.identity, res.value, res.tolerance,
                     res.comparison, res.status])
    _emit(_render(comments, header, rows), out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadferm",
        description="Open quadratic fermion systems: evolution, steady "
                    "states, skin-effect baths, and the dense identity suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("evolve", "evolve a Gaussian state over the requested times"),
        ("steady", "compute the long-time limit and any persistent modes"),
        ("skin", "build the localized bath and its occupation profile"),
    ):
        cmd = sub.add_parser(name, help=desc)
        cmd.add_argument("--config", required=True, help="job file (INI)")
        cmd.add_argument("--out", default=None, help="output CSV path")
    ver = sub.add_parser("verify", help="run the dense identity suite")
    ver.add_argument("--config", default=None, help="job file (INI)")
    ver.add_argument("--out", default=None, help="output CSV path")
    ver.add_argument("--n", type=int, default=None,
                     help=f"mode count (<= {fock.MAX_DENSE_EVOLVE_MODES})")
    ver.add_argument("--seed", type=int, default=None, help="RNG seed")
    ver.add_argument("--draws", type=int, default=None,
                     help="random instances per identity (at most 3 "
                          "when n >= 4)")
    ver.add_argument("--tol", type=float, default=None,
                     help="override every tolerance with this value")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else JobConfig()
        if cfg.command is not None and cfg.command != args.command:
            raise ValidationError(
                f"config requests command {cfg.command!r} but "
                f"{args.command!r} was invoked"
            )
        out = args.out if args.out is not None else cfg.output
        if args.command == "evolve":
            return _cmd_evolve(cfg, out)
        if args.command == "steady":
            return _cmd_steady(cfg, out)
        if args.command == "skin":
            return _cmd_skin(cfg, out)
        n = args.n if args.n is not None else cfg.n if cfg.n is not None else 2
        seed = args.seed if args.seed is not None else cfg.seed
        draws = args.draws if args.draws is not None else cfg.draws
        return _cmd_verify(cfg, out, n=n, seed=seed, draws=draws, tol=args.tol)
    except ValidationError as exc:
        print(f"quadferm: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PhysicsError as exc:
        print(f"quadferm: physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
