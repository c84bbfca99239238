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

Each command is a function of the job that returns its table (comments,
header, rows) and exit status; `main` looks it up in `_COMMANDS`, writes
the table (to ``--out``, the job's ``[output] path``, or stdout) and maps
errors to exit codes: 0 success, 1 validation error, 2 physics/convergence
error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys

import numpy as np

from . import fock
from .config import JobConfig, load_config
from .errors import PhysicsError, ValidationError
from .gaussian import (GaussianState, _entropies, asymptotic_decomposition,
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


def _render(comments: list[tuple[str, object]],
            header: tuple[str, ...] | str, rows) -> str:
    """Provenance lines, header (its names, or the row `_state_header`
    rendered) and rows (a list, or a 2-D float64 array used without a
    copy) as CSV text.

    An array goes to `_format_numbers` as it is. Every list row has the
    first row's layout of string and numeric cells, and the numeric cells
    of all rows go into one float64 array. `_format_numbers` prints each
    distinct magnitude in it once with "%.17g", which gives the bytes of
    ``format(float(x), ".17g")``. The text depends on the bits alone, so
    sharing it between equal magnitudes changes no byte; keying on bits,
    not on float equality, keeps 0.0 and -0.0 apart by the sign. An
    `evolve` job repeats most of its magnitudes (the parts below R's
    diagonal, which is Hermitian, and a relaxed state), so it prints a
    fraction of its cells.
    """
    lines = [f"# {key}={value}" for key, value in comments]
    lines.append(header if isinstance(header, str) else _header_line(header))
    table = []
    if isinstance(rows, np.ndarray):
        table = _format_numbers(rows).tolist()
    elif rows:
        text = [j for j, cell in enumerate(rows[0]) if isinstance(cell, str)]
        num = [j for j in range(len(rows[0])) if j not in text]
        cells = np.empty((len(rows), len(rows[0])), dtype=object)
        cells[:, num] = _format_numbers(np.array(
            [[row[j] for j in num] for row in rows], dtype=float))
        for j in text:
            cells[:, j] = [_csv_field(row[j]) for row in rows]
        table = cells.tolist()
    lines += map(_line, table)
    lines.append("")
    return "\n".join(lines)


def _line(cells: list[str]) -> str:
    # csv.writer writes a lone empty field as "", so that no line is blank
    return '""' if cells == [""] else ",".join(cells)


def _header_line(names) -> str:
    """The CSV header row of ``names``."""
    return _line(list(map(_csv_field, names)))


def _unwritable(path: str, exc: OSError) -> ValidationError:
    return ValidationError(f"cannot write output {path!r}: {exc}")


def _check_output(path: str | None) -> None:
    """Refuse, before any work, an output path that is empty, a directory
    or in a missing directory, with the error `_emit` would raise.  It
    creates nothing: `_emit` opens the file only once the job has run, so
    a failed job never truncates an existing one."""
    if path is None:
        return
    # neither the path "" nor a parent "" exists: ENOENT, as open("") gives
    parent = (os.path.dirname(path) or ".") if path else ""
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise _unwritable(path, OSError(code, os.strerror(code), path))


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


@functools.cache
def _state_header(command: str, n: int) -> str:
    """The rendered header row of an ``evolve`` or ``steady`` table at n
    modes (3,241 names at n = 40), built once per (command, n): the lead,
    R's cells as `_state_table` orders them, the occupations, the
    entropy."""
    lead, prefix = (("t",), "r") if command == "evolve" else ((), "minf")
    cells = (f"{prefix}{j}{k}_{part}" for j in range(1, n + 1)
             for k in range(1, n + 1) for part in ("re", "im"))
    return _header_line(
        (*lead, *cells, *(f"occ{j}" for j in range(1, n + 1)), "entropy"))


def _matrix_cells(mat: np.ndarray) -> np.ndarray:
    """Row-major (re, im) pairs of a complex matrix."""
    return np.ascontiguousarray(mat, dtype=complex).view(float).ravel()


def _state_table(states: list[GaussianState], *lead) -> np.ndarray:
    """One float64 row per state: the ``lead`` columns, R's cells, the
    occupations (R's real diagonal, sliced from the cells), the entropy."""
    n, first = states[0].n, len(lead)
    end = first + 2 * n * n
    table = np.empty((len(states), end + n + 1))
    table[:, :first] = np.transpose(lead)
    for row, s in zip(table, states):
        row[first:end] = _matrix_cells(s.r)
    table[:, end:-1] = table[:, first:end:2 * n + 2]
    table[:, -1] = _entropies(np.stack([s.spectrum for s in states]))
    return table


def _require_params(cfg: JobConfig):
    if cfg.params is not None:
        return cfg.params
    if cfg.hatano_nelson is not None:
        return build_bath(cfg.hatano_nelson)
    raise ValidationError("config does not define a model")


def _state_comments(command: str, params) -> list[tuple[str, object]]:
    """The provenance lines an ``evolve`` or ``steady`` table opens with."""
    return [("command", command), ("n", params.n),
            ("gksl", str(params.gksl).lower())]


def _cmd_evolve(cfg: JobConfig, args) -> tuple:
    params = _require_params(cfg)
    if not cfg.times:
        raise ValidationError("[times] values are required for evolve")
    state = cfg.initial or GaussianState.vacuum(params.n)
    rows = _state_table(evolve_grid(params, state, cfg.times), cfg.times)
    return (_state_comments("evolve", params),
            _state_header("evolve", params.n), rows, EXIT_OK)


def _cmd_steady(cfg: JobConfig, args) -> tuple:
    params = _require_params(cfg)
    dec = asymptotic_decomposition(params, GaussianState.vacuum(params.n))
    rows = _state_table([GaussianState(dec.m_inf)])
    comments = _state_comments("steady", params)
    if dec.frequencies.size:
        comments.append(("persistent_modes", dec.frequencies.size))
        comments += [(f"frequency{j}", _fmt(w))
                     for j, w in enumerate(dec.frequencies, start=1)]
    return comments, _state_header("steady", params.n), rows, EXIT_OK


def _cmd_skin(cfg: JobConfig, args) -> tuple:
    p = cfg.hatano_nelson
    if p is None:
        raise ValidationError("skin requires a hatano-nelson model section")
    profile = steady_profile(p)
    flat_profile = featureless_choice(p, cfg.delta).diagonal().real
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
    header = ("site", "occupation", "featureless_occupation")
    # "%.17g" prints the sites 1..n as str(j + 1) does
    rows = np.column_stack([np.arange(1.0, p.n + 1), profile, flat_profile])
    return comments, header, rows, EXIT_OK


#: The verify table's columns, each the `CheckResult` attribute it shows
_VERIFY_COLUMNS = ("name", "identity", "value", "tolerance", "comparison",
                   "status")


def _cmd_verify(cfg: JobConfig, args) -> tuple:
    # each setting is its flag if given, else the job file's (or its default)
    n, seed, draws = (getattr(cfg, key) if getattr(args, key) is None
                      else getattr(args, key) for key in ("n", "seed", "draws"))
    overrides = (dict(cfg.tolerances) if args.tol is None
                 else dict.fromkeys(check_names(), args.tol))
    results = run_suite(n=n, seed=seed, draws=draws, tol_overrides=overrides)
    comments = [
        ("command", "verify"),
        ("n", n),
        ("seed", seed),
        ("draws", draws),
        ("generator", "numpy.random.default_rng(PCG64), streams (seed, check_index)"),
    ]
    rows = [[getattr(res, col) for col in _VERIFY_COLUMNS] for res in results]
    status = EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED
    return comments, _VERIFY_COLUMNS, rows, status


#: Each command's help line and job, (config, parsed flags) -> (comments,
#: header, rows, exit status), whose table `main` renders and writes
_COMMANDS = {
    "evolve": ("evolve a Gaussian state over the requested times", _cmd_evolve),
    "steady": ("compute the long-time limit and any persistent modes", _cmd_steady),
    "skin": ("build the localized bath and its occupation profile", _cmd_skin),
    "verify": ("run the dense identity suite", _cmd_verify),
}


@functools.cache
def _parser(cap: int) -> argparse.ArgumentParser:
    """The command-line parser, built once per mode cap ``cap``
    (``fock.MAX_DENSE_EVOLVE_MODES``), which ``verify --n``'s help states."""
    parser = argparse.ArgumentParser(
        prog="quadferm",
        description="Open quadratic fermion systems: evolution, steady "
                    "states, skin-effect baths, and the dense identity suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (desc, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=desc)
        # verify alone runs without a job file
        cmd.add_argument("--config", required=name != "verify",
                         help="job file (INI)")
        cmd.add_argument("--out", help="output CSV path")
    ver = sub.choices["verify"]
    ver.add_argument("--n", type=int, help=f"mode count (<= {cap})")
    ver.add_argument("--seed", type=int, help="RNG seed")
    ver.add_argument("--draws", type=int,
                     help="random instances per identity (at most 3 "
                          "when n >= 4)")
    ver.add_argument("--tol", type=float,
                     help="override every tolerance with this value")
    return parser


def main(argv=None) -> int:
    args = _parser(fock.MAX_DENSE_EVOLVE_MODES).parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else JobConfig()
        if cfg.command is not None and cfg.command != args.command:
            raise ValidationError(
                f"config requests command {cfg.command!r} but "
                f"{args.command!r} was invoked"
            )
        out = args.out if args.out is not None else cfg.output
        _check_output(out)
        *table, status = _COMMANDS[args.command][1](cfg, args)
        _emit(_render(*table), out)
        return status
    except ValidationError as exc:
        print(f"quadferm: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PhysicsError as exc:
        print(f"quadferm: physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
