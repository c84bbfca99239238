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
distinct magnitude once and reuses its text, with a "-" where the cell's
own sign bit is set: "%.17g" is a function of the bits, so the bytes are
those of one conversion per cell.  In an `evolve` or `steady` table a cell
below R's diagonal takes its magnitude from its mirror above it, and an
occupation from R's diagonal (`_state_source`), so only the other cells
are sorted; a guard compares every such cell's magnitude with its
source's and, if one differs, dedupes every cell instead.

Each command is a function of the job that returns its table (comments,
header, rows) and exit status; `main` looks it up in `_COMMANDS`, renders
the table and streams its lines, each joined as it is written (to
``--out``, the job's ``[output] path``, or stdout), so the whole text is
never held, and maps errors to exit codes: 0 success, 1 validation error,
2 physics/convergence error, 3 verification failure.  A failed write, to
a file or to stdout, is a validation error; after one to stdout its
descriptor goes to the null device, so the flush at exit cannot fail too.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import os
import sys
from collections.abc import Iterable, Iterator
from typing import NamedTuple

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
#: The bits of +inf, the largest magnitude that is not a NaN
_INFINITY = np.uint64(0x7FF0_0000_0000_0000)


def _format_numbers(x: np.ndarray,
                    source: np.ndarray | None = None) -> Iterator[list[str]]:
    """``"%.17g" % v`` for every v in the 2-D float64 x, one list per row,
    from one ``np.unique`` over the magnitudes (the bits with the sign
    cleared) of the columns that are their own ``source``.

    ``source[j]`` is the column whose magnitude column j repeats in every
    row (`_state_source`); None, or a map some cell disagrees with, makes
    every column its own. Each magnitude is converted once, on the call;
    each row's cells are gathered as it is read, and each takes its
    magnitude's text with ``"-"`` before it where its own sign bit is set.
    Every NaN prints ``nan``, as "%.17g" prints it whatever its sign and
    payload."""
    bits = x.view(np.uint64)
    columns = np.arange(x.shape[1])
    if source is None:
        source = columns
    mapped = np.flatnonzero(source != columns)
    # the guard, in place on a gathered copy of the sources
    diff = bits[:, source[mapped]]
    diff ^= bits[:, mapped]
    diff &= _MAGNITUDE
    if diff.any():
        source = columns
    own = np.flatnonzero(source == columns)
    mags = bits[:, own]
    mags &= _MAGNITUDE
    uniq, inverse = np.unique(mags.ravel(), return_inverse=True)
    text = ("\n".join(["%.17g"] * len(uniq))
            % tuple(uniq.view(np.float64).tolist())).split("\n")
    # the NaNs sort last, and print no sign
    signed = int(np.searchsorted(uniq, _INFINITY, side="right"))
    text = np.array(text + ["-" + t for t in text[:signed]] + text[signed:],
                    dtype=object)
    position = np.searchsorted(own, source)
    return (text[of_own[position] + (row >> 63).view(np.int64) * len(uniq)]
            .tolist()
            for of_own, row in zip(inverse.reshape(len(x), len(own)), bits))


class _StateHeader(NamedTuple):
    """An ``evolve`` or ``steady`` table's rendered header row and its
    `_state_source` map."""

    line: str
    source: np.ndarray


def _render(comments: list[tuple[str, object]],
            header: tuple[str, ...] | _StateHeader, rows) -> Iterator[str]:
    """Provenance lines, header (its names, or a `_StateHeader`) and rows
    (a list, or a 2-D float64 array used without a copy) as CSV lines, each
    ending in "\n". Every distinct magnitude is converted on the call; a
    row of an array is gathered and joined only as its line is read, so
    neither the whole text nor a table of every cell's text is ever held.

    An array goes to `_format_numbers` as it is, with the header's source
    map if it has one. Every list row has the first row's layout of string
    and numeric cells, and the numeric cells of all rows go into one
    float64 array. `_format_numbers` prints each distinct magnitude in it
    once with "%.17g", which gives the bytes of ``format(float(x),
    ".17g")``. The text depends on the bits alone, so sharing it between
    equal magnitudes changes no byte; keying on bits, not on float
    equality, keeps 0.0 and -0.0 apart by the sign.
    """
    lines = [f"# {key}={value}\n" for key, value in comments]
    source = None
    if isinstance(header, _StateHeader):
        line, source = header
    else:
        line = _header_line(header)
    lines.append(line + "\n")
    cells = ()
    if isinstance(rows, np.ndarray):
        cells = _format_numbers(rows, source)
    elif rows:
        text = [j for j, cell in enumerate(rows[0]) if isinstance(cell, str)]
        num = [j for j in range(len(rows[0])) if j not in text]
        table = np.empty((len(rows), len(rows[0])), dtype=object)
        table[:, num] = list(_format_numbers(np.array(
            [[row[j] for j in num] for row in rows], dtype=float)))
        for j in text:
            table[:, j] = [_csv_field(row[j]) for row in rows]
        cells = table.tolist()
    return itertools.chain(lines, (_line(row) + "\n" for row in cells))


def _line(cells: list[str]) -> str:
    # csv.writer writes a lone empty field as "", so that no line is blank
    return '""' if cells == [""] else ",".join(cells)


def _header_line(names) -> str:
    """The CSV header row of ``names``."""
    return _line(list(map(_csv_field, names)))


def _unwritable(path: str | None, exc: OSError) -> ValidationError:
    where = "stdout" if path is None else repr(path)
    return ValidationError(f"cannot write output {where}: {exc}")


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


def _emit(lines: Iterable[str], path: str | None) -> None:
    """Write the lines to ``path``, opened only now, or to stdout."""
    try:
        if path is None:
            sys.stdout.writelines(lines)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(lines)
    except OSError as exc:
        if path is None:
            _discard_stdout()
        raise _unwritable(path, exc) from exc


def _discard_stdout() -> None:
    """Point stdout's descriptor, if it has one, at the null device, so the
    bytes its buffer still holds after a failed write are dropped when the
    interpreter flushes it at exit instead of failing again (a second
    error message and exit status 120)."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


@functools.cache
def _state_header(command: str, n: int) -> _StateHeader:
    """The header of an ``evolve`` or ``steady`` table at n modes (3,241
    names at n = 40), built once per (command, n): the lead, R's cells as
    `_state_table` orders them, the occupations, the entropy."""
    lead, prefix = (("t",), "r") if command == "evolve" else ((), "minf")
    cells = (f"{prefix}{j}{k}_{part}" for j in range(1, n + 1)
             for k in range(1, n + 1) for part in ("re", "im"))
    return _StateHeader(_header_line(
        (*lead, *cells, *(f"occ{j}" for j in range(1, n + 1)), "entropy")),
        _state_source(n, len(lead)))


@functools.cache
def _state_source(n: int, lead: int) -> np.ndarray:
    """For each column of a `_state_table` with ``lead`` leading columns at
    n modes, the column whose magnitude it repeats: R's (k, j) cell below
    the diagonal that of (j, k), part by part, and ``occ_j`` R's real
    (j, j) part; every other column itself. An r from `hermitize`,
    ``(a + a†)/2``, has these: r_kj's real part is r_jk's with the two
    terms added in the other order, its imaginary part r_jk's negated
    (or both +0.0)."""
    cells = np.arange(2 * n * n).reshape(n, n, 2)
    below = np.tri(n, k=-1, dtype=bool)[:, :, None]
    cells = np.where(below, cells.transpose(1, 0, 2), cells).ravel()
    source = np.concatenate((np.arange(lead), lead + cells,
                             lead + 2 * (n + 1) * np.arange(n),
                             [lead + 2 * n * n + n]))
    source.flags.writeable = False
    return source


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
