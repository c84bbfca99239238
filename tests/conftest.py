import csv
import io
import os
from pathlib import Path

import numpy as np
import pytest

from quadferm.verify import random_complex_matrix

# pyproject's `pythonpath` puts src/ on this process's path; the CLI tests
# that start `python -m quadferm` need it on their children's path too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH")]))


def csv_writer_render(comments, header, rows):
    """The CLI renderer as csv.writer with per-cell format(x, ".17g"): the
    reference `quadferm.cli._render` must match byte for byte."""
    buf = io.StringIO()
    for key, value in comments:
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str)
                         else format(float(cell), ".17g") for cell in row])
    return buf.getvalue()


def stable_matrix(rng, n: int, margin: float = 0.3) -> np.ndarray:
    """Random matrix with every eigenvalue real part <= -margin."""
    a = random_complex_matrix(rng, n)
    shift = float(np.max(np.linalg.eigvals(a).real)) + margin
    return a - shift * np.eye(n)


def kron_lyapunov(a, m):
    """Reference solve of ``A T + T A† = -M`` by column-stacked
    vectorization, ``(I ⊗ A + conj(A) ⊗ I) vec(T) = -vec(M)``: one dense
    n² x n² solve, affordable as an oracle for n <= 12."""
    n = a.shape[0]
    eye = np.eye(n)
    coeff = np.kron(eye, a) + np.kron(a.conj(), eye)
    sol = np.linalg.solve(coeff, -m.reshape(-1, order="F"))
    return sol.reshape((n, n), order="F")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
