"""Property tests for the invariants grid stepping relies on, for the
steady state it converges to, for the one rule that decides whether
that steady state exists, and for the CSV renderer's number dedupe."""

import math

import numpy as np
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadferm import cli
from quadferm.affine import AffineGenerator, compose, flow
from quadferm.errors import PhysicsError
from quadferm.gaussian import (GaussianState, asymptotic_decomposition,
                               evolve_grid, steady_state)
from quadferm.verify import random_correlation_matrix, random_gksl_params

from conftest import csv_writer_render

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
times = st.floats(min_value=0.0, max_value=50.0)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=5), t=times, s=times)
def test_flow_semigroup_law(seed, n, t, s):
    params = random_gksl_params(np.random.default_rng(seed), n)
    lhs = compose(flow(params, t), flow(params, s))
    rhs = flow(params, t + s)
    # admissible drifts are dissipative, so ||e^{tA}||_2 <= 1
    assert np.linalg.norm(lhs.u - rhs.u) <= 1e-10
    assert (np.linalg.norm(lhs.m - rhs.m)
            <= 1e-10 * max(1.0, np.linalg.norm(rhs.m)))


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=5),
       steps=st.lists(st.floats(min_value=0.0, max_value=5.0),
                      min_size=1, max_size=30))
def test_spectrum_stays_in_unit_interval_along_a_grid(seed, n, steps):
    rng = np.random.default_rng(seed)
    params = random_gksl_params(rng, n)
    state = GaussianState(random_correlation_matrix(rng, n, lo=0.0, hi=1.0))
    for evolved in evolve_grid(params, state, np.cumsum(steps)):
        occ = np.linalg.eigvalsh(evolved.r)
        assert occ[0] >= -1e-10 and occ[-1] <= 1 + 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=5))
def test_steady_state_is_the_long_time_limit(seed, n):
    rng = np.random.default_rng(seed)
    params = random_gksl_params(rng, n, min_damping=0.2)
    state = GaussianState(random_correlation_matrix(rng, n, lo=0.0, hi=1.0))
    # at T, e^{T max Re lambda} = 1e-16: the initial data has decayed away
    rate = -float(np.max(np.linalg.eigvals(params.a).real))
    late = evolve_grid(params, state, [0.0, np.log(1e16) / rate])[-1].r
    steady = steady_state(params).r
    assert np.linalg.norm(late - steady) <= 1e-10 * np.linalg.norm(steady)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=4),
       c=st.floats(min_value=0.25, max_value=8.0))
@example(seed=0, n=3, c=1.25)  # damped by max|lambda|, not by ||A||_2
@example(seed=0, n=3, c=1.0)  # on the band edge, rounding decides the class
def test_steady_state_exists_iff_no_mode_persists(seed, n, c):
    # A damped block plus one slow mode at Re = -c 1e-9 rho, rho the
    # block's spectral radius: persistent for c < 1, damped for c > 1.
    # steady_state and asymptotic_decomposition read one Schur form, so
    # they classify alike even where rounding decides, and agree bit for bit.
    # Where the slow mode persists, M still feeds it; the decomposition then
    # either refuses, or its m_inf solves the full equation to tolerance.
    block = random_gksl_params(np.random.default_rng(seed), n,
                               min_damping=0.2)
    slow = c * 1e-9 * float(np.max(np.abs(np.linalg.eigvals(block.a))))
    params = AffineGenerator(scipy.linalg.block_diag(block.a, -slow),
                             scipy.linalg.block_diag(block.m, slow))
    assert params.gksl
    try:
        steady = steady_state(params).r
    except PhysicsError:
        try:
            dec = asymptotic_decomposition(params, GaussianState.vacuum(n + 1))
        except PhysicsError:
            return
        a, m = params.a, params.m
        res = np.linalg.norm(a @ dec.m_inf + dec.m_inf @ a.conj().T + m)
        assert np.linalg.norm(dec.p0) > 0
        assert res <= 1e-10 * (1 + np.linalg.norm(m))
        return
    dec = asymptotic_decomposition(params, GaussianState.vacuum(n + 1))
    assert np.linalg.norm(dec.p0) == 0
    assert np.array_equal(dec.m_inf, steady)


def _bits(pattern: int) -> float:
    return float(np.uint64(pattern).view(np.float64))


# Doubles that equal each other as floats but not as bits (the zeros), NaNs
# that differ in sign and payload, and the ends of the range.
_EDGE_DOUBLES = [0.0, -0.0, math.inf, -math.inf, math.nan,
                 _bits(0xFFF8000000000000), _bits(0x7FF8000000000001),
                 5e-324, 1e308]


@st.composite
def _tables(draw):
    """A header and rows with one layout of string and numeric cells. The
    numbers come from a small pool, so rows repeat values exactly."""
    pool = draw(st.lists(st.floats(), min_size=1, max_size=6))
    numbers = st.sampled_from(pool + [-v for v in pool] + _EDGE_DOUBLES)
    layout = draw(st.lists(st.booleans(), min_size=1, max_size=5))
    text = st.text(alphabet='ab ,"\n', max_size=4)
    rows = draw(st.lists(
        st.tuples(*[text if is_text else numbers for is_text in layout]),
        max_size=8))
    rows = [list(row) for row in rows]
    if not any(layout) and draw(st.booleans()):
        rows = [np.array(row) for row in rows]   # as `evolve` builds them
    return [f"c{j}" for j in range(len(layout))], rows


@settings(max_examples=300, deadline=None)
@given(table=_tables())
@example(table=(["x", "y"], []))
@example(table=(["name", "note"], [["a", "b,c"], ["a", 'say "hi"']]))
@example(table=(["x", "y"], [[0.0, -0.0], [-0.0, 0.0]]))
@example(table=([""], [[""], ["a"], [""]]))  # a lone empty field is ""
def test_render_matches_csv_writer(table):
    header, rows = table
    comments = [("command", "test")]
    assert cli._render(comments, header, rows) \
        == csv_writer_render(comments, header, rows)
