"""Property tests for the invariants grid stepping relies on, for the
steady state it converges to, for the one rule that decides whether
that steady state exists, for the scale-free tolerances of the fast path,
for the stacked state check and entropy, and for the CSV renderer's number
dedupe and the mirrored magnitudes of every state it renders."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadferm import cli
from quadferm.affine import AffineGenerator, compose, flow
from quadferm.errors import PhysicsError, ValidationError
from quadferm.gaussian import (GaussianState, _check_states, _entropies,
                               asymptotic_decomposition, evolve_grid,
                               steady_state)
from quadferm.linalg import (_relative, hermitize, is_hermitian,
                             lyapunov_solve)
from quadferm.skin import HatanoNelsonParams, build_bath
from quadferm.verify import (random_complex_matrix, random_correlation_matrix,
                             random_gksl_params)

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


def _hermitian_verdict(r) -> bool:
    """Whether GaussianState takes r as Hermitian; its spectrum check, an
    absolute one since [0, 1] is, may refuse a scaled r all the same."""
    try:
        GaussianState(r)
    except ValidationError:
        return False
    except PhysicsError:
        pass
    return True


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=4),
       k=st.integers(min_value=-40, max_value=40),
       margin=st.sampled_from([-1e-3, -1e-8, 0.0, 1e-8, 1e-3]),
       skew=st.sampled_from([0.0, 1e-9, 1e-3]),
       t=st.just(0.0) | st.floats(min_value=1e-6, max_value=50.0))
# M's least eigenvalue -1e-8 (||A|| + ||M||): a floor of 1e-10 absolute
# took the pair for admissible once scaled by 2^-40
@example(seed=0, n=1, k=-40, margin=-1e-8, skew=0.0, t=1.0)
def test_decisions_and_results_are_scale_free(seed, n, k, margin, skew, t):
    # Operands times s = 2^k (exact in floating point, and so is t/s) must
    # get the same accept/reject decision, and results equal to roundoff:
    # a flow at t/s, a Lyapunov solution unchanged, a bath's noise times s.
    rng = np.random.default_rng(seed)
    s = 2.0 ** k
    base = random_gksl_params(rng, n, min_damping=0.2)
    a = base.a
    # M's least eigenvalue at margin (||A|| + ||M||); the damping floor
    # keeps -A - A† - M positive definite
    shift = margin * (np.linalg.norm(a) + np.linalg.norm(base.m)) \
        - np.linalg.eigvalsh(base.m)[0]
    m = base.m + shift * np.eye(n)
    p, ps = AffineGenerator(a, m), AffineGenerator(s * a, s * m)
    assert ps.gksl == p.gksl == (margin >= 0)

    noise = random_complex_matrix(rng, n)
    noise = noise - noise.conj().T  # anti-Hermitian: all of it is skew
    r = random_correlation_matrix(rng, n, lo=0.0, hi=1.0)
    r = r + skew * np.linalg.norm(r) / np.linalg.norm(noise) * noise
    assert _hermitian_verdict(s * r) == _hermitian_verdict(r) == (skew == 0)

    ref = lyapunov_solve(a, m)
    assert (np.linalg.norm(lyapunov_solve(s * a, s * m) - ref)
            <= 1e-10 * np.linalg.norm(ref))

    g, gs = flow(p, t), flow(ps, t / s)
    assert np.linalg.norm(gs.u - g.u) <= 1e-12  # ||e^{tA}||_2 <= 1
    assert np.linalg.norm(gs.m - g.m) <= 1e-12 * np.linalg.norm(g.m)

    omega, gamma = rng.uniform(0.1, 2.0, size=2)
    lam, loss = gamma * rng.uniform(0.05, 0.95), rng.uniform(2.05, 4.0)
    chain = [HatanoNelsonParams(n=n + 1, omega=c * omega, lam=c * lam,
                                gamma=c * gamma, a=loss) for c in (1.0, s)]
    bath, bath_s = (build_bath(q) for q in chain)
    assert (np.linalg.norm(bath_s.m - s * bath.m)
            <= 1e-12 * np.linalg.norm(s * bath.m))

    # an admissible drift whose slow mode, Re lambda = -1e-10, lies in the
    # undamped band: its P0 misses commuting with A by 1.9e-5 ||A||_2
    edge = s * np.array([[-1e-10, 1.9e-5], [0.0, -1.0]], dtype=complex)
    with pytest.raises(PhysicsError, match="fails to commute"):
        asymptotic_decomposition(AffineGenerator(edge, 0 * edge),
                                 GaussianState.vacuum(2))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=4),
       k=st.integers(min_value=-1100, max_value=1100),
       margin=st.sampled_from([-1e-3, -1e-8, 0.0, 1e-8, 1e-3]),
       skew=st.sampled_from([0.0, 1e-9, 1e-3]))
@example(seed=0, n=2, k=-1100, margin=0.0, skew=1e-9)  # the bottom
@example(seed=0, n=2, k=1100, margin=0.0, skew=1e-3)  # the top
def test_normwise_decisions_are_scale_free_over_the_exponent_range(
        seed, n, k, margin, skew):
    # The normwise checks read their operands through one power of two, so
    # at every 2^k that keeps the operands' nonzero entries normal and
    # finite (k is clamped to that range) is_hermitian and gksl decide as
    # at k = 0, and _relative returns the same bits.
    rng = np.random.default_rng(seed)
    base = random_gksl_params(rng, n, min_damping=0.2)
    a = base.a
    shift = margin * (np.linalg.norm(a) + np.linalg.norm(base.m)) \
        - np.linalg.eigvalsh(base.m)[0]
    m = base.m + shift * np.eye(n)
    noise = random_complex_matrix(rng, n)
    noise = noise - noise.conj().T  # anti-Hermitian: all of it is skew
    x = random_correlation_matrix(rng, n, lo=0.0, hi=1.0)
    r = x + skew * np.linalg.norm(x) / np.linalg.norm(noise) * noise

    mags = np.abs(np.concatenate([y.ravel() for y in (a, m, noise, x, r)]))
    mags = mags[mags > 0]
    k = min(max(k, -1021 - math.frexp(mags.min())[1]),
            1024 - math.frexp(mags.max())[1])

    def scaled(y):
        # two exact steps: 2^k alone over- or underflows near the ends
        return y * 2.0 ** (k // 2) * 2.0 ** (k - k // 2)

    assert (AffineGenerator(scaled(a), scaled(m)).gksl
            == AffineGenerator(a, m).gksl == (margin >= 0))
    assert is_hermitian(scaled(r)) == is_hermitian(r) == (skew == 0)
    assert _relative(scaled(noise), scaled(x)) == _relative(noise, x)


def _bits(pattern: int) -> float:
    return float(np.uint64(pattern).view(np.float64))


# Doubles that equal each other as floats but not as bits (the zeros), NaNs
# that differ in sign and payload, subnormals of both signs, and the ends
# of the range.
_EDGE_DOUBLES = [0.0, -0.0, math.inf, -math.inf, math.nan,
                 _bits(0xFFF8000000000000), _bits(0x7FF8000000000001),
                 _bits(0xFFF0000000000001), _bits(0x7FF4000000000123),
                 5e-324, -5e-324, _bits(0x000FFFFFFFFFFFFF), 1e308]


@st.composite
def _tables(draw):
    """A header and rows with one layout of string and numeric cells. The
    numbers come from a small pool of floats and raw 64-bit patterns, each
    beside its negation, so rows repeat values and magnitudes exactly."""
    patterns = st.integers(min_value=0, max_value=2 ** 64 - 1).map(_bits)
    pool = draw(st.lists(st.floats() | patterns, min_size=1, max_size=6))
    numbers = st.sampled_from(pool + [-v for v in pool] + _EDGE_DOUBLES)
    layout = draw(st.lists(st.booleans(), min_size=1, max_size=5))
    text = st.text(alphabet='ab ,"\n', max_size=4)
    rows = draw(st.lists(
        st.tuples(*[text if is_text else numbers for is_text in layout]),
        max_size=8))
    rows = [list(row) for row in rows]
    if not any(layout):
        form = draw(st.sampled_from(("lists", "arrays", "table", "no rows")))
        if form == "arrays":
            rows = [np.array(row) for row in rows]
        elif form != "lists":
            # one float64 array, as `evolve` and `steady` build it
            rows = np.array(rows, dtype=float).reshape(-1, len(layout))
            if form == "no rows":
                rows = rows[:0]
    return [f"c{j}" for j in range(len(layout))], rows


@settings(max_examples=300, deadline=None)
@given(table=_tables())
@example(table=(["x", "y"], []))
@example(table=(["x", "y"], np.empty((0, 2))))
@example(table=(["x", "y"], np.array([[0.5, -0.0], [0.5, 1e308]])))
@example(table=(["name", "note"], [["a", "b,c"], ["a", 'say "hi"']]))
@example(table=(["x", "y"], [[0.0, -0.0], [-0.0, 0.0]]))
@example(table=([""], [[""], ["a"], [""]]))  # a lone empty field is ""
def test_render_matches_csv_writer(table):
    header, rows = table
    comments = [("command", "test")]
    assert "".join(cli._render(comments, header, rows)) \
        == csv_writer_render(comments, header, rows)


def _mirrors_its_magnitudes(r) -> bool:
    """Whether every cell of r below the diagonal has the magnitude bits
    (all but the sign) of its mirror above it, part by part: what
    `cli._state_source` renders a state table by."""
    mags = np.stack([r.real, r.imag]).view(np.uint64) & np.uint64(2 ** 63 - 1)
    return np.array_equal(mags, mags.transpose(0, 2, 1))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=6),
       skew=st.sampled_from([0.0, 1e-16, 1e-14]))
def test_every_state_mirrors_its_magnitudes(seed, n, skew):
    rng = np.random.default_rng(seed)
    params = random_gksl_params(rng, n, min_damping=0.2)
    # near-Hermitian input, as a job file's [initial.r] may round it
    r = random_correlation_matrix(rng, n, lo=0.0, hi=1.0)
    noise = skew * np.linalg.norm(r) * random_complex_matrix(rng, n)
    state = GaussianState(r + noise)
    assert _mirrors_its_magnitudes(state.r)
    for evolved in evolve_grid(params, state, [0, 0.25, 0.5, 1, 3, 50]):
        assert _mirrors_its_magnitudes(evolved.r)
    dec = asymptotic_decomposition(params, GaussianState.vacuum(n))
    assert _mirrors_its_magnitudes(GaussianState(dec.m_inf).r)


def _entropy_loop(spectrum) -> float:
    """The entropy as one subtraction per term, left to right."""
    total = 0.0
    for p in np.clip(spectrum, 0.0, 1.0):
        for q in (p, 1.0 - p):
            if q > 0.0:
                total -= q * np.log(q)
    return float(total)


# The ends of [0, 1], the smallest subnormal and a small normal-range
# neighbour, the unit roundoff and 1 - it, and values just outside
_EDGE_OCCUPATIONS = [0.0, -0.0, 1.0, 5e-324, 1e-310, 2.0 ** -53,
                     1.0 - 2.0 ** -53, -1e-11, -5e-324, 1.0 + 1e-11,
                     float(np.nextafter(1.0, 2.0))]


_OCCUPATIONS = st.floats(min_value=0.0, max_value=1.0) \
    | st.sampled_from(_EDGE_OCCUPATIONS)


@settings(max_examples=300, deadline=None)
@given(spectra=st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.lists(st.lists(_OCCUPATIONS, min_size=n, max_size=n),
                       min_size=1, max_size=4)))
@example(spectra=[[]])   # no modes
def test_entropy_kernel_matches_the_loop_bit_for_bit(spectra):
    spectra = np.array(spectra, dtype=float)
    expected = np.array([_entropy_loop(row) for row in spectra])
    assert _entropies(spectra).tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(min_value=0, max_value=6),
       count=st.integers(min_value=0, max_value=5))
def test_stacked_check_matches_one_eigvalsh_per_state(seed, n, count):
    rng = np.random.default_rng(seed)
    hs = np.zeros((count, n, n), dtype=complex)
    for h in hs:
        # hermitized from a state Hermitian to the check's tolerance only
        h[...] = hermitize(random_correlation_matrix(rng, n)
                           + 1e-15 * random_complex_matrix(rng, n))
    spectra = _check_states(hs)
    assert spectra.shape == (count, n)
    for h, spectrum in zip(hs, spectra):
        assert spectrum.tobytes() == np.linalg.eigvalsh(h).tobytes()
