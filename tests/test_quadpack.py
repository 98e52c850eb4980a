"""The QUADPACK port against scipy's compiled QUADPACK, bit for bit.

Every test compares ``_quadpack.quad`` with ``scipy.integrate.quad`` on the
same integrand, bounds, break points and tolerances: the value and the
error estimate must have the same bits, the same warning text must be
issued (or none), and the nodes the port hands the integrand, array after
array, must be the nodes scipy's quad visits, in its order.  Run deeper
with ``pytest tests/test_quadpack.py --hypothesis-profile=parity``.
"""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.integrate import quad as scipy_quad

from quadwg import (CouplingSpec, DirectionPair, Envelope, PulseShape,
                    SeparableState, channel_probabilities, gate_overlap,
                    scatter)
from quadwg import _quadpack, gate, scattering, spectral
from quadwg.errors import IntegrationWarning
from quadwg.spectral import (QUAD_EPSABS, QUAD_EPSREL,
                             gaussian_difference_profile,
                             gaussian_sum_spectrum)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _outcome(integrate, f, a, b, kwargs):
    """``integrate(f, a, b, **kwargs)`` as ``(value bits, error bits,
    warning texts)``, or the text of the ``ValueError`` it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value, error = integrate(f, a, b, **kwargs)
        except ValueError as exc:
            return ("ValueError", str(exc))
    if integrate is _quadpack.quad:
        assert all(w.category is IntegrationWarning for w in caught)
    return (_bits(value), _bits(error), [str(w.message) for w in caught])


def assert_same_as_scipy(g, a, b, vectorized=None, **kwargs):
    """Integrate ``g``, a function of one float, with both; the port calls
    ``vectorized`` on arrays, or ``g`` on each node."""
    port_nodes, scipy_nodes = [], []

    def on_array(x):
        assert isinstance(x, np.ndarray) and x.dtype == np.float64
        port_nodes.extend(x.tolist())
        if vectorized is not None:
            return vectorized(x)
        return [g(v) for v in x.tolist()]

    def on_float(x):
        assert type(x) is float
        scipy_nodes.append(x)
        return g(x)

    port = _outcome(_quadpack.quad, on_array, a, b, kwargs)
    reference = _outcome(scipy_quad, on_float, a, b, kwargs)
    assert port == reference
    assert _bits(port_nodes) == _bits(scipy_nodes)
    return port


# ---------------------------------------------------------------------------
# The library's own integrands, at the ranges of the benchmark's sweeps.

class _Table(dict):
    """Values the port computed, by node; a node the port did not visit is
    computed on a one-element array."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, x):
        return float(self.fn(np.array([x]))[0])


@contextlib.contextmanager
def _checked_quads(calls):
    """Replace the ``quad`` binding of each quadrature module by one that
    also integrates with scipy and asserts the same outcome."""
    saved = {m: m.quad for m in (spectral, scattering, gate)}

    def checked(fn, a, b, defer=False, **kwargs):
        table, visited = _Table(fn), []

        def recorded(x):
            values = fn(x)
            visited.extend(x.tolist())
            # A zero node is left out: -0.0 and 0.0 share a key.
            table.update((v, y) for v, y in zip(x.tolist(), values.tolist())
                         if v != 0.0)
            return values

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value, error = _quadpack.quad(recorded, a, b, **kwargs)
        seen = []

        def lookup(x):
            seen.append(x)
            return table[x] if x != 0.0 else float(fn(np.array([x]))[0])

        assert (_bits(value), _bits(error), [str(w.message) for w in caught]) \
            == _outcome(scipy_quad, lookup, a, b, kwargs)
        assert _bits(visited) == _bits(seen)
        calls.append(kwargs)
        # A deferred integral runs with the others of its job; the lockstep
        # tests below hold it to this one.
        return _quadpack.quad(fn, a, b, defer=True, **kwargs) if defer \
            else (value, error)

    try:
        for module in saved:
            module.quad = checked
        yield
    finally:
        for module, binding in saved.items():
            module.quad = binding


@given(total_rate=st.floats(1e-4, 1e-2), width=st.floats(5e-3, 0.05),
       lorentzian=st.booleans(), sum_width=st.floats(2e-3, 0.03),
       detuning=st.floats(-0.02, 0.02), diff_width=st.floats(5e-3, 0.04),
       diff_center=st.floats(0.0, 0.03), cross=st.booleans())
def test_separable_integrands_match_scipy(total_rate, width, lorentzian,
                                          sum_width, detuning, diff_width,
                                          diff_center, cross):
    # Envelope mass, factor masses, envelope overlap and resonance weight.
    envelope = (Envelope.lorentzian if lorentzian else Envelope.gaussian)(width)
    calls = []
    with _checked_quads(calls):
        envelope.squared_norm()
        coupling = CouplingSpec.isotropic(total_rate, envelope)
        f, f_window = gaussian_sum_spectrum(1.0 + detuning, sum_width)
        h, h_window = gaussian_difference_profile(diff_width, diff_center)
        channel = DirectionPair.PM if cross else DirectionPair.PP
        state = SeparableState(channel, f, h, f_window, h_window)
        channel_probabilities(scatter(coupling, state))
    assert len(calls) == 6


@given(shape=st.sampled_from(["gaussian", "lorentzian"]),
       log_ratio=st.floats(0.0, 6.0), detuning=st.floats(-1.0, 1.0),
       resonant=st.booleans())
def test_gate_integrands_match_scipy(shape, log_ratio, detuning, resonant):
    # The gate's pulse mass and the two parts of its pair factor over the
    # window and both tails, with its ladder of break points.
    pulse = getattr(PulseShape, shape)(0.0, 1.0)
    calls = []
    with _checked_quads(calls):
        gate_overlap(pulse, 10.0 ** log_ratio, None if resonant else detuning)
    assert len(calls) == 9


# ---------------------------------------------------------------------------
# Model integrands that take every path through the routines.

def _singular(c, p):
    return lambda x: abs(x - c) ** p if x != c else 0.0


def _sqrt_log(x):
    return math.sqrt(x) * math.log(x) if x > 0 else 0.0


def _oscillating(k):
    return lambda x: math.cos(k * x) * math.exp(-0.1 * x * x)


def _slow_tail(p):
    return lambda x: 1.0 / (1.0 + abs(x)) ** (1.0 + p)


def _full_line(c, w):
    return lambda x: math.exp(-(x - c) ** 2 / w) + 1.0 / (1.0 + x * x)


def _spoilt(c, w, value):
    return lambda x: value if abs(x - c) < w else math.exp(-x * x)


_finite = st.floats(-3.0, 3.0)
_limits = st.sampled_from([1, 2, 3, 5, 50, 400])
_tolerances = st.sampled_from([(QUAD_EPSABS, QUAD_EPSREL), (1.49e-8, 1.49e-8),
                               (0.0, 1e-13), (1e-4, 1e-3)])


@st.composite
def _model_integrals(draw):
    """``(g, a, b, options)``: an integrand of one kind, bounds, break
    points (duplicated, outside or none) and tolerances."""
    kind = draw(st.sampled_from(["singular", "sqrt-log", "oscillating",
                                 "slow-tail", "full-line", "nan", "inf"]))
    a, b = draw(_finite), draw(_finite)
    points = None
    if kind == "singular":
        c = draw(_finite)
        g = _singular(c, draw(st.floats(-0.9, 0.5)))
        points = draw(st.lists(st.sampled_from([c, a, b, 5.0, -5.0, c]) | _finite,
                               max_size=5))
    elif kind == "sqrt-log":
        g, a, b = _sqrt_log, 0.0, draw(st.floats(0.1, 3.0))
    elif kind == "oscillating":
        g = _oscillating(draw(st.floats(1.0, 1e3)))
    elif kind == "slow-tail":
        g = _slow_tail(draw(st.floats(0.01, 1.0)))
        a, b = draw(st.sampled_from([(a, math.inf), (-math.inf, b)]))
    elif kind == "full-line":
        g = _full_line(draw(_finite), draw(st.floats(1e-3, 1.0)))
        a, b = draw(st.sampled_from([(-math.inf, math.inf),
                                     (math.inf, -math.inf)]))
    else:
        value = math.nan if kind == "nan" else draw(
            st.sampled_from([math.inf, -math.inf]))
        g = _spoilt(draw(_finite), draw(st.floats(1e-3, 0.3)), value)
        if draw(st.booleans()):
            points = draw(st.lists(_finite, max_size=3))
    epsabs, epsrel = draw(_tolerances)
    options = dict(epsabs=epsabs, epsrel=epsrel, limit=draw(_limits))
    if points is not None and math.isfinite(a) and math.isfinite(b):
        options["points"] = points
    return g, a, b, options


@given(_model_integrals())
def test_model_integrands_match_scipy(integral):
    g, a, b, options = integral
    assert_same_as_scipy(g, a, b, **options)


@pytest.mark.parametrize("limit, message", [
    (400, []),
    (3, ["The maximum number of subdivisions (3) has been achieved."]),
])
def test_extrapolation_and_exhausted_subdivisions(limit, message):
    # sqrt(x) log(x) needs the epsilon algorithm; three subintervals are
    # not enough.
    _, _, warned = assert_same_as_scipy(_sqrt_log, 0.0, 1.0, epsabs=0.0,
                                        epsrel=1e-12, limit=limit)
    assert [w.split("\n")[0] for w in warned] == message


@pytest.mark.parametrize("g, a, b, options, expected", [
    (_oscillating(300.0), -3.0, 3.0, {"limit": 5}, "maximum number"),
    (_spoilt(0.5, 0.2, math.nan), 0.0, 1.0, {}, "roundoff error is detected,"),
    (_singular(0.5, -1.0), 0.0, 1.0, {"points": [0.5]}, "Extremely bad"),
    (_singular(0.0, -0.99), 0.0, 1.0, {"epsabs": 0.0, "epsrel": 2e-14},
     "extrapolation table"),
    (lambda x: math.sin(x) / x, 0.0, math.inf, {}, "divergent"),
    (_oscillating(300.0), -3.0, 3.0, {"points": [0.0], "limit": 5},
     "maximum number"),
    (_spoilt(0.5, 0.2, math.nan), 0.0, 1.0, {"points": [0.25]},
     "roundoff error is detected,"),
    (_singular(0.3, -0.99), 0.0, 1.0,
     {"points": [0.3], "epsabs": 0.0, "epsrel": 2e-14}, "extrapolation table"),
], ids=["1-limit", "2-roundoff", "3-bad-point", "4-extrapolation",
        "5-divergent", "1-limit-points", "2-roundoff-points",
        "4-extrapolation-points"])
def test_each_error_code_issues_scipys_warning(g, a, b, options, expected):
    options = dict(dict(epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=400),
                   **options)
    _, _, warned = assert_same_as_scipy(g, a, b, **options)
    assert len(warned) == 1 and expected in warned[0]


@given(a=_finite | st.sampled_from([math.inf, -math.inf]), g=st.sampled_from(
    [_sqrt_log, _full_line(0.3, 0.1)]))
def test_equal_bounds_give_zero_without_a_call(a, g):
    calls = []
    assert _quadpack.quad(calls.append, a, a, epsabs=1e-12, epsrel=1e-10,
                          limit=50) == (0.0, 0.0) == scipy_quad(g, a, a)
    assert not calls


@given(a=_finite, b=_finite, points=st.lists(_finite, max_size=4))
def test_reversed_bounds_negate_the_integral(a, b, points):
    assume(a != b)
    g = _full_line(0.1, 0.05)
    forward = assert_same_as_scipy(g, a, b, epsabs=1e-12, epsrel=1e-10,
                                   limit=50, points=points)
    backward = assert_same_as_scipy(g, b, a, epsabs=1e-12, epsrel=1e-10,
                                    limit=50, points=points)
    assert backward[0] == forward[0] ^ 1 << 63     # the sign bit


@pytest.mark.parametrize("a, b, options", [
    (0.0, math.inf, {"points": [1.0]}),
    (0.0, 1.0, {"epsabs": 0.0, "epsrel": 1e-20}),
    (0.0, 1.0, {"limit": 0}),
    (0.0, 1.0, {"points": [0.2, 0.4, 0.6], "limit": 2}),
    (0.0, 1.0, {"points": [0.2, 0.4, 5.0], "limit": 2}),
    (0.0, 1.0, {"points": [0.2, 0.2, 0.2, 0.6], "limit": 2}),
], ids=["infinite-with-points", "tolerance", "limit", "too-many-points",
        "points-outside", "duplicates"])
def test_refused_arguments_raise_scipys_error(a, b, options):
    options = dict(dict(epsabs=1e-12, epsrel=1e-10, limit=50), **options)
    outcome = assert_same_as_scipy(math.exp, a, b, **options)
    assert outcome[0] == "ValueError"


def test_array_kernels_and_starting_nodes():
    # The port calls an array kernel once per rule application: once on
    # the nodes of every starting interval, then on both halves of each
    # bisected interval.  Elementwise IEEE arithmetic has the same bits on
    # an array as on one float.
    calls = []

    def kernel(x):
        calls.append(x.copy())
        return 1.0 / (1e-4 + (x - 0.3) * (x - 0.3))

    def peak(x):
        return 1.0 / (1e-4 + (x - 0.3) * (x - 0.3))

    options = dict(epsabs=0.0, epsrel=1e-12, limit=400)
    value = assert_same_as_scipy(peak, -2.0, 2.0, vectorized=kernel,
                                 points=[0.3, 0.3, 9.0], **options)
    assert calls[0].size == 2 * 21
    assert len(calls) > 5 and all(x.size == 42 for x in calls[1:])
    assert value[2] == []
    # A half or the whole line starts from one interval of t, with the
    # nodes of dqk15i, mirrored on the whole line.
    for a, b, size in ((0.0, math.inf, 15), (-math.inf, 1.0, 15),
                       (-math.inf, math.inf, 30)):
        calls.clear()
        assert_same_as_scipy(peak, a, b, vectorized=kernel, **options)
        assert calls[0].size == size


# ---------------------------------------------------------------------------
# The rules on arrays, and integrals run together by ``_lockstep``.

# Values the rules meet: any float, with nan, infinities, signed zeros and
# magnitudes whose error ratio makes ``r ** 1.5`` overflow.
_rule_values = (st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                                   1e-300, 1e300, -1e300, 5e-324]))
# Counts of intervals on both sides of the array threshold.
_interval_counts = st.integers(1, 2 * _quadpack._ARRAY_MIN)
_bound = st.floats(-1e6, 1e6)


def _rule_bits(estimates):
    """The bits of ``(result, abserr, resabs, resasc)`` per interval, every
    nan as the one nan: the payloads hypothesis gives its nans need not
    propagate alike, and no integrand makes them."""
    return [tuple(_bits(np.where(np.isnan(e), math.nan, e)))
            for e in estimates]


def _rule_inputs(data, n, width):
    """``n`` rows of ``width`` values, drawn from a small pool so that
    special values recur."""
    pool = data.draw(st.lists(_rule_values, min_size=1, max_size=40))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    picks = np.random.default_rng(seed).integers(len(pool), size=n * width)
    return np.array(pool)[picks].tolist()


@given(data=st.data(), n=_interval_counts)
def test_array_dqk21_has_the_bits_of_the_python_rule(data, n):
    intervals = [tuple(sorted(data.draw(st.tuples(_bound, _bound))))
                 for _ in range(n)]
    fv = _rule_inputs(data, n, 21)
    a, b = np.array(intervals).T
    with np.errstate(all="ignore"):
        nodes = _quadpack._nodes21_array(a, b)
        arrays = _quadpack._qk21_array(np.array(fv).reshape(n, 21), a, b)
    assert _bits(nodes.ravel()) == _bits(_quadpack._nodes21(intervals))
    assert _rule_bits(zip(*arrays)) \
        == _rule_bits(_quadpack._qk21(fv, intervals))


@given(data=st.data(), n=_interval_counts, inf=st.sampled_from([1, -1, 2]),
       boun=st.floats(-1e3, 1e3))
def test_array_dqk15i_has_the_bits_of_the_python_rule(data, n, inf, boun):
    # Intervals of t in (0, 1], as dqagie bisects them.
    t = st.floats(0.0, 1.0, exclude_min=True)
    intervals = [tuple(sorted(data.draw(st.tuples(t, t)))) for _ in range(n)]
    boun = 0.0 if inf == 2 else boun
    width = 30 if inf == 2 else 15
    fv = _rule_inputs(data, n, width)
    a, b = np.array(intervals).T
    with np.errstate(all="ignore"):
        nodes = _quadpack._nodes15i_array(np.full(n, boun),
                                          np.full(n, float(min(1, inf))),
                                          inf == 2, a, b)
        arrays = _quadpack._qk15i_array(np.array(fv).reshape(n, width),
                                        inf == 2, a, b)
    assert _bits(nodes.ravel()) == _bits(_quadpack._nodes15i(boun, inf,
                                                             intervals))
    assert _rule_bits(zip(*arrays)) \
        == _rule_bits(_quadpack._qk15i(inf, fv, intervals))


def _on_array(g):
    return lambda x: np.array([g(v) for v in x.tolist()], dtype=float)


def _lockstep_outcomes(integrals, copies, shared):
    """Each of ``integrals`` as ``_outcome`` gives it, run ``copies``
    times over by ``_lockstep``: as rows of one job if ``shared``, else
    one job each."""
    refused = {}
    runs = []
    for k, (g, a, b, options) in enumerate(integrals):
        try:
            deferred = [_quadpack.quad(g, a, b, defer=True, **options)
                        for _ in range(copies)]
        except ValueError as exc:
            refused[k] = ("ValueError", str(exc))
            continue
        runs.append((k, g, deferred))
    if shared:
        rows = [_on_array(g) for _, g, _ in runs]
        jobs = [(lambda x: [row(x) for row in rows],
                 [(i, it) for i, (_, _, deferred) in enumerate(runs)
                  for it in deferred])]
    else:
        jobs = [(lambda x, g=g: [_on_array(g)(x)], [(0, it)])
                for _, g, deferred in runs for it in deferred]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = [r for job in _quadpack._lockstep(jobs) for r in job]
    assert all(w.category is IntegrationWarning for w in caught)
    texts = [str(w.message) for w in caught]
    outcomes = {}
    ordered = [k for k, _, deferred in runs for _ in deferred]
    for k, (value, error) in zip(ordered, results):
        outcomes.setdefault(k, []).append((_bits(value), _bits(error)))
    return refused, outcomes, texts


@given(integrals=st.lists(_model_integrals(), min_size=1, max_size=5),
       copies=st.sampled_from([1, 3, 9]), shared=st.booleans())
def test_lockstep_gives_each_integral_the_bits_of_its_own_quad(
        integrals, copies, shared):
    # Integrals that finish in different rounds, with or without a
    # warning, alone and as copies enough to apply the rules on arrays.
    refused, outcomes, texts = _lockstep_outcomes(integrals, copies, shared)
    alone = [_outcome(_quadpack.quad, _on_array(g), a, b, options)
             for g, a, b, options in integrals]
    expected_texts = []
    for k, outcome in enumerate(alone):
        if outcome[0] == "ValueError":
            assert refused[k] == outcome
            continue
        value, error, warned = outcome
        assert outcomes[k] == [(value, error)] * copies
        expected_texts += warned * copies
    if shared:
        # One job issues its warnings in the order of its integrals.
        assert texts == expected_texts
    else:
        assert sorted(texts) == sorted(expected_texts)


def test_lockstep_issues_each_error_code_as_its_own_quad():
    # Every error code QUADPACK returns, from integrals finishing in
    # different rounds, in one job on arrays of intervals.
    cases = [
        (_oscillating(300.0), -3.0, 3.0, {"limit": 5}),
        (_spoilt(0.5, 0.2, math.nan), 0.0, 1.0, {}),
        (_singular(0.5, -1.0), 0.0, 1.0, {"points": [0.5]}),
        (_singular(0.0, -0.99), 0.0, 1.0, {"epsabs": 0.0, "epsrel": 2e-14}),
        (lambda x: math.sin(x) / x if x else 1.0, 0.0, math.inf, {}),
        (_sqrt_log, 0.0, 1.0, {"epsabs": 0.0, "epsrel": 1e-12}),
        (_full_line(0.3, 0.1), -math.inf, math.inf, {}),
    ]
    integrals = [(g, a, b, dict(dict(epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                                     limit=400), **options))
                 for g, a, b, options in cases]
    _, outcomes, texts = _lockstep_outcomes(integrals, 3, True)
    expected = []
    for k, (g, a, b, options) in enumerate(integrals):
        value, error, warned = _outcome(_quadpack.quad, _on_array(g), a, b,
                                        options)
        assert outcomes[k] == [(value, error)] * 3
        expected += warned * 3
    assert texts == expected
    assert {text.split()[1] for text in texts} \
        == {"maximum", "occurrence", "bad", "algorithm", "integral"}
