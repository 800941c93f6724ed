"""The analysis kernels write their intermediates into arrays they allocated.

Each kernel once evaluated its formula as a chain of numpy expressions; it
now writes each step in place, with the same operands in the same order.
The old expressions are kept here as references, and every kernel must
reproduce its reference bit for bit (``tobytes``) on random finite input.
Writing in place is safe only into arrays the kernel made itself, so every
kernel also runs on inputs marked read-only and must leave them unchanged.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from syncenergy import pipeline
from syncenergy.energy import conditional_variance, teo_real
from syncenergy.metric import (
    ClassifierPolicy,
    SESeries,
    classify_sync,
    normalized_se,
    se_from_cf,
    se_numeric,
)
from syncenergy.pipeline import AnalysisResult, analyze, identity_gap
from syncenergy.pll import PllParams
from syncenergy.signals import (
    EPS_MAG,
    MIN_SAMPLES,
    ParkSeries,
    TimeGrid,
    complex_frequency,
    complex_power,
    differentiate,
    polar_decompose,
    unwrap_phase,
)
from syncenergy.simulator import SyntheticSpec, synthetic_signal

_TWO_PI = 2.0 * np.pi


# ------------------------------------------------------------- references

def _times(grid):
    return grid.t0 + grid.dt * np.arange(grid.n)


def _unwrap_phase(phase):
    d = np.diff(phase)
    k = np.floor((np.pi - d) / _TWO_PI)
    out = np.empty_like(phase)
    out[0] = phase[0]
    out[1:] = phase[0] + np.cumsum(d + _TWO_PI * k)
    return out


def _differentiate(x, grid):
    dt = grid.dt
    out = np.empty_like(x)
    out[1:-1] = (x[2:] - x[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * x[0] + 4.0 * x[1] - x[2]) / (2.0 * dt)
    out[-1] = (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * dt)
    return out


def _teo_real(x, grid):
    xd = _differentiate(x, grid)
    xdd = _differentiate(xd, grid)
    return xd * xd - x * xdd


def _conditional_variance(a, grid):
    safe = np.maximum(a, EPS_MAG)
    ad = _differentiate(a, grid)
    add = _differentiate(ad, grid)
    ratio = ad / safe
    return 0.5 * (ratio * ratio - add / safe)


def _complex_power(v, i):
    return v.d * i.d + v.q * i.q, v.q * i.d - v.d * i.q


def _complex_frequency(x):
    mag, phase, _ = polar_decompose(x)
    rho = _differentiate(np.log(np.maximum(mag, EPS_MAG)), x.grid)
    return rho, _differentiate(phase, x.grid), mag


def _se_from_cf(cf_v, cf_i, s):
    var_v = _conditional_variance(cf_v.magnitude, s.grid)
    var_i = _conditional_variance(cf_i.magnitude, s.grid)
    s_mag2 = s.d * s.d + s.q * s.q
    dw = cf_v.omega - cf_i.omega
    freq_term = dw * dw * 2.0 * s_mag2
    var_term = (var_v + var_i) * 2.0 * s_mag2
    valid = (
        (cf_v.magnitude > EPS_MAG)
        & (cf_i.magnitude > EPS_MAG)
        & (s_mag2 > (EPS_MAG**2) ** 2)
    )
    return freq_term + var_term, freq_term, var_term, s_mag2, valid


def _normalized_se(se):
    out = np.full(se.grid.n, np.nan)
    np.divide(se.psi, 2.0 * se.s_mag2, out=out, where=se.valid)
    return out


def _identity_gap(result, exclude):
    se = result.se
    times = se.grid.times()
    mask = se.valid & se.interior_mask()
    for t_lo, t_hi in exclude:
        mask &= (times < t_lo) | (times > t_hi)
    n = int(np.count_nonzero(mask))
    if n == 0:
        return math.nan, math.nan, math.nan, 0
    gap = np.abs(se.psi[mask] - result.psi_numeric[mask])
    max_abs = float(np.max(gap))
    scale = float(np.max(np.abs(result.psi_numeric[mask])))
    if scale > 0.0:
        rel = max_abs / scale
    else:
        rel = 0.0 if max_abs == 0.0 else math.inf
    return max_abs, scale, rel, n


def _synthetic_signal(spec):
    grid = spec.grid
    t = grid.times()
    v_env = np.full(grid.n, spec.v_mag)
    i_env = np.full(grid.n, spec.i_mag)
    v_ang = np.full(grid.n, spec.v_phase)
    i_ang = np.full(grid.n, spec.i_phase)

    if spec.template == "dual_frequency":
        v_ang = spec.v_phase + spec.omega1 * t
        i_ang = spec.i_phase + spec.omega2 * t
    elif spec.template == "amplitude_modulated":
        v_env = spec.v_mag * (1.0 + spec.mod_depth * np.sin(spec.mod_freq * t))
    elif spec.template == "frequency_drift":
        ramp = 0.5 * spec.drift_rate * t * t
        v_ang = spec.v_phase + ramp
        i_ang = spec.i_phase + ramp
    elif spec.template == "variance_cancelling":
        shape = 0.5 * spec.envelope_rate * t * t
        v_env = spec.v_mag * np.exp(-shape)
        i_env = spec.i_mag * np.exp(shape)
        v_ang = spec.v_phase + spec.omega1 * t
        i_ang = spec.i_phase + spec.omega1 * t

    return (v_env * np.cos(v_ang), v_env * np.sin(v_ang),
            i_env * np.cos(i_ang), i_env * np.sin(i_ang))


# ------------------------------------------------------------- strategies

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_VALUES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-8, max_value=1e4, allow_nan=False, allow_infinity=False)


@st.composite
def _grids(draw):
    return TimeGrid(
        draw(st.floats(min_value=-10.0, max_value=10.0)),
        draw(st.floats(min_value=1e-6, max_value=0.1)),
        draw(st.integers(MIN_SAMPLES, 40)),
    )


def _series(grid, elements=_VALUES):
    # magnitudes below EPS_MAG are the kernels' degenerate branch; draw some
    tiny = st.floats(min_value=-1e-6, max_value=1e-6)
    return arrays(float, grid.n, elements=st.one_of(elements, tiny))


@st.composite
def _grid_and_pairs(draw):
    grid = draw(_grids())
    v = ParkSeries(grid, draw(_series(grid)), draw(_series(grid)))
    i = ParkSeries(grid, draw(_series(grid)), draw(_series(grid)))
    return grid, v, i


# ------------------------------------------------------------ bit for bit

@settings(deadline=None, max_examples=100)
@given(grid=_grids())
def test_grid_times_match_reference(grid):
    assert _same_bits(grid.times(), _times(grid))


@settings(deadline=None, max_examples=200)
@given(phase=arrays(float, st.integers(2, 64), elements=_VALUES))
def test_unwrap_phase_matches_reference(phase):
    assert _same_bits(unwrap_phase(phase), _unwrap_phase(phase))


@settings(deadline=None, max_examples=150)
@given(data=st.data(), grid=_grids())
def test_differentiate_teo_and_variance_match_references(data, grid):
    x = data.draw(_series(grid))
    a = data.draw(_series(grid, _POSITIVE))
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bits(differentiate(x, grid), _differentiate(x, grid))
        assert _same_bits(teo_real(x, grid), _teo_real(x, grid))
        assert _same_bits(conditional_variance(a, grid), _conditional_variance(a, grid))
        assert _same_bits(conditional_variance(x, grid), _conditional_variance(x, grid))


@settings(deadline=None, max_examples=150)
@given(pairs=_grid_and_pairs())
def test_power_frequency_and_se_match_references(pairs):
    grid, v, i = pairs
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = complex_power(v, i)
        assert all(map(_same_bits, (s.d, s.q), _complex_power(v, i)))
        cf_v, cf_i = complex_frequency(v), complex_frequency(i)
        for cf, x in ((cf_v, v), (cf_i, i)):
            assert all(map(_same_bits, (cf.rho, cf.omega, cf.magnitude), _complex_frequency(x)))
        se = se_from_cf(cf_v, cf_i, s, *(conditional_variance(cf.magnitude, grid) for cf in (cf_v, cf_i)))
        fields = (se.psi, se.freq_term, se.var_term, se.s_mag2, se.valid)
        assert all(map(_same_bits, fields, _se_from_cf(cf_v, cf_i, s)))
        assert _same_bits(se_numeric(s.d, s.q, grid), _teo_real(s.d, grid) + _teo_real(s.q, grid))
        assert _same_bits(normalized_se(se), _normalized_se(se))


@st.composite
def _results(draw):
    grid = draw(_grids())
    valid = draw(arrays(bool, grid.n))
    psi, numeric = draw(_series(grid)), draw(_series(grid))
    if draw(st.booleans()):
        numeric = np.where(draw(st.booleans()), psi, 0.0)  # equal routes, or a zero scale
    se = SESeries(grid, psi, psi, np.zeros(grid.n), np.ones(grid.n), valid)
    return AnalysisResult(None, None, None, se, numeric, None)


@settings(deadline=None, max_examples=150)
@given(result=_results(), data=st.data())
def test_identity_gap_matches_reference_with_and_without_windows(result, data):
    grid = result.se.grid
    times = st.floats(min_value=grid.t0 - grid.dt, max_value=grid.t_end + grid.dt)
    windows = data.draw(st.lists(st.tuples(times, times), min_size=1, max_size=3))
    for exclude in ((), tuple(windows)):
        report = identity_gap(result, exclude)
        got = (report.max_abs_gap, report.scale, report.rel_gap, report.n_compared)
        assert all(map(_same_bits, got, _identity_gap(result, exclude)))


_TEMPLATE_FIELDS = {
    "constant_phasor": {},
    "dual_frequency": {"omega1": st.floats(-400.0, 400.0), "omega2": st.floats(-400.0, 400.0)},
    "amplitude_modulated": {"mod_depth": st.floats(0.0, 0.99), "mod_freq": st.floats(0.01, 400.0)},
    "frequency_drift": {"drift_rate": st.floats(-50.0, 50.0)},
    "variance_cancelling": {"envelope_rate": st.floats(1e-3, 10.0),
                            "omega1": st.floats(-400.0, 400.0)},
}


@settings(deadline=None, max_examples=300)
@given(
    template=st.sampled_from(sorted(_TEMPLATE_FIELDS)),
    grid=st.builds(TimeGrid, st.floats(0.0, 1.0), st.floats(1e-5, 1e-2), st.integers(MIN_SAMPLES, 300)),
    data=st.data(),
)
def test_synthetic_signal_matches_reference_on_every_template(template, grid, data):
    fields = {name: data.draw(values) for name, values in _TEMPLATE_FIELDS[template].items()}
    spec = SyntheticSpec(
        template, grid,
        v_mag=data.draw(st.floats(1e-3, 10.0)), i_mag=data.draw(st.floats(1e-3, 10.0)),
        v_phase=data.draw(st.floats(-7.0, 7.0)), i_phase=data.draw(st.floats(-7.0, 7.0)),
        **fields,
    )
    v, i = synthetic_signal(spec)
    assert all(map(_same_bits, (v.d, v.q, i.d, i.q), _synthetic_signal(spec)))


# ---------------------------------------------------- read-only inputs

def _freeze(*arrays):
    """Mark ``arrays`` read-only; return their bytes for a later check."""
    for a in arrays:
        a.flags.writeable = False
    return _bytes(*arrays)


def _bytes(*arrays):
    return [a.tobytes() for a in arrays]


def _arrays(result):
    """Every array an AnalysisResult holds."""
    se = result.se
    return (result.s.d, result.s.q, result.cf_v.rho, result.cf_v.omega, result.cf_v.magnitude,
            result.cf_i.rho, result.cf_i.omega, result.cf_i.magnitude, se.psi, se.freq_term,
            se.var_term, se.s_mag2, se.valid, result.psi_numeric, result.normalized)


def test_kernels_never_write_their_inputs(monkeypatch):
    """Every kernel runs on read-only inputs and leaves them bitwise unchanged,
    analyze forked as well as in turn under either estimator."""
    grid = TimeGrid(0.0, 1e-3, 4001)
    t = grid.times()
    env = 1.0 + 0.3 * np.sin(2.0 * t)
    v = ParkSeries(grid, env * np.cos(3.0 * t), env * np.sin(3.0 * t))
    i = ParkSeries(grid, 0.8 * np.cos(2.5 * t + 0.2), 0.8 * np.sin(2.5 * t + 0.2))
    phase = np.arctan2(v.q, v.d)
    inputs = (v.d, v.q, i.d, i.q, phase)
    before = _freeze(*inputs)

    unwrap_phase(phase)
    for x in (v.d, v.q):
        differentiate(x, grid)
        teo_real(x, grid)
        conditional_variance(x, grid)

    s = complex_power(v, i)
    cf_v, cf_i = complex_frequency(v), complex_frequency(i)
    var_v, var_i = (conditional_variance(cf.magnitude, grid) for cf in (cf_v, cf_i))
    handed = (s.d, s.q, cf_v.rho, cf_v.omega, cf_v.magnitude,
              cf_i.rho, cf_i.omega, cf_i.magnitude, var_v, var_i)
    kept = _freeze(*handed)
    se_from_cf(cf_v, cf_i, s, var_v, var_i)
    se_numeric(s.d, s.q, grid)
    assert _bytes(*handed) == kept

    for estimator, break_even in (("fd", "_FORK_MIN_FD_SAMPLES"), ("pll", "_FORK_MIN_SAMPLES")):
        for fork_min in (grid.n + 1, 0):  # in turn, then forked
            monkeypatch.setattr(pipeline, break_even, fork_min)
            result = analyze(v, i, estimator, PllParams())
            held = _arrays(result)
            kept = _freeze(*held)
            classify_sync(result.se, ClassifierPolicy(disturbance_end=0.5))
            identity_gap(result)
            identity_gap(result, ((1.0, 1.5),))
            normalized_se(result.se)
            assert _bytes(*held) == kept
    assert _bytes(*inputs) == before
